#include "netrs/selector_node.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/observer.hpp"

namespace netrs::core {
namespace {

// Slots allocated by an operator's first selection.
constexpr std::size_t kInitialSlots = 64;
// One slot per value of the 16-bit RV field.
constexpr std::size_t kMaxSlots = std::size_t{1} << 16;

}  // namespace

SelectorNode::SelectorNode(sim::Simulator& sim, const ReplicaDatabase& db,
                           std::unique_ptr<rs::ReplicaSelector> selector,
                           std::int32_t trace_tid)
    : sim_(sim), db_(db), selector_(std::move(selector)),
      trace_tid_(trace_tid) {
  assert(selector_ != nullptr);
}

void SelectorNode::reset_selector(
    std::unique_ptr<rs::ReplicaSelector> selector) {
  assert(selector != nullptr);
  selector_ = std::move(selector);
  selector_->set_decision_hook(hook_);
  pending_.assign(pending_.size(), PendingSlot{});
}

void SelectorNode::fail() { pending_.assign(pending_.size(), PendingSlot{}); }

void SelectorNode::grow_to(std::uint16_t rv) {
  std::size_t size = pending_.empty() ? kInitialSlots : pending_.size();
  while (size <= rv) size *= 2;
  pending_.resize(std::min(size, kMaxSlots));
}

std::optional<net::Packet> SelectorNode::process(net::Packet pkt) {
  const auto mf = peek_magic(pkt.payload);
  if (!mf.has_value()) return pkt;  // not ours: bounce back unchanged
  switch (classify(*mf)) {
    case PacketKind::kNetRSRequest:
      return handle_request(std::move(pkt));
    case PacketKind::kNetRSResponse:
      handle_response(pkt);
      return std::nullopt;  // clone absorbed
    default:
      return pkt;
  }
}

std::optional<net::Packet> SelectorNode::handle_request(net::Packet pkt) {
  const auto req = decode_request(pkt.payload);
  if (!req.has_value() || req->rgid >= db_.size() || db_[req->rgid].empty()) {
    // Unknown replica group: degrade — relabel so downstream devices treat
    // it as plain traffic heading to the client's backup replica.
    set_magic(pkt.payload, magic_f(kMagicMonitor));
    return pkt;
  }

  const auto& candidates = db_[req->rgid];
  const net::HostId server = selector_->select(candidates);
  selector_->on_send(server);
  ++requests_selected_;

  const std::uint16_t rv = next_rv_++;
  if (rv >= pending_.size()) grow_to(rv);
  pending_[rv] = PendingSlot{server, sim_.now()};
  if (obs::Observer* o = sim_.observer()) {
    o->instant("rs.select", "rs", trace_tid_, sim_.now(),
               pkt.meta.request_id, "server",
               static_cast<std::uint64_t>(server), "rv", rv);
  }

  pkt.dst = server;
  set_rv(pkt.payload, rv);
  // f(Mresp): distinct from Mreq and Mresp, and the server's f^-1 turns it
  // into Mresp on the way back (§IV-C).
  set_magic(pkt.payload, magic_f(kMagicResponse));
  return pkt;
}

void SelectorNode::handle_response(const net::Packet& pkt) {
  const auto resp = decode_response(pkt.payload);
  if (!resp.has_value()) return;
  ++responses_absorbed_;

  rs::Feedback fb;
  fb.server = pkt.src;
  fb.queue_size = resp->status.queue_size;
  fb.service_time = static_cast<sim::Duration>(resp->status.service_time_ns);

  PendingSlot* slot =
      resp->rv < pending_.size() ? &pending_[resp->rv] : nullptr;
  if (slot != nullptr && slot->server != net::kInvalidHost &&
      slot->server == pkt.src) {
    fb.response_time = sim_.now() - slot->sent_at;
    slot->server = net::kInvalidHost;
  } else {
    fb.has_response_time = false;
  }
  selector_->on_response(fb);
}

}  // namespace netrs::core
