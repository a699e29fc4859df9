#include "kv/client.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <span>
#include <utility>

#include "netrs/packet_format.hpp"
#include "obs/observer.hpp"

namespace netrs::kv {
namespace {

/// CliRS-R95 duplicates a request once it has waited longer than this
/// quantile of the client's completed-request latencies.
constexpr double kRedundancyQuantile = 0.95;

}  // namespace

Client::Client(net::Fabric& fabric, net::HostId id, ClientConfig cfg,
               const ConsistentHashRing& ring,
               const sim::ZipfDistribution& zipf, sim::Rng rng)
    : net::Host(fabric, id),
      cfg_(cfg),
      ring_(ring),
      zipf_(zipf),
      rng_(rng),
      p95_(kRedundancyQuantile) {
  if (cfg_.mode == ClientMode::kClientSelect) {
    selector_ =
        rs::make_selector(cfg_.selector, simulator(), rng_.child("selector"));
    if (cfg_.redundancy.enabled) {
      remaining_.reserve(static_cast<std::size_t>(ring_.replication_factor()));
    }
  }
}

void Client::start() {
  if (running_) return;
  running_ = true;
  schedule_next_arrival();
}

void Client::schedule_next_arrival() {
  if (!running_ || cfg_.arrival_rate <= 0.0) return;
  const double mean_gap_s = 1.0 / cfg_.arrival_rate;
  const auto gap =
      static_cast<sim::Duration>(rng_.exponential(mean_gap_s * 1e9));
  simulator().after(gap, [this] {
    if (!running_) return;
    issue_request();
    schedule_next_arrival();
  });
}

void Client::issue_request() {
  // Zipf rank used directly as the key: the ring hashes it anyway, so rank
  // popularity maps to uniformly scattered replica groups, as with real
  // hashed keys.
  const std::uint64_t key = zipf_(rng_);
  const core::ReplicaGroupId rgid = ring_.group_of_key(key);
  const auto candidates = ring_.replicas(rgid);

  const std::uint64_t req_id =
      (static_cast<std::uint64_t>(host_id()) << 32) | next_seq_++;
  Pending& p = pending_.insert(req_id);
  p.key = key;
  p.first_send = simulator().now();
  ++issued_;

  net::HostId target;
  if (cfg_.mode == ClientMode::kClientSelect) {
    target = selector_->select(candidates);
    selector_->on_send(target);
  } else {
    // NetRS: the destination is only the DRS backup; the RSNode overwrites
    // it. A uniformly random backup spreads degraded load.
    target = candidates[rng_.uniform(candidates.size())];
  }
  send_copy(p, target, rgid, /*redundant=*/false);

  if (cfg_.mode == ClientMode::kClientSelect && cfg_.redundancy.enabled &&
      p95_.count() >= cfg_.redundancy.min_samples) {
    const auto wait = static_cast<sim::Duration>(p95_.estimate() * 1000.0);
    simulator().after(wait, [this, req_id] { maybe_send_redundant(req_id); });
  }
}

void Client::send_copy(Pending& p, net::HostId target,
                       core::ReplicaGroupId rgid, bool redundant) {
  assert(p.copy_count < kMaxCopies &&
         "a request has a primary and at most one R95 duplicate");
  const std::uint64_t req_id = p.req_id;
  core::RequestHeader rh;
  rh.rid = core::kRidUnset;
  rh.mf = core::kMagicRequest;
  rh.rv = 0;
  rh.rgid = rgid;

  AppRequest ar;
  ar.client_request_id = req_id;
  ar.key = p.key;

  net::Packet pkt;
  pkt.dst = target;
  pkt.src_port = kClientPort;
  pkt.dst_port = kServerPort;
  pkt.payload = core::encode_request(rh, encode_app_request(ar));
  pkt.meta.request_id = req_id;
  pkt.meta.redundant = redundant;

  p.copies[p.copy_count++] = Copy{target, false, simulator().now()};
  if (obs::Observer* o = simulator().observer()) {
    o->instant(redundant ? "cli.send.dup" : "cli.send", "cli",
               static_cast<std::int32_t>(node_id()), simulator().now(),
               req_id, "dst", static_cast<std::uint64_t>(target));
  }
  send(std::move(pkt));
}

void Client::maybe_send_redundant(std::uint64_t req_id) {
  Pending* p = pending_.find(req_id);
  if (p == nullptr || p->completed || p->redundant_sent) return;
  const core::ReplicaGroupId rgid = ring_.group_of_key(p->key);
  const auto candidates = ring_.replicas(rgid);

  // Choose among replicas not already tried.
  const auto sent = std::span(p->copies).first(p->copy_count);
  remaining_.clear();
  for (net::HostId h : candidates) {
    const bool used = std::any_of(sent.begin(), sent.end(),
                                  [h](const Copy& c) { return c.server == h; });
    if (!used) remaining_.push_back(h);
  }
  if (remaining_.empty()) return;

  const net::HostId target = selector_->select(remaining_);
  selector_->on_send(target);
  p->redundant_sent = true;
  ++redundant_;
  send_copy(*p, target, rgid, /*redundant=*/true);
}

void Client::send_cancels(const Pending& p) {
  const std::uint64_t req_id = p.req_id;
  for (const Copy& copy : std::span(p.copies).first(p.copy_count)) {
    if (copy.answered) continue;
    const net::HostId server = copy.server;

    core::RequestHeader rh;
    rh.rid = core::kRidUnset;
    // Plain label (classified kOther): cancels bypass replica selection
    // and ride the default path straight to the targeted server.
    rh.mf = core::magic_f(core::kMagicMonitor);
    rh.rgid = ring_.group_of_key(p.key);

    AppRequest ar;
    ar.client_request_id = req_id;
    ar.key = p.key;
    ar.op = AppOp::kCancel;

    net::Packet pkt;
    pkt.dst = server;
    pkt.src_port = kClientPort;
    pkt.dst_port = kServerPort;
    pkt.payload = core::encode_request(rh, encode_app_request(ar));
    pkt.meta.request_id = req_id;
    ++cancels_;
    if (obs::Observer* o = simulator().observer()) {
      o->instant("cli.cancel", "cli", static_cast<std::int32_t>(node_id()),
                 simulator().now(), req_id, "dst",
                 static_cast<std::uint64_t>(server));
    }
    send(std::move(pkt));
  }
}

void Client::receive(net::Packet pkt, net::NodeId from) {
  (void)from;
  handle_response(pkt);
}

void Client::handle_response(net::Packet& pkt) {
  const auto resp = core::decode_response(pkt.payload);
  if (!resp.has_value() ||
      pkt.payload.size() < core::kResponseHeaderBytes) {
    return;  // stray non-KV traffic: drop
  }
  const auto app =
      decode_app_response(core::response_app_payload(pkt.payload));
  if (!app.has_value()) return;

  Pending* found = pending_.find(app->client_request_id);
  if (found == nullptr) return;  // stray / already fully settled
  Pending& p = *found;
  ++p.responses;

  const net::HostId server = pkt.src;
  // Per-copy response time for selector feedback.
  sim::Time sent_at = p.first_send;
  for (Copy& copy : std::span(p.copies).first(p.copy_count)) {
    if (copy.server == server) {
      sent_at = copy.sent_at;
      copy.answered = true;
      break;
    }
  }
  if (selector_) {
    rs::Feedback fb;
    fb.server = server;
    fb.response_time = simulator().now() - sent_at;
    fb.queue_size = resp->status.queue_size;
    fb.service_time =
        static_cast<sim::Duration>(resp->status.service_time_ns);
    selector_->on_response(fb);
  }

  if (!p.completed) {
    p.completed = true;
    ++completed_;
    if (cfg_.redundancy.cancel_on_completion &&
        p.responses < p.copy_count) {
      send_cancels(p);
    }
    const sim::Duration latency = simulator().now() - p.first_send;
    if (obs::Observer* o = simulator().observer()) {
      o->span("request", "cli", static_cast<std::int32_t>(node_id()),
              p.first_send, latency, app->client_request_id, "server",
              static_cast<std::uint64_t>(server), "fwd", pkt.meta.forwards);
      o->flight().on_complete(app->client_request_id, p.first_send, sent_at,
                              server, simulator().now(), pkt.meta);
    }
    p95_.add(sim::to_micros(latency));
    if (on_complete_) {
      Completion c;
      c.latency = latency;
      c.key = p.key;
      c.server = server;
      c.redundant_used = p.redundant_sent;
      c.forwards = pkt.meta.forwards;
      c.completed_at = simulator().now();
      on_complete_(c);
    }
  }
  if (p.responses >= p.copy_count) pending_.erase(p);
}

Client::Pending* Client::PendingTable::find(std::uint64_t req_id) {
  if (size_ == 0) return nullptr;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(req_id);; i = (i + 1) & mask) {
    if (slots_[i].req_id == req_id) return &slots_[i];
    if (slots_[i].req_id == 0) return nullptr;
  }
}

Client::Pending& Client::PendingTable::insert(std::uint64_t req_id) {
  assert(req_id != 0 && find(req_id) == nullptr);
  if (2 * (size_ + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(req_id);
  while (slots_[i].req_id != 0) i = (i + 1) & mask;
  ++size_;
  slots_[i] = Pending{};
  slots_[i].req_id = req_id;
  return slots_[i];
}

void Client::PendingTable::erase(Pending& p) {
  const std::size_t mask = slots_.size() - 1;
  auto hole = static_cast<std::size_t>(&p - slots_.data());
  // Backward shift: pull each later entry of the probe run into the hole
  // unless that would move it before its home slot.
  for (std::size_t j = (hole + 1) & mask; slots_[j].req_id != 0;
       j = (j + 1) & mask) {
    const std::size_t h = home(slots_[j].req_id);
    if (((j - h) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].req_id = 0;
  --size_;
}

std::size_t Client::PendingTable::home(std::uint64_t req_id) const {
  // Fibonacci hashing: the top bits of id * 2^64/phi spread consecutive
  // request ids evenly over the table.
  return static_cast<std::size_t>((req_id * 0x9E3779B97F4A7C15ull) >>
                                  shift_);
}

void Client::PendingTable::grow() {
  constexpr std::size_t kInitialSlots = 16;
  std::vector<Pending> old = std::move(slots_);
  slots_.assign(old.empty() ? kInitialSlots : 2 * old.size(), Pending{});
  shift_ = 64 - std::countr_zero(slots_.size());
  size_ = 0;
  for (const Pending& p : old) {
    if (p.req_id != 0) insert(p.req_id) = p;
  }
}

}  // namespace netrs::kv
