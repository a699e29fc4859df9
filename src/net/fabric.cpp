#include "net/fabric.hpp"

#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"

namespace netrs::net {

Fabric::Fabric(sim::ShardGroup& group, const FatTree& topo, FabricConfig cfg)
    : topo_(topo),
      cfg_(cfg),
      latency_{cfg.switch_link_latency, cfg.host_link_latency,
               cfg.accelerator_link_latency},
      group_(&group) {
  // A negative latency would deliver before the send (release builds used
  // to clamp it to zero silently) and would break the event lanes' time
  // order, so it is rejected whatever the shard count.
  static constexpr const char* kLinkNames[kLinkClasses] = {
      "switch", "host", "accelerator"};
  for (int c = 0; c < kLinkClasses; ++c) {
    if (latency_[c] < 0) {
      throw std::invalid_argument(
          std::string("Fabric: ") + kLinkNames[c] + " link latency " +
          std::to_string(latency_[c]) + " ns is negative");
    }
  }
  const int shards = group.shards();
  if (shards > 1) {
    // Only more than one shard runs conservative sync and sends across
    // shards, so only then are lookaheads checked and lanes built. A link
    // shorter than the lookahead window would let a packet arrive inside a
    // window a neighbor shard has already executed, silently corrupting
    // conservative sync. Fail fast at construction. Accelerator links are
    // exempt: the ownership map pins every accelerator to its switch's
    // shard, so they can never cross a shard boundary.
    const sim::Duration lookahead = group.lookahead();
    for (const int c : {kSwitchLink, kHostLink}) {
      if (latency_[c] < lookahead) {
        throw std::invalid_argument(
            std::string("Fabric: ") + kLinkNames[c] + " link latency " +
            std::to_string(latency_[c]) +
            " ns is below the conservative lookahead window of " +
            std::to_string(lookahead) +
            " ns; cross-shard packets would arrive inside already-executed "
            "windows (lower the ShardGroup lookahead or raise the latency)");
      }
    }
    lanes_ = std::vector<Lane>(std::size_t(shards) * std::size_t(shards));
  }

  sims_.reserve(std::size_t(shards));
  for (int s = 0; s < shards; ++s) sims_.push_back(&group.shard_sim(s));
  global_sim_ = &group.global_sim();
  state_ = std::make_unique<ShardState[]>(std::size_t(shards));
  for (int s = 0; s < shards; ++s) {
    ShardState& st = state_[s];
    sim::Simulator& sim = *sims_[std::size_t(s)];
    st.fabric = this;
    st.auditor = &sim.auditor();
    // One event lane and packet FIFO per distinct latency: classes sharing
    // a latency share both, so pushes onto each lane are now() plus one
    // constant and the FIFO follows the lane's order.
    for (int c = 0; c < kLinkClasses; ++c) {
      int same = 0;
      while (latency_[same] != latency_[c]) ++same;
      if (same == c) {
        LinkLane& ln = st.fifos[c];
        ln.id = sim.add_lane(deliver_local, &ln);
        ln.auditor = st.auditor;
      }
      st.link_lanes[c] = &st.fifos[same];
    }
    if (shards > 1) {
      // Sized up front: how many crossings gather between two drains
      // follows thread timing, so growth here would make the run's
      // allocation count depend on it too.
      st.cross_lane = sim.add_lane(deliver_crossing, &st, kCrossDepth);
      st.inbox.reserve(kCrossDepth);
      st.arrivals.resize(std::size_t(shards));
      for (int src = 0; src < shards; ++src) {
        if (src == s) continue;
        lane(s, src).entries.reserve(kCrossDepth);
        st.arrivals[std::size_t(src)].entries.reserve(kCrossDepth);
      }
    }
  }

  // Ownership map: pod p (ToRs, aggs, hosts) on shard p mod S; core group g
  // (its k/2 switches, and by attach_auxiliary the accelerator they share)
  // on shard g mod S. Only agg<->core links ever cross shards.
  const int half = topo_.k() / 2;
  node_shard_.resize(topo_.node_count());
  for (std::size_t n = 0; n < topo_.node_count(); ++n) {
    const NodeId id = static_cast<NodeId>(n);
    int shard;
    if (topo_.is_host(id)) {
      shard = topo_.location(topo_.host_of(id)).pod % shards;
    } else {
      const SwitchCoord c = topo_.coord(id);
      shard = c.tier == Tier::kCore ? (c.idx / half) % shards
                                    : c.pod % shards;
    }
    node_shard_[n] = shard;
  }
  nodes_.resize(topo_.node_count(), nullptr);
  group.set_drain_hook(
      [this](int shard, sim::Time safe) { drain_shard(shard, safe); });
}

void Fabric::attach(NodeId id, Node* node) {
  assert(id < nodes_.size());
  assert(nodes_[id] == nullptr && "NodeId already attached");
  assert(node != nullptr);
  nodes_[id] = node;
  // Record the owner shard on the node's affinity sentinel (audit builds).
  const int shard = shard_of(id);
  node->shard_affinity().bind(group_, shard, "node",
                              static_cast<long long>(id),
                              &sims_[std::size_t(shard)]->auditor());
}

NodeId Fabric::attach_auxiliary(Node* node, NodeId sw) {
  assert(topo_.is_switch(sw));
  assert(node != nullptr);
  const NodeId id =
      topo_.node_count() + static_cast<NodeId>(aux_nodes_.size());
  aux_nodes_.push_back(node);
  const int shard = shard_of(sw);
  aux_shard_.push_back(shard);
  aux_link_[id] = sw;
  node->shard_affinity().bind(group_, shard, "aux-node",
                              static_cast<long long>(id),
                              &sims_[std::size_t(shard)]->auditor());
  return id;
}

void Fabric::audit_simulator_for(NodeId id) {
  // Satellite fix: the old simulator_for happily returned a usable handle
  // to a foreign shard's simulator, and the misuse only surfaced later as a
  // data race on that shard's event queue. Catch it at the hand-out point,
  // naming the owning shard.
  const int owner = shard_of(id);
  const int ctx = sim::ShardGroup::current_shard();
  const bool foreign_worker =
      ctx != sim::ShardGroup::kCoordinator && ctx != owner;
  const bool coordinator_in_window =
      ctx == sim::ShardGroup::kCoordinator && group_->window_active();
  if (!foreign_worker && !coordinator_in_window) return;
  const std::string actor = ctx == sim::ShardGroup::kCoordinator
                                ? "the coordinator (shard window active)"
                                : "shard " + std::to_string(ctx);
  sims_[std::size_t(owner)]->auditor().record(
      "foreign-simulator-handle",
      "simulator_for(node " + std::to_string(id) + ") requested by " + actor +
          " but the node lives on shard " + std::to_string(owner) +
          "; scheduling through this handle races the owning worker's "
          "event queue (cache your own shard's simulator instead)");
}

Node* Fabric::node(NodeId id) const {
  if (id < nodes_.size()) return nodes_[id];
  const std::size_t aux = id - nodes_.size();
  assert(aux < aux_nodes_.size());
  return aux_nodes_[aux];
}

Fabric::LinkClass Fabric::link_class(NodeId a, NodeId b) const {
  const bool a_aux = a >= topo_.node_count();
  const bool b_aux = b >= topo_.node_count();
  if (a_aux || b_aux) return kAcceleratorLink;
  if (topo_.is_host(a) || topo_.is_host(b)) return kHostLink;
  return kSwitchLink;
}

bool Fabric::valid_link(NodeId from, NodeId to) const {
  auto it = aux_link_.find(to);
  if (it != aux_link_.end() && it->second == from) return true;
  it = aux_link_.find(from);
  if (it != aux_link_.end() && it->second == to) return true;
  return topo_.adjacent(from, to);
}

void Fabric::send_local(int shard, NodeId from, NodeId to, Packet&& pkt) {
  Node* dst = node(to);
  assert(dst != nullptr && "destination NodeId has no attached object");
  ShardState& st = state_[shard];
  sim::Simulator& sim = *sims_[std::size_t(shard)];
  ++st.packets_sent;
  st.bytes_sent += pkt.wire_size();
  const LinkClass cls = link_class(from, to);

  // The packet rides the FIFO beside the link's event lane, in the lane's
  // order, so the lane entry needs no token.
  LinkLane& ln = *st.link_lanes[cls];
  Delivery& d = ln.packets.push_back_slot();
  d.pkt = std::move(pkt);
  d.dst = dst;
  d.from = from;
  d.to = to;
  sim.auditor().on_packet_injected();
  sim.after_lane(ln.id, latency_[cls], 0);
}

void Fabric::send(NodeId from, NodeId to, Packet&& pkt) {
  // Cabling validation lives inside the assert so release builds pay
  // nothing (the old code evaluated two map lookups unconditionally).
  assert(valid_link(from, to));

  // `links_down_` is a plain bool so fault-free runs pay one predictable
  // branch here; the drop path lives out of line (drop_at_down_link) to
  // keep this hot function small.
  if (links_down_) [[unlikely]] {
    if (!link_is_up(from, to)) {
      drop_at_down_link(from);
      return;
    }
  }

  const int dst_shard = shard_of(to);
  const int src_shard = shard_of(from);
  if (src_shard == dst_shard) {
    send_local(dst_shard, from, to, std::move(pkt));
    return;
  }

  assert(node(to) != nullptr && "destination NodeId has no attached object");
  const int ctx = sim::ShardGroup::current_shard();
  assert((ctx == sim::ShardGroup::kCoordinator || ctx == src_shard) &&
         "cross-shard send from a thread that owns neither endpoint");
  ShardState& src = state_[src_shard];
  ++src.packets_sent;
  src.bytes_sent += pkt.wire_size();
  ++src.cross_sends;
  sims_[std::size_t(src_shard)]->auditor().on_packet_injected();
  // The send happens "now" on the sending context's clock: the source
  // shard's simulator inside a window, the global simulator when the
  // coordinator (a barrier-executed global event, or setup code) sends.
  sim::Simulator& clock_sim = ctx == sim::ShardGroup::kCoordinator
                                  ? *global_sim_
                                  : *sims_[std::size_t(ctx)];
  const sim::Time arrive = clock_sim.now() + link_latency(from, to);
  Lane& ln = lane(dst_shard, src_shard);
  const std::lock_guard<std::mutex> lock(ln.m);
  ln.entries.push_back(CrossEntry{arrive, from, to, std::move(pkt)});
}

void Fabric::drain_shard(int dst, sim::Time safe) {
  ShardState& st = state_[dst];
  const int shards = shard_count();
  for (int src = 0; src < shards; ++src) {
    if (src == dst) continue;
    Lane& ln = lane(dst, src);
    {
      // Swap, not copy: the vectors trade their capacity, so steady-state
      // traffic allocates nothing.
      const std::lock_guard<std::mutex> lock(ln.m);
      ln.entries.swap(st.inbox);
    }
    // Everything the last drain parked has been delivered by now.
    Arrivals& a = st.arrivals[std::size_t(src)];
    assert(a.delivered == a.head && "a parked crossing outlived its window");
    a.entries.erase(a.entries.begin(),
                    a.entries.begin() + std::ptrdiff_t(a.head));
    a.delivered = a.head = 0;
    if (a.entries.empty()) {
      a.entries.swap(st.inbox);
    } else {
      a.entries.insert(a.entries.end(), st.inbox.begin(), st.inbox.end());
      st.inbox.clear();
    }
  }
  // Park every arrival strictly below the window bound by merging the
  // per-source heads in deterministic (arrive, src_shard, FIFO) order:
  // every lane is in arrival order (see the file comment), and
  // conservative sync guarantees no later send can land below `safe`, so
  // the order is independent of thread timing. Each park takes the shard
  // queue's next seq in merge order, so same-instant local events keep
  // their place. Later arrivals wait for a future window.
  sim::Simulator& sim = *sims_[std::size_t(dst)];
  for (;;) {
    int src = -1;
    sim::Time first = safe;
    for (int s = 0; s < shards; ++s) {
      const Arrivals& a = st.arrivals[std::size_t(s)];
      if (a.head < a.entries.size() && a.entries[a.head].arrive < first) {
        first = a.entries[a.head].arrive;
        src = s;
      }
    }
    if (src < 0) break;
    Arrivals& a = st.arrivals[std::size_t(src)];
    sim.at_lane(st.cross_lane, a.entries[a.head++].arrive,
                static_cast<std::uint32_t>(src));
  }
}

void Fabric::deliver_local(void* ctx, std::uint32_t /*token*/) {
  LinkLane& ln = *static_cast<LinkLane*>(ctx);
  const Delivery& d = ln.packets[0];
  ln.auditor->on_packet_delivered();
  // Pop only after receive() returns: its by-value parameter is copied
  // from the head before the body runs, and anything the receiver sends
  // is appended behind the head (a ring growth keeps the head in front).
  d.dst->receive(d.pkt, d.from);
  ln.packets.pop_front();
}

void Fabric::deliver_crossing(void* ctx, std::uint32_t src) {
  ShardState& st = *static_cast<ShardState*>(ctx);
  // Arrivals change only at the next window's drain, so the entry stays
  // put while the receiver runs.
  Arrivals& a = st.arrivals[src];
  const CrossEntry& e = a.entries[a.delivered++];
  st.auditor->on_packet_delivered();
  st.fabric->node(e.to)->receive(e.pkt, e.from);
}

void Fabric::set_link_state(NodeId a, NodeId b, bool up) {
  assert(valid_link(a, b) && "set_link_state on a link that does not exist");
  const auto key = a < b ? std::pair(a, b) : std::pair(b, a);
  if (up) {
    down_links_.erase(key);
  } else {
    down_links_.insert(key);
  }
  links_down_ = !down_links_.empty();
}

void Fabric::drop_at_down_link(NodeId from) {
  // NIC-level drop at a downed link: the packet never enters the fabric,
  // so it is neither counted as sent nor injected — the conservation
  // identity stays exact and the loss is visible in the drop ledger. The
  // executing context owns `from`'s shard (or is the coordinator at a
  // barrier), so the ledger write is race-free.
  sims_[std::size_t(shard_of(from))]->auditor().on_packet_dropped(
      "link-down");
}

std::uint64_t Fabric::packets_sent() const {
  std::uint64_t total = 0;
  for (int s = 0; s < shard_count(); ++s) total += state_[s].packets_sent;
  return total;
}

std::uint64_t Fabric::bytes_sent() const {
  std::uint64_t total = 0;
  for (int s = 0; s < shard_count(); ++s) total += state_[s].bytes_sent;
  return total;
}

std::uint64_t Fabric::cross_sends(int s) const {
  return state_[s].cross_sends;
}

std::uint64_t Fabric::cross_pending_depth(int s) const {
  // Between windows no thread touches the lanes, and the window barrier
  // orders every send before this read, so the sizes are read unlocked.
  std::uint64_t depth = 0;
  for (const Arrivals& a : state_[s].arrivals) {
    depth += a.entries.size() - a.delivered;
  }
  if (lanes_.empty()) return depth;
  for (int src = 0; src < shard_count(); ++src) {
    depth += lanes_[std::size_t(s) * sims_.size() + std::size_t(src)]
                 .entries.size();
  }
  return depth;
}

std::size_t Fabric::in_flight(int s) const {
  std::size_t n = cross_pending_depth(s);
  for (const LinkLane& ln : state_[s].fifos) n += ln.packets.size();
  return n;
}

std::size_t Fabric::deliveries_in_flight() const {
  std::size_t total = 0;
  for (int s = 0; s < shard_count(); ++s) total += in_flight(s);
  return total;
}

void Fabric::register_metrics(obs::MetricsRegistry& reg) const {
  reg.gauge("net.packets",
            [this] { return static_cast<double>(packets_sent()); });
  reg.gauge("net.bytes", [this] { return static_cast<double>(bytes_sent()); });
  reg.gauge("net.inflight",
            [this] { return static_cast<double>(deliveries_in_flight()); });
}

sim::AuditSummary Fabric::merged_audit_summary() const {
  sim::AuditSummary out;
  for (const sim::Simulator* s : sims_) out.merge(s->auditor().summary());
  if (global_sim_ != sims_.front()) {
    out.merge(global_sim_->auditor().summary());
  }
  return out;
}

void Fabric::audit_finalize(bool expect_drained) {
  if constexpr (!sim::kAuditEnabled) {
    (void)expect_drained;
    return;
  }
  for (int s = 0; s < shard_count(); ++s) {
    const ShardState& st = state_[s];
    if (!expect_drained) {
      st.auditor->on_packets_in_flight_at_end(in_flight(s));
      continue;
    }
    // Every packet still on the wire towards shard s is a leak.
    const auto leak = [&](const auto& e) {  // a Delivery or a CrossEntry
      st.auditor->record(
          "packet-leak",
          "fabric-delivery packet src=" + std::to_string(e.pkt.src) +
              " dst=" + std::to_string(e.pkt.dst) + " link " +
              std::to_string(e.from) + "->" + std::to_string(e.to) +
              " undelivered at finalize");
    };
    for (const LinkLane& ln : st.fifos) {
      for (std::size_t i = 0; i < ln.packets.size(); ++i) leak(ln.packets[i]);
    }
    for (int src = 0; src < shard_count(); ++src) {
      if (src == s) continue;
      for (const CrossEntry& e : lane(s, src).entries) leak(e);
      const Arrivals& a = st.arrivals[std::size_t(src)];
      for (std::size_t i = a.delivered; i < a.entries.size(); ++i) {
        leak(a.entries[i]);
      }
    }
  }
  // Conservation identity over the merged per-shard counters: they must
  // balance regardless of drain state — a mismatch means a delivery fired
  // without a send (duplication) or vice versa (loss), including packets
  // lost crossing shards.
  const sim::AuditSummary merged = merged_audit_summary();
  const std::uint64_t sent = packets_sent();
  global_sim_->auditor().check(
      sent == merged.packets_delivered + deliveries_in_flight(),
      "conservation-identity", [&] {
        return "fabric sent " + std::to_string(sent) +
               " packets but delivered " +
               std::to_string(merged.packets_delivered) + " with " +
               std::to_string(deliveries_in_flight()) + " in flight";
      });
}

std::uint64_t Fabric::flow_hash(const Packet& pkt) {
  // splitmix-style mix over the 5-tuple surrogate.
  std::uint64_t x = (static_cast<std::uint64_t>(pkt.src) << 32) ^ pkt.dst;
  x ^= (static_cast<std::uint64_t>(pkt.src_port) << 16) ^ pkt.dst_port;
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace netrs::net
