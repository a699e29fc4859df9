#include "net/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"

namespace netrs::net {

Fabric::Fabric(sim::ShardGroup& group, const FatTree& topo, FabricConfig cfg)
    : topo_(topo), cfg_(cfg), group_(&group) {
  const int shards = group.shards();
  if (shards > 1) {
    // Only more than one shard runs conservative sync and sends across
    // shards, so only then are link latencies checked and lanes built.
    // A link shorter than the lookahead window would let a packet arrive
    // inside a window a neighbor shard has already executed, silently
    // corrupting conservative sync. Fail fast at construction. Accelerator
    // links are exempt: the ownership map pins every accelerator to its
    // switch's shard, so they can never cross a shard boundary.
    const sim::Duration lookahead = group.lookahead();
    if (lookahead <= 0) {
      throw std::invalid_argument(
          "Fabric: sharded mode needs a positive lookahead window, got " +
          std::to_string(lookahead) + " ns");
    }
    if (cfg_.switch_link_latency < lookahead) {
      throw std::invalid_argument(
          "Fabric: switch link latency " +
          std::to_string(cfg_.switch_link_latency) +
          " ns is below the conservative lookahead window of " +
          std::to_string(lookahead) +
          " ns; cross-shard packets would arrive inside already-executed "
          "windows (lower the ShardGroup lookahead or raise the latency)");
    }
    if (cfg_.host_link_latency < lookahead) {
      throw std::invalid_argument(
          "Fabric: host link latency " +
          std::to_string(cfg_.host_link_latency) +
          " ns is below the conservative lookahead window of " +
          std::to_string(lookahead) +
          " ns; cross-shard packets would arrive inside already-executed "
          "windows (lower the ShardGroup lookahead or raise the latency)");
    }
    lanes_ = std::vector<Lane>(std::size_t(shards) * std::size_t(shards));
  }

  sims_.reserve(std::size_t(shards));
  for (int s = 0; s < shards; ++s) sims_.push_back(&group.shard_sim(s));
  global_sim_ = &group.global_sim();
  state_ = std::make_unique<ShardState[]>(std::size_t(shards));
  for (int s = 0; s < shards; ++s) {
    state_[s].ledger.set_name("fabric-delivery");
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

Fabric::~Fabric() {
  for (Lane& ln : lanes_) {
    for (LaneNode* list :
         {ln.head.load(std::memory_order_relaxed),
          ln.free_head.load(std::memory_order_relaxed), ln.producer_cache}) {
      while (list != nullptr) {
        LaneNode* next = list->next;
        delete list;
        list = next;
      }
    }
  }
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

sim::Duration Fabric::link_latency(NodeId a, NodeId b) const {
  const bool a_aux = a >= topo_.node_count();
  const bool b_aux = b >= topo_.node_count();
  if (a_aux || b_aux) return cfg_.accelerator_link_latency;
  if (topo_.is_host(a) || topo_.is_host(b)) return cfg_.host_link_latency;
  return cfg_.switch_link_latency;
}

bool Fabric::valid_link(NodeId from, NodeId to) const {
  auto it = aux_link_.find(to);
  if (it != aux_link_.end() && it->second == from) return true;
  it = aux_link_.find(from);
  if (it != aux_link_.end() && it->second == to) return true;
  return topo_.adjacent(from, to);
}

std::uint32_t Fabric::acquire_slot(ShardState& st) {
  if (!st.free_deliveries.empty()) {
    const std::uint32_t slot = st.free_deliveries.back();
    st.free_deliveries.pop_back();
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(st.deliveries.size());
  st.deliveries.emplace_back();
  return slot;
}

void Fabric::send_local(int shard, NodeId from, NodeId to, Packet pkt) {
  Node* dst = node(to);
  assert(dst != nullptr && "destination NodeId has no attached object");
  ShardState& st = state_[shard];
  sim::Simulator& sim = *sims_[std::size_t(shard)];
  ++st.packets_sent;
  st.bytes_sent += pkt.wire_size();
  const sim::Duration lat = link_latency(from, to);

  // Park the packet in the pool; the event captures {this, shard, slot}
  // only, so it stays within the Task's inline buffer. The pool grows to
  // the high-water mark of concurrently in-flight packets and is reused.
  const std::uint32_t slot = acquire_slot(st);
  Delivery& d = st.deliveries[slot];
  d.pkt = std::move(pkt);
  d.dst = dst;
  d.from = from;
  sim.auditor().on_packet_injected();
  st.ledger.on_park(sim.auditor(), slot, [&] {
    return "packet src=" + std::to_string(d.pkt.src) +
           " dst=" + std::to_string(d.pkt.dst) + " link " +
           std::to_string(from) + "->" + std::to_string(to) +
           " sent at t=" + std::to_string(sim.now()) + " ns";
  });
  sim.after(lat, [this, shard, slot] { deliver(shard, slot); });
}

void Fabric::send(NodeId from, NodeId to, Packet pkt) {
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
  state_[dst_shard].cross_pending.fetch_add(1, std::memory_order_relaxed);

  if (ctx == sim::ShardGroup::kCoordinator) {
    // Every shard is parked at a barrier: park straight into the
    // destination pool, bypassing the lanes (which are single-producer).
    park_cross(dst_shard,
               CrossEntry{arrive, src_shard, 0, from, to, std::move(pkt)});
    return;
  }

  Lane& ln = lane(dst_shard, src_shard);
  // Refill the producer's node cache from the consumer's free stack;
  // allocate only at the lane's high-water mark.
  if (ln.producer_cache == nullptr) {
    ln.producer_cache = ln.free_head.exchange(nullptr, std::memory_order_acquire);
  }
  LaneNode* n;
  if (ln.producer_cache != nullptr) {
    n = ln.producer_cache;
    ln.producer_cache = n->next;
  } else {
    n = new LaneNode;
  }
  n->entry = CrossEntry{arrive, src_shard, ln.next_seq++, from, to,
                        std::move(pkt)};
  LaneNode* head = ln.head.load(std::memory_order_relaxed);
  do {
    n->next = head;
  } while (!ln.head.compare_exchange_weak(head, n, std::memory_order_release,
                                          std::memory_order_relaxed));
}

void Fabric::drain_shard(int dst, sim::Time safe) {
  ShardState& st = state_[dst];
  const int shards = shard_count();
  for (int src = 0; src < shards; ++src) {
    if (src == dst) continue;
    Lane& ln = lane(dst, src);
    LaneNode* n = ln.head.exchange(nullptr, std::memory_order_acquire);
    while (n != nullptr) {
      LaneNode* next = n->next;
      st.pending.push_back(std::move(n->entry));
      std::push_heap(st.pending.begin(), st.pending.end(), CrossLater{});
      // Recycle through the consumer-side free stack (producer steals it).
      LaneNode* free_head = ln.free_head.load(std::memory_order_relaxed);
      do {
        n->next = free_head;
      } while (!ln.free_head.compare_exchange_weak(
          free_head, n, std::memory_order_release, std::memory_order_relaxed));
      n = next;
    }
  }
  // Park every arrival strictly below the window bound, in deterministic
  // (arrive, src_shard, seq) order; conservative sync guarantees no later
  // push can land below `safe`, so the order is independent of thread
  // timing. Later arrivals wait in the heap for a future window.
  while (!st.pending.empty() && st.pending.front().arrive < safe) {
    std::pop_heap(st.pending.begin(), st.pending.end(), CrossLater{});
    CrossEntry e = std::move(st.pending.back());
    st.pending.pop_back();
    park_cross(dst, std::move(e));
  }
}

void Fabric::park_cross(int dst, CrossEntry entry) {
  ShardState& st = state_[dst];
  sim::Simulator& sim = *sims_[std::size_t(dst)];
  Node* dst_node = node(entry.to);
  const std::uint32_t slot = acquire_slot(st);
  Delivery& d = st.deliveries[slot];
  d.pkt = std::move(entry.pkt);
  d.dst = dst_node;
  d.from = entry.from;
  st.ledger.on_park(sim.auditor(), slot, [&] {
    return "packet src=" + std::to_string(d.pkt.src) +
           " dst=" + std::to_string(d.pkt.dst) + " link " +
           std::to_string(entry.from) + "->" + std::to_string(entry.to) +
           " crossing from shard " + std::to_string(entry.src_shard) +
           ", arrives t=" + std::to_string(entry.arrive) + " ns";
  });
  st.cross_pending.fetch_sub(1, std::memory_order_relaxed);
  sim.at(entry.arrive, [this, dst, slot] { deliver(dst, slot); });
}

void Fabric::deliver(int shard, std::uint32_t slot) {
  ShardState& st = state_[shard];
  sim::Simulator& sim = *sims_[std::size_t(shard)];
  Delivery& d = st.deliveries[slot];
  Packet pkt = std::move(d.pkt);
  Node* const dst = d.dst;
  const NodeId from = d.from;
  sim.auditor().on_packet_delivered();
  st.ledger.on_release(sim.auditor(), slot);
  // Recycle before receive(): anything the receiver sends can reuse the
  // slot immediately, keeping the pool at its high-water mark.
  st.free_deliveries.push_back(slot);
  dst->receive(std::move(pkt), from);
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
  return state_[s].cross_pending.load(std::memory_order_relaxed);
}

std::size_t Fabric::deliveries_in_flight() const {
  std::size_t total = 0;
  for (int s = 0; s < shard_count(); ++s) {
    const ShardState& st = state_[s];
    total += st.deliveries.size() - st.free_deliveries.size();
    total += st.cross_pending.load(std::memory_order_relaxed);
  }
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
    ShardState& st = state_[s];
    if (expect_drained) {
      st.ledger.finalize(sims_[std::size_t(s)]->auditor());
    } else {
      sims_[std::size_t(s)]->auditor().on_packets_in_flight_at_end(
          st.ledger.parked_count() +
          st.cross_pending.load(std::memory_order_relaxed));
    }
  }
  // Conservation identity over the merged per-shard ledgers: the counters
  // must balance regardless of drain state — a mismatch means a delivery
  // fired without a send (duplication) or vice versa (loss the slot
  // ledgers missed), including packets lost crossing shards.
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
