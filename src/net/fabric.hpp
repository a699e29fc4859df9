// Fabric: binds NodeIds to live Node objects and delivers packets over
// links with fixed one-way latency, via the discrete-event simulator.
//
// Latency model (paper §V-A): 30 us between directly connected switches;
// host<->ToR links use the same latency (the paper does not specify one);
// a switch and its attached network accelerator see a 2.5 us RTT, i.e.
// 1.25 us one-way. No bandwidth contention is modeled (neither does the
// paper); queueing happens at servers and accelerators.
//
// Sharding (DESIGN.md §4.10): the fabric is always built over a
// sim::ShardGroup — a serial run is simply ShardGroup(1), whose single
// shard is also the global simulator. It partitions the tree by pod — pod
// p (its ToRs, aggs, and hosts) lives on shard p mod S, core group g (its
// k/2 switches plus the shared accelerator cabled to them) on shard
// g mod S — so the only links that cross shards are the 30 us agg<->core
// links, which bound the group's conservative lookahead. send() parks
// intra-shard packets in the sending shard's delivery pool and pushes
// cross-shard packets onto a lock-free per-(dst,src) lane stamped with
// arrival time; each shard drains its lanes at the start of every
// conservative window, scheduling arrivals in deterministic
// (arrive, src-shard, seq) order. With one shard every send is
// intra-shard.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/fat_tree.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/affinity.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"

namespace netrs::obs {
/// Forward declaration (obs/metrics.hpp); net does not depend on obs
/// headers except in fabric.cpp's register_metrics implementation.
class MetricsRegistry;
}  // namespace netrs::obs

namespace netrs::net {

/// Link-latency parameters (defaults follow the paper, see file comment).
struct NETRS_SHARED_IMMUTABLE FabricConfig {
  /// One-way latency between directly connected switches.
  sim::Duration switch_link_latency = sim::micros(30);
  /// One-way latency of a host's access link.
  sim::Duration host_link_latency = sim::micros(30);
  /// One-way switch<->accelerator latency (2.5 us RTT in the paper).
  sim::Duration accelerator_link_latency = sim::micros(1.25);
};

/// Binds NodeIds to live Node objects and delivers packets over
/// fixed-latency links through the simulator (see the file comment).
class NETRS_COORD_GLOBAL Fabric {
 public:
  /// Builds the fabric over `topo` partitioned across `group`'s shards by
  /// pod / core group (see the file comment) and installs the group's
  /// inbox drain hook; `sim::ShardGroup group{1}` gives a serial fabric.
  /// With more than one shard, throws std::invalid_argument when a
  /// switch/host link latency is below the group's lookahead window (a
  /// short link would let a packet arrive inside an already-executed
  /// window and silently break conservative sync); one shard runs no
  /// conservative sync, so any latency is accepted there. `group` and
  /// `topo` must outlive the fabric; one fabric per group.
  Fabric(sim::ShardGroup& group, const FatTree& topo, FabricConfig cfg);

  ~Fabric();

  /// Registers the live object for a topology NodeId. Must precede traffic.
  void attach(NodeId id, Node* node);

  /// Allocates a NodeId outside the tree for an auxiliary device (network
  /// accelerator) cabled to switch `sw`, and registers it. The device
  /// inherits `sw`'s shard, keeping the short accelerator link intra-shard.
  NodeId attach_auxiliary(Node* node, NodeId sw);

  /// Sends `pkt` from `from` to the adjacent node `to`; delivery fires after
  /// the link's one-way latency. Asserts topological adjacency (debug
  /// builds only; release builds skip the check entirely).
  ///
  /// Allocation-free in steady state: the packet is parked in a free-list
  /// delivery pool and the scheduled event captures only {fabric, slot}.
  /// In sharded mode a cross-shard send instead pushes onto the
  /// destination shard's lock-free lane (nodes pooled per lane).
  void send(NodeId from, NodeId to, Packet pkt);

  /// The global simulation clock/scheduler: the ShardGroup's
  /// barrier-executed global simulator (the only simulator with one
  /// shard). Per-node scheduling must use simulator_for().
  [[nodiscard]] sim::Simulator& simulator() { return *global_sim_; }
  /// The simulator owning `id`'s shard: components cache this and schedule
  /// all their local work on it. Audit builds record a
  /// `foreign-simulator-handle` violation (with the owning shard id) when a
  /// worker asks for another shard's simulator, or the coordinator asks for
  /// any shard simulator while a shard window is running — the returned
  /// handle would let the caller push events onto a queue another thread is
  /// draining. Plain builds compile to the bare lookup.
  [[nodiscard]] sim::Simulator& simulator_for(NodeId id) {
    if constexpr (sim::kAuditEnabled) audit_simulator_for(id);
    return *sims_[std::size_t(shard_of(id))];
  }
  /// Shard index owning NodeId `id` (always 0 with one shard).
  [[nodiscard]] int shard_of(NodeId id) const {
    return id < node_shard_.size()
               ? node_shard_[id]
               : aux_shard_[id - node_shard_.size()];
  }
  /// Number of shards the fabric spans.
  [[nodiscard]] int shard_count() const { return static_cast<int>(sims_.size()); }
  /// The static topology.
  [[nodiscard]] const FatTree& topology() const { return topo_; }
  /// The link-latency parameters.
  [[nodiscard]] const FabricConfig& config() const { return cfg_; }

  /// Total packets handed to `send`, summed over shards in shard order
  /// (diagnostic; call only between ShardGroup windows).
  [[nodiscard]] std::uint64_t packets_sent() const;
  /// Total wire bytes carried across all links (bandwidth accounting —
  /// NetRS is required to "limit its bandwidth overheads", §II).
  [[nodiscard]] std::uint64_t bytes_sent() const;
  /// Packets shard `s` sent across a shard boundary (lane or barrier
  /// park). Engine self-telemetry; call only between ShardGroup windows.
  [[nodiscard]] std::uint64_t cross_sends(int s) const;
  /// Cross-shard packets bound for shard `s` not yet scheduled there (in
  /// a lane or the pending heap). Engine self-telemetry; call only
  /// between ShardGroup windows.
  [[nodiscard]] std::uint64_t cross_pending_depth(int s) const;

  /// Fault hook — reached only through sim::FaultInjector at global-sim
  /// barriers (fault-hook-discipline lint rule), so the mutation is
  /// ordered-before every worker's next window. Marks the undirected link
  /// (a, b) down or up: new sends over a down link are dropped at the
  /// sender's NIC (`link-down` in the audit drop ledger, before the
  /// packet is counted as sent, keeping the conservation identity exact);
  /// packets already on the wire still deliver.
  void set_link_state(NodeId a, NodeId b, bool up);
  /// True unless (a, b) is currently marked down by set_link_state().
  [[nodiscard]] bool link_is_up(NodeId a, NodeId b) const {
    return !links_down_ ||
           down_links_.count(a < b ? std::pair(a, b) : std::pair(b, a)) == 0;
  }

  /// Stable per-flow hash used for ECMP decisions.
  static std::uint64_t flow_hash(const Packet& pkt);

  /// Packets on the wire: parked delivery slots plus cross-shard packets
  /// still in lanes or pending heaps (diagnostic; call between windows).
  [[nodiscard]] std::size_t deliveries_in_flight() const;

  /// Registers the fabric's wire-level gauges (`net.packets`, `net.bytes`,
  /// `net.inflight`) with a metrics registry; sampled on the simulated-time
  /// ticker. Pure reads of the const getters above.
  void register_metrics(obs::MetricsRegistry& reg) const;

  /// Closes the packet-conservation ledger (checked builds; no-op
  /// otherwise). With `expect_drained`, every delivery slot still parked is
  /// reported as a packet leak with its send provenance; without it (a run
  /// cut off at a simulated-time wall with traffic legitimately on the
  /// wire) the in-flight count is recorded in the audit summary instead.
  /// The per-shard ledgers are closed in shard order and the conservation
  /// identity is checked over the merged counters.
  void audit_finalize(bool expect_drained = true);

  /// Merged audit counters across every shard auditor plus the global one
  /// (shard order; empty-default in plain builds). With one shard this is
  /// the single simulator's summary.
  [[nodiscard]] sim::AuditSummary merged_audit_summary() const;

 private:
  /// One in-flight link crossing. Pooled: slots are recycled through
  /// the per-shard free list, so steady-state traffic allocates nothing.
  struct Delivery {
    Packet pkt;
    Node* dst = nullptr;
    NodeId from = kInvalidNode;
  };

  /// A cross-shard packet after lane drain, ordered in the destination
  /// shard's pending min-heap by (arrive, src_shard, seq).
  struct CrossEntry {
    sim::Time arrive = 0;
    int src_shard = 0;
    std::uint64_t seq = 0;
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    Packet pkt;
  };

  /// Min-heap comparator over CrossEntry: "a arrives later than b" in the
  /// deterministic (arrive, src_shard, seq) drain order.
  struct CrossLater {
    bool operator()(const CrossEntry& a, const CrossEntry& b) const {
      if (a.arrive != b.arrive) return a.arrive > b.arrive;
      if (a.src_shard != b.src_shard) return a.src_shard > b.src_shard;
      return a.seq > b.seq;
    }
  };

  /// Intrusive node of a lane's lock-free stack; pooled per lane.
  struct LaneNode {
    LaneNode* next = nullptr;
    CrossEntry entry;
  };

  /// Single-producer (src shard) / single-consumer (dst shard) lock-free
  /// channel. `head` is a Treiber stack the producer pushes with CAS and
  /// the consumer steals wholesale with exchange (no ABA: only whole-list
  /// steals). Freed nodes flow back through `free_head` (consumer CAS-push,
  /// producer exchange-steal into its private cache).
  struct Lane {
    std::atomic<LaneNode*> head{nullptr};
    std::atomic<LaneNode*> free_head{nullptr};
    LaneNode* producer_cache = nullptr;  // producer-only
    std::uint64_t next_seq = 0;          // producer-only, monotone per lane
  };

  /// Everything one shard owns; cache-line isolated. Only the owning shard
  /// thread (or the coordinator at a barrier) touches the non-atomic
  /// fields.
  struct alignas(64) ShardState {
    std::vector<Delivery> deliveries;            // packet pool
    std::vector<std::uint32_t> free_deliveries;  // free slot indices
    std::uint64_t packets_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t cross_sends = 0;  // sends leaving this shard's partition
    sim::SlotLedger ledger;           // conservation audit (checked builds)
    std::vector<CrossEntry> pending;  // drained, not yet schedulable
    /// Cross-shard packets bound here that are not yet parked in the
    /// delivery pool (in a lane or in `pending`).
    std::atomic<std::uint64_t> cross_pending{0};
  };

  /// Audit-build half of simulator_for (see its doc comment): records the
  /// foreign-handle violation with owner/actor provenance. Out of line so
  /// the hot inline path stays a single vector index in plain builds.
  void audit_simulator_for(NodeId id);
  [[nodiscard]] sim::Duration link_latency(NodeId a, NodeId b) const;
  [[nodiscard]] Node* node(NodeId id) const;
  /// Cabling check behind assert(): tree adjacency or an auxiliary link in
  /// either direction. Single map lookup per direction.
  [[nodiscard]] bool valid_link(NodeId from, NodeId to) const;
  /// The intra-shard path: park in `shard`'s pool and schedule delivery on
  /// its own simulator.
  void send_local(int shard, NodeId from, NodeId to, Packet pkt);
  /// Drains every lane bound for `dst` and parks all arrivals strictly
  /// below `safe` in (arrive, src_shard, seq) order; the rest wait in the
  /// pending heap. Runs on `dst`'s worker at each window start.
  void drain_shard(int dst, sim::Time safe);
  void park_cross(int dst, CrossEntry entry);
  void deliver(int shard, std::uint32_t slot);
  [[nodiscard]] std::uint32_t acquire_slot(ShardState& st);
  [[nodiscard]] Lane& lane(int dst, int src) {
    return lanes_[std::size_t(dst) * sims_.size() + std::size_t(src)];
  }

  const FatTree& topo_;
  FabricConfig cfg_;
  sim::ShardGroup* group_;
  std::vector<sim::Simulator*> sims_;    // by shard
  sim::Simulator* global_sim_ = nullptr;
  std::vector<int> node_shard_;          // topology NodeId -> shard
  std::vector<int> aux_shard_;           // auxiliary index -> shard
  std::unique_ptr<ShardState[]> state_;  // by shard
  std::vector<Lane> lanes_;  // [dst * shards + src]; empty with one shard
  std::vector<Node*> nodes_;             // topology nodes by NodeId
  std::vector<Node*> aux_nodes_;         // auxiliary devices
  std::unordered_map<NodeId, NodeId> aux_link_;  // aux id -> switch id
  // Cold path of send(): accounts a packet rejected at a down link.
  void drop_at_down_link(NodeId from);
  // Links currently down (normalized (min,max) pairs). Mutated only at
  // global-sim barriers (FaultInjector); workers read it race-free via
  // the barrier's happens-before edge. `links_down_` mirrors !empty() so
  // the per-send fast path is a single bool test; the drop path is kept
  // out of line (drop_at_down_link) so send() stays small.
  std::set<std::pair<NodeId, NodeId>> down_links_;
  bool links_down_ = false;
};

}  // namespace netrs::net
