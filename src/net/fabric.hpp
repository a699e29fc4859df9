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
// links, which bound the group's conservative lookahead. send() appends
// intra-shard packets to the sending shard's FIFO for the link's latency
// and cross-shard packets, stamped with arrival time, to a mutex-guarded
// per-(dst,src) lane. A sender's clock never runs back and every crossing
// link has the same latency, so each lane is in arrival order by
// construction. At the start of every conservative window each shard moves
// its lanes' entries onto one FIFO buffer per source shard and merges the
// buffer heads in deterministic (arrive, src-shard, FIFO) order while they
// arrive below the window's safe bound — no heap. Cross-shard traffic is a
// few packets per lane per window, so one uncontended lock per send costs
// nothing measurable. With one shard every send is intra-shard.
//
// Packets ride the shard simulator's FIFO event lanes (sim::EventQueue):
// the fabric creates one lane per distinct link latency on every shard
// simulator, and since every push onto a lane is now() plus that lane's
// constant, each lane is in time order by construction. Each lane has a
// packet FIFO beside it in the same order, so a hop appends the packet to
// the FIFO and a token-less entry to the lane, and the lane's handler —
// a plain function call, no Task, no arena slot, no calendar insert —
// delivers the FIFO's head. With more than one shard, one more lane per
// shard carries the cross-shard arrivals, its token naming the source
// shard whose next arrival to deliver: a window's drain parks only
// arrivals below its safe bound, in time order, and every later drain
// parks only arrivals at or above the previous bound, so that lane is in
// time order too, and in each source's arrival order.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/fat_tree.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/affinity.hpp"
#include "sim/ring.hpp"
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
  /// Throws std::invalid_argument when any link latency is negative, at
  /// any shard count. With more than one shard, also throws when a
  /// switch/host link latency is below the group's lookahead window (a
  /// short link would let a packet arrive inside an already-executed
  /// window and silently break conservative sync); one shard runs no
  /// conservative sync, so any non-negative latency is accepted there.
  /// `group` and `topo` must outlive the fabric; one fabric per group.
  Fabric(sim::ShardGroup& group, const FatTree& topo, FabricConfig cfg);

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
  /// Allocation-free in steady state: the packet is copied once, into the
  /// back of the packet FIFO beside the shard simulator's event lane for
  /// the link's latency, and delivery copies the FIFO's head into the
  /// receiver's parameter. The rings keep their capacity, so they are
  /// bounded by the peak of packets in flight. In sharded mode a
  /// cross-shard send instead appends to the (destination, source) shard
  /// lane under its mutex; the destination moves it onto its arrivals from
  /// that source and delivers it from there. Lane vectors keep their
  /// capacity, so this allocates nothing in steady state either.
  /// Coordinator-context sends (setup, global events) use the same lane.
  void send(NodeId from, NodeId to, Packet&& pkt);

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
  /// Packets shard `s` sent across a shard boundary. Engine
  /// self-telemetry; call only between ShardGroup windows.
  [[nodiscard]] std::uint64_t cross_sends(int s) const;
  /// Cross-shard packets bound for shard `s` not yet delivered there (in a
  /// lane or the per-source arrivals). Engine self-telemetry; call only
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

  /// Packets on the wire: the packet FIFOs' sizes plus the cross-shard
  /// packets not yet delivered (diagnostic; call between windows).
  [[nodiscard]] std::size_t deliveries_in_flight() const;

  /// Registers the fabric's wire-level gauges (`net.packets`, `net.bytes`,
  /// `net.inflight`) with a metrics registry; sampled on the simulated-time
  /// ticker. Pure reads of the const getters above.
  void register_metrics(obs::MetricsRegistry& reg) const;

  /// Closes the packet-conservation ledger (checked builds; no-op
  /// otherwise). With `expect_drained`, every packet still on the wire —
  /// in a packet FIFO, a cross-shard lane or a destination's undelivered
  /// arrivals — is reported as a `packet-leak` naming its source,
  /// destination and link; without it (a run cut off at a simulated-time
  /// wall with traffic legitimately on the wire) the in-flight count is
  /// recorded in the audit summary instead. Shards are walked in shard
  /// order and the conservation identity is checked over the merged
  /// counters.
  void audit_finalize(bool expect_drained = true);

  /// Merged audit counters across every shard auditor plus the global one
  /// (shard order; empty-default in plain builds). With one shard this is
  /// the single simulator's summary.
  [[nodiscard]] sim::AuditSummary merged_audit_summary() const;

 private:
  /// One in-flight intra-shard link crossing.
  struct Delivery {
    Packet pkt;
    Node* dst = nullptr;
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
  };

  /// One shard's event lane for one link latency and the packets riding
  /// it, in the lane's order: the lane's handler context, so each lane
  /// event delivers the FIFO's head.
  struct LinkLane {
    sim::Ring<Delivery> packets;
    sim::LaneId id = 0;
    sim::Auditor* auditor = nullptr;  // the shard's
  };

  /// A cross-shard packet in flight: appended to its (dst, src) lane by
  /// the sender, moved onto the destination's arrivals from that source at
  /// the next window start, and parked for delivery once it arrives below
  /// a window's safe bound. Both are FIFO in arrival order, so the
  /// position in them is the per-lane sequence.
  struct CrossEntry {
    sim::Time arrive = 0;
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    Packet pkt;
  };

  /// Entries reserved in every lane vector, inbox, per-source arrivals
  /// vector and cross-shard event lane at construction: two to four times
  /// the deepest any of them reached on the k=16 NetRS-ToR cell at four
  /// shards, so that their growth, and with it the allocation count,
  /// does not follow thread timing.
  static constexpr std::size_t kCrossDepth = 64;

  /// Drained arrivals from one source shard, in arrival order; those from
  /// `delivered` on are not delivered yet and those from `head` on not
  /// parked yet. Each drain drops the parked prefix (delivered by then)
  /// before appending, so the live entries stay at the front of the
  /// buffer: a ring would walk its whole reserved buffer.
  struct Arrivals {
    std::vector<CrossEntry> entries;
    std::size_t delivered = 0;
    std::size_t head = 0;
  };

  /// Cross-shard channel from one source shard (or the coordinator on its
  /// behalf) to one destination shard: senders append under `m`, the
  /// destination swaps `entries` out at each window start.
  struct alignas(64) Lane {
    std::mutex m;
    std::vector<CrossEntry> entries;  // guarded by m; in arrival order
  };

  /// Link kinds by latency parameter; indexes `latency_` and
  /// `ShardState::link_lanes`.
  enum LinkClass : std::uint8_t {
    kSwitchLink,
    kHostLink,
    kAcceleratorLink,
    kLinkClasses,
  };

  /// Everything one shard owns; cache-line isolated. Only the owning shard
  /// thread (or the coordinator at a barrier) touches it.
  struct alignas(64) ShardState {
    Fabric* fabric = nullptr;  // cross-lane handler context
    sim::Auditor* auditor = nullptr;
    std::array<LinkLane, kLinkClasses> fifos;  // one per distinct latency
    std::array<LinkLane*, kLinkClasses> link_lanes{};  // by LinkClass
    std::uint64_t packets_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t cross_sends = 0;  // sends leaving this shard's partition
    sim::LaneId cross_lane = 0;       // parked arrivals; shards > 1 only
    std::vector<CrossEntry> inbox;    // a lane's entries, swapped out
    std::vector<Arrivals> arrivals;   // by source shard; empty with one
  };

  /// Audit-build half of simulator_for (see its doc comment): records the
  /// foreign-handle violation with owner/actor provenance. Out of line so
  /// the hot inline path stays a single vector index in plain builds.
  void audit_simulator_for(NodeId id);
  [[nodiscard]] LinkClass link_class(NodeId a, NodeId b) const;
  [[nodiscard]] sim::Duration link_latency(NodeId a, NodeId b) const {
    return latency_[link_class(a, b)];
  }
  [[nodiscard]] Node* node(NodeId id) const;
  /// Cabling check behind assert(): tree adjacency or an auxiliary link in
  /// either direction. Single map lookup per direction.
  [[nodiscard]] bool valid_link(NodeId from, NodeId to) const;
  /// The intra-shard path: append to `shard`'s packet FIFO for the link and
  /// schedule delivery on its own simulator.
  void send_local(int shard, NodeId from, NodeId to, Packet&& pkt);
  /// Drains every lane bound for `dst` onto its per-source arrivals and
  /// parks all arrivals strictly below `safe` on the cross-shard event lane
  /// in (arrive, src_shard, FIFO) order; the rest wait there. Runs on
  /// `dst`'s worker at each window start.
  void drain_shard(int dst, sim::Time safe);
  /// Link-lane handler: `ctx` is the LinkLane; delivers its FIFO's head.
  static void deliver_local(void* ctx, std::uint32_t /*token*/);
  /// Cross-lane handler: `ctx` is the delivering shard's ShardState; the
  /// token is the source shard whose next arrival is delivered.
  static void deliver_crossing(void* ctx, std::uint32_t src);
  /// Packets on the wire bound for shard `s` (deliveries_in_flight's
  /// per-shard term).
  [[nodiscard]] std::size_t in_flight(int s) const;
  [[nodiscard]] Lane& lane(int dst, int src) {
    return lanes_[std::size_t(dst) * sims_.size() + std::size_t(src)];
  }

  const FatTree& topo_;
  FabricConfig cfg_;
  std::array<sim::Duration, kLinkClasses> latency_{};  // by LinkClass
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
