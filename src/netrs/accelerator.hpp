// Network accelerator model (§II, §V-A): a low-power multicore packet
// processor cabled to one — or, in the shared configuration of §III-B,
// several — programmable switches.
//
// Modeled as a c-core FIFO queueing station with deterministic per-packet
// service times (paper default: 1 core, 5 us per request, measured from
// IncBricks). Response clones are cheaper than request selection — the
// selector only writes local state for them — so they get their own,
// smaller service time. After processing, the handler may return a rebuilt
// packet, which is sent back to the switch it arrived from over the
// 2.5 us-RTT link.
//
// Sharing: "we could cut the network cost of NetRS by connecting one
// accelerator to multiple switches" (§III-B). attach_switch() cables the
// same accelerator to additional switches; all attached switches share the
// cores, the queue, and the selector behind the handler.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/fabric.hpp"
#include "net/node.hpp"
#include "sim/affinity.hpp"
#include "sim/station.hpp"

namespace netrs::core {

/// Accelerator service parameters (defaults follow the paper, §V-A).
struct NETRS_SHARED_IMMUTABLE AcceleratorConfig {
  int cores = 1;  ///< c parallel packet-processing cores.
  /// Deterministic per-request selection time (IncBricks-measured 5 us).
  sim::Duration request_service_time = sim::micros(5);
  /// Response clones only update selector state: cheaper than ranking.
  sim::Duration response_service_time = sim::micros(1);
};

/// The c-core FIFO queueing station modeling a network accelerator (see
/// the file comment).
class NETRS_SHARD_LOCAL Accelerator final : public net::Node {
 public:
  /// The handler implements the NetRS selector (§IV-C): it receives each
  /// packet after its queueing + service delay and may return a rebuilt
  /// packet to hand back to the switch the packet came from.
  using Handler = std::function<std::optional<net::Packet>(net::Packet)>;

  /// Creates the accelerator cabled to `co_located_switch`. Throws
  /// std::invalid_argument when `cfg.cores` < 1.
  Accelerator(net::Fabric& fabric, net::NodeId co_located_switch,
              AcceleratorConfig cfg);

  /// Cables this accelerator to an additional switch (shared mode).
  /// Returns the auxiliary NodeId that switch must address; a switch
  /// already cabled gets its existing id back.
  net::NodeId attach_switch(net::NodeId sw);

  /// Installs the selector-side packet handler.
  void set_handler(Handler h) { handler_ = std::move(h); }

  /// Enqueues a delivered packet for service.
  void receive(net::Packet pkt, net::NodeId from) override;

  /// Fault hook — reached only through sim::FaultInjector at global-sim
  /// barriers (fault-hook-discipline lint rule). Fails the accelerator:
  /// queued and in-service jobs are dropped (`accel-crash` in the audit
  /// ledger), the dropped jobs' completions do nothing, and arrivals are
  /// rejected (`accel-down`) until recover().
  void fail();
  /// Fault hook — clears the failure flag; the accelerator resumes with
  /// an empty queue and idle cores.
  void recover();
  /// True while failed by fault injection.
  [[nodiscard]] bool failed() const { return failed_; }

  /// Auxiliary NodeId for the primary (first) switch.
  [[nodiscard]] net::NodeId node_id() const { return primary_node_; }
  /// NodeId of the primary (first) switch.
  [[nodiscard]] net::NodeId switch_node() const { return primary_switch_; }
  /// The service parameters.
  [[nodiscard]] const AcceleratorConfig& config() const { return cfg_; }

  // --- Controller inputs ----------------------------------------------------
  /// Fraction of core-time spent busy since the last reset, including the
  /// elapsed part of services still in progress. Always in [0, 1].
  /// A pure read — safe to call from metrics samplers and from const
  /// contexts; the busy-time audit runs in reset_utilization() instead.
  [[nodiscard]] double utilization(sim::Time now) const;
  /// Closes the measurement window at `now` (audits its busy-time bound
  /// in checked builds) and starts a fresh one.
  void reset_utilization(sim::Time now);

 private:
  struct Job {
    net::Packet pkt;
    net::NodeId from_switch = net::kInvalidNode;
    sim::Time enqueued = 0;  // arrival at the accelerator (for trace spans)
  };

  void start_service(Job job);
  void finish_service(Job job, sim::Time started);
  /// Busy core-time in the current window up to `now`: completed services
  /// plus the elapsed part of those still in progress.
  [[nodiscard]] sim::Duration busy_time(sim::Time now) const;

  net::Fabric& fabric_;
  // This accelerator's shard simulator (its primary switch's — shared-mode
  // switches are all in one core group, hence one shard).
  sim::Simulator& sim_;
  AcceleratorConfig cfg_;
  sim::Station<Job> station_;
  Handler handler_;
  net::NodeId primary_switch_ = net::kInvalidNode;
  net::NodeId primary_node_ = net::kInvalidNode;
  std::unordered_map<net::NodeId, net::NodeId> by_switch_;  // switch -> aux

  // Busy time is accrued per job at *completion*, clamped to the current
  // measurement window: a reset_utilization() mid-service splits the
  // service across windows instead of crediting it all to the window in
  // which it started (which let utilization exceed 1.0).
  sim::Duration busy_accum_ = 0;  // completed-service busy time, all cores
  sim::Time window_start_ = 0;
  bool failed_ = false;  // failure-fault flag (fail()/recover())
};

}  // namespace netrs::core
