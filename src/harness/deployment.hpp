// One repeat's deployed system (paper §V-A). run_experiment() builds one
// per repeat and merges their results; a caller that needs to act on the
// live system (schedule an event, reach a component) builds and runs one
// directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/obs_stream.hpp"
#include "kv/client.hpp"
#include "kv/server.hpp"
#include "net/fabric.hpp"
#include "net/switch.hpp"
#include "netrs/controller.hpp"
#include "netrs/operator.hpp"
#include "netrs/traffic_group.hpp"

namespace netrs::harness {

/// Running queue-length moments of one server, fed by the periodic herd
/// sampler during the measured phase.
struct QueueMoments {
  double sum = 0.0, sumsq = 0.0;  ///< Sums of the samples and their squares.
  std::uint64_t n = 0;            ///< Samples taken.
};

/// One selection unit under its metric name: "core<g>" for a shared
/// core-group pool, "rs<id>" for a dedicated operator's own unit.
struct NamedUnit {
  std::string name;                    ///< Metric-name suffix.
  core::SelectionUnit* unit = nullptr;  ///< The unit, owned elsewhere.
};

/// One repeat's deployed system, built in the order that fixes every
/// auxiliary NodeId, selector-factory call, RNG draw and scheduling
/// sequence number, and destroyed in reverse order, clients first. Not
/// copyable or movable: simulator tasks and gauges hold its address.
struct Deployment {
  /// Builds the deployment of `scheme` for `cfg` with RNG seed `seed`,
  /// arming `plan`, the fault plan validate_config(cfg) returned. `cfg`
  /// and `plan` must outlive the deployment.
  Deployment(Scheme scheme, const ExperimentConfig& cfg,
             const sim::FaultPlan& plan, std::uint64_t seed);
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Runs the workload to its nominal end, drains the in-flight requests
  /// and harvests the repeat; with obs on, repeat `repeat`'s obs files
  /// stream into `sinks` (null sinks write nothing). Call once. The result
  /// is unfinalized so that repeats merge exactly: finalize() it first.
  [[nodiscard]] ExperimentResult run(const ObsSinks& sinks = {},
                                     std::size_t repeat = 0);

  const Scheme scheme;            ///< Scheme deployed.
  const ExperimentConfig& cfg;    ///< The cell.
  const sim::FaultPlan& plan;     ///< Armed fault plan (may be empty).
  /// cfg.shards clamped to [1, pods] (DESIGN.md §4.10); every output is
  /// byte-identical at any shard count (§8.6).
  const int shards;
  const sim::Time t_end;        ///< Nominal end of the workload.
  const sim::Time warmup_time;  ///< Completions issued before are not measured.
  /// Clients x client_multiplicity: the logical client count the selector
  /// concurrency math sees (the aggregate rate A is unchanged).
  const double logical_clients;
  sim::ShardGroup shard_group;  ///< The event engine, one queue per shard.
  sim::Simulator& simulator;  ///< Global: controller, faults, herd sampler.
  const sim::Rng root;       ///< Root of every RNG stream of the repeat.
  const net::FatTree topo;   ///< The fat tree.
  net::Fabric fabric;        ///< Links and node attachment.
  std::vector<std::unique_ptr<net::Switch>> switches;  ///< By NodeId.
  /// Shuffled hosts (paper §V-A placement): servers first, then clients.
  const std::vector<net::HostId> hosts;
  const std::vector<net::HostId> server_hosts;  ///< hosts[0, num_servers).
  const kv::ConsistentHashRing ring;            ///< Replica groups.
  const sim::ZipfDistribution zipf;             ///< Key popularity.
  const core::TrafficGroups groups;             ///< NetRS traffic groups.
  /// NetRS only: the shared core-group pools (cfg.share_core_accelerators).
  std::vector<std::unique_ptr<core::SelectionUnit>> pools;
  /// NetRS only: one operator per switch, by NodeId (RsNodeId = NodeId + 1).
  std::vector<std::unique_ptr<core::NetRSOperator>> operators;
  std::vector<NamedUnit> units;  ///< NetRS only: pools, then operators'.
  std::unique_ptr<core::Controller> controller;  ///< NetRS only.
  std::vector<std::unique_ptr<kv::Server>> servers;  ///< server_hosts order.
  sim::FaultInjector injector;       ///< Arms `plan` (when non-empty).
  std::vector<QueueMoments> moments;  ///< Herd sampler, per server.
  /// Observer lanes; null unless cfg.obs asks for an output.
  std::unique_ptr<obs::ShardObserverSet> observer;
  /// Per shard, what its completion callbacks measured; run() merges them.
  std::vector<ExperimentResult> tallies;
  /// Per shard, the `latency_ms` metrics histogram (metrics on only).
  std::vector<obs::LatencyHistogram> latency_hists;
  std::vector<std::unique_ptr<kv::Client>> clients;  ///< Placement order.

 private:
  void build_netrs();
  void arm_faults();
  void build_clients();
  void wire_obs();
  void harvest(ObsWriter* writer, ExperimentResult& out);
};

}  // namespace netrs::harness
