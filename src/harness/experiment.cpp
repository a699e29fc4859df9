#include "harness/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/deployment.hpp"
#include "harness/obs_stream.hpp"
#include "harness/parallel.hpp"
#include "kv/consistent_hash.hpp"
#include "net/fat_tree.hpp"
#include "rs/factory.hpp"

namespace netrs::harness {
namespace {

// Adds `from` into `into` elementwise, growing `into` to fit; takes
// `from`'s storage when `into` is still empty.
void add_elementwise(std::vector<std::uint64_t>& into,
                     std::vector<std::uint64_t>&& from) {
  if (into.empty()) {
    into = std::move(from);
    return;
  }
  if (from.size() > into.size()) into.resize(from.size(), 0);
  for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
}

// Merges `from`'s buckets into `into`'s, growing `into` to fit.
template <typename Recorder>
void merge_buckets(std::vector<Recorder>& into, std::vector<Recorder>&& from) {
  if (from.size() > into.size()) into.resize(from.size());
  for (std::size_t i = 0; i < from.size(); ++i) {
    into[i].merge(std::move(from[i]));
  }
}

// Appends `from`'s elements to `into`, moving them.
template <typename T>
void append(std::vector<T>& into, std::vector<T>&& from) {
  std::move(from.begin(), from.end(), std::back_inserter(into));
}

}  // namespace

void ExperimentResult::merge(ExperimentResult&& later) {
  scheme = later.scheme;
  latencies_ms.merge(std::move(later.latencies_ms));
  issued += later.issued;
  completed += later.completed;
  redundant += later.redundant;
  cancels += later.cancels;
  avg_forwards += later.avg_forwards;
  wire_bytes_per_request += later.wire_bytes_per_request;
  load_oscillation += later.load_oscillation;
  repeats += later.repeats;
  rsnodes = later.rsnodes;
  plan_method = std::move(later.plan_method);
  plans_deployed = later.plans_deployed;
  drs_groups = later.drs_groups;
  events_fired += later.events_fired;
  add_elementwise(events_per_shard, std::move(later.events_per_shard));
  append(shard_telemetry, std::move(later.shard_telemetry));
  harvest_seconds += later.harvest_seconds;
  wait_seconds += later.wait_seconds;
  obs_handoffs += later.obs_handoffs;
  write_seconds += later.write_seconds;
  audit.merge(later.audit);
  metrics.merge(std::move(later.metrics));
  trace_events += later.trace_events;
  trace_dropped += later.trace_dropped;
  append(trace_repeats, std::move(later.trace_repeats));
  attribution.merge(std::move(later.attribution));
  decisions.merge(std::move(later.decisions));
  fault.enabled = later.fault.enabled;
  fault.window_start_ms = later.fault.window_start_ms;
  fault.window_end_ms = later.fault.window_end_ms;
  fault.events_fired += later.fault.events_fired;
  fault.events_unbound += later.fault.events_unbound;
  for (int p = 0; p < 3; ++p) {
    fault.latency_ms[p].merge(std::move(later.fault.latency_ms[p]));
    fault.regret_ms[p].merge(std::move(later.fault.regret_ms[p]));
    fault.staleness_ms[p].merge(std::move(later.fault.staleness_ms[p]));
  }
  merge_buckets(timeline, std::move(later.timeline));
  timeline_bucket_ms = later.timeline_bucket_ms;
  merge_buckets(stale_timeline, std::move(later.stale_timeline));
  add_elementwise(doomed_timeline, std::move(later.doomed_timeline));
  doomed_picks += later.doomed_picks;
}

void ExperimentResult::finalize() {
  if (latencies_ms.count() > 0) {
    avg_forwards /= static_cast<double>(latencies_ms.count());
  }
  if (repeats > 0) {
    wire_bytes_per_request /= repeats;
    load_oscillation /= repeats;
  }
  metrics.finalize();
  latencies_ms.finalize();
  for (sim::LatencyRecorder& phase : fault.latency_ms) phase.finalize();
  for (sim::LatencyRecorder& bucket : timeline) bucket.finalize();
}

const char* fault_phase_name(int phase) {
  return phase == 0 ? "pre" : phase == 1 ? "during" : "post";
}

sim::FaultPlan validate_config(const ExperimentConfig& cfg) {
  // A malformed fault plan throws here.
  sim::FaultPlan fault_plan = sim::FaultPlan::parse(cfg.fault_plan);
  // Link events must name a cabled fat-tree link: Fabric::set_link_state
  // checks its endpoints only in debug builds, so a bad pair would count
  // as fired while cutting nothing.
  const net::FatTree tree(cfg.fat_tree_k);
  const auto node_count = static_cast<long long>(tree.node_count());
  for (const sim::FaultEvent& e : fault_plan.events()) {
    if (e.unit != sim::FaultUnit::kLink) continue;
    if (e.index >= 0 && e.index < node_count && e.peer >= 0 &&
        e.peer < node_count &&
        tree.adjacent(static_cast<net::NodeId>(e.index),
                      static_cast<net::NodeId>(e.peer))) {
      continue;
    }
    const char* verb =
        e.op == sim::FaultOp::kLinkDown ? "link-down " : "link-up ";
    throw std::invalid_argument(
        "fault plan entry \"" + std::string(verb) +
        std::to_string(e.index) + " " + std::to_string(e.peer) + "\" at " +
        std::to_string(e.at) + " ns names no link of the k=" +
        std::to_string(cfg.fat_tree_k) + " fat tree (NodeIds 0.." +
        std::to_string(node_count - 1) + ", endpoints must be adjacent)");
  }
  if (cfg.num_servers + cfg.num_clients > static_cast<int>(tree.host_count())) {
    // Fail fast in every build type: an over-provisioned cluster used to
    // walk off the shuffled host vector in Release builds.
    throw std::invalid_argument(
        "num_servers + num_clients = " +
        std::to_string(cfg.num_servers + cfg.num_clients) +
        " exceeds the k=" + std::to_string(cfg.fat_tree_k) +
        " fat tree's " + std::to_string(tree.host_count()) + " hosts");
  }
  // A cell without requests or repeats measures nothing; reject it
  // rather than report zero latencies or run a repeat nobody asked for.
  if (cfg.total_requests == 0) {
    throw std::invalid_argument("total_requests must be at least 1, got 0");
  }
  if (cfg.repeats < 1) {
    throw std::invalid_argument("repeats must be at least 1, got " +
                                std::to_string(cfg.repeats));
  }
  // So does a cell without load: no service time makes the aggregate
  // rate infinite (the run never ends), no utilization or no clients
  // issue nothing, and at a skew of 1 or more the cold clients' rate is
  // not positive. The negated comparisons reject NaN too.
  const auto reject = [](const char* field, const std::string& rule,
                         const std::string& got) {
    throw std::invalid_argument(std::string(field) + " must be " + rule +
                                ", got " + got);
  };
  if (!(cfg.mean_service_time > 0)) {
    reject("mean_service_time", "positive",
           std::to_string(cfg.mean_service_time) + " ns");
  }
  if (!(cfg.utilization > 0.0)) {
    reject("utilization", "positive", std::to_string(cfg.utilization));
  }
  if (cfg.num_clients < 1) {
    reject("num_clients", "at least 1", std::to_string(cfg.num_clients));
  }
  if (!(cfg.demand_skew >= 0.0 && cfg.demand_skew < 1.0)) {
    reject("demand_skew", "in [0, 1)", std::to_string(cfg.demand_skew));
  }
  // The replica ring is built inside each repeat; check its inputs here
  // so a bad cell fails before anything runs.
  if (cfg.replication_factor < 1 || cfg.replication_factor > cfg.num_servers) {
    reject("replication_factor",
           "between 1 and num_servers = " + std::to_string(cfg.num_servers),
           std::to_string(cfg.replication_factor));
  }
  if (cfg.virtual_nodes < 1) {
    reject("virtual_nodes", "at least 1", std::to_string(cfg.virtual_nodes));
  }
  // Past 2^24 ring points the RGIDs would overflow their 24-bit field.
  const std::uint64_t max_vnodes =
      kv::ConsistentHashRing::kMaxPoints /
      static_cast<std::uint64_t>(std::max(1, cfg.num_servers));
  if (static_cast<std::uint64_t>(cfg.virtual_nodes) > max_vnodes) {
    reject("virtual_nodes",
           "at most 2^24 / num_servers = " + std::to_string(max_vnodes),
           std::to_string(cfg.virtual_nodes));
  }
  // core::TrafficGroups checks the sub-rack group size only by assert.
  const int rack_hosts = tree.hosts_per_rack();
  if (cfg.granularity == core::GroupGranularity::kSubRack &&
      !(cfg.sub_rack_hosts > 0 && rack_hosts % cfg.sub_rack_hosts == 0)) {
    reject("sub_rack_hosts",
           "a divisor of the k=" + std::to_string(cfg.fat_tree_k) +
               " rack's " + std::to_string(rack_hosts) + " hosts",
           std::to_string(cfg.sub_rack_hosts));
  }
  // The selector is built by name inside each repeat.
  if (!rs::is_selector_algorithm(cfg.selector.algorithm)) {
    reject("selector.algorithm", "one of " + rs::selector_algorithm_names(),
           "\"" + cfg.selector.algorithm + "\"");
  }
  // A negative hop budget plans no RSNode at all and a negative timeline
  // bucket silently turns the timeline off.
  if (!(cfg.extra_hop_fraction >= 0.0)) {
    reject("extra_hop_fraction", "non-negative",
           std::to_string(cfg.extra_hop_fraction));
  }
  if (cfg.timeline_bucket < 0) {
    reject("timeline_bucket", "non-negative",
           std::to_string(cfg.timeline_bucket) + " ns");
  }
  return fault_plan;
}

ExperimentResult run_experiment(Scheme scheme, const ExperimentConfig& cfg) {
  // netrs-lint: allow(wall-clock): wall_seconds is a harness diagnostic
  // outside the simulation; it never feeds back into simulated behavior.
  const auto wall_start = std::chrono::steady_clock::now();
  // Everything is checked up front, on the caller's thread, before any
  // repeat fans out: the configuration, then every output file, so a path
  // that cannot be written fails before the simulation runs.
  const sim::FaultPlan fault_plan = validate_config(cfg);
  std::optional<ObsFiles> files;
  if (cfg.obs.any()) files.emplace(cfg.obs, cfg.repeats);
  std::optional<std::ofstream> telemetry_out;
  if (!cfg.shard_telemetry_path.empty()) {
    telemetry_out.emplace(cfg.shard_telemetry_path, std::ios::binary);
    if (!*telemetry_out) {
      throw std::invalid_argument("cannot open shard telemetry output \"" +
                                  cfg.shard_telemetry_path +
                                  "\" for writing");
    }
  }

  // Repeats are independent simulations (each owns its Simulator and
  // derives its Rng from cfg.seed + rep), so they fan out across the
  // pool; each worker writes only its own slot (and its own obs sinks).
  // Merging the slots in repeat order afterwards reproduces the serial
  // accumulation exactly, so any --jobs value yields bit-identical
  // statistics.
  std::vector<ExperimentResult> repeats(static_cast<std::size_t>(cfg.repeats));
  parallel_for(cfg.jobs, repeats.size(), [&](std::size_t rep) {
    Deployment d(scheme, cfg, fault_plan,
                 cfg.seed + static_cast<std::uint64_t>(rep));
    repeats[rep] = d.run(files ? files->sinks(rep) : ObsSinks{}, rep);
  });
  ExperimentResult res;
  for (ExperimentResult& r : repeats) res.merge(std::move(r));
  res.finalize();
  const auto seconds_since = [](auto start) {
    // netrs-lint: allow(wall-clock): see wall_start above.
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now - start).count();
  };
  if (files) {
    // netrs-lint: allow(wall-clock): write_seconds is a harness diagnostic.
    const auto finish_start = std::chrono::steady_clock::now();
    files->finish();
    res.write_seconds += seconds_since(finish_start);
  }
  if (telemetry_out) {
    sim::write_shard_telemetry_csv(*telemetry_out, res.shard_telemetry);
  }
  res.wall_seconds = seconds_since(wall_start);
  return res;
}

}  // namespace netrs::harness
