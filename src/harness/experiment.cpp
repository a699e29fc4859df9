#include "harness/experiment.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/obs_stream.hpp"
#include "harness/parallel.hpp"
#include "obs/observer.hpp"
#include "obs/shard_obs.hpp"
#include "kv/client.hpp"
#include "kv/consistent_hash.hpp"
#include "kv/server.hpp"
#include "net/fabric.hpp"
#include "net/switch.hpp"
#include "netrs/controller.hpp"
#include "netrs/operator.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"

namespace netrs::harness {
namespace {

// Adds `from` into `into` elementwise, growing `into` to fit.
void add_elementwise(std::vector<std::uint64_t>& into,
                     const std::vector<std::uint64_t>& from) {
  if (from.size() > into.size()) into.resize(from.size(), 0);
  for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
}

// What the completion path and the decision audit measure. The completion
// callback runs on its client's shard worker, so each shard fills its own
// tally; the shards' tallies merge in shard order into the repeat's, and
// the repeats' in repeat order into the experiment's. The recorded sample
// set is identical at any shard or job count (the digest sorts samples,
// and the integer counters are order-independent sums).
struct Tally {
  sim::LatencyRecorder latencies_ms;  // measured (post-warmup) completions
  sim::LatencyRecorder phase[3];      // pre/during/post-fault completions
  // Absolute-time latency timeline (empty unless cfg.timeline_bucket > 0).
  std::vector<sim::LatencyRecorder> timeline;
  double forwards_sum = 0.0;  // switch forwards of the measured completions
  // Doomed picks per timeline bucket: audited decisions that chose a
  // replica while it was crash-dark (needs decisions + timeline + plan).
  std::vector<std::uint64_t> doomed_timeline;
  std::uint64_t doomed_picks = 0;
  // The measured completions again, bucketed for the `latency_ms`
  // metrics columns (empty unless metrics are on).
  obs::LatencyHistogram latency_hist;

  void merge(const Tally& o) {
    latencies_ms.merge(o.latencies_ms);
    latency_hist.merge(o.latency_hist);
    for (int p = 0; p < 3; ++p) phase[p].merge(o.phase[p]);
    if (o.timeline.size() > timeline.size()) timeline.resize(o.timeline.size());
    for (std::size_t i = 0; i < o.timeline.size(); ++i) {
      timeline[i].merge(o.timeline[i]);
    }
    forwards_sum += o.forwards_sum;
    add_elementwise(doomed_timeline, o.doomed_timeline);
    doomed_picks += o.doomed_picks;
  }
};

// The obs report summaries of one repeat, folded chunk by chunk on its
// writer thread and merged into the result in repeat order.
struct ObsSummaries {
  obs::AttributionSummary attribution;
  obs::DecisionSummary decisions;
  // The summarized metric columns' samples (see keep_summarized).
  obs::MetricsSnapshot metric_rows;
  // Decision regret and staleness per fault phase (with a fault plan),
  // and the staleness timeline (with timeline buckets).
  sim::LatencyRecorder regret_ms[3];
  sim::LatencyRecorder staleness_ms[3];
  std::vector<sim::LatencyRecorder> stale_timeline;
  // Doomed picks (see tally_doomed_picks), added to the repeat's tally.
  std::vector<std::uint64_t> doomed_timeline;
  std::uint64_t doomed_picks = 0;
};

struct RunOutput {
  Tally tally;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t redundant = 0;
  std::uint64_t cancels = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t events_fired = 0;
  double load_oscillation = 0.0;
  int rsnodes = 0;
  std::string plan_method;
  int plans_deployed = 0;
  std::size_t drs_groups = 0;
  sim::AuditSummary audit;
  std::uint64_t fault_fired = 0;
  std::uint64_t fault_unbound = 0;
  // Per-ring trace accounting (shard lanes + coordinator; empty unless
  // tracing) and per-shard engine counters.
  std::vector<obs::TraceLaneCounts> trace_lanes;
  std::vector<std::uint64_t> events_per_shard;
  sim::ShardTelemetry telemetry;
  // The merged trace's counts: events kept, recorded and dropped.
  std::uint64_t trace_events = 0;
  std::uint64_t trace_recorded = 0;
  std::uint64_t trace_dropped = 0;
  ObsSummaries obs;
  // Wall-clock seconds the simulation thread spent in the obs flushes and
  // the trace merge, and the writer thread writing and folding chunks (0
  // without obs).
  double harvest_seconds = 0.0;
  double write_seconds = 0.0;
};

/// Running queue-length moments of one server, fed by the periodic herd
/// sampler during the measured phase.
struct QueueMoments {
  double sum = 0.0, sumsq = 0.0;
  std::uint64_t n = 0;
};

/// Herd / load-oscillation metric over the sampled moments: the mean over
/// servers of each server's queue-length coefficient of variation.
/// Servers with < 10 samples or a ~zero mean are excluded. Used both for
/// the end-of-run scalar (the report's herdCV column) and the live
/// `herd.cv` gauge, so the two always agree on the final tick.
double herd_cv(const std::vector<QueueMoments>& moments) {
  double cv_sum = 0.0;
  int counted = 0;
  for (const QueueMoments& m : moments) {
    if (m.n < 10) continue;
    const double mean = m.sum / static_cast<double>(m.n);
    const double var =
        std::max(0.0, m.sumsq / static_cast<double>(m.n) - mean * mean);
    if (mean > 1e-9) {
      cv_sum += std::sqrt(var) / mean;
      ++counted;
    }
  }
  return counted > 0 ? cv_sum / counted : 0.0;
}

// One selection unit under its metric name: "core<g>" for a shared
// core-group pool, "rs<id>" for a dedicated operator's own unit.
struct NamedUnit {
  std::string name;
  core::SelectionUnit* unit = nullptr;
};

// The sim.shard.* gauges in column order, and their values for shard `s`:
// its telemetry lane (zeros until its first window) and the fabric's
// cross-shard counters.
constexpr const char* kShardGauges[] = {"windows",  "events", "exec_ns",
                                        "stall_ns", "util",   "cross_sends",
                                        "cross_pending"};
std::array<double, std::size(kShardGauges)> shard_gauges(
    const sim::ShardGroup& group, const net::Fabric& fabric, int s) {
  static const sim::ShardTelemetry::Lane kIdle{};
  const auto& lanes = group.telemetry().lanes;
  const auto i = static_cast<std::size_t>(s);
  const auto& lane = i < lanes.size() ? lanes[i] : kIdle;
  const auto exec = static_cast<double>(lane.exec_ns);
  const auto stall = static_cast<double>(lane.stall_ns);
  return {static_cast<double>(lane.windows), static_cast<double>(lane.events),
          exec, stall,
          // Wall-clock utilization: execute share of this shard's window
          // time so far (1.0 = never waited for a peer).
          exec + stall > 0.0 ? exec / (exec + stall) : 0.0,
          static_cast<double>(fabric.cross_sends(s)),
          static_cast<double>(fabric.cross_pending_depth(s))};
}

// One repeat's deployed system. The constructor builds it in the order
// that fixes every auxiliary NodeId, selector-factory call, RNG draw and
// scheduling sequence number; wire_obs(), run() and harvest() take it from
// there. Members are destroyed in reverse order, clients first. Not
// copyable or movable: simulator tasks and gauges hold its address.
struct Deployment {
  Deployment(Scheme scheme, const ExperimentConfig& cfg,
             const sim::FaultPlan& plan, std::uint64_t seed);
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const Scheme scheme;
  const ExperimentConfig& cfg;
  const sim::FaultPlan& plan;
  // Shard-count resolution (DESIGN.md §4.10): clamp to [1, pods]. The obs
  // layer is shard-parallel (one Observer lane per shard, merged
  // deterministically at each flush — DESIGN.md §8.6), so every output —
  // digests, metrics CSV, attribution CSV, decision CSV, and the trace
  // JSON while no trace ring wraps — is byte-identical at any --shards x
  // --jobs combination.
  const int shards;
  const sim::Time t_end;
  const sim::Time warmup_time;
  // Each Client object superposes `client_multiplicity` independent Poisson
  // streams, so this is the logical client count the selector concurrency
  // math must see (the aggregate rate A is unchanged — it is split over
  // more, proportionally slower, logical streams).
  const double logical_clients;
  sim::ShardGroup shard_group;
  sim::Simulator& simulator;
  const sim::Rng root;
  const net::FatTree topo;
  net::Fabric fabric;
  std::vector<std::unique_ptr<net::Switch>> switches;
  // Random role placement, one role per host (paper §V-A): the shuffled
  // hosts hold the servers first, then the clients.
  const std::vector<net::HostId> hosts;
  const std::vector<net::HostId> server_hosts;
  const kv::ConsistentHashRing ring;
  const sim::ZipfDistribution zipf;
  const core::TrafficGroups groups;
  // NetRS only: the shared core-group pools, one operator per switch, and
  // every selection unit, pools first and then the dedicated operators'.
  std::vector<std::unique_ptr<core::SelectionUnit>> pools;
  std::vector<std::unique_ptr<core::NetRSOperator>> operators;
  std::vector<NamedUnit> units;
  std::unique_ptr<core::Controller> controller;
  std::vector<std::unique_ptr<kv::Server>> servers;
  sim::FaultInjector injector;
  std::vector<QueueMoments> moments;
  std::unique_ptr<obs::ShardObserverSet> observer;
  std::vector<Tally> tallies;  // one per shard
  std::vector<std::unique_ptr<kv::Client>> clients;

 private:
  void build_netrs();
  void arm_faults();
  void build_clients();
};

Deployment::Deployment(Scheme scheme_in, const ExperimentConfig& cfg_in,
                       const sim::FaultPlan& plan_in, std::uint64_t seed)
    : scheme(scheme_in),
      cfg(cfg_in),
      plan(plan_in),
      shards(std::min(std::max(1, cfg.shards), cfg.fat_tree_k)),
      t_end(cfg.nominal_duration()),
      warmup_time(static_cast<sim::Time>(cfg.warmup_fraction *
                                         static_cast<double>(t_end))),
      logical_clients(static_cast<double>(cfg.num_clients) *
                      std::max(1, cfg.client_multiplicity)),
      shard_group(shards,
                  std::min(cfg.switch_link_latency, cfg.host_link_latency)),
      simulator(shard_group.global_sim()),
      root(seed),
      topo(cfg.fat_tree_k),
      fabric(shard_group, topo,
             {.switch_link_latency = cfg.switch_link_latency,
              .host_link_latency = cfg.host_link_latency,
              .accelerator_link_latency = cfg.accelerator_link_latency}),
      hosts([this] {
        std::vector<net::HostId> h(topo.host_count());
        std::iota(h.begin(), h.end(), net::HostId{0});
        root.child("placement").shuffle(h);
        return h;
      }()),
      server_hosts(hosts.begin(), hosts.begin() + cfg.num_servers),
      ring(server_hosts, cfg.replication_factor, cfg.virtual_nodes,
           seed ^ 0x52494E47ULL),
      zipf(cfg.keyspace, cfg.zipf_exponent),
      groups(topo, cfg.granularity, cfg.sub_rack_hosts),
      injector(simulator),
      moments(server_hosts.size()),
      tallies(static_cast<std::size_t>(shards)) {
  switches.reserve(topo.switch_count());
  for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
    switches.push_back(std::make_unique<net::Switch>(fabric, sw));
    fabric.attach(sw, switches.back().get());
  }
  if (is_netrs(scheme)) build_netrs();

  const kv::ServerConfig server_cfg{
      .parallelism = cfg.server_parallelism,
      .mean_service_time = cfg.mean_service_time,
      .fluctuate = cfg.fluctuate,
      .fluctuation_interval = cfg.fluctuation_interval,
      .fluctuation_factor = cfg.fluctuation_factor,
      .value_bytes = cfg.value_bytes};
  servers.reserve(server_hosts.size());
  for (net::HostId h : server_hosts) {
    servers.push_back(std::make_unique<kv::Server>(
        fabric, h, server_cfg, root.child(0x05000000ULL + h)));
  }
  if (!plan.empty()) arm_faults();

  // Herd-behavior instrumentation: sample every server's queue length
  // periodically during the measured phase; per-server mean/variance give
  // the load-oscillation metric (coefficient of variation).
  simulator.every(sim::millis(5), [this] {
    if (simulator.now() < warmup_time) return true;
    for (std::size_t i = 0; i < servers.size(); ++i) {
      const double q = servers[i]->queue_size();
      moments[i].sum += q;
      moments[i].sumsq += q * q;
      ++moments[i].n;
    }
    return simulator.now() < t_end;
  });
  // Observability, created before the clients so the completion callback
  // knows whether to fill the latency histogram; wire_obs() hooks it into
  // every component once they all exist. Observation-only: results are
  // identical with or without it. One Observer lane per shard — each
  // component records on its own shard's simulator with zero cross-shard
  // traffic — plus the coordinator observer for global-simulator events;
  // the lanes are flushed deterministically during the run (DESIGN.md
  // §8.6).
  if (cfg.obs.any()) {
    observer = std::make_unique<obs::ShardObserverSet>(cfg.obs, shards);
    for (int s = 0; s < shards; ++s) {
      shard_group.shard_sim(s).set_observer(&observer->lane(s));
    }
    // At shards == 1 the global simulator IS shard 0, and coordinator()
    // is lane(0) — the second set_observer stores the same pointer.
    simulator.set_observer(&observer->coordinator());
    if (observer->metering()) {
      // The `latency_ms` columns: the shards' histograms folded at each
      // tick by integer addition, so the series is byte-identical at any
      // shard count. Only the count feeds the report summary.
      const auto folded = [this] {
        obs::LatencyHistogram h;
        for (const Tally& t : tallies) h.merge(t.latency_hist);
        return h;
      };
      obs::MetricsRegistry& reg = observer->metrics();
      const std::size_t bounds = obs::kLatencyBucketBounds.size();
      for (std::size_t b = 0; b <= bounds; ++b) {
        reg.gauge("latency_ms.le_" +
                      (b < bounds ? obs::format_metric_value(sim::to_millis(
                                        obs::kLatencyBucketBounds[b]))
                                  : std::string("inf")),
                  [folded, b] {
                    return static_cast<double>(folded().buckets[b]);
                  },
                  false);
      }
      reg.gauge("latency_ms.count",
                [folded] { return static_cast<double>(folded().count); });
      reg.gauge(
          "latency_ms.sum",
          [folded] { return static_cast<double>(folded().sum_ns) * 1e-6; },
          false);
    }
  }
  build_clients();
}

// NetRS deployment: an operator on every switch, the shared core-group
// pools when requested, and the controller.
void Deployment::build_netrs() {
  auto directory = std::make_shared<core::RsNodeDirectory>();
  for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
    (*directory)[static_cast<core::RsNodeId>(sw + 1)] = sw;
  }
  auto bootstrap_table = std::make_shared<const core::GroupRidTable>(
      groups.group_count(), core::kRidIllegal);
  auto concurrency_hint = std::make_shared<double>(1.0);

  // `op_sim` is the operator's shard simulator: selectors keep clocks and
  // rate-control state, so they must live on the shard that executes
  // their switch's events (the global simulator at --shards 1).
  auto make_factory = [this, concurrency_hint](net::NodeId sw,
                                               std::uint64_t rng_key) {
    return [&op_sim = fabric.simulator_for(sw), op_rng = root.child(rng_key),
            concurrency_hint, selector = cfg.selector,
            clients = logical_clients,
            incarnation = std::uint64_t{0}]() mutable {
      rs::SelectorConfig sc = selector;
      sc.c3.concurrency = std::max(1.0, *concurrency_hint);
      // C3's cubic rate controller was sized for *client* send rates; an
      // RSNode aggregates the traffic of clients/RSNodes many clients, so
      // its initial rate budget and token burst scale by that factor
      // (conserving the cluster-wide budget C3 assumes).
      const double aggregation = std::max(1.0, clients / sc.c3.concurrency);
      sc.c3.cubic.initial_rate *= aggregation;
      sc.c3.cubic.burst_tokens *= aggregation;
      return rs::make_selector(sc, op_sim, op_rng.child(++incarnation));
    };
  };

  // Shared accelerators (§III-B): one selection unit per core group,
  // cabled to all k/2 core switches of that group.
  const int half = topo.k() / 2;
  if (cfg.share_core_accelerators) {
    for (int group = 0; group < half; ++group) {
      const net::NodeId primary = topo.core_node(group, 0);
      pools.push_back(std::make_unique<core::SelectionUnit>(
          fabric, primary, cfg.accelerator, ring.groups(),
          make_factory(primary,
                       0x0A000000ULL + static_cast<unsigned>(group))));
      units.push_back({"core" + std::to_string(group), pools.back().get()});
    }
  }

  std::vector<core::NetRSOperator*> op_ptrs;
  for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
    core::SharedParts shared;
    if (cfg.share_core_accelerators && topo.tier(sw) == net::Tier::kCore) {
      const int group = static_cast<int>(topo.coord(sw).idx) / half;
      shared = {pools[static_cast<std::size_t>(group)].get(), group};
    }
    operators.push_back(std::make_unique<core::NetRSOperator>(
        fabric, *switches[sw], static_cast<core::RsNodeId>(sw + 1),
        cfg.accelerator, directory, ring.groups(),
        make_factory(sw, 0x09000000ULL + sw), &groups, bootstrap_table,
        shared));
    core::NetRSOperator& op = *operators.back();
    op_ptrs.push_back(&op);
    if (shared.unit == nullptr) {
      units.push_back({"rs" + std::to_string(op.id()), &op.unit()});
    }
  }
  controller = std::make_unique<core::Controller>(
      simulator, topo, groups, std::move(op_ptrs),
      core::ControllerConfig{
          .mode = scheme == Scheme::kNetRSToR ? core::PlanMode::kTor
                                              : core::PlanMode::kIlp,
          .replan_interval = cfg.replan_interval,
          .utilization_cap = cfg.utilization_cap,
          .extra_hop_fraction = cfg.extra_hop_fraction,
          .overload_utilization = cfg.overload_utilization,
          .placement = cfg.placement,
          .on_plan_change =
              [concurrency_hint](const core::PlacementResult& placed) {
                *concurrency_hint = std::max(1, placed.rsnodes_used);
              }});
  controller->start();
}

// Fault injection (DESIGN.md §9). run_experiment parsed and validated the
// plan once for all repeats. Every event is scheduled on the *global*
// simulator, so faults execute at full shard barriers — bit-identical
// timing at any --shards/--jobs. All hook bundles are bound here: the
// harness is the one layer allowed to touch component fail()/recover()
// hooks directly (fault-hook-discipline lint rule).
void Deployment::arm_faults() {
  for (std::size_t i = 0; i < servers.size(); ++i) {
    kv::Server* srv = servers[i].get();
    injector.bind_server(
        static_cast<int>(i),
        {[srv] { srv->fail(); }, [srv] { srv->recover(); },
         [srv](double f) { srv->set_service_inflation(f); }});
  }
  injector.set_link_hook([fab = &fabric](int a, int b, bool up) {
    fab->set_link_state(static_cast<net::NodeId>(a),
                        static_cast<net::NodeId>(b), up);
  });
  core::Controller* ctrl = controller.get();
  for (auto& op : operators) {
    core::NetRSOperator* o = op.get();
    const auto id = static_cast<int>(o->id());
    // RSNode failover (§III-C case i): the node loses its selection
    // state, the controller degrades its groups to DRS and re-solves
    // immediately; restore re-solves again so the node can rejoin.
    injector.bind_rsnode(id, {[ctrl, o] {
                                o->selector_node().fail();
                                ctrl->fail_operator(o->id());
                                ctrl->replan_now();
                              },
                              [ctrl, o] {
                                ctrl->restore_operator(o->id());
                                ctrl->replan_now();
                              },
                              nullptr});
    // Accelerator failure: the packet processor itself goes dark
    // (shared-pool accelerators take their whole core group down).
    injector.bind_accelerator(id,
                              {[o] { o->accelerator().fail(); },
                               [o] { o->accelerator().recover(); },
                               nullptr});
  }
  injector.arm(plan);
}

void Deployment::build_clients() {
  const double aggregate = cfg.aggregate_rate();
  const int hot_count = cfg.demand_skew > 0.0
                            ? std::max(1, static_cast<int>(
                                              0.2 * cfg.num_clients + 0.5))
                            : 0;
  const double hot_rate =
      hot_count > 0 ? aggregate * cfg.demand_skew / hot_count : 0.0;
  const double cold_rate =
      cfg.num_clients > hot_count
          ? aggregate * (1.0 - cfg.demand_skew) /
                (hot_count > 0 ? cfg.num_clients - hot_count
                               : cfg.num_clients)
          : 0.0;

  kv::ClientConfig client_cfg;
  client_cfg.mode = is_netrs(scheme) ? kv::ClientMode::kNetRS
                                     : kv::ClientMode::kClientSelect;
  client_cfg.redundancy.enabled =
      scheme == Scheme::kCliRSR95 || scheme == Scheme::kCliRSR95Cancel;
  client_cfg.redundancy.cancel_on_completion =
      scheme == Scheme::kCliRSR95Cancel;
  client_cfg.selector = cfg.selector;
  client_cfg.selector.c3.concurrency = std::max(1.0, logical_clients);
  client_cfg.selector.c3.service_time_prior = cfg.mean_service_time;

  const bool metering = observer != nullptr && observer->metering();
  const bool have_fault = !plan.empty();
  const sim::Time fault_start = plan.window_start();
  const sim::Time fault_end = plan.window_end();
  const sim::Duration tl_bucket = cfg.timeline_bucket;
  clients.reserve(static_cast<std::size_t>(cfg.num_clients));
  for (int i = 0; i < cfg.num_clients; ++i) {
    const net::HostId h = hosts[static_cast<std::size_t>(cfg.num_servers + i)];
    kv::ClientConfig this_cfg = client_cfg;
    this_cfg.arrival_rate =
        (hot_count > 0 && i < hot_count) ? hot_rate
        : cold_rate > 0.0               ? cold_rate
                                        : aggregate / cfg.num_clients;
    clients.push_back(std::make_unique<kv::Client>(
        fabric, h, this_cfg, ring, zipf, root.child(0x0C000000ULL + h)));
    kv::Client* c = clients.back().get();
    const int lane = fabric.shard_of(c->node_id());
    Tally* acc = &tallies[static_cast<std::size_t>(lane)];
    c->set_completion_callback(
        [acc, warmup = warmup_time, metering, have_fault, fault_start,
         fault_end, tl_bucket](const kv::Client::Completion& comp) {
          if (tl_bucket > 0) {
            // Timeline buckets cover the whole run (warmup included), so
            // the failover panel shows the ramp as well as the event.
            const auto idx =
                static_cast<std::size_t>(comp.completed_at / tl_bucket);
            if (idx >= acc->timeline.size()) acc->timeline.resize(idx + 1);
            acc->timeline[idx].add(sim::to_millis(comp.latency));
          }
          if (comp.completed_at - comp.latency < warmup) return;
          acc->latencies_ms.add(sim::to_millis(comp.latency));
          if (metering) acc->latency_hist.add(comp.latency);
          acc->forwards_sum += comp.forwards;
          if (have_fault) {
            // Phase by completion time against the plan's fault window.
            const int p = comp.completed_at < fault_start  ? 0
                          : comp.completed_at < fault_end ? 1
                                                          : 2;
            acc->phase[p].add(sim::to_millis(comp.latency));
          }
        });
    c->start();
  }
}

// Across-server queue depth right now: mean, max, and the coefficient of
// variation — the herd / load-oscillation signal (§II) as a time series.
std::array<double, 3> qdepth_stats(
    const std::vector<std::unique_ptr<kv::Server>>& servers) {
  if (servers.empty()) return {0.0, 0.0, 0.0};
  double sum = 0.0, sumsq = 0.0, mx = 0.0;
  for (const auto& s : servers) {
    const double q = s->queue_size();
    sum += q;
    sumsq += q * q;
    mx = std::max(mx, q);
  }
  const double n = static_cast<double>(servers.size());
  const double mean = sum / n;
  const double var = std::max(0.0, sumsq / n - mean * mean);
  return {mean, mx, mean <= 1e-9 ? 0.0 : std::sqrt(var) / mean};
}

/// Registers the standard per-repeat metric set (DESIGN.md §8.2) against
/// live component getters. Registration order fixes the column order, so
/// it must be deterministic — and it is: plain index loops only.
void register_run_metrics(obs::MetricsRegistry& reg, const Deployment& d) {
  reg.gauge("cli.issued", [&d] {
    std::uint64_t n = 0;
    for (const auto& c : d.clients) n += c->issued();
    return static_cast<double>(n);
  });
  reg.gauge("cli.completed", [&d] {
    std::uint64_t n = 0;
    for (const auto& c : d.clients) n += c->completed();
    return static_cast<double>(n);
  });
  reg.gauge("cli.inflight", [&d] {
    std::uint64_t n = 0;
    for (const auto& c : d.clients) n += c->in_flight();
    return static_cast<double>(n);
  });

  // Per-server depth series are for plotting, not the summary table
  // (their names embed the repeat's random placement).
  for (const auto& s : d.servers) {
    reg.gauge("kv.qdepth.s" + std::to_string(s->host_id()),
              [srv = s.get()] { return static_cast<double>(srv->queue_size()); },
              /*summarize=*/false);
  }
  constexpr const char* kQdepthStats[] = {"mean", "max", "cv"};
  for (std::size_t i = 0; i < std::size(kQdepthStats); ++i) {
    reg.gauge(std::string("kv.qdepth.") + kQdepthStats[i],
              [&d, i] { return qdepth_stats(d.servers)[i]; });
  }
  // Cumulative herd metric over the measured phase so far — the same
  // statistic the report's herdCV column shows at the end of the run, now
  // also on the metrics timeline.
  reg.gauge("herd.cv", [&d] { return herd_cv(d.moments); });

  if (!d.units.empty()) {
    for (const NamedUnit& u : d.units) {
      reg.gauge("accel.util." + u.name,
                [a = &u.unit->accelerator, &d] {
                  return a->utilization(d.simulator.now());
                },
                /*summarize=*/false);
    }
    reg.gauge("accel.util.mean", [&d] {
      double sum = 0.0;
      for (const NamedUnit& u : d.units) {
        sum += u.unit->accelerator.utilization(d.simulator.now());
      }
      return sum / static_cast<double>(d.units.size());
    });
    reg.gauge("accel.util.max", [&d] {
      double mx = 0.0;
      for (const NamedUnit& u : d.units) {
        mx = std::max(mx, u.unit->accelerator.utilization(d.simulator.now()));
      }
      return mx;
    });
    for (const NamedUnit& u : d.units) {
      reg.gauge("rs.selected." + u.name,
                [s = &u.unit->selector] {
                  return static_cast<double>(s->requests_selected());
                },
                /*summarize=*/false);
    }
    reg.gauge("rs.selected.total", [&d] {
      std::uint64_t n = 0;
      for (const NamedUnit& u : d.units) {
        n += u.unit->selector.requests_selected();
      }
      return static_cast<double>(n);
    });
  }

  d.fabric.register_metrics(reg);
}

// Hooks the observer into the built deployment (the standard metric set,
// the decision-audit hooks and the trace names) and turns on the opt-in
// engine telemetry.
void wire_obs(Deployment& d) {
  // Engine self-telemetry (opt-in; wall-clock based, so the series is
  // nondeterministic — every simulated output stays byte-identical).
  const bool telemetry = !d.cfg.shard_telemetry_path.empty();
  if (telemetry) {
    d.shard_group.enable_telemetry(
        std::max<sim::Duration>(1, d.cfg.shard_telemetry_bucket));
  }
  obs::ShardObserverSet* observer = d.observer.get();
  if (observer == nullptr) return;
  register_run_metrics(observer->metrics(), d);
  // Flight + decision records apply the same warmup filter as the
  // measured latencies (on completion and in the decision replay), so
  // record counts match the latency sample count exactly.
  observer->set_measure_from(d.warmup_time);
  if (observer->deciding()) {
    // Seed the decision oracle's journal: every server's t=0 state on
    // its own shard's lane. From here on the servers journal their own
    // transitions (kv::Server::journal_state), and the replay looks
    // decisions up against the merged journal at any shard count.
    for (const auto& s : d.servers) {
      observer->lane(d.fabric.shard_of(s->node_id()))
          .decisions()
          .on_server_state(s->host_id(), 0, s->queue_size(),
                           s->parallelism(), s->current_mean());
    }
    // Audit every deciding RSNode: clients (CliRS schemes) and every
    // selection unit. Each hook records on the component's own shard lane
    // with its own shard's clock — decision hooks fire inside parallel
    // windows, so the global clock would race (and lag).
    const auto make_hook = [observer, &d](net::NodeId node) {
      obs::DecisionRecorder* rec =
          &observer->lane(d.fabric.shard_of(node)).decisions();
      const sim::Simulator* clk = &d.fabric.simulator_for(node);
      return [rec, tid = static_cast<std::int32_t>(node),
              clk](const rs::DecisionContext& ctx) {
        rec->on_decision(tid, clk->now(), ctx.candidates, ctx.chosen,
                         ctx.scores, ctx.ages);
      };
    };
    for (const auto& c : d.clients) {
      c->set_decision_hook(make_hook(c->node_id()));
    }
    // A unit's selector records under its accelerator's node id, the same
    // tid as its trace spans.
    for (const NamedUnit& u : d.units) {
      u.unit->selector.set_decision_hook(
          make_hook(u.unit->accelerator.node_id()));
    }
  }
  if (observer->tracing()) {
    const auto name = [observer](net::NodeId tid, const std::string& name) {
      observer->set_tid_name(static_cast<std::int32_t>(tid), name);
    };
    for (const auto& s : d.servers) {
      name(s->node_id(), "server@h" + std::to_string(s->host_id()));
    }
    for (const auto& c : d.clients) {
      name(c->node_id(), "client@h" + std::to_string(c->host_id()));
    }
    for (const auto& op : d.operators) {
      name(op->switch_node(), "sw" + std::to_string(op->switch_node()));
    }
    for (const NamedUnit& u : d.units) {
      const core::Accelerator& a = u.unit->accelerator;
      name(a.node_id(), "accel@sw" + std::to_string(a.switch_node()));
    }
  }

  if (!telemetry || !observer->metering()) return;
  // sim.shard.* gauges ride the metrics CSV only when telemetry was
  // explicitly requested: exec/stall are wall-clock values, and the
  // default CSV must stay byte-identical at any --shards x --jobs.
  for (int s = 0; s < d.shards; ++s) {
    for (std::size_t i = 0; i < std::size(kShardGauges); ++i) {
      observer->metrics().gauge(
          std::string("sim.shard.") + kShardGauges[i] + ".s" +
              std::to_string(s),
          [group = &d.shard_group, fab = &d.fabric, s, i] {
            return shard_gauges(*group, *fab, s)[i];
          },
          /*summarize=*/false);
    }
  }
}

// Advances `group` in 1 ms steps while `busy()` holds, until `deadline`.
// Between run_until calls every shard is parked, so `busy` may read
// across shards.
void step_while(sim::ShardGroup& group, sim::Time deadline,
                const auto& busy) {
  while (group.now() < deadline && busy()) {
    group.run_until(group.now() + sim::millis(1));
  }
}

// Moves what the observer recorded before `watermark` into the writer's
// chunk and hands it over; adds the time spent to `seconds`.
void flush_obs(Deployment& d, ObsWriter& writer, sim::Time watermark,
               double& seconds) {
  // netrs-lint: allow(wall-clock): harvest_seconds is a harness
  // diagnostic; it never feeds back into simulated behavior.
  const auto start = std::chrono::steady_clock::now();
  d.observer->flush(watermark, writer.chunk());
  writer.submit();
  // netrs-lint: allow(wall-clock): see start above.
  const auto end = std::chrono::steady_clock::now();
  seconds += std::chrono::duration<double>(end - start).count();
}

// Runs the workload to its nominal end, then drains in-flight requests.
void run(Deployment& d, ObsWriter* writer, RunOutput& out) {
  // Metrics sampling and the obs flushes are driven from here, between
  // run_until calls, not by a simulator tick: at each grid point T the
  // engine is quiescent with every event <= T-1 executed and none at T, so
  // a sample reads the same state at any --shards x --jobs combination (an
  // in-simulator ticker would interleave unpredictably with
  // same-timestamp events), and T is a watermark below which every record
  // is final on every shard. Gauges that cross shards are safe here for
  // the same reason.
  const obs::ShardObserverSet* o = d.observer.get();
  if (writer != nullptr &&
      (o->metering() || o->attributing() || o->deciding())) {
    for (sim::Time t = obs::kSampleInterval; t <= d.t_end;
         t += obs::kSampleInterval) {
      d.shard_group.run_until(t - 1);
      if (o->metering()) d.observer->metrics().sample(t);
      flush_obs(d, *writer, t, out.harvest_seconds);
    }
  }
  d.shard_group.run_until(d.t_end);
  for (auto& c : d.clients) c->stop();
  // Drain in-flight requests (periodic tasks keep the queue alive, so poll
  // the clients rather than waiting for quiescence).
  step_while(d.shard_group, d.t_end + sim::seconds(5), [&d] {
    std::size_t in_flight = 0;
    for (const auto& c : d.clients) in_flight += c->in_flight();
    return in_flight > 0;
  });
}

// A server's crash-dark interval [from, to) on the repeat's placement.
struct DarkInterval {
  net::HostId host;
  sim::Time from;
  sim::Time to;
};

// What the writer thread needs to fold a repeat's chunks into its
// summaries: the fault phases, the timeline and the dark intervals for the
// decision records, and the run's sampling tick count for the kept metric
// samples.
struct ChunkFold {
  bool fault_phases = false;
  sim::Time fault_start = 0;
  sim::Time fault_end = 0;
  sim::Duration timeline_bucket = 0;
  // Dark intervals of the plan's server crashes; empty unless the plan
  // crashes a server and the timeline is on.
  std::vector<DarkInterval> dark;
  std::size_t metric_ticks = 0;
};

ChunkFold chunk_fold(const Deployment& d) {
  ChunkFold f;
  f.fault_phases = !d.plan.empty();
  f.fault_start = d.plan.window_start();
  f.fault_end = d.plan.window_end();
  f.timeline_bucket = d.cfg.timeline_bucket;
  f.metric_ticks = static_cast<std::size_t>(d.t_end / obs::kSampleInterval);
  if (d.plan.empty() || f.timeline_bucket <= 0) return f;
  // Dark intervals as (host, [crash, recover)); an unmatched crash stays
  // dark to the end of the run. Events naming no server are ignored.
  std::map<int, sim::Time> open;
  for (const sim::FaultEvent& e : d.plan.events()) {
    if (e.unit != sim::FaultUnit::kServer || e.index < 0 ||
        static_cast<std::size_t>(e.index) >= d.server_hosts.size()) {
      continue;
    }
    const auto it = open.find(e.index);
    if (e.op == sim::FaultOp::kFail && it == open.end()) {
      open.emplace(e.index, e.at);
    } else if (e.op == sim::FaultOp::kRecover && it != open.end()) {
      f.dark.push_back({d.server_hosts[e.index], it->second, e.at});
      open.erase(it);
    }
  }
  for (const auto& [idx, t0] : open) {
    f.dark.push_back(
        {d.server_hosts[idx], t0, std::numeric_limits<sim::Time>::max()});
  }
  return f;
}

// Selections of a crash-dark replica ("doomed picks"): for each server
// crash/recover pair in the plan, count the audited decisions that chose
// that server's host inside its dark interval, bucketed on the latency
// timeline. The tail of nonzero buckets after a crash is how long the
// scheme kept routing to the dead replica — its failure reaction time as
// a directly comparable number (fig_failover plots it per scheme).
void tally_doomed_picks(const ChunkFold& f,
                        const obs::DecisionSnapshot& decisions,
                        ObsSummaries& out) {
  if (f.dark.empty()) return;
  for (const obs::DecisionRecord& r : decisions.records) {
    for (const DarkInterval& dark : f.dark) {
      if (r.chosen == dark.host && r.t >= dark.from && r.t < dark.to) {
        const auto b = static_cast<std::size_t>(r.t / f.timeline_bucket);
        if (b >= out.doomed_timeline.size()) {
          out.doomed_timeline.resize(b + 1, 0);
        }
        ++out.doomed_timeline[b];
        ++out.doomed_picks;
        break;
      }
    }
  }
}

// Appends the summarized columns of `chunk`'s rows to `kept`, sized once
// for the run's `ticks`. The report's metric means are running means over
// every sample of every repeat in repeat order, so a repeat keeps these
// few columns' samples, and they are folded into the summary once every
// repeat has run.
void keep_summarized(const obs::MetricsSnapshot& chunk, std::size_t ticks,
                     obs::MetricsSnapshot& kept) {
  if (chunk.rows() == 0) return;
  if (kept.columns.empty()) {
    for (std::size_t c = 0; c < chunk.columns.size(); ++c) {
      if (chunk.summarize[c] == 0) continue;
      kept.columns.push_back(chunk.columns[c]);
      kept.summarize.push_back(1);
    }
    kept.times.reserve(ticks);
    kept.values.reserve(ticks * kept.columns.size());
  }
  for (std::size_t row = 0; row < chunk.rows(); ++row) {
    kept.times.push_back(chunk.times[row]);
    for (std::size_t c = 0; c < chunk.columns.size(); ++c) {
      if (chunk.summarize[c] != 0) kept.values.push_back(chunk.value(row, c));
    }
  }
}

// Folds one chunk, on the writer thread, into the repeat's summaries.
void fold_chunk(const ChunkFold& f, const obs::ObsChunk& chunk,
                ObsSummaries& out) {
  keep_summarized(chunk.metrics, f.metric_ticks, out.metric_rows);
  out.attribution.merge(chunk.flight);
  out.decisions.merge(chunk.decisions);
  // Decision records carry their timestamps, so the per-phase regret and
  // staleness windows and the staleness timeline fall out of the same
  // bucketing the latencies use (records exist only with --decisions).
  for (const obs::DecisionRecord& r : chunk.decisions.records) {
    const int p = r.t < f.fault_start ? 0 : r.t < f.fault_end ? 1 : 2;
    if (f.fault_phases && r.has_regret) {
      out.regret_ms[p].add(r.regret_ns / 1e6);
    }
    if (!r.has_staleness) continue;
    if (f.fault_phases) out.staleness_ms[p].add(sim::to_millis(r.staleness));
    if (f.timeline_bucket > 0) {
      const auto i = static_cast<std::size_t>(r.t / f.timeline_bucket);
      if (i >= out.stale_timeline.size()) out.stale_timeline.resize(i + 1);
      out.stale_timeline[i].add(sim::to_millis(r.staleness));
    }
  }
  tally_doomed_picks(f, chunk.decisions, out);
}

// Reads the repeat's results off the drained deployment into `out`; with
// obs on, flushes what the lanes still hold and hands the trace to the
// writer.
void harvest(Deployment& d, ObsWriter* writer, RunOutput& out) {
  for (const Tally& t : d.tallies) out.tally.merge(t);
  out.fault_fired = d.injector.fired();
  out.fault_unbound = d.injector.unbound();
  for (const auto& c : d.clients) {
    out.issued += c->issued();
    out.completed += c->completed();
    out.redundant += c->redundant_sent();
    out.cancels += c->cancels_sent();
  }
  out.wire_bytes = d.fabric.bytes_sent();
  // Summed over shards (and the global queue) in shard order, so the count
  // is deterministic at any shards/jobs value.
  out.events_fired = d.shard_group.events_fired();
  out.load_oscillation = herd_cv(d.moments);
  if (d.controller) {
    out.rsnodes = d.controller->active_rsnodes();
    out.plan_method = d.controller->current_plan().method;
    out.plans_deployed = static_cast<int>(d.controller->plans_deployed());
    out.drs_groups = d.controller->current_plan().drs_groups.size();
  } else {
    out.rsnodes = d.cfg.num_clients;
    out.plan_method = "client";
  }
  if constexpr (sim::kAuditEnabled) {
    // Audit-only epilogue. Every digest-relevant output has been read above,
    // so the extra drain below cannot perturb recorded results — it only
    // lets in-flight link crossings land before the conservation ledger
    // closes. Periodic tasks (fluctuation, controller replan) keep the event
    // queue alive forever, so poll the fabric rather than wait for
    // quiescence; traffic still on the wire at the deadline is recorded as
    // in-flight, not as a leak.
    step_while(d.shard_group, d.shard_group.now() + sim::seconds(1),
               [&d] { return d.fabric.deliveries_in_flight() > 0; });
    d.fabric.audit_finalize(
        /*expect_drained=*/d.fabric.deliveries_in_flight() == 0);
    // Per-shard ledgers merged in shard order (plus the global queue's).
    out.audit = d.fabric.merged_audit_summary();
  }
  out.events_per_shard = d.shard_group.events_fired_per_shard();
  out.telemetry = d.shard_group.telemetry();  // empty unless enabled
  if (writer == nullptr) return;
  // The final flush takes everything the lanes still hold.
  flush_obs(d, *writer, std::numeric_limits<sim::Time>::max(),
            out.harvest_seconds);
  // netrs-lint: allow(wall-clock): see flush_obs.
  const auto trace_start = std::chrono::steady_clock::now();
  const obs::TraceSnapshot trace = d.observer->take_trace();
  // netrs-lint: allow(wall-clock): see flush_obs.
  const auto trace_end = std::chrono::steady_clock::now();
  out.harvest_seconds +=
      std::chrono::duration<double>(trace_end - trace_start).count();
  out.trace_events = trace.events.size();
  out.trace_recorded = trace.recorded;
  out.trace_dropped = trace.dropped;
  if (d.observer->tracing()) out.trace_lanes = d.observer->lane_trace_counts();
  for (int s = 0; s < d.shards; ++s) {
    d.shard_group.shard_sim(s).set_observer(nullptr);
  }
  d.simulator.set_observer(nullptr);
  writer->finish(trace);
  out.write_seconds = writer->busy_seconds();
  add_elementwise(out.tally.doomed_timeline, out.obs.doomed_timeline);
  out.tally.doomed_picks += out.obs.doomed_picks;
}

// Runs one repeat; with obs on, its obs files stream into
// `files->sinks(rep)` while it runs.
RunOutput run_once(Scheme scheme, const ExperimentConfig& cfg,
                   const sim::FaultPlan& fault_plan, std::uint64_t seed,
                   ObsFiles* files, std::size_t rep) {
  Deployment d(scheme, cfg, fault_plan, seed);
  wire_obs(d);
  RunOutput out;
  const ChunkFold fold = d.observer ? chunk_fold(d) : ChunkFold{};
  std::optional<ObsWriter> writer;
  if (d.observer) {
    writer.emplace(
        files->sinks(rep), rep,
        [&fold, &out](const obs::ObsChunk& c) {
          fold_chunk(fold, c, out.obs);
        },
        d.observer->metering() ? d.observer->metrics().layout()
                               : obs::MetricsSnapshot{});
  }
  run(d, writer ? &*writer : nullptr, out);
  harvest(d, writer ? &*writer : nullptr, out);
  return out;
}

// Merges one repeat's obs summaries into the result, repeats in order.
void merge_obs(const ExperimentConfig& cfg, RunOutput& out,
               ExperimentResult& res) {
  ObsSummaries& o = out.obs;
  res.metrics.merge(o.metric_rows);
  res.attribution.merge(std::move(o.attribution));
  res.decisions.merge(std::move(o.decisions));
  for (int p = 0; p < 3; ++p) {
    res.fault.regret_ms[p].merge(std::move(o.regret_ms[p]));
    res.fault.staleness_ms[p].merge(std::move(o.staleness_ms[p]));
  }
  if (o.stale_timeline.size() > res.stale_timeline.size()) {
    res.stale_timeline.resize(o.stale_timeline.size());
  }
  for (std::size_t i = 0; i < o.stale_timeline.size(); ++i) {
    res.stale_timeline[i].merge(std::move(o.stale_timeline[i]));
  }
  res.trace_events += out.trace_events;
  res.trace_dropped += out.trace_dropped;
  if (cfg.obs.want_trace()) {
    res.trace_repeats.push_back(
        {out.trace_recorded, out.trace_dropped, out.trace_lanes});
  }
  res.harvest_seconds += out.harvest_seconds;
  res.write_seconds += out.write_seconds;
}

}  // namespace

const char* fault_phase_name(int phase) {
  return phase == 0 ? "pre" : phase == 1 ? "during" : "post";
}

namespace {

// validate_config() returning the parsed fault plan.
sim::FaultPlan checked_fault_plan(const ExperimentConfig& cfg) {
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
  return fault_plan;
}

}  // namespace

void validate_config(const ExperimentConfig& cfg) {
  static_cast<void>(checked_fault_plan(cfg));
}

ExperimentResult run_experiment(Scheme scheme, const ExperimentConfig& cfg) {
  // netrs-lint: allow(wall-clock): wall_seconds is a harness diagnostic
  // outside the simulation; it never feeds back into simulated behavior.
  const auto wall_start = std::chrono::steady_clock::now();
  ExperimentResult res;
  res.scheme = scheme;
  // Everything is checked up front, on the caller's thread, before any
  // repeat fans out: the configuration, then every output file, so a path
  // that cannot be written fails before the simulation runs.
  const sim::FaultPlan fault_plan = checked_fault_plan(cfg);
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
  res.fault.enabled = !fault_plan.empty();
  res.fault.window_start_ms = sim::to_millis(fault_plan.window_start());
  res.fault.window_end_ms = sim::to_millis(fault_plan.window_end());
  res.timeline_bucket_ms = sim::to_millis(cfg.timeline_bucket);

  // Repeats are independent simulations (each owns its Simulator and
  // derives its Rng from cfg.seed + rep), so they fan out across the
  // pool; each worker writes only its own slot (and its own obs sinks).
  // Merging the slots in repeat order afterwards reproduces the serial
  // accumulation exactly, so any --jobs value yields bit-identical
  // statistics.
  const int repeats = cfg.repeats;
  std::vector<RunOutput> outputs(static_cast<std::size_t>(repeats));
  ObsFiles* obs_files = files ? &*files : nullptr;
  parallel_for(cfg.jobs, static_cast<std::size_t>(repeats),
               [&outputs, obs_files, scheme, &cfg,
                &fault_plan](std::size_t rep) {
                 outputs[rep] =
                     run_once(scheme, cfg, fault_plan,
                              cfg.seed + static_cast<std::uint64_t>(rep),
                              obs_files, rep);
               });
  if (files) {
    // netrs-lint: allow(wall-clock): write_seconds is a harness diagnostic.
    const auto finish_start = std::chrono::steady_clock::now();
    files->finish();
    // netrs-lint: allow(wall-clock): see finish_start above.
    const auto finish_end = std::chrono::steady_clock::now();
    res.write_seconds +=
        std::chrono::duration<double>(finish_end - finish_start).count();
  }

  Tally total;
  for (RunOutput& out : outputs) {
    total.merge(out.tally);
    res.issued += out.issued;
    res.completed += out.completed;
    res.redundant += out.redundant;
    res.cancels += out.cancels;
    res.wire_bytes_per_request +=
        out.completed > 0
            ? static_cast<double>(out.wire_bytes) / out.completed
            : 0.0;
    res.load_oscillation += out.load_oscillation;
    res.events_fired += out.events_fired;
    res.rsnodes = out.rsnodes;
    res.plan_method = out.plan_method;
    res.plans_deployed = out.plans_deployed;
    res.drs_groups = out.drs_groups;
    res.audit.merge(out.audit);
    add_elementwise(res.events_per_shard, out.events_per_shard);
    res.fault.events_fired += out.fault_fired;
    res.fault.events_unbound += out.fault_unbound;
    if (cfg.obs.any()) merge_obs(cfg, out, res);
  }
  res.latencies_ms = std::move(total.latencies_ms);
  std::move(std::begin(total.phase), std::end(total.phase),
            std::begin(res.fault.latency_ms));
  res.timeline = std::move(total.timeline);
  res.avg_forwards = total.forwards_sum;
  res.doomed_timeline = std::move(total.doomed_timeline);
  res.doomed_picks = total.doomed_picks;
  res.attribution.finalize();
  res.decisions.finalize();
  if (telemetry_out) {
    res.shard_telemetry.reserve(outputs.size());
    for (RunOutput& out : outputs) {
      res.shard_telemetry.push_back(std::move(out.telemetry));
    }
    sim::write_shard_telemetry_csv(*telemetry_out, res.shard_telemetry);
  }
  if (res.latencies_ms.count() > 0) {
    // avg_forwards accumulated raw forward counts across repeats.
    res.avg_forwards /= static_cast<double>(res.latencies_ms.count());
  }
  res.wire_bytes_per_request /= repeats;
  res.load_oscillation /= repeats;
  // Sort once so later percentile queries (report tables, CSV) are plain
  // lookups and never touch recorder state.
  res.latencies_ms.finalize();
  for (int p = 0; p < 3; ++p) {
    res.fault.latency_ms[p].finalize();
    res.fault.regret_ms[p].finalize();
    res.fault.staleness_ms[p].finalize();
  }
  for (sim::LatencyRecorder& bucket : res.timeline) bucket.finalize();
  for (sim::LatencyRecorder& bucket : res.stale_timeline) bucket.finalize();
  // netrs-lint: allow(wall-clock): see wall_start above.
  const auto wall_end = std::chrono::steady_clock::now();
  res.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  return res;
}

}  // namespace netrs::harness
