#include "harness/experiment.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

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

struct RunOutput {
  sim::LatencyRecorder latencies_ms;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t redundant = 0;
  std::uint64_t cancels = 0;
  double forwards_sum = 0.0;
  std::uint64_t forwards_n = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t events_fired = 0;
  double load_oscillation = 0.0;
  int rsnodes = 0;
  std::string plan_method;
  int plans_deployed = 0;
  std::size_t drs_groups = 0;
  sim::AuditSummary audit;
  // Fault-phase accumulators (empty in zero-fault runs).
  sim::LatencyRecorder phase_lat[3];
  std::uint64_t fault_fired = 0;
  std::uint64_t fault_unbound = 0;
  // Absolute-time latency timeline (empty unless cfg.timeline_bucket > 0).
  std::vector<sim::LatencyRecorder> timeline;
  // Doomed picks per timeline bucket: audited decisions that chose a
  // replica while it was crash-dark (needs decisions + timeline + plan).
  std::vector<std::uint64_t> doomed_timeline;
  std::uint64_t doomed_picks = 0;
  obs::TraceSnapshot trace;
  obs::MetricsSnapshot metrics;
  obs::FlightSnapshot flight;
  obs::DecisionSnapshot decisions;
  // Per-ring trace accounting (shard lanes + coordinator; empty unless
  // tracing) and per-shard engine counters.
  std::vector<obs::TraceLaneCounts> trace_lanes;
  std::vector<std::uint64_t> events_per_shard;
  sim::ShardTelemetry telemetry;
  // Wall-clock seconds spent in the obs take_*() harvest (0 without obs).
  double harvest_seconds = 0.0;
};

// Selections of a crash-dark replica ("doomed picks"): for each server
// crash/recover pair in the plan, count the audited decisions that chose
// that server's host inside its dark interval, bucketed on the latency
// timeline. The tail of nonzero buckets after a crash is how long the
// scheme kept routing to the dead replica — its failure reaction time as
// a directly comparable number (fig_failover plots it per scheme).
void tally_doomed_picks(const sim::FaultPlan& plan,
                        const std::vector<net::HostId>& server_hosts,
                        sim::Duration bucket, RunOutput& out) {
  if (plan.empty() || bucket <= 0 || out.decisions.records.empty()) return;
  // Dark intervals as (host, [crash, recover)); an unmatched crash stays
  // dark to the end of the run.
  std::vector<std::pair<net::HostId, std::pair<sim::Time, sim::Time>>> dark;
  std::map<int, sim::Time> open;
  for (const sim::FaultEvent& e : plan.events()) {
    if (e.unit != sim::FaultUnit::kServer) continue;
    const bool in_range =
        e.index >= 0 && static_cast<std::size_t>(e.index) < server_hosts.size();
    if (e.op == sim::FaultOp::kFail) {
      open.emplace(e.index, e.at);
    } else if (e.op == sim::FaultOp::kRecover && in_range) {
      const auto it = open.find(e.index);
      if (it == open.end()) continue;
      dark.push_back({server_hosts[e.index], {it->second, e.at}});
      open.erase(it);
    }
  }
  for (const auto& [idx, t0] : open) {
    if (idx >= 0 && static_cast<std::size_t>(idx) < server_hosts.size()) {
      dark.push_back(
          {server_hosts[idx], {t0, std::numeric_limits<sim::Time>::max()}});
    }
  }
  if (dark.empty()) return;
  for (const obs::DecisionRecord& r : out.decisions.records) {
    for (const auto& [host, window] : dark) {
      if (r.chosen == host && r.t >= window.first && r.t < window.second) {
        const auto b = static_cast<std::size_t>(r.t / bucket);
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

/// Registers the standard per-repeat metric set (DESIGN.md §8.2) against
/// live component getters. Registration order fixes the column order, so
/// it must be deterministic — and it is: plain index loops only.
void register_run_metrics(obs::MetricsRegistry& reg, sim::Simulator& simulator,
                          const net::Fabric& fabric,
                          const std::vector<std::unique_ptr<kv::Server>>& servers,
                          const std::vector<std::unique_ptr<kv::Client>>& clients,
                          const std::vector<std::unique_ptr<core::NetRSOperator>>& operators,
                          const std::vector<std::unique_ptr<core::Accelerator>>& shared_accels,
                          const std::vector<std::unique_ptr<core::SelectorNode>>& shared_selectors,
                          const std::vector<QueueMoments>& moments) {
  reg.gauge("cli.issued", [&clients] {
    std::uint64_t n = 0;
    for (const auto& c : clients) n += c->issued();
    return static_cast<double>(n);
  });
  reg.gauge("cli.completed", [&clients] {
    std::uint64_t n = 0;
    for (const auto& c : clients) n += c->completed();
    return static_cast<double>(n);
  });
  reg.gauge("cli.inflight", [&clients] {
    std::uint64_t n = 0;
    for (const auto& c : clients) n += c->in_flight();
    return static_cast<double>(n);
  });

  // Per-server depth series are for plotting, not the summary table
  // (their names embed the repeat's random placement).
  for (const auto& s : servers) {
    reg.gauge("kv.qdepth.s" + std::to_string(s->host_id()),
              [srv = s.get()] { return static_cast<double>(srv->queue_size()); },
              /*summarize=*/false);
  }
  reg.gauge("kv.qdepth.mean", [&servers] {
    double sum = 0.0;
    for (const auto& s : servers) sum += s->queue_size();
    return servers.empty() ? 0.0 : sum / static_cast<double>(servers.size());
  });
  reg.gauge("kv.qdepth.max", [&servers] {
    double mx = 0.0;
    for (const auto& s : servers) {
      mx = std::max(mx, static_cast<double>(s->queue_size()));
    }
    return mx;
  });
  // Instantaneous across-server coefficient of variation: the herd /
  // load-oscillation signal (§II) as a time series.
  reg.gauge("kv.qdepth.cv", [&servers] {
    if (servers.empty()) return 0.0;
    double sum = 0.0, sumsq = 0.0;
    for (const auto& s : servers) {
      const double q = s->queue_size();
      sum += q;
      sumsq += q * q;
    }
    const double n = static_cast<double>(servers.size());
    const double mean = sum / n;
    if (mean <= 1e-9) return 0.0;
    const double var = std::max(0.0, sumsq / n - mean * mean);
    return std::sqrt(var) / mean;
  });
  // Cumulative herd metric over the measured phase so far — the same
  // statistic the report's herdCV column shows at the end of the run, now
  // also on the metrics timeline.
  reg.gauge("herd.cv", [&moments] { return herd_cv(moments); });

  // Unique accelerators/selectors, in a deterministic order: the shared
  // core-group pool first, then every dedicated operator.
  std::vector<const core::Accelerator*> accels;
  std::vector<const core::SelectorNode*> selectors;
  for (std::size_t g = 0; g < shared_accels.size(); ++g) {
    accels.push_back(shared_accels[g].get());
    selectors.push_back(shared_selectors[g].get());
    reg.gauge("accel.util.core" + std::to_string(g),
              [a = shared_accels[g].get(), &simulator] {
                return a->utilization(simulator.now());
              },
              /*summarize=*/false);
  }
  for (const auto& op : operators) {
    if (op->accel_share_id() >= 0) continue;  // pool registered above
    accels.push_back(&op->accelerator());
    selectors.push_back(&op->selector_node());
    reg.gauge("accel.util.rs" + std::to_string(op->id()),
              [a = &op->accelerator(), &simulator] {
                return a->utilization(simulator.now());
              },
              /*summarize=*/false);
  }
  if (!accels.empty()) {
    reg.gauge("accel.util.mean", [accels, &simulator] {
      double sum = 0.0;
      for (const core::Accelerator* a : accels) {
        sum += a->utilization(simulator.now());
      }
      return sum / static_cast<double>(accels.size());
    });
    reg.gauge("accel.util.max", [accels, &simulator] {
      double mx = 0.0;
      for (const core::Accelerator* a : accels) {
        mx = std::max(mx, a->utilization(simulator.now()));
      }
      return mx;
    });
    for (std::size_t g = 0; g < shared_selectors.size(); ++g) {
      reg.gauge("rs.selected.core" + std::to_string(g),
                [s = shared_selectors[g].get()] {
                  return static_cast<double>(s->requests_selected());
                },
                /*summarize=*/false);
    }
    for (const auto& op : operators) {
      if (op->accel_share_id() >= 0) continue;
      reg.gauge("rs.selected.rs" + std::to_string(op->id()),
                [s = &op->selector_node()] {
                  return static_cast<double>(s->requests_selected());
                },
                /*summarize=*/false);
    }
    reg.gauge("rs.selected.total", [selectors] {
      std::uint64_t n = 0;
      for (const core::SelectorNode* s : selectors) n += s->requests_selected();
      return static_cast<double>(n);
    });
  }

  fabric.register_metrics(reg);
}

RunOutput run_once(Scheme scheme, const ExperimentConfig& cfg,
                   const sim::FaultPlan& fault_plan, std::uint64_t seed) {
  // Shard-count resolution (DESIGN.md §4.10): clamp to [1, pods]. The obs
  // layer is shard-parallel (one Observer lane per shard, merged
  // deterministically at harvest — DESIGN.md §8.6), so every output —
  // digests, trace JSON, metrics CSV, attribution CSV, decision CSV — is
  // byte-identical at any --shards x --jobs combination.
  const int shards = std::min(std::max(1, cfg.shards), cfg.fat_tree_k);
  const sim::Duration lookahead =
      std::min(cfg.switch_link_latency, cfg.host_link_latency);
  sim::ShardGroup shard_group(shards, lookahead);
  sim::Simulator& simulator = shard_group.global_sim();
  sim::Rng root(seed);

  net::FatTree topo(cfg.fat_tree_k);
  if (cfg.num_servers + cfg.num_clients >
      static_cast<int>(topo.host_count())) {
    // Fail fast in every build type: an over-provisioned cluster used to
    // walk off the shuffled host vector in Release builds.
    throw std::invalid_argument(
        "run_experiment: num_servers + num_clients = " +
        std::to_string(cfg.num_servers + cfg.num_clients) +
        " exceeds the k=" + std::to_string(cfg.fat_tree_k) +
        " fat tree's " + std::to_string(topo.host_count()) + " hosts");
  }

  net::FabricConfig fabric_cfg;
  fabric_cfg.switch_link_latency = cfg.switch_link_latency;
  fabric_cfg.host_link_latency = cfg.host_link_latency;
  fabric_cfg.accelerator_link_latency = cfg.accelerator_link_latency;
  net::Fabric fabric(shard_group, topo, fabric_cfg);

  // Switches.
  std::vector<std::unique_ptr<net::Switch>> switches;
  switches.reserve(topo.switch_count());
  for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
    switches.push_back(std::make_unique<net::Switch>(fabric, sw));
    fabric.attach(sw, switches.back().get());
  }

  // Random role placement: one role per host (paper §V-A).
  std::vector<net::HostId> hosts(topo.host_count());
  std::iota(hosts.begin(), hosts.end(), net::HostId{0});
  sim::Rng placement_rng = root.child("placement");
  placement_rng.shuffle(hosts);
  const std::vector<net::HostId> server_hosts(
      hosts.begin(), hosts.begin() + cfg.num_servers);
  const std::vector<net::HostId> client_hosts(
      hosts.begin() + cfg.num_servers,
      hosts.begin() + cfg.num_servers + cfg.num_clients);

  kv::ConsistentHashRing ring(server_hosts, cfg.replication_factor,
                              cfg.virtual_nodes, seed ^ 0x52494E47ULL);
  const sim::ZipfDistribution zipf(cfg.keyspace, cfg.zipf_exponent);
  core::TrafficGroups groups(topo, cfg.granularity, cfg.sub_rack_hosts);

  // --- NetRS deployment (operators on every switch + controller) ----------
  std::vector<std::unique_ptr<core::NetRSOperator>> operators;
  std::vector<std::unique_ptr<core::Accelerator>> shared_accels;
  std::vector<std::unique_ptr<core::SelectorNode>> shared_selectors;
  std::unique_ptr<core::Controller> controller;
  auto concurrency_hint = std::make_shared<double>(1.0);
  // Each Client object superposes `client_multiplicity` independent Poisson
  // streams, so this is the logical client count the selector concurrency
  // math must see (the aggregate rate A is unchanged — it is split over
  // more, proportionally slower, logical streams).
  const double logical_clients =
      static_cast<double>(cfg.num_clients) *
      static_cast<double>(std::max(1, cfg.client_multiplicity));

  if (is_netrs(scheme)) {
    auto directory = std::make_shared<core::RsNodeDirectory>();
    for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
      (*directory)[static_cast<core::RsNodeId>(sw + 1)] = sw;
    }
    auto bootstrap_table = std::make_shared<const core::GroupRidTable>(
        groups.group_count(), core::kRidIllegal);

    // `op_sim` is the operator's shard simulator: selectors keep clocks and
    // rate-control state, so they must live on the shard that executes
    // their switch's events (the global simulator at --shards 1).
    auto make_factory = [concurrency_hint, logical_clients,
                         &cfg](sim::Simulator& op_sim,
                               sim::Rng op_rng) -> core::SelectorFactory {
      return [&op_sim, op_rng, concurrency_hint, selector = cfg.selector,
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

    // Shared accelerators (§III-B): one physical accelerator + selector
    // per core group, cabled to all k/2 core switches of that group.
    const int half = topo.k() / 2;
    if (cfg.share_core_accelerators) {
      for (int group = 0; group < half; ++group) {
        auto accel = std::make_unique<core::Accelerator>(
            fabric, topo.core_node(group, 0), cfg.accelerator);
        sim::Simulator& group_sim =
            fabric.simulator_for(topo.core_node(group, 0));
        auto factory = make_factory(
            group_sim, root.child(0x0A000000ULL + static_cast<unsigned>(group)));
        auto selector = std::make_unique<core::SelectorNode>(
            group_sim, ring.groups(), factory());
        accel->set_handler([sel = selector.get()](net::Packet pkt) {
          return sel->process(std::move(pkt));
        });
        selector->set_trace_tid(static_cast<std::int32_t>(accel->node_id()));
        shared_accels.push_back(std::move(accel));
        shared_selectors.push_back(std::move(selector));
      }
    }

    for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
      core::SharedParts shared;
      if (cfg.share_core_accelerators && topo.tier(sw) == net::Tier::kCore) {
        const int group = static_cast<int>(topo.coord(sw).idx) / half;
        shared.accelerator =
            shared_accels[static_cast<std::size_t>(group)].get();
        shared.selector =
            shared_selectors[static_cast<std::size_t>(group)].get();
        shared.share_id = group;
      }
      operators.push_back(std::make_unique<core::NetRSOperator>(
          fabric, *switches[sw], static_cast<core::RsNodeId>(sw + 1),
          cfg.accelerator, directory, ring.groups(),
          make_factory(fabric.simulator_for(sw),
                       root.child(0x09000000ULL + sw)),
          &groups, bootstrap_table, shared));
    }

    core::ControllerConfig ctrl_cfg;
    ctrl_cfg.mode = scheme == Scheme::kNetRSToR ? core::PlanMode::kTor
                                                : core::PlanMode::kIlp;
    ctrl_cfg.replan_interval = cfg.replan_interval;
    ctrl_cfg.utilization_cap = cfg.utilization_cap;
    ctrl_cfg.extra_hop_fraction = cfg.extra_hop_fraction;
    ctrl_cfg.overload_utilization = cfg.overload_utilization;
    ctrl_cfg.placement = cfg.placement;
    ctrl_cfg.on_plan_change = [concurrency_hint](
                                  const core::PlacementResult& plan) {
      *concurrency_hint = std::max(1, plan.rsnodes_used);
    };
    std::vector<core::NetRSOperator*> op_ptrs;
    op_ptrs.reserve(operators.size());
    for (auto& op : operators) op_ptrs.push_back(op.get());
    controller = std::make_unique<core::Controller>(simulator, topo, groups,
                                                    std::move(op_ptrs),
                                                    ctrl_cfg);
    controller->start();
  }

  // --- Servers --------------------------------------------------------------
  kv::ServerConfig server_cfg;
  server_cfg.parallelism = cfg.server_parallelism;
  server_cfg.mean_service_time = cfg.mean_service_time;
  server_cfg.fluctuate = cfg.fluctuate;
  server_cfg.fluctuation_interval = cfg.fluctuation_interval;
  server_cfg.fluctuation_factor = cfg.fluctuation_factor;
  server_cfg.value_bytes = cfg.value_bytes;

  std::vector<std::unique_ptr<kv::Server>> servers;
  servers.reserve(server_hosts.size());
  for (net::HostId h : server_hosts) {
    servers.push_back(std::make_unique<kv::Server>(
        fabric, h, server_cfg, root.child(0x05000000ULL + h)));
  }

  // --- Fault injection (DESIGN.md §9) --------------------------------------
  // run_experiment parsed and validated the plan once for all repeats.
  // Every event is scheduled on the *global* simulator, so faults execute
  // at full shard barriers — bit-identical timing at any --shards/--jobs.
  // All hook bundles are bound here: the harness is the one layer allowed
  // to touch component fail()/recover() hooks directly
  // (fault-hook-discipline lint rule).
  sim::FaultInjector injector(simulator);
  if (!fault_plan.empty()) {
    for (std::size_t i = 0; i < servers.size(); ++i) {
      kv::Server* srv = servers[i].get();
      injector.bind_server(
          static_cast<int>(i),
          {[srv] { srv->fail(); }, [srv] { srv->recover(); },
           [srv](double f) { srv->set_service_inflation(f); }});
    }
    injector.set_link_hook([&fabric](int a, int b, bool up) {
      fabric.set_link_state(static_cast<net::NodeId>(a),
                            static_cast<net::NodeId>(b), up);
    });
    if (is_netrs(scheme)) {
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
    }
    injector.arm(fault_plan);
  }

  // --- Clients ----------------------------------------------------------------
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

  const sim::Duration t_end = cfg.nominal_duration();
  const auto warmup_time =
      static_cast<sim::Time>(cfg.warmup_fraction *
                             static_cast<double>(t_end));

  // Herd-behavior instrumentation: sample every server's queue length
  // periodically during the measured phase; per-server mean/variance give
  // the load-oscillation metric (coefficient of variation).
  std::vector<QueueMoments> moments(servers.size());
  simulator.every(sim::millis(5), [&servers, &moments, &simulator,
                                   warmup_time, t_end] {
    if (simulator.now() < warmup_time) return true;
    for (std::size_t i = 0; i < servers.size(); ++i) {
      const double q = servers[i]->queue_size();
      moments[i].sum += q;
      moments[i].sumsq += q * q;
      ++moments[i].n;
    }
    return simulator.now() < t_end;
  });

  // --- Observability (created before clients so the completion callback
  // can capture the latency histogram; wired up fully once every
  // component exists). Observation-only: results are identical with or
  // without it. One Observer lane per shard — each component records on
  // its own shard's simulator with zero cross-shard traffic — plus the
  // coordinator observer for global-simulator events; the lane snapshots
  // merge deterministically at harvest (DESIGN.md §8.6).
  std::unique_ptr<obs::ShardObserverSet> observer;
  obs::ShardedHistogram* latency_hist = nullptr;
  if (cfg.obs.any()) {
    observer = std::make_unique<obs::ShardObserverSet>(cfg.obs, shards);
    for (int s = 0; s < shards; ++s) {
      shard_group.shard_sim(s).set_observer(&observer->lane(s));
    }
    // At shards == 1 the global simulator IS shard 0, and coordinator()
    // is lane(0) — the second set_observer stores the same pointer.
    simulator.set_observer(&observer->coordinator());
    if (observer->metering()) {
      latency_hist = observer->metrics().sharded_histogram(
          "latency_ms", {1, 2, 4, 8, 16, 32, 64, 128, 256}, shards);
    }
  }

  RunOutput out;
  // Completion-path accumulators, one per shard: the callback runs on the
  // client's shard worker, so each thread writes only its own slot; the
  // slots merge in shard order after the run. The recorded sample set is
  // identical at any shard count (the digest sorts samples, and the
  // integer counters are order-independent sums).
  struct ShardAccum {
    sim::LatencyRecorder latencies_ms;
    sim::LatencyRecorder phase[3];  // pre/during/post-fault completions
    std::vector<sim::LatencyRecorder> timeline;  // absolute-time buckets
    double forwards_sum = 0.0;
    std::uint64_t forwards_n = 0;
  };
  const bool have_fault = !fault_plan.empty();
  const sim::Time fault_start = fault_plan.window_start();
  const sim::Time fault_end = fault_plan.window_end();
  const sim::Duration tl_bucket = cfg.timeline_bucket;
  std::vector<ShardAccum> accums(static_cast<std::size_t>(shards));
  std::vector<std::unique_ptr<kv::Client>> clients;
  clients.reserve(client_hosts.size());
  for (int i = 0; i < cfg.num_clients; ++i) {
    kv::ClientConfig this_cfg = client_cfg;
    this_cfg.arrival_rate =
        (hot_count > 0 && i < hot_count) ? hot_rate
        : cold_rate > 0.0               ? cold_rate
                                        : aggregate / cfg.num_clients;
    clients.push_back(std::make_unique<kv::Client>(
        fabric, client_hosts[static_cast<std::size_t>(i)], this_cfg, ring,
        zipf,
        root.child(0x0C000000ULL +
                   client_hosts[static_cast<std::size_t>(i)])));
    kv::Client* c = clients.back().get();
    const int lane = fabric.shard_of(c->node_id());
    ShardAccum* acc = &accums[static_cast<std::size_t>(lane)];
    c->set_completion_callback(
        [acc, lane, warmup_time, latency_hist, have_fault, fault_start,
         fault_end, tl_bucket](const kv::Client::Completion& comp) {
          if (tl_bucket > 0) {
            // Timeline buckets cover the whole run (warmup included), so
            // the failover panel shows the ramp as well as the event.
            const auto idx =
                static_cast<std::size_t>(comp.completed_at / tl_bucket);
            if (idx >= acc->timeline.size()) acc->timeline.resize(idx + 1);
            acc->timeline[idx].add(sim::to_millis(comp.latency));
          }
          if (comp.completed_at - comp.latency < warmup_time) return;
          acc->latencies_ms.add(sim::to_millis(comp.latency));
          if (latency_hist != nullptr) {
            // Integer-ns bucketing on the caller's shard lane: lanes fold
            // by integer addition at sample time, so the series is
            // byte-identical at any shard count.
            latency_hist->add(lane, comp.latency);
          }
          acc->forwards_sum += comp.forwards;
          ++acc->forwards_n;
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

  if (observer) {
    register_run_metrics(observer->metrics(), simulator, fabric, servers,
                         clients, operators, shared_accels, shared_selectors,
                         moments);
    // Flight + decision records apply the same warmup filter as the
    // measured latencies (at merge time), so record counts match the
    // latency sample count exactly.
    observer->set_measure_from(warmup_time);
    if (observer->deciding()) {
      // Seed the decision oracle's journal: every server's t=0 state on
      // its own shard's lane. From here on the servers journal their own
      // transitions (kv::Server::journal_state), and the replay looks
      // decisions up against the merged journal at any shard count.
      for (const auto& s : servers) {
        observer->lane(fabric.shard_of(s->node_id()))
            .decisions()
            .on_server_state(s->host_id(), 0, s->queue_size(),
                             s->parallelism(), s->current_mean());
      }
      // Audit every deciding RSNode: clients (CliRS schemes), the shared
      // core-group selector pool, and each dedicated operator's selector.
      // Each hook records on the component's own shard lane with its own
      // shard's clock — decision hooks fire inside parallel windows, so
      // the global clock would race (and lag).
      const auto make_hook = [&observer, &fabric](net::NodeId node,
                                                  std::int32_t tid) {
        obs::DecisionRecorder* rec =
            &observer->lane(fabric.shard_of(node)).decisions();
        const sim::Simulator* clk = &fabric.simulator_for(node);
        return [rec, tid, clk](const rs::DecisionContext& ctx) {
          rec->on_decision(tid, clk->now(), ctx.candidates, ctx.chosen,
                           ctx.scores, ctx.ages);
        };
      };
      for (const auto& c : clients) {
        c->set_decision_hook(make_hook(
            c->node_id(), static_cast<std::int32_t>(c->node_id())));
      }
      for (std::size_t g = 0; g < shared_selectors.size(); ++g) {
        shared_selectors[g]->set_decision_hook(
            make_hook(shared_accels[g]->node_id(),
                      shared_selectors[g]->trace_tid()));
      }
      for (const auto& op : operators) {
        if (op->accel_share_id() >= 0) continue;  // pool hooked above
        op->selector_node().set_decision_hook(
            make_hook(op->switch_node(), op->selector_node().trace_tid()));
      }
    }
    if (observer->tracing()) {
      for (const auto& s : servers) {
        observer->set_tid_name(static_cast<std::int32_t>(s->node_id()),
                               "server@h" + std::to_string(s->host_id()));
      }
      for (const auto& c : clients) {
        observer->set_tid_name(static_cast<std::int32_t>(c->node_id()),
                               "client@h" + std::to_string(c->host_id()));
      }
      for (const auto& op : operators) {
        observer->set_tid_name(
            static_cast<std::int32_t>(op->switch_node()),
            "sw" + std::to_string(op->switch_node()));
        observer->set_tid_name(
            static_cast<std::int32_t>(op->accelerator().node_id()),
            "accel@sw" + std::to_string(op->accelerator().switch_node()));
      }
    }
  }

  // --- Engine self-telemetry (opt-in; wall-clock based, so the series is
  // nondeterministic — every simulated output stays byte-identical).
  const bool telemetry = !cfg.shard_telemetry_path.empty();
  if (telemetry) {
    shard_group.enable_telemetry(std::max<sim::Duration>(
        1, cfg.shard_telemetry_bucket));
    if (observer && observer->metering()) {
      // sim.shard.* gauges ride the metrics CSV only when telemetry was
      // explicitly requested: exec/stall are wall-clock values, and the
      // default CSV must stay byte-identical at any --shards x --jobs.
      obs::MetricsRegistry& reg = observer->metrics();
      const sim::ShardGroup* group = &shard_group;
      const net::Fabric* fab = &fabric;
      for (int s = 0; s < shards; ++s) {
        const auto lane = static_cast<std::size_t>(s);
        const std::string suffix = ".s" + std::to_string(s);
        const auto lane_field =
            [group, lane](std::uint64_t sim::ShardTelemetry::Lane::* f) {
              const sim::ShardTelemetry& t = group->telemetry();
              return lane < t.lanes.size()
                         ? static_cast<double>(t.lanes[lane].*f)
                         : 0.0;
            };
        reg.gauge("sim.shard.windows" + suffix,
                  [lane_field] {
                    return lane_field(&sim::ShardTelemetry::Lane::windows);
                  },
                  /*summarize=*/false);
        reg.gauge("sim.shard.events" + suffix,
                  [lane_field] {
                    return lane_field(&sim::ShardTelemetry::Lane::events);
                  },
                  /*summarize=*/false);
        reg.gauge("sim.shard.exec_ns" + suffix,
                  [lane_field] {
                    return lane_field(&sim::ShardTelemetry::Lane::exec_ns);
                  },
                  /*summarize=*/false);
        reg.gauge("sim.shard.stall_ns" + suffix,
                  [lane_field] {
                    return lane_field(&sim::ShardTelemetry::Lane::stall_ns);
                  },
                  /*summarize=*/false);
        // Wall-clock utilization: execute share of this shard's window
        // time so far (1.0 = never waited for a peer).
        reg.gauge("sim.shard.util" + suffix,
                  [lane_field] {
                    const double e =
                        lane_field(&sim::ShardTelemetry::Lane::exec_ns);
                    const double st =
                        lane_field(&sim::ShardTelemetry::Lane::stall_ns);
                    return e + st > 0.0 ? e / (e + st) : 0.0;
                  },
                  /*summarize=*/false);
        reg.gauge("sim.shard.cross_sends" + suffix,
                  [fab, s] {
                    return static_cast<double>(fab->cross_sends(s));
                  },
                  /*summarize=*/false);
        reg.gauge("sim.shard.cross_pending" + suffix,
                  [fab, s] {
                    return static_cast<double>(fab->cross_pending_depth(s));
                  },
                  /*summarize=*/false);
      }
    }
  }

  // --- Run -------------------------------------------------------------------
  // Metrics sampling is driven from here, between run_until calls, not by
  // a simulator tick: at each grid point T the engine is quiescent with
  // every event <= T-1 executed and none at T, so a sample reads the same
  // state at any --shards x --jobs combination (an in-simulator ticker
  // would interleave unpredictably with same-timestamp events). Gauges
  // that cross shards are safe here for the same reason.
  if (observer && observer->metering()) {
    obs::MetricsRegistry& reg = observer->metrics();
    for (sim::Time t = obs::kSampleInterval; t <= t_end;
         t += obs::kSampleInterval) {
      shard_group.run_until(t - 1);
      reg.sample(t);
    }
  }
  shard_group.run_until(t_end);
  for (auto& c : clients) c->stop();
  // Drain in-flight requests (periodic tasks keep the queue alive, so poll
  // the clients rather than waiting for quiescence). Between run_until
  // calls every shard is parked, so the cross-shard reads are safe.
  const sim::Time drain_deadline = t_end + sim::seconds(5);
  while (shard_group.now() < drain_deadline) {
    std::size_t in_flight = 0;
    for (const auto& c : clients) in_flight += c->in_flight();
    if (in_flight == 0) break;
    shard_group.run_until(shard_group.now() + sim::millis(1));
  }

  // Merge the per-shard completion accumulators in shard order.
  for (ShardAccum& acc : accums) {
    out.latencies_ms.merge(acc.latencies_ms);
    for (int p = 0; p < 3; ++p) out.phase_lat[p].merge(acc.phase[p]);
    if (acc.timeline.size() > out.timeline.size()) {
      out.timeline.resize(acc.timeline.size());
    }
    for (std::size_t i = 0; i < acc.timeline.size(); ++i) {
      out.timeline[i].merge(acc.timeline[i]);
    }
    out.forwards_sum += acc.forwards_sum;
    out.forwards_n += acc.forwards_n;
  }
  out.fault_fired = injector.fired();
  out.fault_unbound = injector.unbound();
  for (const auto& c : clients) {
    out.issued += c->issued();
    out.completed += c->completed();
    out.redundant += c->redundant_sent();
    out.cancels += c->cancels_sent();
  }
  out.wire_bytes = fabric.bytes_sent();
  // Summed over shards (and the global queue) in shard order, so the count
  // is deterministic at any shards/jobs value (bench_gate's allocs-per-hop
  // and events-per-core-sec stay meaningful under sharding).
  out.events_fired = shard_group.events_fired();
  out.load_oscillation = herd_cv(moments);
  if (is_netrs(scheme)) {
    out.rsnodes = controller->active_rsnodes();
    out.plan_method = controller->current_plan().method;
    out.plans_deployed = static_cast<int>(controller->plans_deployed());
    out.drs_groups = controller->current_plan().drs_groups.size();
  } else {
    out.rsnodes = cfg.num_clients;
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
    const sim::Time audit_deadline = shard_group.now() + sim::seconds(1);
    while (shard_group.now() < audit_deadline &&
           fabric.deliveries_in_flight() > 0) {
      shard_group.run_until(shard_group.now() + sim::millis(1));
    }
    fabric.audit_finalize(
        /*expect_drained=*/fabric.deliveries_in_flight() == 0);
    // Per-shard ledgers merged in shard order (plus the global queue's).
    out.audit = fabric.merged_audit_summary();
  }
  out.events_per_shard = shard_group.events_fired_per_shard();
  if (telemetry) out.telemetry = shard_group.telemetry();
  if (observer) {
    // netrs-lint: allow(wall-clock): harvest_seconds is a harness
    // diagnostic; it never feeds back into simulated behavior.
    const auto harvest_start = std::chrono::steady_clock::now();
    out.trace = observer->take_trace();
    out.metrics = observer->take_metrics();
    out.flight = observer->take_flight();
    out.decisions = observer->take_decisions();
    // netrs-lint: allow(wall-clock): see harvest_start above.
    const auto harvest_end = std::chrono::steady_clock::now();
    out.harvest_seconds =
        std::chrono::duration<double>(harvest_end - harvest_start).count();
    if (observer->tracing()) {
      out.trace_lanes = observer->lane_trace_counts();
    }
    for (int s = 0; s < shards; ++s) {
      shard_group.shard_sim(s).set_observer(nullptr);
    }
    simulator.set_observer(nullptr);
    tally_doomed_picks(fault_plan, server_hosts, cfg.timeline_bucket, out);
  }
  return out;
}

}  // namespace

const char* fault_phase_name(int phase) {
  switch (phase) {
    case 0:
      return "pre";
    case 1:
      return "during";
    default:
      return "post";
  }
}

ExperimentResult run_experiment(Scheme scheme, const ExperimentConfig& cfg) {
  // netrs-lint: allow(wall-clock): wall_seconds is a harness diagnostic
  // outside the simulation; it never feeds back into simulated behavior.
  const auto wall_start = std::chrono::steady_clock::now();
  ExperimentResult res;
  res.scheme = scheme;
  // Parse the fault plan once up front: a malformed spec throws here, on
  // the caller's thread, before any repeat fans out.
  const sim::FaultPlan fault_plan = sim::FaultPlan::parse(cfg.fault_plan);
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
        "run_experiment: fault plan entry \"" + std::string(verb) +
        std::to_string(e.index) + " " + std::to_string(e.peer) + "\" at " +
        std::to_string(e.at) + " ns names no link of the k=" +
        std::to_string(cfg.fat_tree_k) + " fat tree (NodeIds 0.." +
        std::to_string(node_count - 1) + ", endpoints must be adjacent)");
  }
  res.fault.enabled = !fault_plan.empty();
  res.fault.window_start_ms = sim::to_millis(fault_plan.window_start());
  res.fault.window_end_ms = sim::to_millis(fault_plan.window_end());
  res.timeline_bucket_ms = sim::to_millis(cfg.timeline_bucket);

  // Repeats are independent simulations (each owns its Simulator and
  // derives its Rng from cfg.seed + rep), so they fan out across the
  // pool; each worker writes only its own slot. Merging the slots in
  // repeat order afterwards reproduces the serial accumulation exactly,
  // so any --jobs value yields bit-identical statistics.
  const int repeats = std::max(1, cfg.repeats);
  std::vector<RunOutput> outputs(static_cast<std::size_t>(repeats));
  parallel_for(cfg.jobs, static_cast<std::size_t>(repeats),
               [&outputs, scheme, &cfg, &fault_plan](std::size_t rep) {
                 outputs[rep] =
                     run_once(scheme, cfg, fault_plan,
                              cfg.seed + static_cast<std::uint64_t>(rep));
               });

  for (const RunOutput& out : outputs) {
    res.latencies_ms.merge(out.latencies_ms);
    res.issued += out.issued;
    res.completed += out.completed;
    res.redundant += out.redundant;
    res.cancels += out.cancels;
    res.avg_forwards += out.forwards_sum;
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
    res.metrics.merge(out.metrics);
    res.trace_events += out.trace.events.size();
    res.trace_dropped += out.trace.dropped;
    if (cfg.obs.want_trace()) {
      res.trace_repeats.push_back(
          {out.trace.recorded, out.trace.dropped, out.trace_lanes});
    }
    if (out.events_per_shard.size() > res.events_per_shard.size()) {
      res.events_per_shard.resize(out.events_per_shard.size(), 0);
    }
    for (std::size_t s = 0; s < out.events_per_shard.size(); ++s) {
      res.events_per_shard[s] += out.events_per_shard[s];
    }
    res.attribution.merge(out.flight);
    res.decisions.merge(out.decisions);
    if (res.fault.enabled) {
      for (int p = 0; p < 3; ++p) {
        res.fault.latency_ms[p].merge(out.phase_lat[p]);
      }
      res.fault.events_fired += out.fault_fired;
      res.fault.events_unbound += out.fault_unbound;
      // Decision records carry their timestamps, so the per-phase regret
      // and staleness windows fall out of the same bucketing the latency
      // phases use (records exist only with --decisions).
      const sim::Time fault_start = fault_plan.window_start();
      const sim::Time fault_end = fault_plan.window_end();
      for (const obs::DecisionRecord& r : out.decisions.records) {
        const int p = r.t < fault_start ? 0 : r.t < fault_end ? 1 : 2;
        if (r.has_regret) res.fault.regret_ms[p].add(r.regret_ns / 1e6);
        if (r.has_staleness) {
          res.fault.staleness_ms[p].add(sim::to_millis(r.staleness));
        }
      }
    }
    if (out.timeline.size() > res.timeline.size()) {
      res.timeline.resize(out.timeline.size());
    }
    for (std::size_t i = 0; i < out.timeline.size(); ++i) {
      res.timeline[i].merge(out.timeline[i]);
    }
    if (cfg.timeline_bucket > 0) {
      // Staleness timeline: decision records carry timestamps, so they
      // bucket onto the same absolute-time grid as the latencies.
      for (const obs::DecisionRecord& r : out.decisions.records) {
        if (!r.has_staleness) continue;
        const auto i = static_cast<std::size_t>(r.t / cfg.timeline_bucket);
        if (i >= res.stale_timeline.size()) res.stale_timeline.resize(i + 1);
        res.stale_timeline[i].add(sim::to_millis(r.staleness));
      }
    }
    if (out.doomed_timeline.size() > res.doomed_timeline.size()) {
      res.doomed_timeline.resize(out.doomed_timeline.size(), 0);
    }
    for (std::size_t i = 0; i < out.doomed_timeline.size(); ++i) {
      res.doomed_timeline[i] += out.doomed_timeline[i];
    }
    res.doomed_picks += out.doomed_picks;
    res.harvest_seconds += out.harvest_seconds;
  }
  res.attribution.finalize();
  res.decisions.finalize();
  // Emit the merged observability artifacts in repeat order — the same
  // order at any --jobs value, so both files are bit-identical to a
  // serial run.
  // netrs-lint: allow(wall-clock): write_seconds is a harness diagnostic.
  const auto write_start = std::chrono::steady_clock::now();
  if (cfg.obs.want_trace()) {
    std::vector<obs::TraceSnapshot> traces;
    traces.reserve(outputs.size());
    for (RunOutput& out : outputs) traces.push_back(std::move(out.trace));
    std::ofstream os(cfg.obs.trace_path, std::ios::binary);
    obs::write_chrome_trace(os, traces);
  }
  if (cfg.obs.want_metrics()) {
    std::vector<obs::MetricsSnapshot> series;
    series.reserve(outputs.size());
    for (RunOutput& out : outputs) series.push_back(std::move(out.metrics));
    std::ofstream os(cfg.obs.metrics_path, std::ios::binary);
    obs::write_metrics_csv(os, series);
  }
  if (!cfg.obs.attribution_path.empty()) {
    std::vector<obs::FlightSnapshot> flights;
    flights.reserve(outputs.size());
    for (RunOutput& out : outputs) flights.push_back(std::move(out.flight));
    std::ofstream os(cfg.obs.attribution_path, std::ios::binary);
    obs::write_attribution_csv(os, flights);
  }
  if (!cfg.obs.decision_path.empty()) {
    std::vector<obs::DecisionSnapshot> decisions;
    decisions.reserve(outputs.size());
    for (RunOutput& out : outputs) {
      decisions.push_back(std::move(out.decisions));
    }
    std::ofstream os(cfg.obs.decision_path, std::ios::binary);
    obs::write_decision_csv(os, decisions);
  }
  if (cfg.obs.any()) {
    // netrs-lint: allow(wall-clock): see write_start above.
    const auto write_end = std::chrono::steady_clock::now();
    res.write_seconds =
        std::chrono::duration<double>(write_end - write_start).count();
  }
  if (!cfg.shard_telemetry_path.empty()) {
    res.shard_telemetry.reserve(outputs.size());
    for (RunOutput& out : outputs) {
      res.shard_telemetry.push_back(std::move(out.telemetry));
    }
    std::ofstream os(cfg.shard_telemetry_path, std::ios::binary);
    sim::write_shard_telemetry_csv(os, res.shard_telemetry);
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
