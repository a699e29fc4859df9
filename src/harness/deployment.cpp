#include "harness/deployment.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <utility>

#include "obs/observer.hpp"

namespace netrs::harness {
namespace {

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

// Advances `group` in 1 ms steps while `busy()` holds, until `deadline`.
// Between run_until calls every shard is parked, so `busy` may read
// across shards.
void step_while(sim::ShardGroup& group, sim::Time deadline,
                const auto& busy) {
  while (group.now() < deadline && busy()) {
    group.run_until(group.now() + sim::millis(1));
  }
}

// Runs `f` and adds the wall-clock seconds it took to `seconds`.
void timed(double& seconds, const auto& f) {
  // netrs-lint: allow(wall-clock): harvest_seconds is a harness
  // diagnostic; it never feeds back into simulated behavior.
  const auto start = std::chrono::steady_clock::now();
  f();
  // netrs-lint: allow(wall-clock): see start above.
  const auto end = std::chrono::steady_clock::now();
  seconds += std::chrono::duration<double>(end - start).count();
}

// A server's crash-dark interval [from, to) on the repeat's placement.
struct DarkInterval {
  net::HostId host;
  sim::Time from;
  sim::Time to;
};

// Dark intervals as (host, [crash, recover)) of the plan's server crashes
// on the repeat's placement, when the timeline is on; an unmatched crash
// stays dark to the end of the run. Events naming no server are ignored.
std::vector<DarkInterval> dark_intervals(const Deployment& d) {
  std::vector<DarkInterval> dark;
  if (d.cfg.timeline_bucket <= 0) return dark;
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
      dark.push_back({d.server_hosts[e.index], it->second, e.at});
      open.erase(it);
    }
  }
  for (const auto& [idx, t0] : open) {
    dark.push_back(
        {d.server_hosts[idx], t0, std::numeric_limits<sim::Time>::max()});
  }
  return dark;
}

// Folds one chunk, on the writer thread, into the repeat's result. It
// reads only deployment state that is fixed once the deployment is built.
void fold_chunk(const Deployment& d, const std::vector<DarkInterval>& dark,
                const obs::ObsChunk& chunk, ExperimentResult& out) {
  out.metrics.keep(chunk.metrics,
                   static_cast<std::size_t>(d.t_end / obs::kSampleInterval));
  out.attribution.merge(chunk.flight);
  out.decisions.merge(chunk.decisions);
  // Decision records carry their timestamps, so the per-phase regret and
  // staleness windows and the staleness timeline fall out of the same
  // bucketing the latencies use (records exist only with --decisions).
  const bool phases = !d.plan.empty();
  const sim::Duration bucket = d.cfg.timeline_bucket;
  for (const obs::DecisionRecord& r : chunk.decisions.records) {
    const int p = r.t < d.plan.window_start() ? 0
                  : r.t < d.plan.window_end() ? 1
                                              : 2;
    if (phases && r.has_regret) out.fault.regret_ms[p].add(r.regret_ns / 1e6);
    if (!r.has_staleness) continue;
    if (phases) out.fault.staleness_ms[p].add(sim::to_millis(r.staleness));
    if (bucket > 0) {
      const auto i = static_cast<std::size_t>(r.t / bucket);
      if (i >= out.stale_timeline.size()) out.stale_timeline.resize(i + 1);
      out.stale_timeline[i].add(sim::to_millis(r.staleness));
    }
  }
  // Selections of a crash-dark replica ("doomed picks"): the audited
  // decisions that chose a crashed server's host inside its dark interval,
  // bucketed on the latency timeline. The tail of nonzero buckets after a
  // crash is how long the scheme kept routing to the dead replica — its
  // failure reaction time as a directly comparable number (fig_failover
  // plots it per scheme).
  for (const obs::DecisionRecord& r : chunk.decisions.records) {
    for (const DarkInterval& di : dark) {
      if (r.chosen == di.host && r.t >= di.from && r.t < di.to) {
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

}  // namespace

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
      latency_hists.resize(static_cast<std::size_t>(shards));
      const auto folded = [this] {
        obs::LatencyHistogram h;
        for (const obs::LatencyHistogram& s : latency_hists) h.merge(s);
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
  wire_obs();
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
            tkv = cfg.mean_service_time, clients = logical_clients,
            incarnation = std::uint64_t{0}]() mutable {
      rs::SelectorConfig sc = selector;
      sc.c3.concurrency = std::max(1.0, *concurrency_hint);
      sc.c3.service_time_prior = tkv;
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
    // The completion callback runs on its client's shard worker, so each
    // shard fills its own tally (avg_forwards holds the raw forward sum
    // until finalize()).
    const auto lane = static_cast<std::size_t>(fabric.shard_of(c->node_id()));
    ExperimentResult* acc = &tallies[lane];
    obs::LatencyHistogram* hist =
        latency_hists.empty() ? nullptr : &latency_hists[lane];
    c->set_completion_callback(
        [acc, hist, warmup = warmup_time, have_fault, fault_start, fault_end,
         tl_bucket](const kv::Client::Completion& comp) {
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
          if (hist != nullptr) hist->add(comp.latency);
          acc->avg_forwards += comp.forwards;
          if (have_fault) {
            // Phase by completion time against the plan's fault window.
            const int p = comp.completed_at < fault_start  ? 0
                          : comp.completed_at < fault_end ? 1
                                                          : 2;
            acc->fault.latency_ms[p].add(sim::to_millis(comp.latency));
          }
        });
    c->start();
  }
}

// Hooks the observer into the built deployment (the standard metric set,
// the decision-audit hooks and the trace names) and turns on the opt-in
// engine telemetry.
void Deployment::wire_obs() {
  // Engine self-telemetry (opt-in; wall-clock based, so the series is
  // nondeterministic — every simulated output stays byte-identical).
  const bool telemetry = !cfg.shard_telemetry_path.empty();
  if (telemetry) {
    shard_group.enable_telemetry(
        std::max<sim::Duration>(1, cfg.shard_telemetry_bucket));
  }
  if (observer == nullptr) return;
  register_run_metrics(observer->metrics(), *this);
  // Flight + decision records apply the same warmup filter as the
  // measured latencies (on completion and in the decision replay), so
  // record counts match the latency sample count exactly.
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
    // Audit every deciding RSNode: clients (CliRS schemes) and every
    // selection unit. Each hook records on the component's own shard lane
    // with its own shard's clock — decision hooks fire inside parallel
    // windows, so the global clock would race (and lag).
    const auto make_hook = [this](net::NodeId node) {
      obs::DecisionRecorder* rec =
          &observer->lane(fabric.shard_of(node)).decisions();
      const sim::Simulator* clk = &fabric.simulator_for(node);
      return [rec, tid = static_cast<std::int32_t>(node),
              clk](const rs::DecisionContext& ctx) {
        rec->on_decision(tid, clk->now(), ctx.candidates, ctx.chosen,
                         ctx.scores, ctx.ages);
      };
    };
    for (const auto& c : clients) {
      c->set_decision_hook(make_hook(c->node_id()));
    }
    // A unit's selector records under its accelerator's node id, the same
    // tid as its trace spans.
    for (const NamedUnit& u : units) {
      u.unit->selector.set_decision_hook(
          make_hook(u.unit->accelerator.node_id()));
    }
  }
  if (observer->tracing()) {
    const auto name = [this](net::NodeId tid, const std::string& name) {
      observer->set_tid_name(static_cast<std::int32_t>(tid), name);
    };
    for (const auto& s : servers) {
      name(s->node_id(), "server@h" + std::to_string(s->host_id()));
    }
    for (const auto& c : clients) {
      name(c->node_id(), "client@h" + std::to_string(c->host_id()));
    }
    for (const auto& op : operators) {
      name(op->switch_node(), "sw" + std::to_string(op->switch_node()));
    }
    for (const NamedUnit& u : units) {
      const core::Accelerator& a = u.unit->accelerator;
      name(a.node_id(), "accel@sw" + std::to_string(a.switch_node()));
    }
  }

  if (!telemetry || !observer->metering()) return;
  // sim.shard.* gauges ride the metrics CSV only when telemetry was
  // explicitly requested: exec/stall are wall-clock values, and the
  // default CSV must stay byte-identical at any --shards x --jobs.
  for (int s = 0; s < shards; ++s) {
    for (std::size_t i = 0; i < std::size(kShardGauges); ++i) {
      observer->metrics().gauge(
          std::string("sim.shard.") + kShardGauges[i] + ".s" +
              std::to_string(s),
          [group = &shard_group, fab = &fabric, s, i] {
            return shard_gauges(*group, *fab, s)[i];
          },
          /*summarize=*/false);
    }
  }
}

ExperimentResult Deployment::run(const ObsSinks& sinks, std::size_t repeat) {
  // The writer thread folds the obs chunks into `res` until finish(); the
  // simulation thread harvests into `own`, which is merged in last.
  ExperimentResult res, own;
  const std::vector<DarkInterval> dark = dark_intervals(*this);
  std::optional<ObsWriter> writer;
  if (observer) {
    // Sized for about one record and one decision per request, so the
    // writer does not stop to move its summaries as they grow and make
    // the simulation thread wait at the next handoff.
    const auto requests = static_cast<std::size_t>(cfg.total_requests);
    if (observer->attributing()) res.attribution.reserve(requests);
    if (observer->deciding()) res.decisions.reserve(requests);
    writer.emplace(
        sinks, repeat,
        [this, &dark, &res](const obs::ObsChunk& c) {
          fold_chunk(*this, dark, c, res);
        },
        observer->metering() ? observer->metrics().layout()
                             : obs::MetricsSnapshot{});
  }
  // Metrics sampling and the obs flushes are driven from here, between
  // run_until calls, not by a simulator tick: at each grid point T the
  // engine is quiescent with every event <= T-1 executed and none at T, so
  // a sample reads the same state at any --shards x --jobs combination (an
  // in-simulator ticker would interleave unpredictably with
  // same-timestamp events), and T is a watermark below which every record
  // is final on every shard. Gauges that cross shards are safe here for
  // the same reason. Each flush appends to the writer's chunk, which is
  // handed over only once it is full (kObsChunkRows).
  if (writer && (observer->metering() || observer->attributing() ||
                 observer->deciding())) {
    for (sim::Time t = obs::kSampleInterval; t <= t_end;
         t += obs::kSampleInterval) {
      shard_group.run_until(t - 1);
      if (observer->metering()) observer->metrics().sample(t);
      timed(own.harvest_seconds,
            [&] { observer->flush(t, writer->chunk()); });
      if (writer->chunk().rows() >= kObsChunkRows) writer->submit();
    }
  }
  shard_group.run_until(t_end);
  for (auto& c : clients) c->stop();
  // Drain in-flight requests (periodic tasks keep the queue alive, so poll
  // the clients rather than waiting for quiescence).
  step_while(shard_group, t_end + sim::seconds(5), [this] {
    std::size_t in_flight = 0;
    for (const auto& c : clients) in_flight += c->in_flight();
    return in_flight > 0;
  });
  harvest(writer ? &*writer : nullptr, own);
  res.merge(std::move(own));
  return res;
}

// Reads the repeat's results off the drained deployment into `out`; with
// obs on, also the lanes' last records and the trace, for the writer.
void Deployment::harvest(ObsWriter* writer, ExperimentResult& out) {
  for (ExperimentResult& t : tallies) out.merge(std::move(t));
  out.repeats = 1;
  out.scheme = scheme;
  out.timeline_bucket_ms = sim::to_millis(cfg.timeline_bucket);
  out.fault.enabled = !plan.empty();
  out.fault.window_start_ms = sim::to_millis(plan.window_start());
  out.fault.window_end_ms = sim::to_millis(plan.window_end());
  out.fault.events_fired = injector.fired();
  out.fault.events_unbound = injector.unbound();
  for (const auto& c : clients) {
    out.issued += c->issued();
    out.completed += c->completed();
    out.redundant += c->redundant_sent();
    out.cancels += c->cancels_sent();
  }
  out.wire_bytes_per_request =
      out.completed > 0
          ? static_cast<double>(fabric.bytes_sent()) / out.completed
          : 0.0;
  // Summed over shards (and the global queue) in shard order, so the count
  // is deterministic at any shards/jobs value.
  out.events_fired = shard_group.events_fired();
  out.load_oscillation = herd_cv(moments);
  if (controller) {
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
    step_while(shard_group, shard_group.now() + sim::seconds(1),
               [this] { return fabric.deliveries_in_flight() > 0; });
    fabric.audit_finalize(
        /*expect_drained=*/fabric.deliveries_in_flight() == 0);
    // Per-shard ledgers merged in shard order (plus the global queue's).
    out.audit = fabric.merged_audit_summary();
  }
  out.events_per_shard = shard_group.events_fired_per_shard();
  if (!cfg.shard_telemetry_path.empty()) {
    out.shard_telemetry.push_back(shard_group.telemetry());
  }
  if (writer == nullptr) return;
  // The final flush takes everything the lanes still hold; finish() hands
  // it over as the last chunk.
  obs::TraceSnapshot trace;
  timed(out.harvest_seconds, [&] {
    observer->flush(std::numeric_limits<sim::Time>::max(), writer->chunk());
    trace = observer->take_trace();
  });
  out.trace_events = trace.events.size();
  out.trace_dropped = trace.dropped;
  if (cfg.obs.want_trace()) {
    out.trace_repeats.push_back(
        {trace.recorded, trace.dropped,
         observer->tracing() ? observer->lane_trace_counts()
                             : std::vector<obs::TraceLaneCounts>{}});
  }
  for (int s = 0; s < shards; ++s) {
    shard_group.shard_sim(s).set_observer(nullptr);
  }
  simulator.set_observer(nullptr);
  writer->finish(trace);
  out.write_seconds = writer->busy_seconds();
  out.wait_seconds = writer->wait_seconds();
  out.obs_handoffs = writer->handoffs();
}

}  // namespace netrs::harness
