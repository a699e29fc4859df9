#include "traced.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "alloc.hpp"
#include "kv/client.hpp"
#include "kv/consistent_hash.hpp"
#include "kv/server.hpp"
#include "net/fabric.hpp"
#include "net/switch.hpp"
#include "netrs/controller.hpp"
#include "netrs/operator.hpp"
#include "netrs/placement.hpp"
#include "rs/factory.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

using namespace netrs;
using Clock = std::chrono::steady_clock;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// Current resident set in KiB (second field of /proc/self/statm, in pages).
std::int64_t rss_kb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long size = 0, resident = 0;
  const int got = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

// Times one call into a layer entry point, accumulating into `span`.
class Timed {
 public:
  explicit Timed(Span& span)
      : span_(span), allocs0_(allocations()), t0_(Clock::now()) {}
  ~Timed() {
    const Clock::time_point t1 = Clock::now();
    span_.ns += ns_between(t0_, t1);
    span_.allocs += allocations() - allocs0_;
    ++span_.calls;
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Span& span_;
  std::uint64_t allocs0_;
  Clock::time_point t0_;
};

// Attached to the fabric in a switch's place: every packet delivered to
// the switch passes through receive() here.
class TimedSwitch final : public net::Node {
 public:
  explicit TimedSwitch(net::Switch& sw) : sw_(sw) {}
  void receive(net::Packet pkt, net::NodeId from) override {
    const Timed t(span);
    sw_.receive(std::move(pkt), from);
  }
  Span span;  // written only by the switch's shard thread

 private:
  net::Switch& sw_;
};

// Per-RSNode rs call accounting; outlives the selector instances, which
// the controller replaces on every plan change.
struct RsSpans {
  Span select, send, response;
};

// Decorates an RSNode's replica selector with call timing.
class TimedSelector final : public rs::ReplicaSelector {
 public:
  TimedSelector(std::unique_ptr<rs::ReplicaSelector> inner, RsSpans& spans)
      : inner_(std::move(inner)), spans_(spans) {}
  net::HostId select(std::span<const net::HostId> candidates) override {
    const Timed t(spans_.select);
    return inner_->select(candidates);
  }
  void on_send(net::HostId server) override {
    const Timed t(spans_.send);
    inner_->on_send(server);
  }
  void on_response(const rs::Feedback& fb) override {
    const Timed t(spans_.response);
    inner_->on_response(fb);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<rs::ReplicaSelector> inner_;
  RsSpans& spans_;
};

void add(Span& into, const Span& s) {
  into.calls += s.calls;
  into.ns += s.ns;
  into.allocs += s.allocs;
}

// Times consecutive constructor groups and their RSS growth.
class SetupTrace {
 public:
  explicit SetupTrace(std::vector<CtorGroup>& out)
      : out_(out), t_(Clock::now()), rss_(rss_kb()) {}
  void mark(const char* name) {
    const Clock::time_point t = Clock::now();
    const std::int64_t rss = rss_kb();
    out_.push_back({name, ns_between(t_, t), rss - rss_});
    t_ = t;
    rss_ = rss;
  }

 private:
  std::vector<CtorGroup>& out_;
  Clock::time_point t_;
  std::int64_t rss_;
};

}  // namespace

TracedResult run_traced(const Workload& w) {
  using harness::Scheme;
  const harness::ExperimentConfig& cfg = w.cfg;
  const Scheme scheme = w.scheme;
  if (cfg.repeats != 1 || cfg.share_core_accelerators || cfg.demand_skew > 0.0) {
    throw std::invalid_argument(
        "traced run mirrors single-repeat, dedicated-accelerator, "
        "uniform-demand cells only");
  }
  TracedResult out;
  Clock::time_point harvest_start;
  Clock::time_point scope_exit;
  const Clock::time_point t0 = Clock::now();
  // The deployment lives in this lambda so its teardown can be timed: the
  // harness's run_once destroys the same objects before returning.
  [&] {
    // Mirrors harness::run_once (src/harness/experiment.cpp) step by step;
    // the obs wiring is left out (the traced run runs with obs off).
    SetupTrace setup(out.ctor);
    const int shards = std::min(std::max(1, cfg.shards), cfg.fat_tree_k);
    out.shards = shards;
    const sim::Duration lookahead =
        std::min(cfg.switch_link_latency, cfg.host_link_latency);
    sim::ShardGroup shard_group(shards, lookahead);
    sim::Simulator& simulator = shard_group.global_sim();
    const std::uint64_t seed = cfg.seed;
    sim::Rng root(seed);
    net::FatTree topo(cfg.fat_tree_k);
    net::FabricConfig fabric_cfg;
    fabric_cfg.switch_link_latency = cfg.switch_link_latency;
    fabric_cfg.host_link_latency = cfg.host_link_latency;
    fabric_cfg.accelerator_link_latency = cfg.accelerator_link_latency;
    net::Fabric fabric(shard_group, topo, fabric_cfg);
    setup.mark("sim.engine+net.fabric");

    std::vector<std::unique_ptr<net::Switch>> switches;
    std::vector<std::unique_ptr<TimedSwitch>> timed_switches;
    switches.reserve(topo.switch_count());
    timed_switches.reserve(topo.switch_count());
    for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
      switches.push_back(std::make_unique<net::Switch>(fabric, sw));
      timed_switches.push_back(std::make_unique<TimedSwitch>(*switches.back()));
      fabric.attach(sw, timed_switches.back().get());
    }
    setup.mark("net.switches");

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
    setup.mark("kv.ring+netrs.groups");

    std::vector<std::unique_ptr<core::NetRSOperator>> operators;
    std::vector<std::unique_ptr<RsSpans>> rs_spans;
    std::vector<std::unique_ptr<Span>> selector_spans;
    std::unique_ptr<core::Controller> controller;
    auto concurrency_hint = std::make_shared<double>(1.0);
    const double logical_clients =
        static_cast<double>(cfg.num_clients) *
        static_cast<double>(std::max(1, cfg.client_multiplicity));
    if (harness::is_netrs(scheme)) {
      auto directory = std::make_shared<core::RsNodeDirectory>();
      for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
        (*directory)[static_cast<core::RsNodeId>(sw + 1)] = sw;
      }
      auto bootstrap_table = std::make_shared<const core::GroupRidTable>(
          groups.group_count(), core::kRidIllegal);
      // The harness's selector factory, decorated with TimedSelector.
      auto make_factory = [concurrency_hint, logical_clients, &cfg](
                              sim::Simulator& op_sim, sim::Rng op_rng,
                              RsSpans& spans) -> core::SelectorFactory {
        return [&op_sim, op_rng, concurrency_hint, selector = cfg.selector,
                clients = logical_clients, &spans,
                incarnation = std::uint64_t{0}]() mutable
               -> std::unique_ptr<rs::ReplicaSelector> {
          rs::SelectorConfig sc = selector;
          sc.c3.concurrency = std::max(1.0, *concurrency_hint);
          const double aggregation =
              std::max(1.0, clients / sc.c3.concurrency);
          sc.c3.cubic.initial_rate *= aggregation;
          sc.c3.cubic.burst_tokens *= aggregation;
          return std::make_unique<TimedSelector>(
              rs::make_selector(sc, op_sim, op_rng.child(++incarnation)),
              spans);
        };
      };
      for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
        rs_spans.push_back(std::make_unique<RsSpans>());
        selector_spans.push_back(std::make_unique<Span>());
        operators.push_back(std::make_unique<core::NetRSOperator>(
            fabric, *switches[sw], static_cast<core::RsNodeId>(sw + 1),
            cfg.accelerator, directory, ring.groups(),
            make_factory(fabric.simulator_for(sw),
                         root.child(0x09000000ULL + sw), *rs_spans.back()),
            &groups, bootstrap_table));
        core::NetRSOperator* op = operators.back().get();
        op->accelerator().set_handler(
            [sel = &op->selector_node(), span = selector_spans.back().get()](
                net::Packet pkt) -> std::optional<net::Packet> {
              const Timed t(*span);
              return sel->process(std::move(pkt));
            });
      }
      setup.mark("netrs.operators");

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
      controller = std::make_unique<core::Controller>(
          simulator, topo, groups, std::move(op_ptrs), ctrl_cfg);
      controller->start();
      setup.mark("netrs.controller");
    }

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
    setup.mark("kv.servers");

    const sim::FaultPlan fault_plan = sim::FaultPlan::parse(cfg.fault_plan);
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
      if (harness::is_netrs(scheme)) {
        core::Controller* ctrl = controller.get();
        for (auto& op : operators) {
          core::NetRSOperator* o = op.get();
          const auto id = static_cast<int>(o->id());
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
          injector.bind_accelerator(id,
                                    {[o] { o->accelerator().fail(); },
                                     [o] { o->accelerator().recover(); },
                                     nullptr});
        }
      }
      injector.arm(fault_plan);
    }

    const double aggregate = cfg.aggregate_rate();
    kv::ClientConfig client_cfg;
    client_cfg.mode = harness::is_netrs(scheme) ? kv::ClientMode::kNetRS
                                                : kv::ClientMode::kClientSelect;
    client_cfg.redundancy.enabled =
        scheme == Scheme::kCliRSR95 || scheme == Scheme::kCliRSR95Cancel;
    client_cfg.redundancy.cancel_on_completion =
        scheme == Scheme::kCliRSR95Cancel;
    client_cfg.selector = cfg.selector;
    client_cfg.selector.c3.concurrency = std::max(1.0, logical_clients);
    client_cfg.selector.c3.service_time_prior = cfg.mean_service_time;
    client_cfg.arrival_rate = aggregate / cfg.num_clients;

    const sim::Duration t_end = cfg.nominal_duration();
    const auto warmup_time = static_cast<sim::Time>(
        cfg.warmup_fraction * static_cast<double>(t_end));

    // The harness's herd sampler: its events count in the event total.
    struct QueueMoments {
      double sum = 0.0, sumsq = 0.0;
      std::uint64_t n = 0;
    };
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

    // Completion accumulators, one per shard lane (written only by the
    // lane's worker thread).
    struct Accum {
      double forwards_sum = 0.0;
      std::uint64_t measured = 0;
    };
    std::vector<Accum> accums(static_cast<std::size_t>(shards));
    std::vector<std::unique_ptr<kv::Client>> clients;
    clients.reserve(client_hosts.size());
    for (int i = 0; i < cfg.num_clients; ++i) {
      const net::HostId h = client_hosts[static_cast<std::size_t>(i)];
      clients.push_back(std::make_unique<kv::Client>(
          fabric, h, client_cfg, ring, zipf, root.child(0x0C000000ULL + h)));
      kv::Client* c = clients.back().get();
      Accum* acc =
          &accums[static_cast<std::size_t>(fabric.shard_of(c->node_id()))];
      c->set_completion_callback(
          [acc, warmup_time](const kv::Client::Completion& comp) {
            if (comp.completed_at - comp.latency < warmup_time) return;
            acc->forwards_sum += comp.forwards;
            ++acc->measured;
          });
      c->start();
    }
    setup.mark("kv.clients");
    // Engine telemetry, as cfg.shard_telemetry_path turns it on in the
    // harness (wall-clock only; it never changes the simulation).
    shard_group.enable_telemetry(
        std::max<sim::Duration>(1, cfg.shard_telemetry_bucket));
    const Clock::time_point run_start = Clock::now();
    out.setup_ns = ns_between(t0, run_start);

    // The placement problem of the last full traffic window, taken one
    // tick before the clients stop (splitting run_until fires the same
    // events); it is solved after the run, outside every span.
    std::optional<core::PlacementProblem> problem;
    Clock::duration problem_time{};
    if (scheme == Scheme::kNetRSIlp) {
      shard_group.run_until(t_end - 1);
      const Clock::time_point p0 = Clock::now();
      problem = controller->build_problem();
      problem_time = Clock::now() - p0;
    }
    shard_group.run_until(t_end);
    for (auto& c : clients) c->stop();
    const sim::Time drain_deadline = t_end + sim::seconds(5);
    while (shard_group.now() < drain_deadline) {
      std::size_t in_flight = 0;
      for (const auto& c : clients) in_flight += c->in_flight();
      if (in_flight == 0) break;
      shard_group.run_until(shard_group.now() + sim::millis(1));
    }
    harvest_start = Clock::now();
    out.run_ns = ns_between(run_start, harvest_start - problem_time);

    for (const Accum& a : accums) {
      out.forwards_sum += a.forwards_sum;
      out.measured += a.measured;
    }
    for (const auto& c : clients) {
      out.issued += c->issued();
      out.completed += c->completed();
    }
    out.events = shard_group.events_fired();
    for (const auto& t : timed_switches) add(out.sw, t->span);
    for (const auto& s : selector_spans) add(out.selector, *s);
    for (const auto& r : rs_spans) {
      add(out.rs_select, r->select);
      add(out.rs_send, r->send);
      add(out.rs_response, r->response);
    }
    const sim::ShardTelemetry& tel = shard_group.telemetry();
    for (const sim::ShardTelemetry::Lane& lane : tel.lanes) {
      out.windows += lane.windows;
      out.lane_events += lane.events;
      out.exec_ns += lane.exec_ns;
      out.stall_ns += lane.stall_ns;
      out.max_lane_events = std::max(out.max_lane_events, lane.events);
    }
    // The busiest accelerator's utilization over the whole run: the service
    // time of the requests and response clones it handled.
    const double run_time = static_cast<double>(shard_group.now());
    for (const auto& op : operators) {
      const core::SelectorNode& sel = op->selector_node();
      const core::AcceleratorConfig& ac = op->accelerator().config();
      const double busy =
          static_cast<double>(sel.requests_selected()) *
              static_cast<double>(ac.request_service_time) +
          static_cast<double>(sel.responses_absorbed()) *
              static_cast<double>(ac.response_service_time);
      out.accel_utilization = std::max(
          out.accel_utilization, busy / (run_time * std::max(1, ac.cores)));
    }
    const Clock::time_point harvest_end = Clock::now();
    out.harvest_ns = ns_between(harvest_start, harvest_end);

    if (problem) {
      for (int i = 0; i < 3; ++i) {
        const Clock::time_point s0 = Clock::now();
        const core::PlacementResult plan =
            core::solve_placement(*problem, cfg.placement);
        const Clock::time_point s1 = Clock::now();
        out.ilp_solve_ms.push_back(static_cast<double>(ns_between(s0, s1)) /
                                   1e6);
      }
    }
    scope_exit = Clock::now();
  }();
  out.harvest_ns += ns_between(scope_exit, Clock::now());
  return out;
}

}  // namespace perfbench
