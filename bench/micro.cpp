// Micro-benchmarks (google-benchmark) for the per-packet and per-solve
// hot paths: NetRS header encode/parse/rewrite, event-queue churn, fabric
// forwarding, the KV client request path, Zipf sampling, consistent-hash
// lookups, C3 selection, the RSP ILP solve, and the obs CSV writers.
//
// This translation unit replaces the global allocator with the counting
// shim (bench/alloc_shim.hpp, nothrow variants included) so
// BM_FabricHotPath and BM_ClientRequestPath can report allocations per
// simulated hop and per request; both must report zero in steady state.
// BM_ObsWrite reports allocations per written record the same way.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <ostream>
#include <streambuf>
#include <utility>
#include <vector>

#include "alloc_shim.hpp"
#include "kv/app_message.hpp"
#include "kv/client.hpp"
#include "kv/consistent_hash.hpp"
#include "kv/server.hpp"
#include "net/fabric.hpp"
#include "net/fat_tree.hpp"
#include "net/switch.hpp"
#include "netrs/packet_format.hpp"
#include "netrs/placement.hpp"
#include "obs/attribution.hpp"
#include "obs/decision.hpp"
#include "rs/c3.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace {

using namespace netrs;
using netrs::benchshim::alloc_count;

void BM_EncodeRequest(benchmark::State& state) {
  core::RequestHeader h;
  h.rid = 7;
  h.rv = 99;
  h.rgid = 1234;
  std::vector<std::byte> app(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::encode_request(h, app));
  }
}
BENCHMARK(BM_EncodeRequest);

void BM_DecodeRequest(benchmark::State& state) {
  core::RequestHeader h;
  h.rgid = 1234;
  const auto p = core::encode_request(h, std::vector<std::byte>(16));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::decode_request(p));
  }
}
BENCHMARK(BM_DecodeRequest);

void BM_SwitchFieldRewrite(benchmark::State& state) {
  // What a programmable switch does per NetRS packet: peek magic, peek RID,
  // rewrite RID.
  core::RequestHeader h;
  auto p = core::encode_request(h, std::vector<std::byte>(16));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::peek_magic(p));
    benchmark::DoNotOptimize(core::peek_rid(p));
    core::set_rid(p, 42);
  }
}
BENCHMARK(BM_SwitchFieldRewrite);

// Delay mixes for BM_EventQueueChurn's second argument. kUniformMix is
// the original synthetic load, uniform over [0, 1000) ns. kIlpK8Mix is
// the traffic the perfbench `ilp-k8` cell actually schedules, recorded
// once by counting every Simulator::at delay over `netrs_perfbench run
// --workload ilp-k8 --seed 1 --seconds 0.5` (two calls, 11.18 M pushes,
// mean depth 177): 62.3% 30 us link hops, 16.1% 1.25 us accelerator
// hops, 5.4% 5 us and 5.4% 1 us accelerator service, 10.7% exponential
// service times and arrival gaps (mean ~2.5 ms), and periodic timers
// that are always pending: 32 server fluctuation timers at 50 ms (armed
// together, so they fire as one same-instant burst), a 5 ms sampler and
// the 100 ms controller replan. kIlpK8LaneMix is the same traffic with
// the 30 us and 1.25 us hops on two FIFO lanes, as net::Fabric schedules
// them; everything else stays on the calendar.
enum DelayMix : std::int64_t {
  kUniformMix = 0,
  kIlpK8Mix = 1,
  kIlpK8LaneMix = 2,
};

// Delay of a one-shot event (the periodic timers re-arm themselves).
sim::Duration draw_delay(sim::Rng& rng, std::int64_t mix) {
  if (mix == kUniformMix) return static_cast<sim::Duration>(rng.uniform(1000));
  // kIlpK8Mix and kIlpK8LaneMix draw the same delays.
  const std::uint64_t u = rng.uniform(99'860);
  if (u < 62'280) return sim::micros(30);
  if (u < 78'380) return sim::micros(1.25);
  if (u < 83'750) return sim::micros(5);
  if (u < 89'120) return sim::micros(1);
  return sim::nanos(rng.exponential(sim::millis(2.5)));
}

void BM_EventQueueChurn(benchmark::State& state) {
  // Arg 0: steady-state queue depth; arg 1: delay mix (see DelayMix).
  // Steady state keeps `depth` events queued: pop one, fire it, push one
  // (a timer re-arms with its period, any other event draws a delay).
  // Pops take the run loop's path (EventQueue::pop_next).
  // `shifted_per_push` counts the index entries each push moved aside,
  // over a fixed untimed window after a warm-up (so the count does not
  // depend on the iteration count); a calendar whose width no longer
  // fits the traffic shows up there first, so the benchmark fails above 4.
  sim::EventQueue q;
  sim::Rng rng(1);
  sim::Time t = 0;
  const int depth = static_cast<int>(state.range(0));
  const std::int64_t mix = state.range(1);
  sim::Duration period = 0;  // of the event just fired; 0 for one-shots
  std::vector<sim::Duration> timers;
  if (mix != kUniformMix) {
    timers.assign(32, sim::millis(50));
    timers.push_back(sim::millis(5));
    timers.push_back(sim::millis(100));
  }
  const bool lanes = mix == kIlpK8LaneMix;
  const auto one_shot = [](void* ctx, std::uint32_t) {
    *static_cast<sim::Duration*>(ctx) = 0;
  };
  const sim::LaneId link_lane = lanes ? q.add_lane(one_shot, &period) : 0;
  const sim::LaneId accel_lane = lanes ? q.add_lane(one_shot, &period) : 0;
  // Schedules a one-shot `d` from now; with lanes, the two hop latencies
  // go to their lanes and `cb` is dropped.
  const auto schedule = [&](sim::Duration d, sim::EventQueue::Callback&& cb) {
    if (lanes && d == sim::micros(30)) {
      q.push_lane(link_lane, t + d, 0);
    } else if (lanes && d == sim::micros(1.25)) {
      q.push_lane(accel_lane, t + d, 0);
    } else {
      q.push(t + d, std::move(cb));
    }
  };
  for (const sim::Duration p : timers) {
    q.push(t + p, [&period, p] { period = p; });
  }
  for (int i = static_cast<int>(timers.size()); i < depth; ++i) {
    schedule(draw_delay(rng, mix), [&period] { period = 0; });
  }
  sim::EventQueue::Callback cb;
  sim::LaneEvent lane;
  const auto churn = [&](int ops) {
    for (int i = 0; i < ops; ++i) {
      if (q.pop_next(sim::kNever, t, cb, lane) ==
          sim::EventQueue::Popped::kLane) {
        lane();
        cb = [&period] { period = 0; };  // in case the calendar takes it
      } else {
        cb();
      }
      if (period != 0) {
        q.push(t + period, std::move(cb));
      } else {
        schedule(draw_delay(rng, mix), std::move(cb));
      }
    }
  };
  churn(4 * depth + 10'000);  // warm-up: leave the all-at-t=0 fill behind
  constexpr int kProbeOps = 50'000;
  const std::uint64_t shifted_before = q.entries_shifted();
  churn(kProbeOps);
  const double shifted_per_push =
      static_cast<double>(q.entries_shifted() - shifted_before) / kProbeOps;
  for (auto _ : state) churn(1);
  state.counters["shifted_per_push"] = benchmark::Counter(shifted_per_push);
  if (shifted_per_push > 4) {
    state.SkipWithError("calendar pushes shift more than 4 entries each");
  }
}
// The uniform mix at the original depths; the ilp-k8 mix, all on the
// calendar and with its hops on lanes, at that cell's steady depth
// (~130-180) and above it.
BENCHMARK(BM_EventQueueChurn)
    ->ArgNames({"depth", "mix"})
    ->Args({1000, kUniformMix})
    ->Args({100000, kUniformMix})
    ->Args({130, kIlpK8Mix})
    ->Args({1000, kIlpK8Mix})
    ->Args({130, kIlpK8LaneMix})
    ->Args({1000, kIlpK8LaneMix});

void BM_PercentileBatch(benchmark::State& state) {
  // The report pattern: p50/p95/p99/p999 back-to-back. Finalizing first
  // makes the batch four lookups; the regression counter proves no query
  // fell back to the unsorted copy-and-select slow path.
  sim::Rng rng(7);
  sim::LatencyRecorder base;
  for (int i = 0; i < 100'000; ++i) base.add(rng.next_double());
  sim::LatencyRecorder::reset_unsorted_percentile_sorts();
  for (auto _ : state) {
    state.PauseTiming();
    sim::LatencyRecorder rec;
    rec.merge(base);  // unsorted copy, as after a parallel merge
    state.ResumeTiming();
    rec.finalize();
    benchmark::DoNotOptimize(rec.percentile(0.50));
    benchmark::DoNotOptimize(rec.percentile(0.95));
    benchmark::DoNotOptimize(rec.percentile(0.99));
    benchmark::DoNotOptimize(rec.percentile(0.999));
  }
  const auto slow = sim::LatencyRecorder::unsorted_percentile_sorts();
  state.counters["unsorted_sorts"] =
      benchmark::Counter(static_cast<double>(slow));
  if (slow != 0) {
    state.SkipWithError("percentile batch hit the unsorted copy-select path");
  }
}
BENCHMARK(BM_PercentileBatch);

// Bounces a NetRS-sized packet between two adjacent nodes forever; each
// benchmark iteration advances the simulation by exactly one link crossing
// (send + deliver + receive). The argument is the shard count: at 1 the
// nodes are a host and its ToR, at 2 an aggregation switch and a core
// switch on different shards, so every hop takes the cross-shard path
// (lane, per-source arrivals, cross-shard event lane). After the warm-up
// hops fill the fabric's rings and vectors, the steady state must not
// allocate: `allocs_per_hop` is asserted to be 0.0 via the counting shim
// above.
class PingPongNode final : public net::Node {
 public:
  PingPongNode(net::Fabric& fabric, net::NodeId self, net::NodeId peer)
      : fabric_(fabric), self_(self), peer_(peer) {
    fabric.attach(self, this);
  }

  void receive(net::Packet pkt, net::NodeId from) override {
    (void)from;
    std::swap(pkt.src, pkt.dst);
    fabric_.send(self_, peer_, std::move(pkt));
  }

 private:
  net::Fabric& fabric_;
  net::NodeId self_;
  net::NodeId peer_;
};

void BM_FabricHotPath(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  sim::ShardGroup group{shards};
  net::FatTree topo(4);
  net::Fabric fabric(group, topo, net::FabricConfig{});
  const net::NodeId from = shards == 1 ? topo.host_node(0) : topo.agg_node(1, 0);
  const net::NodeId to = shards == 1 ? topo.host_tor(0) : topo.core_node(0, 0);
  if ((fabric.shard_of(from) != fabric.shard_of(to)) != (shards > 1)) {
    state.SkipWithError("the ping-pong link does not match the shard count");
    return;
  }
  PingPongNode a(fabric, from, to);
  PingPongNode b(fabric, to, from);

  core::RequestHeader h;
  h.rid = 1;
  h.rgid = 42;
  kv::AppRequest app;
  app.client_request_id = 1;
  app.key = 7;
  net::Packet pkt;
  pkt.src = from;
  pkt.dst = to;
  pkt.src_port = kv::kClientPort;
  pkt.dst_port = kv::kServerPort;
  pkt.payload = core::encode_request(h, kv::encode_app_request(app));
  fabric.send(from, to, std::move(pkt));

  const sim::Duration hop = shards == 1 ? fabric.config().host_link_latency
                                        : fabric.config().switch_link_latency;
  // Warm up: let the packet FIFOs and the lane rings reach their
  // high-water marks before counting.
  for (int i = 0; i < 1024; ++i) group.run_until(group.now() + hop);

  const std::uint64_t before = alloc_count();
  std::uint64_t hops = 0;
  for (auto _ : state) {
    group.run_until(group.now() + hop);
    ++hops;
  }
  const std::uint64_t allocs =
      alloc_count() - before;
  state.counters["allocs_per_hop"] =
      benchmark::Counter(static_cast<double>(allocs) /
                         static_cast<double>(hops ? hops : 1));
  if (allocs != 0) {
    state.SkipWithError("steady-state forwarding allocated on the heap");
  }
}
BENCHMARK(BM_FabricHotPath)->Arg(1)->Arg(2);

// A small CliRS-R95 cell (one client, three servers on a k=4 fat-tree) run
// past warm-up; each iteration advances it by 1 ms of simulated time. Once
// the client's pending table, the fabric's packet FIFOs and the event-slot
// arena have reached their high-water marks, issuing, duplicating and
// completing requests must not allocate: `allocs_per_request` is asserted
// to be 0.0. The argument is the servers' parallelism: at 16 no request
// ever waits, at 1 requests wait in the server FIFO, so the guard covers
// the wait queue too. The iteration count is fixed, so every run measures
// the same simulated window.
void BM_ClientRequestPath(benchmark::State& state) {
  sim::ShardGroup group{1};
  net::FatTree topo(4);
  net::Fabric fabric(group, topo, net::FabricConfig{});
  sim::Simulator& sim = fabric.simulator();
  std::vector<std::unique_ptr<net::Switch>> switches;
  for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
    switches.push_back(std::make_unique<net::Switch>(fabric, sw));
    fabric.attach(sw, switches.back().get());
  }
  const std::vector<net::HostId> server_hosts = {
      topo.host_id(0, 0, 0), topo.host_id(0, 0, 1), topo.host_id(0, 1, 0)};
  kv::ServerConfig scfg;
  scfg.parallelism = static_cast<int>(state.range(0));
  scfg.mean_service_time = sim::millis(1);
  std::vector<std::unique_ptr<kv::Server>> servers;
  for (net::HostId h : server_hosts) {
    servers.push_back(
        std::make_unique<kv::Server>(fabric, h, scfg, sim::Rng(100 + h)));
  }
  const kv::ConsistentHashRing ring(server_hosts, 3, 8);
  const sim::ZipfDistribution zipf(1000, 0.99);
  kv::ClientConfig ccfg;
  ccfg.arrival_rate = 2000.0;
  ccfg.redundancy.enabled = true;
  kv::Client client(fabric, topo.host_id(0, 1, 1), ccfg, ring, zipf,
                    sim::Rng(7));
  client.start();
  // Warm up: ~120k requests, 30x the measured window. A shorter warm-up
  // (20 s) still saw the calendar queue's per-bucket vectors set new
  // high-water marks inside the window.
  sim.run_until(sim::seconds(60));

  const std::uint64_t before = alloc_count();
  const std::uint64_t completed_before = client.completed();
  const std::uint64_t redundant_before = client.redundant_sent();
  for (auto _ : state) {
    sim.run_until(sim.now() + sim::millis(1));
  }
  const std::uint64_t allocs = alloc_count() - before;
  const std::uint64_t requests = client.completed() - completed_before;
  state.counters["allocs_per_request"] = benchmark::Counter(
      static_cast<double>(allocs) /
      static_cast<double>(requests ? requests : 1));
  state.counters["duplicates"] = benchmark::Counter(
      static_cast<double>(client.redundant_sent() - redundant_before));
  if (allocs != 0) {
    state.SkipWithError("steady-state request path allocated on the heap");
  }
}
BENCHMARK(BM_ClientRequestPath)->Arg(16)->Arg(1)->Iterations(2000);

// Counts the bytes written to it and drops them: a null std::ostream
// target, so BM_ObsWrite times formatting, not the file system.
class CountingBuf : public std::streambuf {
 public:
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }
  int_type overflow(int_type c) override {
    ++bytes_;
    return traits_type::not_eof(c);
  }

 private:
  std::uint64_t bytes_ = 0;
};

// The obs write path: a fixed synthetic repeat of 100k flight records and
// 100k audited decisions (values shaped like a k=8 NetRS-ILP run: ~ms
// components, fractional scores, regrets and herd indices) written as the
// attribution CSV and the decision CSV, one chunk each. Reports bytes/s and
// allocs_per_record; each iteration owns one TextSink buffer, so anything
// beyond one allocation per iteration is a per-record allocation and
// fails the benchmark.
void BM_ObsWrite(benchmark::State& state) {
  constexpr std::size_t kRecords = 100'000;
  sim::Rng rng(11);
  obs::FlightSnapshot flights;
  obs::DecisionSnapshot decisions;
  flights.enabled = true;
  decisions.enabled = true;
  sim::Time t = sim::millis(50);
  for (std::size_t i = 0; i < kRecords; ++i) {
    t += static_cast<sim::Time>(rng.uniform(20'000));
    obs::FlightRecord r;
    r.request_id = (static_cast<std::uint64_t>(rng.uniform(64)) << 32) | i;
    r.completed_at = t;
    r.server = static_cast<net::HostId>(rng.uniform(128));
    r.dup_won = rng.bernoulli(0.05);
    r.via_rs = rng.bernoulli(0.9);
    for (sim::Duration& c : r.components) {
      c = static_cast<sim::Duration>(rng.uniform(4'000'000));
      r.total += c;
    }
    flights.records.push_back(r);

    obs::DecisionRecord d;
    d.t = t;
    d.node = static_cast<std::int32_t>(rng.uniform(200));
    d.chosen = static_cast<net::HostId>(rng.uniform(128));
    d.candidates = 3;
    d.has_score = true;
    d.chosen_score = rng.next_double() * 5000.0;
    d.has_regret = rng.bernoulli(0.95);
    d.regret_ns = rng.bernoulli(0.6) ? 0.0 : rng.next_double() * 8e6;
    d.has_staleness = true;
    d.staleness = static_cast<sim::Duration>(rng.uniform(5'000'000));
    d.herd = 1.0 / static_cast<double>(1 + rng.uniform(8));
    decisions.records.push_back(d);
  }

  CountingBuf buf;
  std::ostream os(&buf);
  const std::uint64_t before = alloc_count();
  for (auto _ : state) {
    obs::TextSink out(os);
    obs::write_attribution_header(out);
    obs::write_attribution_rows(out, 0, flights);
    obs::write_decision_header(out);
    obs::write_decision_rows(out, 0, decisions);
  }
  const std::uint64_t allocs = alloc_count() - before;
  const auto iterations = static_cast<std::uint64_t>(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(buf.bytes()));
  state.counters["allocs_per_record"] = benchmark::Counter(
      static_cast<double>(allocs) /
      static_cast<double>(2 * kRecords * (iterations ? iterations : 1)));
  if (allocs > 2 * iterations) {
    state.SkipWithError("obs writers allocated per record");
  }
}
BENCHMARK(BM_ObsWrite)->Unit(benchmark::kMillisecond);

void BM_ZipfSample(benchmark::State& state) {
  sim::Rng rng(2);
  sim::ZipfDistribution zipf(100'000'000, 0.99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf(rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_RingLookup(benchmark::State& state) {
  std::vector<net::HostId> servers;
  for (int i = 0; i < 100; ++i) servers.push_back(static_cast<net::HostId>(i));
  kv::ConsistentHashRing ring(servers, 3, 16);
  sim::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.group_of_key(rng.next_u64()));
  }
}
BENCHMARK(BM_RingLookup);

void BM_C3Select(benchmark::State& state) {
  sim::Simulator sim;
  rs::C3Options opts;
  opts.rate_control = state.range(0) != 0;
  rs::C3Selector c3(sim, sim::Rng(4), opts);
  std::vector<net::HostId> candidates = {1, 2, 3};
  sim::Rng rng(5);
  for (net::HostId h : candidates) {
    rs::Feedback fb;
    fb.server = h;
    fb.response_time = sim::millis(4);
    fb.queue_size = static_cast<std::uint32_t>(rng.uniform(8));
    fb.service_time = sim::millis(4);
    c3.on_response(fb);
  }
  for (auto _ : state) {
    const net::HostId h = c3.select(candidates);
    c3.on_send(h);
    rs::Feedback fb;
    fb.server = h;
    fb.response_time = sim::millis(4);
    fb.queue_size = 2;
    fb.service_time = sim::millis(4);
    c3.on_response(fb);
  }
}
BENCHMARK(BM_C3Select)->Arg(0)->Arg(1);

void BM_PlacementSolve(benchmark::State& state) {
  // The paper-scale RSP ILP: 16-ary fat-tree, 128 rack groups.
  const int k = static_cast<int>(state.range(0));
  net::FatTree topo(k);
  core::PlacementProblem p;
  sim::Rng rng(6);
  const double total = 90000.0;
  for (int r = 0; r < topo.racks(); ++r) {
    core::GroupDemand g;
    g.id = static_cast<core::GroupId>(r);
    g.pod = r / topo.tors_per_pod();
    g.rack = r % topo.tors_per_pod();
    const double load =
        total / topo.racks() * (0.8 + 0.4 * rng.next_double());
    g.tier_traffic[0] = load * 0.94;
    g.tier_traffic[1] = load * 0.05;
    g.tier_traffic[2] = load * 0.01;
    p.groups.push_back(g);
  }
  core::RsNodeId id = 1;
  for (net::NodeId sw : topo.all_switches()) {
    core::OperatorSpec op;
    op.id = id++;
    op.sw = sw;
    const net::SwitchCoord c = topo.coord(sw);
    op.tier = c.tier;
    op.pod = c.pod;
    op.rack = c.idx;
    op.t_max = 83333.0;
    p.operators.push_back(op);
  }
  p.extra_hop_budget = 0.2 * total;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_placement(p));
  }
}
BENCHMARK(BM_PlacementSolve)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
