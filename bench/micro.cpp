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

void BM_EventQueueChurn(benchmark::State& state) {
  // Arg 0: steady-state queue depth.
  sim::EventQueue q;
  sim::Rng rng(1);
  sim::Time t = 0;
  // Steady-state: keep N events queued, push one / pop one.
  const int depth = static_cast<int>(state.range(0));
  for (int i = 0; i < depth; ++i) {
    q.push(t + static_cast<sim::Time>(rng.uniform(1000)), [] {});
  }
  for (auto _ : state) {
    auto [when, cb] = q.pop();
    t = when;
    q.push(t + static_cast<sim::Time>(rng.uniform(1000)), std::move(cb));
  }
}
BENCHMARK(BM_EventQueueChurn)->ArgName("depth")->Arg(1000)->Arg(100000);

void BM_PercentileBatch(benchmark::State& state) {
  // The report pattern: p50/p95/p99/p999 back-to-back. Finalizing first
  // makes the batch four lookups; the regression counter proves no query
  // fell back to the unsorted copy-and-sort slow path.
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
    state.SkipWithError("percentile batch hit the unsorted copy-sort path");
  }
}
BENCHMARK(BM_PercentileBatch);

// Bounces a NetRS-sized packet between a host and its ToR forever; each
// benchmark iteration advances the simulation by exactly one link crossing
// (send + deliver + receive). After the warm-up hops fill the delivery pool
// and the event-queue slot arena, the steady state must not allocate:
// `allocs_per_hop` is asserted to be 0.0 via the counting shim above.
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
  sim::ShardGroup group{1};
  net::FatTree topo(4);
  net::Fabric fabric(group, topo, net::FabricConfig{});
  sim::Simulator& sim = fabric.simulator();
  const net::NodeId host = topo.host_node(0);
  const net::NodeId tor = topo.host_tor(0);
  PingPongNode a(fabric, host, tor);
  PingPongNode b(fabric, tor, host);

  core::RequestHeader h;
  h.rid = 1;
  h.rgid = 42;
  kv::AppRequest app;
  app.client_request_id = 1;
  app.key = 7;
  net::Packet pkt;
  pkt.src = host;
  pkt.dst = tor;
  pkt.src_port = kv::kClientPort;
  pkt.dst_port = kv::kServerPort;
  pkt.payload = core::encode_request(h, kv::encode_app_request(app));
  fabric.send(host, tor, std::move(pkt));

  const sim::Duration hop = fabric.config().host_link_latency;
  // Warm up: let the delivery pool and event-slot arena reach their
  // high-water marks before counting.
  for (int i = 0; i < 1024; ++i) sim.run_until(sim.now() + hop);

  const std::uint64_t before = alloc_count();
  std::uint64_t hops = 0;
  for (auto _ : state) {
    sim.run_until(sim.now() + hop);
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
BENCHMARK(BM_FabricHotPath);

// A small CliRS-R95 cell (one client, three servers on a k=4 fat-tree) run
// past warm-up; each iteration advances it by 1 ms of simulated time. Once
// the client's pending table, the fabric delivery pool and the event-slot
// arena have reached their high-water marks, issuing, duplicating and
// completing requests must not allocate: `allocs_per_request` is asserted
// to be 0.0. The servers have more service slots than the cell ever keeps
// busy, so their wait queues stay empty. The iteration count is fixed, so
// every run measures the same simulated window.
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
  scfg.parallelism = 16;
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
BENCHMARK(BM_ClientRequestPath)->Iterations(2000);

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
// attribution CSV and the decision CSV. Reports bytes/s and
// allocs_per_record; each writer owns one TextSink buffer, so anything
// beyond one allocation per writer call is a per-record allocation and
// fails the benchmark.
void BM_ObsWrite(benchmark::State& state) {
  constexpr std::size_t kRecords = 100'000;
  sim::Rng rng(11);
  std::vector<obs::FlightSnapshot> flights(1);
  std::vector<obs::DecisionSnapshot> decisions(1);
  flights[0].enabled = true;
  decisions[0].enabled = true;
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
    flights[0].records.push_back(r);

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
    decisions[0].records.push_back(d);
  }

  CountingBuf buf;
  std::ostream os(&buf);
  const std::uint64_t before = alloc_count();
  for (auto _ : state) {
    obs::write_attribution_csv(os, flights);
    obs::write_decision_csv(os, decisions);
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
