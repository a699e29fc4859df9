// netrs_perfbench: the benchmark's measuring binary. perfbench/run.py
// builds it and runs one mode per child process, so that each process's
// peak RSS belongs to one kind of run:
//
//   netrs_perfbench setup --workload W --seed N --obs-dir D
//       one run of the cell cut to a handful of requests (set-up time),
//       between two runs of the calibration kernel.
//   netrs_perfbench run   --workload W --seed N --seconds T --obs-dir D
//       harness::run_experiment on the full cell, repeated until T seconds
//       have passed (at least twice), with the calibration kernel timed
//       before the first call and after every call.
//   netrs_perfbench trace --workload W --seed N --obs-dir D
//       one untraced run_experiment (two on the obs workload: obs on and
//       off), then the traced composed deployment (traced.hpp).
//   netrs_perfbench info  --workload W --seed N
//       build provenance and the full cell.
//
// Every result is one JSON object per line on stdout; run.py derives the
// metrics and checks them.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "alloc.hpp"
#include "harness/experiment.hpp"
#include "traced.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

// Requests in a set-up run: enough for every client to be built and
// started, few enough that simulation is a negligible share.
constexpr std::uint64_t kSetupRequests = 8;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Minimal JSON-object-per-line writer.
class Line {
 public:
  explicit Line(const char* kind) { std::printf("{\"kind\": \"%s\"", kind); }
  Line& num(const char* key, double v) {
    std::printf(", \"%s\": %.17g", key, v);
    return *this;
  }
  Line& count(const char* key, std::uint64_t v) {
    std::printf(", \"%s\": %llu", key, static_cast<unsigned long long>(v));
    return *this;
  }
  Line& str(const char* key, const std::string& v) {
    std::printf(", \"%s\": \"", key);
    for (const char c : v) {
      if (c == '"' || c == '\\') std::putchar('\\');
      std::putchar(c);
    }
    std::putchar('"');
    return *this;
  }
  ~Line() {
    std::printf("}\n");
    std::fflush(stdout);
  }
  Line(const Line&) = delete;
  Line& operator=(const Line&) = delete;
};

// One timed run_experiment call, printed as a `kind` line.
void run_cell(const Workload& w, const char* kind) {
  const std::uint64_t allocs0 = allocations();
  const Clock::time_point t0 = Clock::now();
  const netrs::harness::ExperimentResult r =
      netrs::harness::run_experiment(w.scheme, w.cfg);
  const double wall = seconds_since(t0);
  const std::uint64_t allocs = allocations() - allocs0;
  const std::vector<double>& s = r.latencies_ms.samples();  // sorted
  const double p999 = r.percentile_ms(0.999);
  const auto beyond = static_cast<std::uint64_t>(
      s.end() - std::upper_bound(s.begin(), s.end(), p999));
  Line(kind)
      .num("wall_s", wall)
      .count("allocs", allocs)
      .count("issued", r.issued)
      .count("completed", r.completed)
      .count("redundant", r.redundant)
      .count("events", r.events_fired)
      .count("samples", r.latencies_ms.count())
      .num("p50_ms", r.percentile_ms(0.5))
      .num("p99_ms", r.percentile_ms(0.99))
      .num("p999_ms", p999)
      .count("beyond_p999", beyond)
      .num("forwards_per_request", r.avg_forwards)
      .num("wire_bytes_per_request", r.wire_bytes_per_request)
      .num("load_oscillation", r.load_oscillation)
      .count("rsnodes", static_cast<std::uint64_t>(r.rsnodes))
      .count("plans_deployed", static_cast<std::uint64_t>(r.plans_deployed))
      .count("doomed_picks", r.doomed_picks)
      .count("fault_events_fired", r.fault.events_fired)
      .count("trace_events", r.trace_events)
      .count("trace_dropped", r.trace_dropped);
}

// The calibration kernel: a fixed amount of event-queue-like work (pop the
// earliest of 65,536 timestamps, push a later one) that uses no simulator
// code. Its wall time tracks how fast the host runs the simulator at the
// moment, so run.py divides the host's slowdowns out of requests_per_s and
// setup_s. With more than one thread, the threads meet at a barrier every
// kCalibrationWindow operations, as the shards of a sharded cell do at the
// end of each conservative window.
constexpr int kCalibrationOps = 2'000'000;
constexpr int kCalibrationWindow = 64;

double calibration_kernel(std::atomic<std::uint64_t>& arrived, int threads) {
  std::uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      q;
  for (int i = 0; i < (1 << 16); ++i) q.push(next() >> 20);
  std::uint64_t barrier = 0;
  auto meet = [&] {
    barrier += static_cast<std::uint64_t>(threads);
    arrived.fetch_add(1);
    while (arrived.load() < barrier) {
    }
  };
  meet();
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kCalibrationOps; ++i) {
    const std::uint64_t t = q.top();
    q.pop();
    q.push(t + (next() >> 44));
    if (threads > 1 && i % kCalibrationWindow == 0) meet();
  }
  const double wall = seconds_since(t0);
  // Reads the heap's result, so the compiler cannot drop the work.
  if (q.top() == 0) std::fprintf(stderr, "calibration heap emptied\n");
  return wall;
}

// The kernel on `threads` threads at once; the slowest thread's time counts.
double calibrate(int threads) {
  std::vector<double> walls(threads);
  std::atomic<std::uint64_t> arrived{0};
  std::vector<std::thread> pool;
  for (int i = 1; i < threads; ++i) {
    pool.emplace_back([&walls, &arrived, threads, i] {
      walls[i] = calibration_kernel(arrived, threads);
    });
  }
  walls[0] = calibration_kernel(arrived, threads);
  for (std::thread& t : pool) t.join();
  return *std::max_element(walls.begin(), walls.end());
}

void print_calibration(int threads) {
  Line("cal").num("wall_s", calibrate(threads)).count(
      "threads", static_cast<std::uint64_t>(threads));
}

void print_span(const char* prefix, const Span& s) {
  const std::string p(prefix);
  Line("span")
      .str("name", p)
      .count("calls", s.calls)
      .count("ns", s.ns)
      .count("allocs", s.allocs);
}

void trace_cell(const Workload& w) {
  // The set-up trace comes from a first traced run in the fresh process,
  // where RSS growth is first touch rather than reuse of freed pages. The
  // spans come from a second one, warm like the untraced runs it is
  // reconciled against.
  const TracedResult cold = run_traced(without_obs(w));
  Line("cold").count("setup_ns", cold.setup_ns);
  for (const CtorGroup& g : cold.ctor) {
    Line("ctor").str("name", g.name).count("ns", g.ns).num(
        "rss_kb", static_cast<double>(g.rss_kb));
  }
  run_cell(w, "untraced");
  if (w.cfg.obs.any()) run_cell(without_obs(w), "untraced_noobs");
  const TracedResult t = run_traced(without_obs(w));
  print_span("net.switch", t.sw);
  print_span("netrs.selector", t.selector);
  print_span("rs.select", t.rs_select);
  print_span("rs.on_send", t.rs_send);
  print_span("rs.on_response", t.rs_response);
  double solve_ms = 0.0;
  if (!t.ilp_solve_ms.empty()) {
    std::vector<double> v = t.ilp_solve_ms;
    std::sort(v.begin(), v.end());
    solve_ms = v[v.size() / 2];
  }
  Line("traced")
      .count("setup_ns", t.setup_ns)
      .count("run_ns", t.run_ns)
      .count("harvest_ns", t.harvest_ns)
      .count("issued", t.issued)
      .count("completed", t.completed)
      .count("events", t.events)
      .count("measured", t.measured)
      .num("forwards_sum", t.forwards_sum)
      .count("shards", static_cast<std::uint64_t>(t.shards))
      .count("windows", t.windows)
      .count("lane_events", t.lane_events)
      .count("max_lane_events", t.max_lane_events)
      .count("exec_ns", t.exec_ns)
      .count("stall_ns", t.stall_ns)
      .num("accel_utilization", t.accel_utilization)
      .num("ilp_solve_ms", solve_ms);
}

struct Args {
  std::string mode, workload, obs_dir = ".";
  std::uint64_t seed = 1;
  double seconds = 10.0;
};

Args parse(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::invalid_argument("missing mode");
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--obs-dir") {
      a.obs_dir = v;
    } else {
      throw std::invalid_argument("unknown option " + k);
    }
  }
  return a;
}

void print_info(const Workload& w) {
#ifdef __clang__
  const std::string compiler = std::string("clang ") + __clang_version__;
#else
  const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
#ifdef NDEBUG
  const std::uint64_t asserts = 0;
#else
  const std::uint64_t asserts = 1;
#endif
  Line("info")
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("compiler", compiler)
      .count("asserts", asserts)
      .count("host_cores", std::thread::hardware_concurrency());
  const netrs::harness::ExperimentConfig& c = w.cfg;
  Line("cell")
      .str("scheme", netrs::harness::scheme_name(w.scheme))
      .count("seed", c.seed)
      .count("fat_tree_k", static_cast<std::uint64_t>(c.fat_tree_k))
      .count("servers", static_cast<std::uint64_t>(c.num_servers))
      .count("clients", static_cast<std::uint64_t>(c.num_clients))
      .num("utilization", c.utilization)
      .num("zipf_exponent", c.zipf_exponent)
      .count("keyspace", c.keyspace)
      .count("total_requests", c.total_requests)
      .num("warmup_fraction", c.warmup_fraction)
      .count("repeats", static_cast<std::uint64_t>(c.repeats))
      .count("jobs", static_cast<std::uint64_t>(c.jobs))
      .count("shards", static_cast<std::uint64_t>(c.shards))
      .str("selector", c.selector.algorithm)
      .str("fault_plan", c.fault_plan)
      .count("obs_outputs", c.obs.any() ? 4 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    const Workload w = make_workload(a.workload, a.seed, a.obs_dir);
    if (a.mode == "info") {
      print_info(w);
    } else if (a.mode == "setup") {
      print_calibration(1);
      run_cell(cut_to(w, kSetupRequests), "setup");
      print_calibration(1);
    } else if (a.mode == "run") {
      // One calibration thread per shard thread of the cell.
      const int threads = std::max(1, w.cfg.shards);
      const Clock::time_point t0 = Clock::now();
      print_calibration(threads);
      for (int rep = 0; rep < 2 || seconds_since(t0) < a.seconds; ++rep) {
        run_cell(w, "rep");
        print_calibration(threads);
      }
    } else if (a.mode == "trace") {
      trace_cell(w);
    } else {
      throw std::invalid_argument("unknown mode " + a.mode);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "netrs_perfbench: %s\n", e.what());
    return 2;
  }
  return 0;
}
