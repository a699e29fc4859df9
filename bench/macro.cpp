// The canonical macro-benchmark behind the tracked BENCH_*.json perf
// trajectory (EXPERIMENTS.md "Perf trajectory").
//
// Runs one fixed fig6-style cell — the NetRS-ILP scheme across the
// utilization grid {30, 50, 70, 90}% on a pinned seed — single-threaded,
// and emits a machine-readable JSON record with:
//   - simulated requests completed per wall-second,
//   - simulator events fired per core-second (jobs is pinned to 1, so
//     core-seconds == wall-seconds),
//   - total wall time,
//   - heap allocations per simulated switch hop (via the counting
//     allocator shim, nothrow variants included).
// tools/bench_gate.py compares the newest two BENCH_*.json records and
// fails CI when a rate metric regresses by more than 10%.
//
// The cell is intentionally pinned (seed, grid, scale, jobs) so numbers
// are comparable across commits; NETRS_BENCH_REQUESTS scales the run for
// quick smoke tests, and the value is recorded in the JSON fingerprint so
// the gate refuses to compare records from different cells.
//
// A second, separately fingerprinted "scale" section measures the
// partitioned PDES core (DESIGN.md §4.10): one larger k=16 NetRS-ToR cell
// run at --shards 1 and --shards 4 on the same pinned seed, recording
// requests/wall-second per shard count plus the host core count (shard
// speedup is meaningless without knowing how many cores backed the
// threads). bench_gate.py gates each shard count's rate independently.
//
// A third "obs" section (DESIGN.md §8.6) re-runs the shards=4 scale cell
// with every observability output enabled (trace JSON, metrics CSV,
// attribution CSV, decision CSV) plus engine self-telemetry, and records
// the obs-on rate next to the obs-off rate from the scale section, the
// per-shard event split, and a per-shard telemetry summary (windows,
// events, execute vs. stall wall time). bench_gate.py gates both rates
// and caps the obs-on overhead relative to obs-off. The obs output files
// land in the working directory (bench_obs_*.{json,csv},
// shard_telemetry.csv) so CI can archive the telemetry.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "alloc_shim.hpp"
#include "harness/experiment.hpp"

namespace {

using namespace netrs;

// The pinned cell. Smaller than the paper's §V-A setup so the benchmark
// finishes in CI minutes, but large enough (8-ary fat-tree, 128 hosts)
// that the event core, selector scans, and fabric hot path dominate.
constexpr int kFatTreeK = 8;
constexpr int kNumServers = 32;
constexpr int kNumClients = 64;
constexpr std::uint64_t kRequestsPerCell = 60'000;
constexpr int kRepeats = 2;
constexpr std::uint64_t kSeed = 17;
const std::vector<int> kUtilizationPct = {30, 50, 70, 90};

// The pinned scale cell (sharded-core section): a 16-ary tree (1024
// hosts, 16 pods) so 4 shards own 4 pods each, NetRS-ToR to keep the
// controller cheap relative to the event core being measured. 256 + 700
// hosts stay inside the tree's 1024.
constexpr int kScaleFatTreeK = 16;
constexpr int kScaleServers = 256;
constexpr int kScaleClients = 700;
constexpr std::uint64_t kScaleRequests = 60'000;
const std::vector<int> kScaleShards = {1, 4};

harness::ExperimentConfig cell_config(int util_pct, std::uint64_t requests) {
  // Built from scratch (not default_config()) so NETRS_* env overrides
  // cannot silently change the canonical cell.
  harness::ExperimentConfig cfg;
  cfg.fat_tree_k = kFatTreeK;
  cfg.num_servers = kNumServers;
  cfg.num_clients = kNumClients;
  cfg.utilization = util_pct / 100.0;
  cfg.total_requests = requests;
  cfg.repeats = kRepeats;
  cfg.seed = kSeed;
  cfg.jobs = 1;  // core-seconds == wall-seconds for events/core-sec
  return cfg;
}

harness::ExperimentConfig scale_config(int shards, std::uint64_t requests) {
  harness::ExperimentConfig cfg;
  cfg.fat_tree_k = kScaleFatTreeK;
  cfg.num_servers = kScaleServers;
  cfg.num_clients = kScaleClients;
  cfg.utilization = 0.70;
  cfg.total_requests = requests;
  cfg.repeats = 1;
  cfg.seed = kSeed;
  cfg.jobs = 1;
  cfg.shards = shards;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_7.json";
  if (argc > 1) out_path = argv[1];

  std::uint64_t requests = kRequestsPerCell;
  if (const char* e = std::getenv("NETRS_BENCH_REQUESTS")) {
    requests = std::strtoull(e, nullptr, 10);
    if (requests == 0) requests = kRequestsPerCell;
  }
  std::uint64_t scale_requests = kScaleRequests;
  if (const char* e = std::getenv("NETRS_BENCH_SCALE_REQUESTS")) {
    scale_requests = std::strtoull(e, nullptr, 10);
    if (scale_requests == 0) scale_requests = kScaleRequests;
  }

  struct CellResult {
    int util_pct;
    harness::ExperimentResult res;
    double wall_seconds;
    std::uint64_t allocs;
  };
  std::vector<CellResult> cells;

  std::uint64_t total_completed = 0;
  std::uint64_t total_events = 0;
  std::uint64_t total_allocs = 0;
  double total_hops = 0.0;
  double total_wall = 0.0;

  for (const int pct : kUtilizationPct) {
    const harness::ExperimentConfig cfg = cell_config(pct, requests);
    std::printf("[macro] util=%d%% scheme=netrs-ilp requests=%llu x%d ...\n",
                pct, static_cast<unsigned long long>(cfg.total_requests),
                cfg.repeats);
    std::fflush(stdout);
    const std::uint64_t allocs_before = benchshim::alloc_count();
    // netrs-lint: allow(wall-clock): benchmark throughput is measured in wall time by definition; nothing simulated depends on it.
    const auto t0 = std::chrono::steady_clock::now();
    harness::ExperimentResult res =
        harness::run_experiment(harness::Scheme::kNetRSIlp, cfg);
    // netrs-lint: allow(wall-clock): benchmark throughput is measured in wall time by definition; nothing simulated depends on it.
    const auto t1 = std::chrono::steady_clock::now();
    const std::uint64_t allocs = benchshim::alloc_count() - allocs_before;
    const double wall = std::chrono::duration<double>(t1 - t0).count();

    total_completed += res.completed;
    total_events += res.events_fired;
    total_allocs += allocs;
    // avg_forwards is mean switch forwards per completed request+response,
    // so this is the cell's total simulated switch hops.
    total_hops += res.avg_forwards * static_cast<double>(res.completed);
    total_wall += wall;
    cells.push_back({pct, std::move(res), wall, allocs});
  }

  // Sharded-core scale cells (see the file comment).
  struct ScaleResult {
    int shards;
    std::uint64_t completed;
    std::uint64_t events;
    double wall_seconds;
    double requests_per_sec;
  };
  std::vector<ScaleResult> scale_cells;
  for (const int shards : kScaleShards) {
    const harness::ExperimentConfig cfg = scale_config(shards, scale_requests);
    std::printf("[macro] scale k=%d scheme=netrs-tor shards=%d "
                "requests=%llu ...\n",
                kScaleFatTreeK, shards,
                static_cast<unsigned long long>(cfg.total_requests));
    std::fflush(stdout);
    // netrs-lint: allow(wall-clock): benchmark throughput is measured in wall time by definition; nothing simulated depends on it.
    const auto t0 = std::chrono::steady_clock::now();
    const harness::ExperimentResult res =
        harness::run_experiment(harness::Scheme::kNetRSToR, cfg);
    // netrs-lint: allow(wall-clock): benchmark throughput is measured in wall time by definition; nothing simulated depends on it.
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    scale_cells.push_back(
        {shards, res.completed, res.events_fired, wall,
         wall > 0.0 ? static_cast<double>(res.completed) / wall : 0.0});
  }
  const double scale_speedup =
      (scale_cells.size() >= 2 && scale_cells.front().requests_per_sec > 0.0)
          ? scale_cells.back().requests_per_sec /
                scale_cells.front().requests_per_sec
          : 0.0;
  const unsigned host_cores = std::thread::hardware_concurrency();

  // Obs-on re-run of the shards=4 scale cell (see the file comment): all
  // four obs outputs plus engine self-telemetry, so the record captures
  // what full observability costs on the parallel core.
  const int obs_shards = kScaleShards.back();
  harness::ExperimentConfig obs_cfg = scale_config(obs_shards, scale_requests);
  obs_cfg.obs.trace_path = "bench_obs_trace.json";
  obs_cfg.obs.metrics_path = "bench_obs_metrics.csv";
  obs_cfg.obs.attribution_path = "bench_obs_attribution.csv";
  obs_cfg.obs.decision_path = "bench_obs_decisions.csv";
  obs_cfg.shard_telemetry_path = "shard_telemetry.csv";
  std::printf("[macro] obs k=%d scheme=netrs-tor shards=%d requests=%llu "
              "(trace+metrics+attribution+decisions+telemetry) ...\n",
              kScaleFatTreeK, obs_shards,
              static_cast<unsigned long long>(obs_cfg.total_requests));
  std::fflush(stdout);
  // netrs-lint: allow(wall-clock): benchmark throughput is measured in wall time by definition; nothing simulated depends on it.
  const auto obs_t0 = std::chrono::steady_clock::now();
  const harness::ExperimentResult obs_res =
      harness::run_experiment(harness::Scheme::kNetRSToR, obs_cfg);
  // netrs-lint: allow(wall-clock): benchmark throughput is measured in wall time by definition; nothing simulated depends on it.
  const auto obs_t1 = std::chrono::steady_clock::now();
  const double obs_wall = std::chrono::duration<double>(obs_t1 - obs_t0).count();
  const double obs_on_rps =
      obs_wall > 0.0 ? static_cast<double>(obs_res.completed) / obs_wall : 0.0;
  const double obs_off_rps = scale_cells.back().requests_per_sec;
  const double obs_overhead_pct =
      obs_off_rps > 0.0 ? (1.0 - obs_on_rps / obs_off_rps) * 100.0 : 0.0;
  // Per-shard telemetry run totals, summed over repeats (repeats == 1
  // here, but keep the fold so a re-based cell stays correct).
  struct ObsLane {
    std::uint64_t windows = 0;
    std::uint64_t events = 0;
    std::uint64_t exec_ns = 0;
    std::uint64_t stall_ns = 0;
  };
  std::vector<ObsLane> obs_lanes(static_cast<std::size_t>(obs_shards));
  for (const sim::ShardTelemetry& t : obs_res.shard_telemetry) {
    for (std::size_t s = 0; s < t.lanes.size() && s < obs_lanes.size(); ++s) {
      obs_lanes[s].windows += t.lanes[s].windows;
      obs_lanes[s].events += t.lanes[s].events;
      obs_lanes[s].exec_ns += t.lanes[s].exec_ns;
      obs_lanes[s].stall_ns += t.lanes[s].stall_ns;
    }
  }

  const double req_per_sec =
      total_wall > 0.0 ? static_cast<double>(total_completed) / total_wall
                       : 0.0;
  const double events_per_core_sec =
      total_wall > 0.0 ? static_cast<double>(total_events) / total_wall : 0.0;
  const double allocs_per_hop =
      total_hops > 0.0 ? static_cast<double>(total_allocs) / total_hops : 0.0;

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "macro: cannot open %s for writing\n",
                 out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": 1,\n");
  std::fprintf(f, "  \"bench\": \"netrs-macro\",\n");
  std::fprintf(f,
               "  \"fingerprint\": \"k%d-s%d-c%d-r%llu-x%d-seed%llu-ilp\",\n",
               kFatTreeK, kNumServers, kNumClients,
               static_cast<unsigned long long>(requests), kRepeats,
               static_cast<unsigned long long>(kSeed));
  std::fprintf(f, "  \"wall_seconds\": %.3f,\n", total_wall);
  std::fprintf(f, "  \"simulated_requests\": %llu,\n",
               static_cast<unsigned long long>(total_completed));
  std::fprintf(f, "  \"requests_per_sec\": %.1f,\n", req_per_sec);
  std::fprintf(f, "  \"events_fired\": %llu,\n",
               static_cast<unsigned long long>(total_events));
  std::fprintf(f, "  \"events_per_core_sec\": %.1f,\n", events_per_core_sec);
  std::fprintf(f, "  \"allocs\": %llu,\n",
               static_cast<unsigned long long>(total_allocs));
  std::fprintf(f, "  \"allocs_per_hop\": %.4f,\n", allocs_per_hop);
  std::fprintf(f, "  \"cells\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    std::fprintf(f,
                 "    {\"utilization\": %.2f, \"completed\": %llu, "
                 "\"events\": %llu, \"wall_seconds\": %.3f, "
                 "\"mean_ms\": %.4f, \"p99_ms\": %.4f}%s\n",
                 c.util_pct / 100.0,
                 static_cast<unsigned long long>(c.res.completed),
                 static_cast<unsigned long long>(c.res.events_fired),
                 c.wall_seconds, c.res.mean_ms(), c.res.percentile_ms(0.99),
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"scale\": {\n");
  std::fprintf(f,
               "    \"fingerprint\": "
               "\"scale-k%d-s%d-c%d-r%llu-x1-seed%llu-tor\",\n",
               kScaleFatTreeK, kScaleServers, kScaleClients,
               static_cast<unsigned long long>(scale_requests),
               static_cast<unsigned long long>(kSeed));
  std::fprintf(f, "    \"host_cores\": %u,\n", host_cores);
  std::fprintf(f, "    \"speedup\": %.3f,\n", scale_speedup);
  std::fprintf(f, "    \"cells\": [\n");
  for (std::size_t i = 0; i < scale_cells.size(); ++i) {
    const ScaleResult& s = scale_cells[i];
    std::fprintf(f,
                 "      {\"shards\": %d, \"completed\": %llu, "
                 "\"events\": %llu, \"wall_seconds\": %.3f, "
                 "\"requests_per_sec\": %.1f}%s\n",
                 s.shards, static_cast<unsigned long long>(s.completed),
                 static_cast<unsigned long long>(s.events), s.wall_seconds,
                 s.requests_per_sec, i + 1 < scale_cells.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"obs\": {\n");
  std::fprintf(f,
               "    \"fingerprint\": "
               "\"obs-k%d-s%d-c%d-r%llu-x1-seed%llu-tor-sh%d\",\n",
               kScaleFatTreeK, kScaleServers, kScaleClients,
               static_cast<unsigned long long>(scale_requests),
               static_cast<unsigned long long>(kSeed), obs_shards);
  std::fprintf(f, "    \"off_requests_per_sec\": %.1f,\n", obs_off_rps);
  std::fprintf(f, "    \"on_requests_per_sec\": %.1f,\n", obs_on_rps);
  std::fprintf(f, "    \"overhead_pct\": %.1f,\n", obs_overhead_pct);
  std::fprintf(f, "    \"events_per_shard\": [");
  for (std::size_t i = 0; i < obs_res.events_per_shard.size(); ++i) {
    std::fprintf(f, "%s%llu", i > 0 ? ", " : "",
                 static_cast<unsigned long long>(obs_res.events_per_shard[i]));
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "    \"telemetry\": [\n");
  for (std::size_t i = 0; i < obs_lanes.size(); ++i) {
    const ObsLane& l = obs_lanes[i];
    std::fprintf(f,
                 "      {\"shard\": %zu, \"windows\": %llu, "
                 "\"events\": %llu, \"exec_ns\": %llu, "
                 "\"stall_ns\": %llu}%s\n",
                 i, static_cast<unsigned long long>(l.windows),
                 static_cast<unsigned long long>(l.events),
                 static_cast<unsigned long long>(l.exec_ns),
                 static_cast<unsigned long long>(l.stall_ns),
                 i + 1 < obs_lanes.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf(
      "[macro] %s: %.1f req/s | %.0f events/core-sec | %.4f allocs/hop | "
      "%.1fs wall\n",
      out_path.c_str(), req_per_sec, events_per_core_sec, allocs_per_hop,
      total_wall);
  std::printf("[macro] scale: shards=%d %.1f req/s -> shards=%d %.1f req/s "
              "(speedup %.2fx on %u cores)\n",
              scale_cells.front().shards,
              scale_cells.front().requests_per_sec,
              scale_cells.back().shards,
              scale_cells.back().requests_per_sec, scale_speedup, host_cores);
  std::printf("[macro] obs: shards=%d off %.1f req/s -> on %.1f req/s "
              "(overhead %.1f%%)\n",
              obs_shards, obs_off_rps, obs_on_rps, obs_overhead_pct);
  return 0;
}
