// Command-line experiment runner: expose the full experiment harness as a
// single binary so new configurations can be explored without writing
// code.
//
// Usage examples:
//   run_experiment --scheme netrs-ilp --clients 700 --utilization 0.9
//   run_experiment --scheme clirs-r95c --requests 500000 --skew 0.8
//   run_experiment --scheme netrs-ilp --algorithm two-choices --share-accel
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>

#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "harness/report.hpp"

using namespace netrs;

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --scheme S        clirs | clirs-r95 | clirs-r95c | netrs-tor |\n"
      "                    netrs-ilp              (default netrs-ilp)\n"
      "  --k N             fat-tree arity         (default 16)\n"
      "  --servers N       KV servers             (default 100)\n"
      "  --clients N       clients                (default 500)\n"
      "  --utilization F   system utilization     (default 0.9)\n"
      "  --skew F          20%%-client demand share (default 0 = uniform)\n"
      "  --tkv MS          mean service time, ms  (default 4)\n"
      "  --requests N      total requests         (default 120000)\n"
      "  --repeats N       deployments merged     (default 2)\n"
      "  --algorithm A     c3 | c3-norate | least-outstanding |\n"
      "                    two-choices | ewma-latency | random\n"
      "  --granularity G   rack | host | subrack4 (default rack)\n"
      "  --hop-budget F    E as fraction of A     (default 0.2)\n"
      "  --share-accel     share one accelerator per core group\n"
      "  --seed N          RNG seed               (default 1)\n"
      "  --jobs N          worker threads for repeats (default: all\n"
      "                    cores; 1 = serial; results are identical)\n"
      "  --shards N        event-queue shards per repeat (default 1;\n"
      "                    clamped to the pod count; digests identical\n"
      "                    at any value); also NETRS_SHARDS\n"
      "  --multiplicity N  logical client streams per client object\n"
      "                    (default 1; scales C3 concurrency accounting\n"
      "                    only, not the arrival rate)\n"
      "  --trace FILE      write a Chrome trace-event JSON of per-request\n"
      "                    lifecycle spans (open in Perfetto); also\n"
      "                    --trace=FILE or NETRS_TRACE\n"
      "  --metrics FILE    write a sampled metrics CSV time series; also\n"
      "                    --metrics=FILE or NETRS_METRICS\n"
      "  --attribution FILE  write the per-request latency-attribution CSV\n"
      "                    (flight recorder); also --attribution=FILE or\n"
      "                    NETRS_ATTRIBUTION\n"
      "  --decisions FILE  write the per-decision audit CSV (oracle regret,\n"
      "                    feedback staleness, herd index); also\n"
      "                    --decisions=FILE or NETRS_DECISIONS\n"
      "  --trace-capacity N  trace ring size per repeat (default 65536,\n"
      "                    per shard ring); also NETRS_TRACE_CAPACITY\n"
      "  --shard-telemetry FILE  write the engine self-telemetry CSV:\n"
      "                    per-shard windows, events, execute vs. stall\n"
      "                    wall time in sim-time buckets (wall-clock\n"
      "                    based, nondeterministic; all other outputs\n"
      "                    stay byte-identical); also NETRS_SHARD_TELEMETRY\n"
      "  --faults PLAN     fault-injection plan (docs/SCENARIOS.md), e.g.\n"
      "                    \"at 5s crash server 0; at 10s recover server 0\"\n"
      "                    or @file; also --faults=PLAN or NETRS_FAULTS\n"
      "  --timeline-bucket MS  record a latency timeline with this bucket\n"
      "                    width in sim ms (default off)\n",
      argv0);
}

bool parse_scheme(const std::string& s, harness::Scheme* out) {
  if (s == "clirs") *out = harness::Scheme::kCliRS;
  else if (s == "clirs-r95") *out = harness::Scheme::kCliRSR95;
  else if (s == "clirs-r95c") *out = harness::Scheme::kCliRSR95Cancel;
  else if (s == "netrs-tor") *out = harness::Scheme::kNetRSToR;
  else if (s == "netrs-ilp") *out = harness::Scheme::kNetRSIlp;
  else return false;
  return true;
}

// Sets `field` to `value`, the whole count given to `flag`; throws
// std::invalid_argument unless it fits the field.
template <typename T>
void set_count(T& field, const std::string& flag, const char* value) {
  field = static_cast<T>(harness::parse_count(
      flag, value, static_cast<std::uint64_t>(std::numeric_limits<T>::max())));
}

int run(int argc, char** argv) {
  harness::ExperimentConfig cfg = harness::default_config();
  harness::Scheme scheme = harness::Scheme::kNetRSIlp;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--scheme") {
      if (!parse_scheme(next(), &scheme)) {
        std::fprintf(stderr, "unknown scheme\n");
        return 2;
      }
    } else if (arg == "--k") {
      set_count(cfg.fat_tree_k, arg, next());
    } else if (arg == "--servers") {
      set_count(cfg.num_servers, arg, next());
    } else if (arg == "--clients") {
      set_count(cfg.num_clients, arg, next());
    } else if (arg == "--utilization") {
      cfg.utilization = harness::parse_real(arg, next());
    } else if (arg == "--skew") {
      cfg.demand_skew = harness::parse_real(arg, next());
    } else if (arg == "--tkv") {
      cfg.mean_service_time = sim::millis(harness::parse_real(arg, next()));
      cfg.selector.c3.service_time_prior = cfg.mean_service_time;
    } else if (arg == "--requests") {
      set_count(cfg.total_requests, arg, next());
    } else if (arg == "--repeats") {
      set_count(cfg.repeats, arg, next());
    } else if (arg == "--algorithm") {
      cfg.selector.algorithm = next();
    } else if (arg == "--granularity") {
      const std::string g = next();
      if (g == "rack") {
        cfg.granularity = core::GroupGranularity::kRack;
      } else if (g == "host") {
        cfg.granularity = core::GroupGranularity::kHost;
      } else if (g == "subrack4") {
        cfg.granularity = core::GroupGranularity::kSubRack;
        cfg.sub_rack_hosts = 4;
      } else {
        std::fprintf(stderr, "unknown granularity\n");
        return 2;
      }
    } else if (arg == "--hop-budget") {
      cfg.extra_hop_fraction = harness::parse_real(arg, next());
    } else if (arg == "--share-accel") {
      cfg.share_core_accelerators = true;
    } else if (arg == "--seed") {
      set_count(cfg.seed, arg, next());
    } else if (arg == "--jobs") {
      set_count(cfg.jobs, arg, next());
    } else if (arg == "--shards") {
      set_count(cfg.shards, arg, next());
    } else if (arg == "--multiplicity") {
      set_count(cfg.client_multiplicity, arg, next());
    } else if (arg == "--trace") {
      cfg.obs.trace_path = next();
    } else if (arg.rfind("--trace=", 0) == 0) {
      cfg.obs.trace_path = arg.substr(std::strlen("--trace="));
    } else if (arg == "--metrics") {
      cfg.obs.metrics_path = next();
    } else if (arg.rfind("--metrics=", 0) == 0) {
      cfg.obs.metrics_path = arg.substr(std::strlen("--metrics="));
    } else if (arg == "--attribution") {
      cfg.obs.attribution_path = next();
    } else if (arg.rfind("--attribution=", 0) == 0) {
      cfg.obs.attribution_path = arg.substr(std::strlen("--attribution="));
    } else if (arg == "--decisions") {
      cfg.obs.decision_path = next();
    } else if (arg.rfind("--decisions=", 0) == 0) {
      cfg.obs.decision_path = arg.substr(std::strlen("--decisions="));
    } else if (arg == "--faults") {
      cfg.fault_plan = next();
    } else if (arg.rfind("--faults=", 0) == 0) {
      cfg.fault_plan = arg.substr(std::strlen("--faults="));
    } else if (arg == "--timeline-bucket") {
      cfg.timeline_bucket = sim::millis(harness::parse_real(arg, next()));
    } else if (arg == "--trace-capacity") {
      set_count(cfg.obs.trace_capacity, arg, next());
    } else if (arg == "--shard-telemetry") {
      cfg.shard_telemetry_path = next();
    } else if (arg.rfind("--shard-telemetry=", 0) == 0) {
      cfg.shard_telemetry_path =
          arg.substr(std::strlen("--shard-telemetry="));
    } else {
      usage(argv[0]);
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }

  std::printf("running %s: k=%d servers=%d clients=%d util=%.0f%% "
              "skew=%.0f%% tkv=%.1fms requests=%llu x%d algo=%s jobs=%d "
              "shards=%d\n",
              harness::scheme_name(scheme), cfg.fat_tree_k, cfg.num_servers,
              cfg.num_clients, cfg.utilization * 100.0,
              cfg.demand_skew * 100.0, sim::to_millis(cfg.mean_service_time),
              static_cast<unsigned long long>(cfg.total_requests),
              cfg.repeats, cfg.selector.algorithm.c_str(),
              harness::resolve_jobs(cfg.jobs), cfg.shards);
  std::fflush(stdout);

  const harness::ExperimentResult r = harness::run_experiment(scheme, cfg);
  std::printf("\nlatency (ms): mean %.3f | p50 %.3f | p95 %.3f | p99 %.3f "
              "| p99.9 %.3f | max %.3f\n",
              r.mean_ms(), r.percentile_ms(0.50), r.percentile_ms(0.95),
              r.percentile_ms(0.99), r.percentile_ms(0.999),
              r.latencies_ms.empty() ? 0.0 : r.latencies_ms.max());
  std::printf("samples %zu | issued %llu | completed %llu | redundant %llu "
              "| cancels %llu\n",
              r.latencies_ms.count(),
              static_cast<unsigned long long>(r.issued),
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.redundant),
              static_cast<unsigned long long>(r.cancels));
  std::printf("RSNodes %d (%s, %d plans, %zu DRS groups) | fwd/req %.2f | "
              "KB/req %.2f | herd CV %.2f | wall %.1fs",
              r.rsnodes, r.plan_method.c_str(), r.plans_deployed,
              r.drs_groups, r.avg_forwards,
              r.wire_bytes_per_request / 1024.0, r.load_oscillation,
              r.wall_seconds);
  if (cfg.obs.any()) {
    std::printf(" (obs harvest %.3fs, write %.3fs)", r.harvest_seconds,
                r.write_seconds);
  }
  std::printf("\n");
  if (r.events_per_shard.size() > 1) {
    std::printf("events per shard:");
    for (std::size_t s = 0; s < r.events_per_shard.size(); ++s) {
      std::printf(" s%zu=%llu", s,
                  static_cast<unsigned long long>(r.events_per_shard[s]));
    }
    std::printf("\n");
  }
  if (!cfg.obs.trace_path.empty()) {
    std::printf("trace: %llu events -> %s (%llu dropped to ring "
                "wraparound; open at https://ui.perfetto.dev)\n",
                static_cast<unsigned long long>(r.trace_events),
                cfg.obs.trace_path.c_str(),
                static_cast<unsigned long long>(r.trace_dropped));
    for (std::size_t rep = 0; rep < r.trace_repeats.size(); ++rep) {
      std::printf("  repeat %zu: %llu recorded, %llu dropped\n", rep,
                  static_cast<unsigned long long>(
                      r.trace_repeats[rep].recorded),
                  static_cast<unsigned long long>(
                      r.trace_repeats[rep].dropped));
      const auto& lanes = r.trace_repeats[rep].lanes;
      for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
        if (lanes[lane].dropped == 0) continue;
        const bool coord = lanes.size() > 1 && lane + 1 == lanes.size();
        const std::string label =
            coord ? "coordinator" : "shard " + std::to_string(lane);
        std::printf("    %s ring: %llu recorded, %llu dropped\n",
                    label.c_str(),
                    static_cast<unsigned long long>(lanes[lane].recorded),
                    static_cast<unsigned long long>(lanes[lane].dropped));
      }
    }
    if (r.trace_dropped > 0) {
      // Name the shard whose ring wrapped hardest so --trace-capacity
      // tuning targets the right lane.
      std::uint64_t worst = 0;
      std::size_t worst_lane = 0;
      bool worst_coord = false;
      for (const auto& t : r.trace_repeats) {
        for (std::size_t lane = 0; lane < t.lanes.size(); ++lane) {
          if (t.lanes[lane].dropped > worst) {
            worst = t.lanes[lane].dropped;
            worst_lane = lane;
            worst_coord = t.lanes.size() > 1 && lane + 1 == t.lanes.size();
          }
        }
      }
      if (worst > 0) {
        std::printf("WARNING: %llu trace events dropped (worst ring: %s%s, "
                    "%llu dropped); raise --trace-capacity (currently %zu, "
                    "per shard ring) to keep them\n",
                    static_cast<unsigned long long>(r.trace_dropped),
                    worst_coord ? "coordinator" : "shard ",
                    worst_coord ? "" : std::to_string(worst_lane).c_str(),
                    static_cast<unsigned long long>(worst),
                    cfg.obs.trace_capacity);
      } else {
        std::printf("WARNING: %llu trace events dropped; raise "
                    "--trace-capacity (currently %zu) to keep them\n",
                    static_cast<unsigned long long>(r.trace_dropped),
                    cfg.obs.trace_capacity);
      }
    }
  }
  if (!cfg.shard_telemetry_path.empty()) {
    std::printf("shard telemetry: %s (per-shard windows/events/exec/stall "
                "in sim-time buckets; wall-clock based, nondeterministic)\n",
                cfg.shard_telemetry_path.c_str());
  }
  if (!cfg.obs.metrics_path.empty()) {
    std::printf("metrics: %s (long-format CSV: repeat,time_us,metric,value)\n",
                cfg.obs.metrics_path.c_str());
    for (const obs::MetricSummaryEntry& e : r.metrics.entries) {
      std::printf("  %-18s samples %llu | min %s | mean %s | max %s | "
                  "last %s\n",
                  e.name.c_str(), static_cast<unsigned long long>(e.samples),
                  obs::format_metric_value(e.min).c_str(),
                  obs::format_metric_value(e.mean).c_str(),
                  obs::format_metric_value(e.max).c_str(),
                  obs::format_metric_value(e.last).c_str());
    }
  }
  if (!cfg.obs.attribution_path.empty()) {
    std::printf("attribution: %llu requests -> %s (dup wins %llu, via "
                "RSNode %llu, unmatched %llu)\n",
                static_cast<unsigned long long>(r.attribution.requests),
                cfg.obs.attribution_path.c_str(),
                static_cast<unsigned long long>(r.attribution.dup_wins),
                static_cast<unsigned long long>(r.attribution.via_rs),
                static_cast<unsigned long long>(r.attribution.unmatched));
    for (std::size_t c = 0; c < obs::kFlightComponents; ++c) {
      const sim::LatencyRecorder& rec = r.attribution.components_ms[c];
      std::printf("  %-12s mean %.4f ms | p99 %.4f ms\n",
                  obs::kFlightComponentNames[c],
                  rec.empty() ? 0.0 : rec.mean(),
                  rec.empty() ? 0.0 : rec.percentile(0.99));
    }
  }
  if (!cfg.obs.decision_path.empty()) {
    std::printf("decisions: %llu audited -> %s | regret mean %.4f ms p99 "
                "%.4f ms | staleness mean %.4f ms | herd %.3f\n",
                static_cast<unsigned long long>(r.decisions.decisions),
                cfg.obs.decision_path.c_str(),
                r.decisions.regret_ms.empty()
                    ? 0.0
                    : r.decisions.regret_ms.mean(),
                r.decisions.regret_ms.empty()
                    ? 0.0
                    : r.decisions.regret_ms.percentile(0.99),
                r.decisions.staleness_ms.empty()
                    ? 0.0
                    : r.decisions.staleness_ms.mean(),
                r.decisions.herd.empty() ? 0.0 : r.decisions.herd.mean());
  }
  if (r.fault.enabled) {
    harness::print_fault_phases(harness::scheme_name(scheme), r);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A rejected configuration (odd k, too many hosts, a bad fault plan or
  // flag value) is a usage error, not a crash.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run_experiment: %s\n", e.what());
    return 2;
  }
}
