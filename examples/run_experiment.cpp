// Command-line experiment runner: expose the full experiment harness as a
// single binary so new configurations can be explored without writing
// code. The flags are the cell fields of harness::cell_fields(); they
// override the NETRS_* environment, and --help lists them.
//
// Usage examples:
//   run_experiment --scheme netrs-ilp --clients 700 --utilization 0.9
//   run_experiment --scheme clirs-r95c --requests 500000 --skew 0.8
//   run_experiment --scheme netrs-ilp --algorithm two-choices --share-accel
#include <cstdio>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/report.hpp"

using namespace netrs;

namespace {

/// `s` as one POSIX shell word, so the header can be pasted back.
std::string shell_word(const std::string& s) {
  if (!s.empty() && s.find_first_not_of("abcdefghijklmnopqrstuvwxyz"
                                        "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                                        "0123456789@%+=:,./_-") ==
                        std::string::npos) {
    return s;
  }
  std::string out = "'";
  for (const char c : s) {
    out += c == '\'' ? std::string("'\\''") : std::string(1, c);
  }
  return out + "'";
}

int run(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  harness::Cell cell{.cfg = harness::default_config()};
  if (!harness::apply_cell_args(cell, args)) {
    std::printf("usage: %s [--flag V | --flag=V]...\n%s", argv[0],
                harness::cell_usage().c_str());
    return 0;
  }
  const harness::ExperimentConfig& cfg = cell.cfg;

  // A rejected cell prints only its error, not a run header first. The
  // header spells every field, so it replays the cell.
  harness::validate_config(cfg);
  std::printf("running %s:", harness::scheme_name(cell.scheme));
  for (const std::string& a : harness::cell_args(cell)) {
    std::printf(" %s", shell_word(a).c_str());
  }
  std::printf("\n");
  std::fflush(stdout);

  harness::SweepReport report{"", "algorithm", {cfg.selector.algorithm},
                              {cell.scheme}, {}};
  report.results.push_back({harness::run_experiment(cell.scheme, cfg)});
  const harness::ExperimentResult& r = report.results[0][0];
  std::printf("\nlatency (ms): mean %.3f | p50 %.3f | p95 %.3f | p99 %.3f "
              "| p99.9 %.3f | max %.3f\n",
              r.mean_ms(), r.percentile_ms(0.50), r.percentile_ms(0.95),
              r.percentile_ms(0.99), r.percentile_ms(0.999),
              r.latencies_ms.empty() ? 0.0 : r.latencies_ms.max());
  std::printf("samples %zu | issued %llu | cancels %llu | plans %d | DRS "
              "groups %zu",
              r.latencies_ms.count(),
              static_cast<unsigned long long>(r.issued),
              static_cast<unsigned long long>(r.cancels), r.plans_deployed,
              r.drs_groups);
  if (cfg.obs.any()) {
    std::printf(" | obs harvest %.3fs, wait %.3fs, write %.3fs, %llu chunks",
                r.harvest_seconds, r.wait_seconds, r.write_seconds,
                static_cast<unsigned long long>(r.obs_handoffs));
  }
  std::printf("\n");
  const std::pair<const char*, const std::string&> outputs[] = {
      {"trace", cfg.obs.trace_path},
      {"metrics", cfg.obs.metrics_path},
      {"attribution", cfg.obs.attribution_path},
      {"decisions", cfg.obs.decision_path},
      {"shard telemetry", cfg.shard_telemetry_path},
  };
  for (const auto& [name, path] : outputs) {
    if (!path.empty()) std::printf("%s: %s\n", name, path.c_str());
  }
  harness::print_cell_sections(report);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A rejected configuration (odd k, too many hosts, a bad fault plan, an
  // unknown flag or a flag value) is a usage error, not a crash.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run_experiment: %s\n", e.what());
    return 2;
  }
}
