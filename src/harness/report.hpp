// Paper-style reporting: one table per figure panel (Avg / 95th / 99th /
// 99.9th percentile latency), schemes as columns, sweep values as rows,
// plus a diagnostics table and optional CSV output.
#pragma once

#include <string>
#include <vector>

#include "harness/experiment.hpp"

namespace netrs::harness {

/// One figure's worth of results: a sweep axis × the compared schemes.
struct SweepReport {
  std::string title;        ///< e.g. "Figure 4 — impact of number of clients"
  std::string sweep_label;  ///< e.g. "clients"
  std::vector<std::string> sweep_values;
  std::vector<Scheme> schemes;
  /// results[sweep_index][scheme_index]
  std::vector<std::vector<ExperimentResult>> results;
};

/// Prints the four latency panels, then print_cell_sections(), to stdout.
void print_report(const SweepReport& report);

/// Prints one row per cell in each section, to stdout: diagnostics, trace
/// ring counts, metrics summary, latency attribution, selection quality,
/// invariant audit, shard engine and fault phases. A section other than
/// the diagnostics prints only when some cell recorded its data.
/// run_experiment prints its single cell through this too.
void print_cell_sections(const SweepReport& report);

/// Prints one result's pre/during/post-fault windows (completions, p50,
/// p99, decision regret and staleness per phase, plus the fault window and
/// fired/unbound event counts). No-op unless `r.fault.enabled`; `label`
/// names the row (typically the scheme).
void print_fault_phases(const char* label, const ExperimentResult& r);

/// Appends rows "figure,sweep,scheme,metric,value" to a CSV file.
void write_csv(const SweepReport& report, const std::string& path);

}  // namespace netrs::harness
