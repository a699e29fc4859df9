#include "harness/report.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace netrs::harness {
namespace {

struct Panel {
  const char* name;
  double quantile;  // < 0 => mean
};

constexpr Panel kPanels[] = {
    {"Avg", -1.0},
    {"95th percentile", 0.95},
    {"99th percentile", 0.99},
    {"99.9th percentile", 0.999},
};

double panel_value(const ExperimentResult& r, const Panel& p) {
  return p.quantile < 0.0 ? r.mean_ms() : r.percentile_ms(p.quantile);
}

/// One cell of a report: its sweep value, scheme label and result.
struct Row {
  const char* value;
  const char* scheme;
  const ExperimentResult& r;
};

/// Prints "-- title --" when some row's result `has` the section's data.
template <typename Has>
bool open_section(const std::vector<Row>& rows, Has has, const char* title) {
  if (std::none_of(rows.begin(), rows.end(),
                   [&](const Row& row) { return has(row.r); })) {
    return false;
  }
  std::printf("\n-- %s --\n", title);
  return true;
}

void print_diagnostics(const std::vector<Row>& rows, const char* label) {
  std::printf("\n-- Diagnostics --\n");
  std::printf("%-12s %-11s %8s %12s %12s %10s %8s %8s %8s %8s\n", label,
              "scheme", "RSNodes", "plan", "completed", "redundant",
              "fwd/req", "KB/req", "herdCV", "wall(s)");
  for (const auto& [value, scheme, r] : rows) {
    std::printf("%-12s %-11s %8d %12s %12llu %12llu %10.2f %8.2f %8.2f %8.1f\n",
                value, scheme, r.rsnodes, r.plan_method.c_str(),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.redundant), r.avg_forwards,
                r.wire_bytes_per_request / 1024.0, r.load_oscillation,
                r.wall_seconds);
  }
}

// Trace ring counts: retained and dropped events, per repeat, per wrapped
// ring, and a warning naming the worst ring and the field to raise.
void print_trace(const std::vector<Row>& rows) {
  const auto traced = [](const ExperimentResult& r) {
    return !r.trace_repeats.empty();
  };
  if (!open_section(rows, traced, "Trace")) return;
  const CellField& capacity = trace_capacity_field();
  for (const auto& [value, scheme, r] : rows) {
    if (r.trace_events > 0 || r.trace_dropped > 0) {
      std::printf("%-12s %-11s trace: %llu events retained, %llu "
                  "dropped to ring wraparound\n",
                  value, scheme,
                  static_cast<unsigned long long>(r.trace_events),
                  static_cast<unsigned long long>(r.trace_dropped));
    }
    std::uint64_t worst = 0;
    std::string worst_ring;
    for (std::size_t rep = 0; rep < r.trace_repeats.size(); ++rep) {
      const ExperimentResult::TraceRepeatCounts& t = r.trace_repeats[rep];
      std::printf("%-12s %-11s   trace repeat %llu: %llu recorded, "
                  "%llu dropped\n",
                  value, scheme, static_cast<unsigned long long>(rep),
                  static_cast<unsigned long long>(t.recorded),
                  static_cast<unsigned long long>(t.dropped));
      // Per-ring breakdown only for rings that actually wrapped, so a
      // clean run's report is identical at any shard count. A sharded
      // repeat's last ring is the coordinator's.
      for (std::size_t lane = 0; lane < t.lanes.size(); ++lane) {
        if (t.lanes[lane].dropped == 0) continue;
        const std::string ring = lane > 0 && lane + 1 == t.lanes.size()
                                     ? "coordinator"
                                     : "shard " + std::to_string(lane);
        std::printf("%-12s %-11s     %s ring: %llu recorded, %llu "
                    "dropped\n",
                    value, scheme, ring.c_str(),
                    static_cast<unsigned long long>(t.lanes[lane].recorded),
                    static_cast<unsigned long long>(t.lanes[lane].dropped));
        if (t.lanes[lane].dropped > worst) {
          worst = t.lanes[lane].dropped;
          worst_ring = ring;
        }
      }
    }
    if (r.trace_dropped > 0) {
      const std::string where =
          worst == 0 ? "" : " (worst: " + worst_ring + ", " +
                                std::to_string(worst) + " dropped)";
      std::printf("WARNING: %s/%s dropped %llu trace events to ring "
                  "wraparound%s; raise %s (or %s) to keep them\n",
                  value, scheme,
                  static_cast<unsigned long long>(r.trace_dropped),
                  where.c_str(), capacity.flag, capacity.env);
    }
  }
}

// Metrics summary (DESIGN.md §8): per-metric min / mean / max / last over
// every tick of every repeat.
void print_metrics(const std::vector<Row>& rows, const char* label) {
  if (!open_section(
          rows, [](const ExperimentResult& r) { return r.metrics.enabled(); },
          "Metrics summary")) {
    return;
  }
  std::printf("%-12s %-11s %-18s %10s %12s %12s %12s %12s\n", label,
              "scheme", "metric", "samples", "min", "mean", "max", "last");
  for (const auto& [value, scheme, r] : rows) {
    for (const obs::MetricSummaryEntry& e : r.metrics.entries) {
      std::printf("%-12s %-11s %-18s %10llu %12s %12s %12s %12s\n", value,
                  scheme, e.name.c_str(),
                  static_cast<unsigned long long>(e.samples),
                  obs::format_metric_value(e.min).c_str(),
                  obs::format_metric_value(e.mean).c_str(),
                  obs::format_metric_value(e.max).c_str(),
                  obs::format_metric_value(e.last).c_str());
    }
  }
}

// Latency attribution (flight recorder, DESIGN.md §8.4): per-component
// mean / p99 per scheme. Components telescope, so the component means
// sum to the total's mean exactly.
void print_attribution(const std::vector<Row>& rows, const char* label) {
  if (!open_section(
          rows, [](const ExperimentResult& r) { return r.attribution.enabled; },
          "Latency attribution (ms)")) {
    return;
  }
  std::printf("%-12s %-11s %-12s %12s %12s %12s\n", label, "scheme",
              "component", "count", "mean", "p99");
  for (const auto& [value, scheme, r] : rows) {
    const obs::AttributionSummary& a = r.attribution;
    if (!a.enabled) continue;
    const auto component = [&](const char* name,
                               const sim::LatencyRecorder& rec) {
      std::printf("%-12s %-11s %-12s %12llu %12.4f %12.4f\n", value, scheme,
                  name, static_cast<unsigned long long>(rec.count()),
                  rec.empty() ? 0.0 : rec.mean(),
                  rec.empty() ? 0.0 : rec.percentile(0.99));
    };
    for (std::size_t c = 0; c < obs::kFlightComponents; ++c) {
      component(obs::kFlightComponentNames[c], a.components_ms[c]);
    }
    component("total", a.total_ms);
    std::printf("%-12s %-11s   dup wins %llu, via RSNode %llu, "
                "unmatched %llu\n",
                value, scheme, static_cast<unsigned long long>(a.dup_wins),
                static_cast<unsigned long long>(a.via_rs),
                static_cast<unsigned long long>(a.unmatched));
  }
}

// Selection quality (decision auditor, DESIGN.md §8.5): oracle regret,
// feedback staleness, and herd index per scheme — the paper's freshness
// causal claim as numbers.
void print_selection_quality(const std::vector<Row>& rows,
                             const char* label) {
  if (!open_section(
          rows, [](const ExperimentResult& r) { return r.decisions.enabled; },
          "Selection quality")) {
    return;
  }
  std::printf("%-12s %-11s %10s %12s %12s %12s %12s %10s\n", label, "scheme",
              "decisions", "regret(ms)", "regretP99", "stale(ms)", "staleP99",
              "herd");
  for (const auto& [value, scheme, r] : rows) {
    const obs::DecisionSummary& d = r.decisions;
    if (!d.enabled) continue;
    std::printf("%-12s %-11s %10llu %12.4f %12.4f %12.4f %12.4f %10.3f\n",
                value, scheme, static_cast<unsigned long long>(d.decisions),
                d.regret_ms.empty() ? 0.0 : d.regret_ms.mean(),
                d.regret_ms.empty() ? 0.0 : d.regret_ms.percentile(0.99),
                d.staleness_ms.empty() ? 0.0 : d.staleness_ms.mean(),
                d.staleness_ms.empty() ? 0.0 : d.staleness_ms.percentile(0.99),
                d.herd.empty() ? 0.0 : d.herd.mean());
  }
}

// Audit summary (checked builds only): one line per cell plus detailed
// provenance for the first violations, so a red CI audit job is
// actionable from the log alone.
void print_audit(const std::vector<Row>& rows, const char* label) {
  if (!open_section(
          rows, [](const ExperimentResult& r) { return r.audit.enabled; },
          "Invariant audit")) {
    return;
  }
  std::printf("%-12s %-11s %12s %12s %12s %12s %10s\n", label, "scheme",
              "checks", "violations", "injected", "delivered", "in-flight");
  for (const auto& [value, scheme, r] : rows) {
    const sim::AuditSummary& a = r.audit;
    std::printf("%-12s %-11s %12llu %12llu %12llu %12llu %10llu\n", value,
                scheme, static_cast<unsigned long long>(a.checks),
                static_cast<unsigned long long>(a.violations_total),
                static_cast<unsigned long long>(a.packets_injected),
                static_cast<unsigned long long>(a.packets_delivered),
                static_cast<unsigned long long>(a.packets_in_flight_at_end));
    for (const sim::AuditViolation& v : a.violations) {
      std::printf("    [%s] t=%lld ns event=%llu: %s\n", v.rule.c_str(),
                  static_cast<long long>(v.when),
                  static_cast<unsigned long long>(v.event_seq),
                  v.detail.c_str());
    }
  }
}

// Shard-parallel engine (DESIGN.md §4.10 / §8.6): per-shard event counts
// whenever a cell ran more than one shard, joined with the execute/stall
// wall-time split when shard telemetry was on. Printed only for sharded
// (or telemetry-enabled) cells, so serial reports are unchanged.
void print_shard_engine(const std::vector<Row>& rows, const char* label) {
  const auto sharded = [](const ExperimentResult& r) {
    return r.events_per_shard.size() > 1 || !r.shard_telemetry.empty();
  };
  if (!open_section(rows, sharded, "Shard engine")) return;
  std::printf("%-12s %-11s %-12s %14s %10s %12s %12s %8s\n", label, "scheme",
              "shard", "events", "windows", "exec(ms)", "stall(ms)", "util");
  for (const auto& [value, scheme, r] : rows) {
    if (!sharded(r)) continue;
    // Telemetry summed over repeats, per shard lane.
    std::vector<sim::ShardTelemetry::Lane> lanes;
    for (const sim::ShardTelemetry& t : r.shard_telemetry) {
      if (t.lanes.size() > lanes.size()) lanes.resize(t.lanes.size());
      for (std::size_t s = 0; s < t.lanes.size(); ++s) {
        lanes[s].windows += t.lanes[s].windows;
        lanes[s].exec_ns += t.lanes[s].exec_ns;
        lanes[s].stall_ns += t.lanes[s].stall_ns;
      }
    }
    const std::size_t n = std::max(r.events_per_shard.size(), lanes.size());
    for (std::size_t s = 0; s < n; ++s) {
      const std::uint64_t events =
          s < r.events_per_shard.size() ? r.events_per_shard[s] : 0;
      std::printf("%-12s %-11s %-12s %14llu", value, scheme,
                  ("shard " + std::to_string(s)).c_str(),
                  static_cast<unsigned long long>(events));
      if (s < lanes.size()) {
        const double exec = static_cast<double>(lanes[s].exec_ns);
        const double stall = static_cast<double>(lanes[s].stall_ns);
        std::printf(" %10llu %12.1f %12.1f %7.1f%%\n",
                    static_cast<unsigned long long>(lanes[s].windows),
                    exec / 1e6, stall / 1e6,
                    exec + stall > 0.0 ? 100.0 * exec / (exec + stall) : 0.0);
      } else {
        std::printf(" %10s %12s %12s %8s\n", "-", "-", "-", "-");
      }
    }
  }
}

}  // namespace

void print_report(const SweepReport& report) {
  std::printf("\n=== %s ===\n", report.title.c_str());
  for (const Panel& panel : kPanels) {
    std::printf("\n-- Latency (ms), %s --\n", panel.name);
    std::printf("%-12s", report.sweep_label.c_str());
    for (Scheme s : report.schemes) std::printf("%12s", scheme_name(s));
    std::printf("\n");
    for (std::size_t i = 0; i < report.sweep_values.size(); ++i) {
      std::printf("%-12s", report.sweep_values[i].c_str());
      for (std::size_t j = 0; j < report.schemes.size(); ++j) {
        std::printf("%12.3f", panel_value(report.results[i][j], panel));
      }
      std::printf("\n");
    }
  }
  print_cell_sections(report);
}

void print_cell_sections(const SweepReport& report) {
  std::vector<Row> rows;
  for (std::size_t i = 0; i < report.sweep_values.size(); ++i) {
    for (std::size_t j = 0; j < report.schemes.size(); ++j) {
      rows.push_back({report.sweep_values[i].c_str(),
                      scheme_name(report.schemes[j]), report.results[i][j]});
    }
  }
  const char* label = report.sweep_label.c_str();
  print_diagnostics(rows, label);
  print_trace(rows);
  print_metrics(rows, label);
  print_attribution(rows, label);
  print_selection_quality(rows, label);
  print_audit(rows, label);
  print_shard_engine(rows, label);
  // Fault-injection phase windows (DESIGN.md §9): pre/during/post latency
  // and decision quality per scheme for every cell that ran a fault plan.
  for (const Row& row : rows) print_fault_phases(row.scheme, row.r);
  std::fflush(stdout);
}

void print_fault_phases(const char* label, const ExperimentResult& r) {
  if (!r.fault.enabled) return;
  const FaultPhaseStats& f = r.fault;
  std::printf("\n-- Fault phases, %s (window %.1f..%.1f ms; %llu events "
              "fired, %llu unbound) --\n",
              label, f.window_start_ms, f.window_end_ms,
              static_cast<unsigned long long>(f.events_fired),
              static_cast<unsigned long long>(f.events_unbound));
  std::printf("%-8s %12s %10s %10s %12s %12s %12s %12s\n", "phase",
              "completed", "p50(ms)", "p99(ms)", "regret(ms)", "regretP99",
              "stale(ms)", "staleP99");
  for (int p = 0; p < 3; ++p) {
    const sim::LatencyRecorder& lat = f.latency_ms[p];
    const sim::LatencyRecorder& reg = f.regret_ms[p];
    const sim::LatencyRecorder& stl = f.staleness_ms[p];
    std::printf("%-8s %12llu %10.3f %10.3f %12.4f %12.4f %12.4f %12.4f\n",
                fault_phase_name(p),
                static_cast<unsigned long long>(lat.count()),
                lat.empty() ? 0.0 : lat.percentile(0.5),
                lat.empty() ? 0.0 : lat.percentile(0.99),
                reg.empty() ? 0.0 : reg.mean(),
                reg.empty() ? 0.0 : reg.percentile(0.99),
                stl.empty() ? 0.0 : stl.mean(),
                stl.empty() ? 0.0 : stl.percentile(0.99));
  }
  std::fflush(stdout);
}

void write_csv(const SweepReport& report, const std::string& path) {
  std::ofstream out(path, std::ios::app);
  if (!out) return;
  for (std::size_t i = 0; i < report.sweep_values.size(); ++i) {
    for (std::size_t j = 0; j < report.schemes.size(); ++j) {
      const ExperimentResult& r = report.results[i][j];
      for (const Panel& panel : kPanels) {
        out << report.title << ',' << report.sweep_values[i] << ','
            << scheme_name(report.schemes[j]) << ',' << panel.name << ','
            << panel_value(r, panel) << '\n';
      }
    }
  }
}

}  // namespace netrs::harness
