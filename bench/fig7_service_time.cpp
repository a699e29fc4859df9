// Figure 7 — response latency vs. mean service time tkv (0.1..4 ms) at a
// fixed 90% utilization (the aggregate rate scales inversely with tkv).
// Reproduces: NetRS-ILP's *mean*-latency advantage shrinks at small tkv
// (extra hops and accelerator queueing are no longer negligible against
// sub-millisecond service) while the tail advantage persists.
#include <algorithm>
#include <cstdint>

#include "figure_common.hpp"

int main() {
  using netrs::bench::SweepPoint;
  std::vector<SweepPoint> points;
  for (double tkv_ms : {0.1, 0.5, 1.0, 2.0, 4.0}) {
    char label[16];
    std::snprintf(label, sizeof label, "%.1fms", tkv_ms);
    points.push_back({label,
                      [tkv_ms](netrs::harness::ExperimentConfig& cfg) {
                        cfg.mean_service_time = netrs::sim::millis(tkv_ms);
                        // Fixed 90% utilization means the aggregate rate
                        // grows as tkv shrinks (A = u*Ns*Np/tkv, up to
                        // 3.6M req/s at 0.1 ms). Keep every point running
                        // >= 0.75 simulated seconds so the controller's
                        // plan dynamics — not the bootstrap — are measured.
                        const auto floor_requests = static_cast<std::uint64_t>(
                            cfg.aggregate_rate() * 0.75);
                        cfg.total_requests =
                            std::max(cfg.total_requests, floor_requests);
                      }});
  }
  return netrs::bench::run_figure(
      "Figure 7 - impact of the service time", "tkv", points);
}
