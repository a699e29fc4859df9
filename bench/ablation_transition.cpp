// Ablation A7 — the cost of deploying a new Replica Selection Plan.
//
// §II: "the deployment of a new RSP may lead to a temporary latency
// increase. The time it takes for the system to stabilize again depends
// on many factors, including the rate of convergence of the replica
// selection algorithm..." This bench measures that transient directly: a
// paper-default NetRS-ILP cluster runs in steady state, then at t = 1.5 s
// every active RSNode's selector is reset — exactly the state a *newly
// activated* RSNode starts from — and the per-100ms latency timeline
// shows the spike and the re-convergence time of C3.
#include <algorithm>
#include <cstdio>

#include "harness/deployment.hpp"

using namespace netrs;

int main() {
  std::printf("=== Ablation A7 - RSP deployment transient ===\n");
  harness::ExperimentConfig cfg;  // paper defaults: k=16, 100/500, 90 %, C3
  cfg.seed = 17;
  cfg.total_requests = 270'000;  // 3 s at 90 k requests/s
  cfg.timeline_bucket = sim::millis(100);
  const sim::FaultPlan plan = harness::validate_config(cfg);  // no faults
  harness::Deployment d(harness::Scheme::kNetRSIlp, cfg, plan, cfg.seed);

  // The event under test: at t = 1.5 s every active RSNode restarts with
  // an empty view, as if a brand-new RSP had just been deployed. A global
  // event, so it runs with every shard parked.
  d.simulator.at(sim::millis(1500), [&d] {
    const auto& assignment = d.controller->current_plan().assignment;
    int reset = 0;
    for (auto& op : d.operators) {
      if (std::any_of(assignment.begin(), assignment.end(),
                      [&op](const auto& g) { return g.second == op->id(); })) {
        op->reset_selector();
        ++reset;
      }
    }
    std::printf("t=1.5s: reset the selectors of %d active RSNodes\n", reset);
  });
  harness::ExperimentResult r = d.run();
  r.finalize();

  std::printf("\n%-10s %10s %10s %10s\n", "window", "mean(ms)", "p99(ms)",
              "samples");
  constexpr int kBuckets = 30;  // 3 s in 100 ms windows
  if (r.timeline.size() < kBuckets) {
    std::fprintf(stderr, "ablation_transition: the run left %zu of %d "
                 "timeline buckets\n", r.timeline.size(), kBuckets);
    return 1;
  }
  for (int b = 2; b < kBuckets; ++b) {  // skip warmup buckets
    if (r.timeline[b].empty()) continue;
    std::printf("%.1f-%.1fs  %10.3f %10.3f %10zu%s\n", b / 10.0,
                (b + 1) / 10.0, r.timeline[b].mean(),
                r.timeline[b].percentile(0.99), r.timeline[b].count(),
                b == 15 ? "   <- RSP transition" : "");
  }

  // Summarize: steady state = buckets 10-14, transient = 15-17.
  sim::LatencyRecorder steady, transient;
  for (int b = 10; b < 15; ++b) steady.merge(r.timeline[b]);
  for (int b = 15; b < 18; ++b) transient.merge(r.timeline[b]);
  steady.finalize();
  transient.finalize();
  std::printf(
      "\nsteady p99 %.3f ms | transient p99 %.3f ms | penalty %.2fx "
      "(final plan: %d RSNodes, %s; %d plans deployed)\n",
      steady.percentile(0.99), transient.percentile(0.99),
      transient.percentile(0.99) / steady.percentile(0.99), r.rsnodes,
      r.plan_method.c_str(), r.plans_deployed);
  return 0;
}
