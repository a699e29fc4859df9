// Fans independent experiment runs — repeat deployments within
// run_experiment() and whole sweep cells (scheme × config point) in the
// figure benches — out across CPU cores with parallel_for().
//
// Determinism contract: every task owns its entire simulation state
// (Simulator, Rng, topology, …) and derives its seed from the task index,
// so parallel execution is bit-identical to serial execution as long as
// results are merged in task-index order. parallel_for() therefore hands
// each task its index and leaves result placement to the caller (write to
// your own slot; merge slots in order afterwards).
#pragma once

#include <cstddef>
#include <functional>

namespace netrs::harness {

/// Resolves a --jobs / ExperimentConfig::jobs value: n >= 1 is taken as
/// is; n <= 0 means "auto" (std::thread::hardware_concurrency(), at
/// least 1).
[[nodiscard]] int resolve_jobs(int requested);

/// Runs body(0), …, body(n-1) across up to `jobs` workers: the calling
/// thread plus workers-1 std::jthreads joined before return (so
/// `jobs == 1` — or n <= 1 — executes serially inline with zero
/// threading overhead). Indices are claimed from an atomic counter, each
/// exactly once, in no particular order; the first exception thrown by
/// any body is rethrown on the caller after all workers drain.
void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace netrs::harness
