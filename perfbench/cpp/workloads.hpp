// The benchmark's pinned workloads: one harness::ExperimentConfig cell each,
// seeded from the command line (perfbench/README.md explains why each one
// exists and which layer it exercises or bypasses).
#pragma once

#include <cstdint>
#include <string>

#include "harness/config.hpp"

namespace perfbench {

/// One benchmark workload: a scheme plus the full cell it runs.
struct Workload {
  std::string name;                     ///< Workload name (BENCHMARK.json).
  netrs::harness::Scheme scheme;        ///< Replica-selection scheme.
  netrs::harness::ExperimentConfig cfg; ///< The whole cell, seed included.
};

/// Builds workload `name` at `seed`. `obs_dir` is the directory the obs
/// outputs of the crash-obs workload are written to (ignored by the
/// others). Throws std::invalid_argument on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed,
                                     const std::string& obs_dir);

/// The same cell cut to `requests` total requests: what the set-up timing
/// runs. Fault times stay where the full cell puts them.
[[nodiscard]] Workload cut_to(Workload w, std::uint64_t requests);

/// The workload's cell with every obs output turned off.
[[nodiscard]] Workload without_obs(Workload w);

}  // namespace perfbench
