// Factory producing replica selectors by algorithm name, so the harness and
// the NetRS controller can configure RSNodes from a plain string.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "rs/c3.hpp"
#include "rs/selector.hpp"
#include "sim/affinity.hpp"

namespace netrs::rs {

/// Selector choice by name plus the algorithm-specific options.
struct NETRS_SHARED_IMMUTABLE SelectorConfig {
  /// One of: "c3", "c3-norate", "least-outstanding", "random",
  /// "round-robin", "two-choices", "ewma-latency".
  std::string algorithm = "c3";
  C3Options c3;
};

/// Creates a selector. Throws std::invalid_argument on unknown names.
std::unique_ptr<ReplicaSelector> make_selector(const SelectorConfig& cfg,
                                               sim::Simulator& sim,
                                               sim::Rng rng);

/// True when make_selector() accepts `name`.
[[nodiscard]] bool is_selector_algorithm(std::string_view name);
/// The names make_selector() accepts, comma-separated, in a fixed order.
[[nodiscard]] std::string selector_algorithm_names();

}  // namespace netrs::rs
