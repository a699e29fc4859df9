#include "rs/factory.hpp"

#include <stdexcept>

#include "rs/baselines.hpp"

namespace netrs::rs {

std::unique_ptr<ReplicaSelector> make_selector(const SelectorConfig& cfg,
                                               sim::Simulator& sim,
                                               sim::Rng rng) {
  if (cfg.algorithm == "c3") {
    return std::make_unique<C3Selector>(sim, rng, cfg.c3);
  }
  if (cfg.algorithm == "c3-norate") {
    C3Options opts = cfg.c3;
    opts.rate_control = false;
    return std::make_unique<C3Selector>(sim, rng, opts);
  }
  if (cfg.algorithm == "least-outstanding") {
    return std::make_unique<LeastOutstandingSelector>(rng, sim);
  }
  if (cfg.algorithm == "random") {
    return std::make_unique<RandomSelector>(rng);
  }
  if (cfg.algorithm == "round-robin") {
    return std::make_unique<RoundRobinSelector>();
  }
  if (cfg.algorithm == "two-choices") {
    return std::make_unique<TwoChoicesSelector>(rng, sim);
  }
  if (cfg.algorithm == "ewma-latency") {
    return std::make_unique<EwmaLatencySelector>(rng, sim);
  }
  throw std::invalid_argument("unknown replica-selection algorithm: " +
                              cfg.algorithm);
}

}  // namespace netrs::rs
