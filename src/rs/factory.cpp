#include "rs/factory.hpp"

#include <stdexcept>

#include "rs/baselines.hpp"

namespace netrs::rs {
namespace {

// Every selector by name: the one list of algorithms.
using Made = std::unique_ptr<ReplicaSelector>;
struct Algorithm {
  std::string_view name;
  Made (*make)(const SelectorConfig& cfg, sim::Simulator& sim, sim::Rng rng);
};
constexpr Algorithm kAlgorithms[] = {
    {"c3", [](const SelectorConfig& c, sim::Simulator& s, sim::Rng r) -> Made {
       return std::make_unique<C3Selector>(s, r, c.c3);
     }},
    {"c3-norate",
     [](const SelectorConfig& c, sim::Simulator& s, sim::Rng r) -> Made {
       C3Options opts = c.c3;
       opts.rate_control = false;
       return std::make_unique<C3Selector>(s, r, opts);
     }},
    {"least-outstanding",
     [](const SelectorConfig&, sim::Simulator& s, sim::Rng r) -> Made {
       return std::make_unique<LeastOutstandingSelector>(r, s);
     }},
    {"random", [](const SelectorConfig&, sim::Simulator&, sim::Rng r) -> Made {
       return std::make_unique<RandomSelector>(r);
     }},
    {"round-robin",
     [](const SelectorConfig&, sim::Simulator&, sim::Rng) -> Made {
       return std::make_unique<RoundRobinSelector>();
     }},
    {"two-choices",
     [](const SelectorConfig&, sim::Simulator& s, sim::Rng r) -> Made {
       return std::make_unique<TwoChoicesSelector>(r, s);
     }},
    {"ewma-latency",
     [](const SelectorConfig&, sim::Simulator& s, sim::Rng r) -> Made {
       return std::make_unique<EwmaLatencySelector>(r, s);
     }},
};

}  // namespace

std::unique_ptr<ReplicaSelector> make_selector(const SelectorConfig& cfg,
                                               sim::Simulator& sim,
                                               sim::Rng rng) {
  for (const Algorithm& a : kAlgorithms) {
    if (a.name == cfg.algorithm) return a.make(cfg, sim, rng);
  }
  throw std::invalid_argument("unknown replica-selection algorithm: " +
                              cfg.algorithm);
}

bool is_selector_algorithm(std::string_view name) {
  for (const Algorithm& a : kAlgorithms) {
    if (a.name == name) return true;
  }
  return false;
}

std::string selector_algorithm_names() {
  std::string names;
  for (const Algorithm& a : kAlgorithms) {
    names += (names.empty() ? "" : ", ") + std::string(a.name);
  }
  return names;
}

}  // namespace netrs::rs
