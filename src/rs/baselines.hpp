// Baseline replica-selection algorithms used for ablations against C3:
//   - RandomSelector: uniform choice;
//   - RoundRobinSelector: rotates through the candidate list;
//   - LeastOutstandingSelector: fewest requests outstanding from this RSNode;
//   - TwoChoicesSelector: Mitzenmacher's power-of-two-choices over the
//     freshest queue estimates;
//   - EwmaLatencySelector: lowest EWMA response time (Cassandra's Dynamic
//     Snitch-style history ranking).
//
// Every selector fires the base-class decision hook (rs/selector.hpp) once
// per select(); the feedback-driven ones also report per-candidate scores
// and feedback-snapshot ages (which is why they take the simulator clock).
#pragma once

#include <vector>

#include "rs/selector.hpp"
#include "rs/server_table.hpp"
#include "sim/affinity.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace netrs::sim {
class Simulator;
}  // namespace netrs::sim

namespace netrs::rs {

/// Uniform random choice among the candidates (stateless baseline).
class NETRS_SHARD_LOCAL RandomSelector final : public ReplicaSelector {
 public:
  /// `rng` is this selector's private stream.
  explicit RandomSelector(sim::Rng rng) : rng_(rng) {}

  /// Picks a candidate uniformly at random.
  net::HostId select(std::span<const net::HostId> candidates) override;
  /// No bookkeeping.
  void on_send(net::HostId) override {}
  /// No bookkeeping.
  void on_response(const Feedback&) override {}
  /// "random".
  [[nodiscard]] std::string name() const override { return "random"; }

 private:
  sim::Rng rng_;
};

/// Rotates through the candidate list (stateful, feedback-free baseline).
class NETRS_SHARD_LOCAL RoundRobinSelector final : public ReplicaSelector {
 public:
  /// Picks candidates[counter++ % size].
  net::HostId select(std::span<const net::HostId> candidates) override;
  /// No bookkeeping.
  void on_send(net::HostId) override {}
  /// No bookkeeping.
  void on_response(const Feedback&) override {}
  /// "round-robin".
  [[nodiscard]] std::string name() const override { return "round-robin"; }

 private:
  std::uint64_t counter_ = 0;
};

/// Fewest requests outstanding from this RSNode; random tie-break.
class NETRS_SHARD_LOCAL LeastOutstandingSelector final : public ReplicaSelector {
 public:
  /// `rng` breaks ties among equally loaded candidates; `sim` supplies
  /// the clock for decision-hook feedback ages.
  LeastOutstandingSelector(sim::Rng rng, sim::Simulator& sim)
      : rng_(rng), sim_(sim) {}

  /// Picks the candidate with the fewest outstanding requests.
  net::HostId select(std::span<const net::HostId> candidates) override;
  /// Increments the server's outstanding count.
  void on_send(net::HostId server) override;
  /// Decrements the server's outstanding count.
  void on_response(const Feedback& fb) override;
  /// "least-outstanding".
  [[nodiscard]] std::string name() const override {
    return "least-outstanding";
  }

 private:
  /// Slot of `server`, created on first touch in every parallel array.
  std::uint32_t slot_of(net::HostId server);

  sim::Rng rng_;
  sim::Simulator& sim_;
  // Per-server hot state, SoA over the slot index (rs/server_table.hpp):
  // the select() scan walks outstanding_ directly instead of hashing per
  // candidate. last_feedback_ is -1 until the server first responds.
  HostSlotIndex index_;
  std::vector<std::uint32_t> outstanding_;
  std::vector<sim::Time> last_feedback_;
  std::vector<double> scores_scratch_;
  std::vector<sim::Duration> ages_scratch_;
};

/// Power-of-two-choices (Mitzenmacher): sample two random candidates,
/// keep the one with the lower load estimate.
class NETRS_SHARD_LOCAL TwoChoicesSelector final : public ReplicaSelector {
 public:
  /// `rng` draws the two candidates; `sim` supplies the clock for
  /// decision-hook feedback ages.
  TwoChoicesSelector(sim::Rng rng, sim::Simulator& sim)
      : rng_(rng), sim_(sim) {}

  /// Samples two candidates, returns the less loaded one.
  net::HostId select(std::span<const net::HostId> candidates) override;
  /// Increments the server's outstanding count.
  void on_send(net::HostId server) override;
  /// Decrements outstanding and records the reported queue size.
  void on_response(const Feedback& fb) override;
  /// "two-choices".
  [[nodiscard]] std::string name() const override { return "two-choices"; }

 private:
  /// Estimated load of the server in `slot` (kNone = never touched = 0):
  /// outstanding from this RSNode plus last reported queue.
  [[nodiscard]] double load(std::uint32_t slot) const;
  /// Slot of `server`, created on first touch in every parallel array.
  std::uint32_t slot_of(net::HostId server);

  sim::Rng rng_;
  sim::Simulator& sim_;
  // Per-server load estimates in SoA layout over the slot index;
  // last_feedback_ is -1 until the server first responds.
  HostSlotIndex index_;
  std::vector<std::uint32_t> outstanding_;
  std::vector<std::uint32_t> queue_size_;
  std::vector<sim::Time> last_feedback_;
  std::vector<double> scores_scratch_;
  std::vector<sim::Duration> ages_scratch_;
};

/// Lowest EWMA response time (Cassandra Dynamic Snitch-style ranking).
class NETRS_SHARD_LOCAL EwmaLatencySelector final : public ReplicaSelector {
 public:
  /// `rng` breaks ties and picks among never-seen servers; `sim`
  /// supplies the clock for decision-hook feedback ages.
  EwmaLatencySelector(sim::Rng rng, sim::Simulator& sim)
      : rng_(rng), sim_(sim) {}

  /// Picks the candidate with the lowest latency EWMA.
  net::HostId select(std::span<const net::HostId> candidates) override;
  /// No bookkeeping.
  void on_send(net::HostId) override {}
  /// Folds the measured response time into the server's EWMA.
  void on_response(const Feedback& fb) override;
  /// "ewma-latency".
  [[nodiscard]] std::string name() const override { return "ewma-latency"; }

 private:
  sim::Rng rng_;
  sim::Simulator& sim_;
  // Per-server EWMA state in SoA layout over the slot index. Slots are
  // only created on a timed response, so slot-present implies the EWMA
  // and the feedback time are populated.
  HostSlotIndex index_;
  std::vector<sim::Ewma> latency_;
  std::vector<sim::Time> last_feedback_;
  std::vector<double> scores_scratch_;
  std::vector<sim::Duration> ages_scratch_;
};

}  // namespace netrs::rs
