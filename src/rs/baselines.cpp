#include "rs/baselines.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "sim/simulator.hpp"

namespace netrs::rs {
namespace {

/// History weight of EwmaLatencySelector's per-server latency EWMA.
constexpr double kLatencyEwmaAlpha = 0.9;
/// last_feedback_ of a server that has not responded yet.
constexpr sim::Time kNeverHeard = -1;

}  // namespace

net::HostId RandomSelector::select(std::span<const net::HostId> candidates) {
  assert(!candidates.empty());
  const net::HostId chosen = candidates[rng_.uniform(candidates.size())];
  if (has_decision_hook()) {
    report_decision(DecisionContext{candidates, chosen, {}, {}});
  }
  return chosen;
}

net::HostId RoundRobinSelector::select(
    std::span<const net::HostId> candidates) {
  assert(!candidates.empty());
  const net::HostId chosen = candidates[counter_++ % candidates.size()];
  if (has_decision_hook()) {
    report_decision(DecisionContext{candidates, chosen, {}, {}});
  }
  return chosen;
}

net::HostId LeastOutstandingSelector::select(
    std::span<const net::HostId> candidates) {
  assert(!candidates.empty());
  net::HostId best = candidates[0];
  std::uint32_t best_count = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t ties = 0;
  for (net::HostId h : candidates) {
    const std::uint32_t slot = index_.find(h);
    const std::uint32_t c =
        slot == HostSlotIndex::kNone ? 0 : outstanding_[slot];
    if (c < best_count) {
      best_count = c;
      best = h;
      ties = 1;
    } else if (c == best_count) {
      // Reservoir-style uniform tie-break.
      ++ties;
      if (rng_.uniform(ties) == 0) best = h;
    }
  }
  if (has_decision_hook()) {
    scores_scratch_.clear();
    ages_scratch_.clear();
    const sim::Time now = sim_.now();
    for (net::HostId h : candidates) {
      const std::uint32_t slot = index_.find(h);
      scores_scratch_.push_back(
          slot == HostSlotIndex::kNone
              ? 0.0
              : static_cast<double>(outstanding_[slot]));
      const bool aged = slot != HostSlotIndex::kNone &&
                        last_feedback_[slot] != kNeverHeard;
      ages_scratch_.push_back(aged ? now - last_feedback_[slot]
                                   : sim::Duration{-1});
    }
    report_decision(
        DecisionContext{candidates, best, scores_scratch_, ages_scratch_});
  }
  return best;
}

std::uint32_t LeastOutstandingSelector::slot_of(net::HostId server) {
  const auto [slot, inserted] = index_.get_or_add(server);
  if (inserted) {
    outstanding_.push_back(0);
    last_feedback_.push_back(kNeverHeard);
  }
  return slot;
}

void LeastOutstandingSelector::on_send(net::HostId server) {
  ++outstanding_[slot_of(server)];
}

void LeastOutstandingSelector::on_response(const Feedback& fb) {
  const std::uint32_t slot = slot_of(fb.server);
  if (outstanding_[slot] > 0) --outstanding_[slot];
  last_feedback_[slot] = sim_.now();
}

double TwoChoicesSelector::load(std::uint32_t slot) const {
  if (slot == HostSlotIndex::kNone) return 0.0;
  return static_cast<double>(outstanding_[slot]) +
         static_cast<double>(queue_size_[slot]);
}

net::HostId TwoChoicesSelector::select(
    std::span<const net::HostId> candidates) {
  assert(!candidates.empty());
  net::HostId chosen = candidates[0];
  if (candidates.size() > 1) {
    const std::size_t i = rng_.uniform(candidates.size());
    std::size_t j = rng_.uniform(candidates.size() - 1);
    if (j >= i) ++j;
    const net::HostId a = candidates[i];
    const net::HostId b = candidates[j];
    const double load_a = load(index_.find(a));
    const double load_b = load(index_.find(b));
    if (load_a != load_b) {
      chosen = load_a < load_b ? a : b;
    } else {
      chosen = rng_.bernoulli(0.5) ? a : b;
    }
  }
  if (has_decision_hook()) {
    scores_scratch_.clear();
    ages_scratch_.clear();
    for (net::HostId h : candidates) {
      const std::uint32_t slot = index_.find(h);
      scores_scratch_.push_back(load(slot));
      const bool heard = slot != HostSlotIndex::kNone &&
                         last_feedback_[slot] != kNeverHeard;
      ages_scratch_.push_back(heard ? sim_.now() - last_feedback_[slot]
                                    : sim::Duration{-1});
    }
    report_decision(
        DecisionContext{candidates, chosen, scores_scratch_, ages_scratch_});
  }
  return chosen;
}

std::uint32_t TwoChoicesSelector::slot_of(net::HostId server) {
  const auto [slot, inserted] = index_.get_or_add(server);
  if (inserted) {
    outstanding_.push_back(0);
    queue_size_.push_back(0);
    last_feedback_.push_back(kNeverHeard);
  }
  return slot;
}

void TwoChoicesSelector::on_send(net::HostId server) {
  ++outstanding_[slot_of(server)];
}

void TwoChoicesSelector::on_response(const Feedback& fb) {
  const std::uint32_t slot = slot_of(fb.server);
  if (outstanding_[slot] > 0) --outstanding_[slot];
  queue_size_[slot] = fb.queue_size;
  last_feedback_[slot] = sim_.now();
}

net::HostId EwmaLatencySelector::select(
    std::span<const net::HostId> candidates) {
  assert(!candidates.empty());
  net::HostId best = candidates[0];
  double best_lat = std::numeric_limits<double>::max();
  std::uint32_t ties = 0;
  for (net::HostId h : candidates) {
    const std::uint32_t slot = index_.find(h);
    // Unknown servers look attractive (explore).
    const double lat =
        slot == HostSlotIndex::kNone ? -1.0 : latency_[slot].value();
    if (lat < best_lat) {
      best_lat = lat;
      best = h;
      ties = 1;
    } else if (lat == best_lat) {
      ++ties;
      if (rng_.uniform(ties) == 0) best = h;
    }
  }
  if (has_decision_hook()) {
    scores_scratch_.clear();
    ages_scratch_.clear();
    for (net::HostId h : candidates) {
      const std::uint32_t slot = index_.find(h);
      scores_scratch_.push_back(
          slot == HostSlotIndex::kNone ? -1.0 : latency_[slot].value());
      ages_scratch_.push_back(slot != HostSlotIndex::kNone
                                  ? sim_.now() - last_feedback_[slot]
                                  : sim::Duration{-1});
    }
    report_decision(
        DecisionContext{candidates, best, scores_scratch_, ages_scratch_});
  }
  return best;
}

void EwmaLatencySelector::on_response(const Feedback& fb) {
  if (!fb.has_response_time) return;
  const auto [slot, inserted] = index_.get_or_add(fb.server);
  if (inserted) {
    latency_.emplace_back(kLatencyEwmaAlpha);
    last_feedback_.push_back(0);
  }
  latency_[slot].add(sim::to_micros(fb.response_time));
  last_feedback_[slot] = sim_.now();
}

}  // namespace netrs::rs
