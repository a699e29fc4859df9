#include "rs/c3.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace netrs::rs {
namespace {

constexpr double kEwmaAlpha = 0.9;  ///< History weight of the EWMAs.
constexpr int kCubicExponent = 3;   ///< b in q̂^b.

}  // namespace

C3Selector::C3Selector(sim::Simulator& sim, sim::Rng rng, C3Options opts)
    : sim_(sim), rng_(rng), opts_(opts) {}

std::uint32_t C3Selector::slot_of(net::HostId server) {
  const auto [slot, inserted] = index_.get_or_add(server);
  if (inserted) {
    response_time_.emplace_back(kEwmaAlpha);
    service_time_.emplace_back(kEwmaAlpha);
    queue_size_.push_back(0);
    outstanding_.push_back(0);
    last_feedback_.push_back(0);
    heard_.push_back(0);
    rate_.emplace_back(opts_.cubic);
  }
  return slot;
}

double C3Selector::score_of(std::uint32_t slot) const {
  const double prior_us = sim::to_micros(opts_.service_time_prior);
  const double t_service = service_time_[slot].value_or(prior_us);
  const double r = response_time_[slot].value_or(t_service);
  const double q_hat =
      1.0 + static_cast<double>(outstanding_[slot]) * opts_.concurrency +
      static_cast<double>(queue_size_[slot]);
  return (r - t_service) +
         std::pow(q_hat, static_cast<double>(kCubicExponent)) * t_service;
}

double C3Selector::score(net::HostId server) const {
  const std::uint32_t slot = index_.find(server);
  if (slot == HostSlotIndex::kNone) return -1.0;
  return score_of(slot);
}

std::uint32_t C3Selector::outstanding(net::HostId server) const {
  const std::uint32_t slot = index_.find(server);
  return slot == HostSlotIndex::kNone ? 0 : outstanding_[slot];
}

net::HostId C3Selector::select(std::span<const net::HostId> candidates) {
  assert(!candidates.empty());
  ranked_.clear();
  scores_scratch_.clear();
  for (net::HostId h : candidates) {
    const std::uint32_t slot = index_.find(h);
    double sc = 0.0;
    if (slot == HostSlotIndex::kNone) {
      // Never-heard-from servers are explored first; random jitter breaks
      // ties among them so cold starts don't stampede one replica.
      sc = -1.0 + rng_.next_double() * 1e-3;
    } else {
      sc = score_of(slot);
    }
    ranked_.push_back(Ranked{sc, h, slot});
    scores_scratch_.push_back(sc);  // candidate order, for the audit hook
  }
  std::sort(ranked_.begin(), ranked_.end());

  net::HostId chosen = ranked_.front().host;
  if (opts_.rate_control) {
    const sim::Time now = sim_.now();
    for (const Ranked& r : ranked_) {
      if (r.slot == HostSlotIndex::kNone) {  // no controller yet: free to send
        chosen = r.host;
        break;
      }
      if (rate_[r.slot].try_acquire(now)) {
        chosen = r.host;
        break;
      }
      // All limiters closed: fall through to the best-ranked replica (see
      // the header comment about the backpressure-queue substitution).
    }
  }

  if (has_decision_hook()) {
    ages_scratch_.clear();
    const sim::Time now = sim_.now();
    for (net::HostId h : candidates) {
      const std::uint32_t slot = index_.find(h);
      ages_scratch_.push_back(slot != HostSlotIndex::kNone &&
                                      heard_[slot] != 0
                                  ? now - last_feedback_[slot]
                                  : sim::Duration{-1});
    }
    report_decision(DecisionContext{candidates, chosen, scores_scratch_,
                                    ages_scratch_});
  }
  return chosen;
}

void C3Selector::on_send(net::HostId server) {
  ++outstanding_[slot_of(server)];
}

void C3Selector::on_response(const Feedback& fb) {
  const std::uint32_t slot = slot_of(fb.server);
  if (outstanding_[slot] > 0) --outstanding_[slot];
  if (fb.has_response_time) {
    response_time_[slot].add(sim::to_micros(fb.response_time));
  }
  service_time_[slot].add(sim::to_micros(fb.service_time));
  queue_size_[slot] = fb.queue_size;
  last_feedback_[slot] = sim_.now();
  heard_[slot] = 1;
  if (opts_.rate_control) rate_[slot].on_response(sim_.now());
}

}  // namespace netrs::rs
