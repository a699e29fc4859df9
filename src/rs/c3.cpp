#include "rs/c3.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace netrs::rs {
namespace {

constexpr double kEwmaAlpha = 0.9;  ///< History weight of the EWMAs.
constexpr int kCubicExponent = 3;   ///< b in q̂^b.

}  // namespace

C3Selector::Server::Server(const CubicOptions& cubic)
    : response_time(kEwmaAlpha), service_time(kEwmaAlpha), rate(cubic) {}

C3Selector::C3Selector(sim::Simulator& sim, sim::Rng rng, C3Options opts)
    : sim_(sim), rng_(rng), opts_(opts) {}

std::uint32_t C3Selector::slot_of(net::HostId server) {
  const auto [slot, inserted] = index_.get_or_add(server);
  if (inserted) servers_.emplace_back(opts_.cubic);
  return slot;
}

double C3Selector::score_of(std::uint32_t slot) const {
  const Server& s = servers_[slot];
  const double prior_us = sim::to_micros(opts_.service_time_prior);
  const double t_service = s.service_time.value_or(prior_us);
  const double r = s.response_time.value_or(t_service);
  const double q_hat =
      1.0 + static_cast<double>(s.outstanding) * opts_.concurrency +
      static_cast<double>(s.queue_size);
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
  return slot == HostSlotIndex::kNone ? 0 : servers_[slot].outstanding;
}

net::HostId C3Selector::select(std::span<const net::HostId> candidates) {
  assert(!candidates.empty());
  ranked_.clear();
  scores_scratch_.clear();
  if (ranked_.capacity() < candidates.size()) {
    ranked_.reserve(candidates.size());
    scores_scratch_.reserve(candidates.size());
  }
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
      if (servers_[r.slot].rate.try_acquire(now)) {
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
      ages_scratch_.push_back(
          slot != HostSlotIndex::kNone && servers_[slot].heard
              ? now - servers_[slot].last_feedback
              : sim::Duration{-1});
    }
    report_decision(DecisionContext{candidates, chosen, scores_scratch_,
                                    ages_scratch_});
  }
  return chosen;
}

void C3Selector::on_send(net::HostId server) {
  ++servers_[slot_of(server)].outstanding;
}

void C3Selector::on_response(const Feedback& fb) {
  Server& s = servers_[slot_of(fb.server)];
  if (s.outstanding > 0) --s.outstanding;
  if (fb.has_response_time) {
    s.response_time.add(sim::to_micros(fb.response_time));
  }
  s.service_time.add(sim::to_micros(fb.service_time));
  s.queue_size = fb.queue_size;
  s.last_feedback = sim_.now();
  s.heard = true;
  if (opts_.rate_control) s.rate.on_response(sim_.now());
}

}  // namespace netrs::rs
