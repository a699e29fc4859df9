#include "rs/rate_control.hpp"

#include <algorithm>
#include <cmath>

namespace netrs::rs {
namespace {

constexpr double kMinRate = 0.1;      ///< Floor to keep probing (requests/s).
constexpr double kBeta = 0.2;         ///< Multiplicative decrease factor.
constexpr double kCubicC = 0.000004;  ///< Cubic growth scaling constant.
/// Window of the receive-rate estimate.
constexpr sim::Duration kRateWindow = sim::millis(20);

/// K = cbrt(Rmax * beta / C): where the cubic curve anchored at a decrease
/// to Rmax flattens.
double inflection(double rate_at_decrease) {
  return std::cbrt(rate_at_decrease * kBeta / kCubicC);
}

}  // namespace

CubicRateController::CubicRateController(CubicOptions opts)
    : opts_(opts),
      rate_(opts.initial_rate),
      tokens_(opts.burst_tokens),
      rate_at_decrease_(opts.initial_rate),
      k_(inflection(opts.initial_rate)) {}

void CubicRateController::refill(sim::Time now) {
  if (now <= last_refill_) return;
  const double dt = sim::to_seconds(now - last_refill_);
  tokens_ = std::min(opts_.burst_tokens, tokens_ + rate_ * dt);
  last_refill_ = now;
}

bool CubicRateController::try_acquire(sim::Time now) {
  refill(now);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

void CubicRateController::on_response(sim::Time now) {
  // Sliding-window receive rate.
  if (window_count_ == 0) window_start_ = now;
  ++window_count_;
  const sim::Duration span = now - window_start_;
  if (span >= kRateWindow) {
    recv_rate_ = static_cast<double>(window_count_) / sim::to_seconds(span);
    window_count_ = 0;
  }
  update_rate(now);
}

void CubicRateController::update_rate(sim::Time now) {
  if (recv_rate_ <= 0.0) return;  // no estimate yet: keep initial rate
  if (rate_ <= opts_.gamma * recv_rate_) {
    // Cubic growth anchored at the last decrease: R(t) = C*(t - K)^3 + Rmax
    // with K = cbrt(Rmax * beta / C), t in milliseconds since decrease.
    const double t_ms = sim::to_millis(now - decrease_time_);
    const double target =
        kCubicC * std::pow(t_ms - k_, 3.0) + rate_at_decrease_;
    rate_ = std::max(kMinRate, std::max(rate_, target));
  } else {
    // Sending faster than the server delivers: multiplicative decrease.
    rate_at_decrease_ = rate_;
    k_ = inflection(rate_at_decrease_);
    decrease_time_ = now;
    rate_ = std::max(kMinRate, recv_rate_ * (1.0 - kBeta));
  }
}

}  // namespace netrs::rs
