// CUBIC-style send-rate controller, one instance per (RSNode, server) pair,
// as used by C3's distributed rate control (Suresh et al., NSDI'15 §3.2).
//
// The controller tracks the rate of received responses (`receive rate`) and
// adapts the allowed sending rate: while the sending rate is below gamma *
// receive-rate it grows along a cubic curve anchored at the last decrease
// point; otherwise it decreases multiplicatively. Tokens accumulate at the
// current rate up to a small burst budget.
#pragma once

#include <cstdint>

#include "sim/affinity.hpp"
#include "sim/time.hpp"

namespace netrs::rs {

/// CUBIC rate-controller parameters (defaults follow C3's evaluation; the
/// fixed ones are constants in rate_control.cpp).
struct NETRS_SHARED_IMMUTABLE CubicOptions {
  double initial_rate = 10.0;      ///< requests/s starting budget
  double gamma = 1.3;              ///< allowed send/receive rate ratio
  double burst_tokens = 4.0;       ///< token bucket depth
};

/// Token-bucket send limiter whose rate follows a cubic growth /
/// multiplicative decrease law (see the file comment).
class NETRS_SHARD_LOCAL CubicRateController {
 public:
  /// Starts at opts.initial_rate with a full token bucket.
  explicit CubicRateController(CubicOptions opts = {});

  /// True when a request may be sent now; consumes a token if so.
  bool try_acquire(sim::Time now);

  /// Record a response arrival (drives the receive-rate estimate and the
  /// cubic growth/decrease decision).
  void on_response(sim::Time now);

  /// Current allowed sending rate (requests/s; tests).
  [[nodiscard]] double send_rate() const { return rate_; }

 private:
  void refill(sim::Time now);
  void update_rate(sim::Time now);

  CubicOptions opts_;
  double rate_;          // allowed sends per second
  double tokens_;
  sim::Time last_refill_ = 0;

  // Receive-rate estimation over a sliding window.
  std::uint32_t window_count_ = 0;
  sim::Time window_start_ = 0;
  double recv_rate_ = 0.0;

  // Cubic state. k_ = cbrt(rate_at_decrease_ * beta / C), the curve's
  // inflection point, changes only with rate_at_decrease_.
  double rate_at_decrease_;
  double k_;
  sim::Time decrease_time_ = 0;
};

}  // namespace netrs::rs
