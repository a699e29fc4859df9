// Simulated-time primitives.
//
// Simulated time is an integer count of nanoseconds since the start of the
// simulation. Integer time keeps event ordering exact and runs reproducible
// across platforms; nanosecond resolution comfortably covers the paper's
// parameter range (2.5 us accelerator RTTs up to multi-second experiments).
#pragma once

#include <cstdint>
#include <limits>

namespace netrs::sim {

/// A point in simulated time, in nanoseconds since simulation start.
using Time = std::int64_t;

/// Sentinel "no event pending" timestamp (Simulator::next_event_time).
inline constexpr Time kNever = std::numeric_limits<std::int64_t>::max();

/// A span of simulated time, in nanoseconds. May be negative in arithmetic
/// but all scheduling APIs require non-negative durations.
using Duration = std::int64_t;

inline constexpr Duration kNanosecond = 1;   ///< One nanosecond (the unit).
inline constexpr Duration kMicrosecond = 1000 * kNanosecond;   ///< 1 us in ns.
inline constexpr Duration kMillisecond = 1000 * kMicrosecond;  ///< 1 ms in ns.
inline constexpr Duration kSecond = 1000 * kMillisecond;       ///< 1 s in ns.

/// Builds a Duration from a (possibly fractional) nanosecond count.
constexpr Duration nanos(double n) { return static_cast<Duration>(n); }
/// Builds a Duration from microseconds, e.g. `micros(2.5)` for the
/// accelerator RTT.
constexpr Duration micros(double us) {
  return static_cast<Duration>(us * static_cast<double>(kMicrosecond));
}
/// Builds a Duration from milliseconds, e.g. `millis(4.0)` for T_kv,
/// rounded to the nearest nanosecond (half away from zero), so that
/// `millis(to_millis(d)) == d` and `millis(0.000249)` is 249 ns although
/// 0.000249 * 1e6 is a hair below 249 in double arithmetic.
constexpr Duration millis(double ms) {
  const double ns = ms * static_cast<double>(kMillisecond);
  const auto whole = static_cast<Duration>(ns);  // toward zero
  const double rest = ns - static_cast<double>(whole);
  return whole + (rest >= 0.5 ? 1 : 0) - (rest <= -0.5 ? 1 : 0);
}
/// Builds a Duration from seconds.
constexpr Duration seconds(double s) {
  return static_cast<Duration>(s * static_cast<double>(kSecond));
}

/// Converts a Duration to fractional microseconds (reporting only).
constexpr double to_micros(Duration d) {
  return static_cast<double>(d) / static_cast<double>(kMicrosecond);
}
/// Converts a Duration to fractional milliseconds (reporting only).
constexpr double to_millis(Duration d) {
  return static_cast<double>(d) / static_cast<double>(kMillisecond);
}
/// Converts a Duration to fractional seconds (reporting only).
constexpr double to_seconds(Duration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

}  // namespace netrs::sim
