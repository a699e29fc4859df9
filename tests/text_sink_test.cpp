// Equivalence tests for the obs text formatter (obs/text_sink.hpp): every
// obs output formats numbers through TextSink, so its bytes must equal the
// printf-based formats the outputs were defined with — "%lld" for exact
// integers and "%.9g" otherwise (the metric-value rule), and the exact
// microsecond time_us format. Seeded randomized inputs plus the edge
// values that printf and std::to_chars are most likely to disagree on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/text_sink.hpp"
#include "sim/rng.hpp"

namespace netrs::obs {
namespace {

// The metric-value rule as first defined: integers below 1e15 through
// "%lld", everything else through "%.9g".
std::string reference_metric(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  return buf;
}

// The time_us format as first defined: "%llu" microseconds, or
// "%llu.%03u" with the fraction's trailing zeros trimmed.
std::string reference_time_us(sim::Time t) {
  char buf[64];
  const auto ns = static_cast<std::uint64_t>(t);
  const std::uint64_t us = ns / 1000;
  const unsigned rem = static_cast<unsigned>(ns % 1000);
  int len = 0;
  if (rem == 0) {
    len = std::snprintf(buf, sizeof(buf), "%llu",
                        static_cast<unsigned long long>(us));
  } else {
    len = std::snprintf(buf, sizeof(buf), "%llu.%03u",
                        static_cast<unsigned long long>(us), rem);
    while (len > 0 && buf[len - 1] == '0') --len;
  }
  return std::string(buf, static_cast<std::size_t>(len));
}

double from_bits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Uniform integer in [lo, hi].
std::int64_t uniform_in(sim::Rng& rng, std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  rng.uniform(static_cast<std::uint64_t>(hi - lo) + 1));
}

// Doubles from a seeded mix: raw bit patterns (NaNs, infinities,
// denormals included), log-uniform magnitudes of either sign, integers
// around the 1e15 cut-over, and values on or next to a 9-digit rounding
// tie.
std::vector<double> random_doubles(std::size_t n) {
  sim::Rng rng(20241017);
  std::vector<double> out;
  out.reserve(n);
  while (out.size() < n) {
    switch (rng.uniform(5)) {
      case 0:
        out.push_back(from_bits(rng.next_u64()));
        break;
      case 1: {
        const double mag = std::pow(10.0, -12.0 + 30.0 * rng.next_double());
        out.push_back(rng.bernoulli(0.5) ? mag : -mag);
        break;
      }
      case 2:
        out.push_back(1e15 + static_cast<double>(uniform_in(rng, -4, 4)) +
                      (rng.bernoulli(0.5) ? 0.5 : 0.0));
        break;
      case 3: {
        const auto digits = static_cast<double>(
            uniform_in(rng, 100'000'000, 999'999'999));
        const double scale =
            std::pow(10.0, static_cast<double>(uniform_in(rng, -14, 8)));
        const double tie = (digits + 0.5) * scale;
        out.push_back(tie);
        out.push_back(std::nextafter(tie, 0.0));
        out.push_back(std::nextafter(tie, 1e300));
        break;
      }
      default:
        // Herd fractions and selector scores, as the decision CSV has them.
        out.push_back(1.0 / static_cast<double>(1 + rng.uniform(64)));
        out.push_back(rng.next_double() * 5000.0);
        break;
    }
  }
  return out;
}

// Formats `values` through one sink (so the 64 KiB buffer flushes many
// times) and through the reference, one per line, and compares.
void expect_metric_equivalence(const std::vector<double>& values) {
  std::ostringstream os;
  std::string expected;
  {
    TextSink sink(os);
    for (const double v : values) {
      sink.put_metric(v).put('\n');
      expected += reference_metric(v);
      expected += '\n';
    }
  }
  const std::string got = os.str();
  if (got == expected) return;
  // Report the first differing value.
  std::istringstream g(got);
  std::istringstream e(expected);
  std::string gl;
  std::string el;
  for (const double v : values) {
    std::getline(g, gl);
    std::getline(e, el);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    ASSERT_EQ(gl, el) << "value bits 0x" << std::hex << bits;
  }
  FAIL() << "outputs differ in length";
}

TEST(TextSinkTest, MetricValueMatchesPrintfOnRandomDoubles) {
  expect_metric_equivalence(random_doubles(1'200'000));
}

TEST(TextSinkTest, MetricValueMatchesPrintfOnEdgeValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm = std::numeric_limits<double>::denorm_min();
  std::vector<double> edges = {
      0.0, -0.0, nan, -nan, inf, -inf,
      // The exact-integer cut-over.
      1e15 - 1, 1e15, -(1e15 - 1), -1e15, 1e15 - 0.5,
      // Denormals and the range ends.
      denorm, -denorm, 1e-310, std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      // Round-ups at the 9th digit, some into the next power of ten.
      9.9999999995, 99999999.95, 999999999.5, 0.00009999999995,
      1e-4, 1e-5, 1e-7, 1e21, 1e22,
      0.1, 0.3, 1.0 / 3.0, 2.0 / 3.0, 123456789.5, 0.5, 1.5, 3523.53733};
  const std::size_t n = edges.size();
  for (std::size_t i = 0; i < n; ++i) {
    edges.push_back(std::nextafter(edges[i], 0.0));
    edges.push_back(std::nextafter(edges[i], inf));
  }
  expect_metric_equivalence(edges);
  // The report's wrapper shares the same path.
  for (const double v : edges) {
    EXPECT_EQ(format_metric_value(v), reference_metric(v));
  }
}

TEST(TextSinkTest, TimeUsMatchesPrintfReference) {
  std::vector<sim::Time> times = {
      0, 1, 999, 1000, 1001, 1250, 1250500, 1250050, 1250005, 1250000,
      std::numeric_limits<sim::Time>::max(),
      std::numeric_limits<sim::Time>::min(), -1, -1000};
  sim::Rng rng(7);
  for (int i = 0; i < 1'000'000; ++i) {
    // Half full-range bit patterns (negatives included: the format reads
    // the time as unsigned), half run-length times with every
    // sub-microsecond remainder.
    if (rng.bernoulli(0.5)) {
      times.push_back(static_cast<sim::Time>(rng.next_u64()));
    } else {
      times.push_back(static_cast<sim::Time>(rng.uniform(3'000'000'000)));
    }
  }
  std::ostringstream os;
  std::string expected;
  {
    TextSink sink(os);
    for (const sim::Time t : times) {
      sink.put_time_us(t).put(',');
      expected += reference_time_us(t);
      expected += ',';
    }
  }
  EXPECT_EQ(os.str(), expected);
  char buf[kMaxNumberChars];
  EXPECT_EQ(std::string(buf, write_time_us(buf, 1250500)), "1250.5");
}

TEST(TextSinkTest, IntegersPrintInDecimalAtTheExtremes) {
  std::ostringstream os;
  {
    TextSink sink(os);
    sink.put_int(std::numeric_limits<std::int64_t>::min())
        .put(' ')
        .put_int(std::numeric_limits<std::int64_t>::max())
        .put(' ')
        .put_int(std::numeric_limits<std::uint64_t>::max())
        .put(' ')
        .put_int(std::int32_t{-1})
        .put(' ')
        .put_int(std::uint32_t{0});
  }
  EXPECT_EQ(os.str(),
            "-9223372036854775808 9223372036854775807 "
            "18446744073709551615 -1 0");
}

TEST(TextSinkTest, LongStringsKeepTheirPlaceAcrossFlushes) {
  // A string larger than the buffer bypasses it; what was buffered before
  // must still come first.
  const std::string big(TextSink::kCapacity + 17, 'x');
  std::ostringstream os;
  {
    TextSink sink(os);
    sink.put("head,").put(big).put(",tail");
  }
  EXPECT_EQ(os.str(), "head," + big + ",tail");
}

}  // namespace
}  // namespace netrs::obs
