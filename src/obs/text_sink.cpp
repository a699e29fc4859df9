#include "obs/text_sink.hpp"

#include <cmath>

namespace netrs::obs {

char* write_metric_value(char* out, double v) {
  char* const end = out + kMaxNumberChars;
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    return std::to_chars(out, end, static_cast<long long>(v)).ptr;
  }
  return std::to_chars(out, end, v, std::chars_format::general, 9).ptr;
}

char* write_time_us(char* out, sim::Time t) {
  const auto ns = static_cast<std::uint64_t>(t);
  char* p = write_int(out, ns / 1000);
  // Exact 3-digit fraction with trailing zeros stripped ("12.5", "12.003").
  unsigned rem = static_cast<unsigned>(ns % 1000);
  for (unsigned scale = 100; rem != 0; scale /= 10) {
    if (scale == 100) *p++ = '.';
    *p++ = static_cast<char>('0' + rem / scale);
    rem %= scale;
  }
  return p;
}

}  // namespace netrs::obs
