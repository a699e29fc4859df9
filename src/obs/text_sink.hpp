// Buffered text sink shared by every obs writer (DESIGN.md §8).
//
// The four obs outputs — trace JSON, metrics CSV, attribution CSV and
// decision CSV — format millions of small fields. TextSink formats each
// field straight into one fixed 64 KiB buffer with std::to_chars and hands
// the buffer to the stream with a single write() per flush: no std::string
// per field, no locale, no per-field virtual stream call. The two shared
// value formats live here too, as char-level primitives, so every obs
// output (and the report's format_metric_value wrapper) has exactly one
// formatting path:
//
//   metric value — integers below 1e15 print exactly ("17"), everything
//                  else as printf "%.9g" (std::to_chars general, 9 digits,
//                  which is specified to match it byte for byte);
//   time_us      — simulated ns as microseconds with the exact remainder
//                  and trailing zeros stripped ("1250.5"); integer
//                  arithmetic only.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <ostream>
#include <string_view>

#include "sim/affinity.hpp"
#include "sim/time.hpp"

namespace netrs::obs {

/// Longest text any single numeric field can produce (a 20-digit integer
/// with sign, or a time_us with a 3-digit fraction).
inline constexpr std::size_t kMaxNumberChars = 32;

/// Writes integer `v` in decimal at `out` (which must have
/// kMaxNumberChars bytes of room); returns one past the last char.
template <std::integral T>
char* write_int(char* out, T v) {
  return std::to_chars(out, out + kMaxNumberChars, v).ptr;
}

/// Writes `v` in metric-value format at `out` (which must have
/// kMaxNumberChars bytes of room); returns one past the last char.
char* write_metric_value(char* out, double v);

/// Writes simulated time `t` in time_us format at `out` (which must have
/// kMaxNumberChars bytes of room); returns one past the last char.
char* write_time_us(char* out, sim::Time t);

/// Buffered, allocation-free-per-field text writer over a std::ostream or
/// a C stream. Owns one 64 KiB buffer; every put*() appends to it and the
/// buffer goes to the stream in one write() when full, on flush(), and on
/// destruction. The harness's obs writer threads each own one per output
/// file for the whole repeat (DESIGN.md §8.6).
class NETRS_COORD_GLOBAL TextSink {
 public:
  /// Buffer size: one stream write() per this many bytes of output.
  static constexpr std::size_t kCapacity = 64 * 1024;

  /// Creates a sink appending to `os` (allocates the buffer once).
  explicit TextSink(std::ostream& os)
      : os_(&os), buf_(std::make_unique_for_overwrite<char[]>(kCapacity)) {}
  /// Creates a sink appending to the open C stream `file`, which it does
  /// not own (allocates the buffer once).
  explicit TextSink(std::FILE* file)
      : file_(file),
        buf_(std::make_unique_for_overwrite<char[]>(kCapacity)) {}
  /// Flushes what is left.
  ~TextSink() { flush(); }

  TextSink(const TextSink&) = delete;
  TextSink& operator=(const TextSink&) = delete;

  /// Appends one character.
  TextSink& put(char c) {
    room(1);
    buf_[len_++] = c;
    return *this;
  }

  /// Appends raw bytes (no escaping).
  TextSink& put(std::string_view s) {
    if (s.size() > kCapacity - len_) {
      flush();
      if (s.size() > kCapacity) {
        write(s.data(), s.size());
        return *this;
      }
    }
    std::memcpy(buf_.get() + len_, s.data(), s.size());
    len_ += s.size();
    return *this;
  }

  /// Appends an integer in decimal, as `os << v` would.
  template <std::integral T>
  TextSink& put_int(T v) {
    room(kMaxNumberChars);
    char* p = buf_.get() + len_;
    len_ += static_cast<std::size_t>(write_int(p, v) - p);
    return *this;
  }

  /// Appends `v` in metric-value format (see the file comment).
  TextSink& put_metric(double v) {
    room(kMaxNumberChars);
    char* p = buf_.get() + len_;
    len_ += static_cast<std::size_t>(write_metric_value(p, v) - p);
    return *this;
  }

  /// Appends simulated time `t` in time_us format (see the file comment).
  TextSink& put_time_us(sim::Time t) {
    room(kMaxNumberChars);
    char* p = buf_.get() + len_;
    len_ += static_cast<std::size_t>(write_time_us(p, t) - p);
    return *this;
  }

  /// Hands the buffered bytes to the stream in one write().
  void flush() {
    if (len_ == 0) return;
    write(buf_.get(), len_);
    len_ = 0;
  }

 private:
  /// Writes `n` bytes at `p` to the destination stream.
  void write(const char* p, std::size_t n) {
    if (file_ != nullptr) {
      std::fwrite(p, 1, n, file_);
    } else {
      os_->write(p, static_cast<std::streamsize>(n));
    }
  }

  /// Makes room for `n` more bytes (n <= kCapacity).
  void room(std::size_t n) {
    if (kCapacity - len_ < n) flush();
  }

  std::ostream* os_ = nullptr;
  std::FILE* file_ = nullptr;
  std::unique_ptr<char[]> buf_;
  std::size_t len_ = 0;
};

}  // namespace netrs::obs
