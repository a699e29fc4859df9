// Fixed-capacity byte buffer for packet payloads.
//
// Every NetRS payload is tens of bytes (request header 13 B + app request
// 17 B; response header 22 B + app response 20 B, the largest frame built
// at 42 B; bulk value bytes are phantom), so the bytes live in a fixed
// inline array of kInlineCapacity bytes with a 1 B size and no heap
// fallback: 48 B in all, the payload's share of net::Packet's two cache
// lines. PayloadBuffer — and so net::Packet — is
// trivially copyable: constructing, cloning (response duplication) and
// moving a packet is a flat copy that never touches the heap, and a
// moved-from buffer keeps its bytes. A resize or assign beyond the
// capacity throws std::length_error.
//
// The API is the subset of std::vector the packet path uses (resize /
// assign / operator[] / size / data / iteration) plus implicit
// std::span conversions, so parse/rewrite helpers keep their span-based
// signatures. resize() value-initializes new bytes, like std::vector.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "sim/affinity.hpp"

namespace netrs::net {

/// Fixed-capacity byte buffer: the std::vector subset the packet path
/// needs, stored inline with no heap fallback (see the file comment).
class NETRS_SHARED_IMMUTABLE PayloadBuffer {
 public:
  /// Holds every frame the NetRS stack builds (the largest is the 22 B
  /// response header plus the 20 B app response, 42 B) with 5 B to spare;
  /// with the 1 B size the buffer is 48 B.
  static constexpr std::size_t kInlineCapacity = 47;

  /// Constructs an empty buffer.
  PayloadBuffer() noexcept = default;

  /// Constructs a zero-filled buffer of `n` bytes; throws
  /// std::length_error beyond kInlineCapacity.
  explicit PayloadBuffer(std::size_t n) { resize(n); }

  /// Mutable pointer to the first byte.
  [[nodiscard]] std::byte* data() noexcept { return bytes_; }
  /// Const pointer to the first byte.
  [[nodiscard]] const std::byte* data() const noexcept { return bytes_; }
  /// Current length in bytes.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Bytes storable: always kInlineCapacity.
  [[nodiscard]] static constexpr std::size_t capacity() noexcept {
    return kInlineCapacity;
  }
  /// True when size() == 0.
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Unchecked element access.
  std::byte& operator[](std::size_t i) noexcept { return bytes_[i]; }
  /// Unchecked const element access.
  const std::byte& operator[](std::size_t i) const noexcept {
    return bytes_[i];
  }

  /// Iterator to the first byte.
  [[nodiscard]] std::byte* begin() noexcept { return bytes_; }
  /// Iterator one past the last byte.
  [[nodiscard]] std::byte* end() noexcept { return bytes_ + size_; }
  /// Const iterator to the first byte.
  [[nodiscard]] const std::byte* begin() const noexcept { return bytes_; }
  /// Const iterator one past the last byte.
  [[nodiscard]] const std::byte* end() const noexcept {
    return bytes_ + size_;
  }

  /// Grows or shrinks to `n` bytes; new bytes are zero (vector parity).
  /// Throws std::length_error when `n` exceeds kInlineCapacity.
  void resize(std::size_t n) {
    const std::size_t old = size_;
    set_size(n);
    if (n > old) std::memset(bytes_ + old, 0, n - old);
  }

  /// Replaces the contents with `n` copies of `value`. Throws
  /// std::length_error when `n` exceeds kInlineCapacity.
  void assign(std::size_t n, std::byte value) {
    set_size(n);
    std::memset(bytes_, static_cast<int>(value), n);
  }

  /// Empties the buffer.
  void clear() noexcept { size_ = 0; }

  /// Implicit view over the bytes (parse/rewrite helper signatures).
  operator std::span<std::byte>() noexcept { return {bytes_, size_}; }
  /// Implicit const view over the bytes.
  operator std::span<const std::byte>() const noexcept {
    return {bytes_, size_};
  }

  /// Byte-wise equality.
  friend bool operator==(const PayloadBuffer& a, const PayloadBuffer& b) {
    return a.size_ == b.size_ &&
           std::memcmp(a.bytes_, b.bytes_, a.size_) == 0;
  }

 private:
  void set_size(std::size_t n) {
    if (n > kInlineCapacity) [[unlikely]] throw_oversize(n);
    size_ = static_cast<std::uint8_t>(n);
  }

  // Out of line and cold, so the inlined resize/assign stay small.
  [[noreturn, gnu::cold, gnu::noinline]] static void throw_oversize(
      std::size_t n) {
    throw std::length_error("PayloadBuffer: " + std::to_string(n) +
                            " bytes exceed the fixed capacity of " +
                            std::to_string(kInlineCapacity));
  }

  std::byte bytes_[kInlineCapacity];
  std::uint8_t size_ = 0;
};

static_assert(std::is_trivially_copyable_v<PayloadBuffer>);
static_assert(sizeof(PayloadBuffer) == 48);

}  // namespace netrs::net
