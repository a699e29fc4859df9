// Stable LSD radix sort on 64-bit unsigned keys.
//
// The report sorts every latency recorder's samples (~10^5 per recorder
// per repeat); a comparison sort spends most of that time on O(n log n)
// comparisons. radix_sort() does one
// histogram pass plus one stable scatter pass per key byte that actually
// varies (a byte equal in every key is skipped), so a sort by a compound
// key (a, b) is radix_sort by b, then by a — the same order a stable
// comparison sort on (a, b) produces.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace netrs::sim {

/// Order-preserving key of a signed integer: a < b iff key(a) < key(b).
[[nodiscard]] constexpr std::uint64_t radix_key(std::int64_t v) {
  return static_cast<std::uint64_t>(v) ^ (std::uint64_t{1} << 63);
}

/// Order-preserving key of a double (total order: -0.0 sorts just before
/// +0.0; samples are never NaN).
[[nodiscard]] inline std::uint64_t radix_key(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  return (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

/// Stable sort of `v` by `key(element)` (a std::uint64_t), ascending.
/// Allocates one scratch copy of `v` when any pass runs.
template <typename T, typename KeyFn>
void radix_sort(std::vector<T>& v, KeyFn key) {
  const std::size_t n = v.size();
  if (n < 2) return;
  std::array<std::array<std::size_t, 256>, 8> counts{};
  for (const T& x : v) {
    const std::uint64_t k = key(x);
    for (std::size_t b = 0; b < 8; ++b) ++counts[b][(k >> (8 * b)) & 0xFF];
  }
  std::vector<T> scratch;
  for (std::size_t b = 0; b < 8; ++b) {
    std::array<std::size_t, 256>& c = counts[b];
    const unsigned shift = static_cast<unsigned>(8 * b);
    if (c[(key(v.front()) >> shift) & 0xFF] == n) continue;  // constant byte
    std::size_t offset = 0;
    for (std::size_t& slot : c) offset += std::exchange(slot, offset);
    if (scratch.empty()) scratch.resize(n);
    for (T& x : v) scratch[c[(key(x) >> shift) & 0xFF]++] = std::move(x);
    v.swap(scratch);
  }
}

}  // namespace netrs::sim
