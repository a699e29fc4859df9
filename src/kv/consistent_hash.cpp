#include "kv/consistent_hash.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <span>
#include <stdexcept>
#include <string>

namespace netrs::kv {
namespace {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t ConsistentHashRing::hash_key(std::uint64_t key) {
  return mix64(key ^ 0xA5A5A5A5A5A5A5A5ULL);
}

ConsistentHashRing::ConsistentHashRing(std::span<const net::HostId> servers,
                                       int replication_factor,
                                       int virtual_nodes, std::uint64_t seed)
    : rf_(replication_factor) {
  if (servers.empty() || replication_factor < 1 ||
      static_cast<std::size_t>(replication_factor) > servers.size() ||
      virtual_nodes < 1) {
    throw std::invalid_argument(
        "ConsistentHashRing: needs 1 <= replication_factor <= servers and "
        "virtual_nodes >= 1, got " +
        std::to_string(servers.size()) + " servers, replication_factor " +
        std::to_string(replication_factor) + ", virtual_nodes " +
        std::to_string(virtual_nodes));
  }

  const std::uint64_t points =
      servers.size() * static_cast<std::uint64_t>(virtual_nodes);
  if (points > kMaxPoints) {
    // Checked before anything is allocated: past 2^24 segments the RGIDs
    // would no longer fit the packet's 24-bit field.
    throw std::invalid_argument(
        "ConsistentHashRing: " + std::to_string(servers.size()) +
        " servers x " + std::to_string(virtual_nodes) +
        " virtual_nodes = " + std::to_string(points) +
        " ring points exceeds 2^24, the RGID field's range");
  }

  ring_.reserve(points);
  for (net::HostId s : servers) {
    for (int v = 0; v < virtual_nodes; ++v) {
      const std::uint64_t h =
          mix64(seed ^ mix64((static_cast<std::uint64_t>(s) << 20) |
                             static_cast<std::uint64_t>(v)));
      ring_.push_back(Point{h, s});
    }
  }
  std::sort(ring_.begin(), ring_.end(),
            [](const Point& a, const Point& b) { return a.hash < b.hash; });

  // Replica set of every ring segment in one flat pass: row i holds the
  // next RF distinct servers clockwise from point i.
  const std::size_t n = ring_.size();
  const auto rf = static_cast<std::size_t>(rf_);
  std::vector<net::HostId> sets(n * rf);
  for (std::size_t i = 0; i < n; ++i) {
    net::HostId* row = &sets[i * rf];
    std::size_t have = 0;
    for (std::size_t step = 0; step < n && have < rf; ++step) {
      const net::HostId s = ring_[(i + step) % n].server;
      if (std::find(row, row + have, s) == row + have) row[have++] = s;
    }
    assert(have == rf);
  }

  // Identical sets share an RGID, numbered in order of first occurrence
  // (RGIDs ride in packets). An open-addressing table over the rows maps
  // each set to the first point that has it.
  const auto row = [&](std::size_t i) {
    return std::span<const net::HostId>(&sets[i * rf], rf);
  };
  const std::size_t table_size = std::bit_ceil(2 * n);
  constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  std::vector<std::uint32_t> first_point(table_size, kEmpty);
  std::vector<std::uint32_t> group_first;  // RGID -> its first point
  point_group_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t h = 0;
    for (net::HostId s : row(i)) h = mix64(h ^ s);
    std::size_t slot = h & (table_size - 1);
    while (first_point[slot] != kEmpty &&
           !std::ranges::equal(row(first_point[slot]), row(i))) {
      slot = (slot + 1) & (table_size - 1);
    }
    if (first_point[slot] == kEmpty) {
      first_point[slot] = static_cast<std::uint32_t>(i);
      point_group_[i] = static_cast<core::ReplicaGroupId>(group_first.size());
      group_first.push_back(static_cast<std::uint32_t>(i));
    } else {
      point_group_[i] = point_group_[first_point[slot]];
    }
  }
  groups_.reserve(group_first.size());
  for (const std::uint32_t i : group_first) {
    const auto members = row(i);
    groups_.emplace_back(members.begin(), members.end());
  }
}

core::ReplicaGroupId ConsistentHashRing::group_of_key(
    std::uint64_t key) const {
  const std::uint64_t h = hash_key(key);
  // First ring point with hash >= h, wrapping.
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const Point& p, std::uint64_t v) { return p.hash < v; });
  const std::size_t idx =
      it == ring_.end() ? 0 : static_cast<std::size_t>(it - ring_.begin());
  return point_group_[idx];
}

std::span<const net::HostId> ConsistentHashRing::replicas(
    core::ReplicaGroupId g) const {
  assert(static_cast<std::size_t>(g) < groups_.size());
  return groups_[g];
}

}  // namespace netrs::kv
