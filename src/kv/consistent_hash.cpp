#include "kv/consistent_hash.hpp"

#include <algorithm>
#include <cassert>
#include <map>
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

  ring_.reserve(servers.size() * static_cast<std::size_t>(virtual_nodes));
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

  // Replica set of each ring segment: next RF distinct servers clockwise.
  // Identical sets share an RGID to keep the database minimal.
  std::map<std::vector<net::HostId>, core::ReplicaGroupId> seen;
  point_group_.resize(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    std::vector<net::HostId> set;
    set.reserve(static_cast<std::size_t>(rf_));
    for (std::size_t step = 0;
         step < ring_.size() && set.size() < static_cast<std::size_t>(rf_);
         ++step) {
      const net::HostId s = ring_[(i + step) % ring_.size()].server;
      if (std::find(set.begin(), set.end(), s) == set.end()) {
        set.push_back(s);
      }
    }
    assert(set.size() == static_cast<std::size_t>(rf_));
    auto it = seen.find(set);
    if (it == seen.end()) {
      const auto id = static_cast<core::ReplicaGroupId>(groups_.size());
      assert(id <= core::kMaxReplicaGroupId);
      groups_.push_back(set);
      it = seen.emplace(std::move(set), id).first;
    }
    point_group_[i] = it->second;
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
