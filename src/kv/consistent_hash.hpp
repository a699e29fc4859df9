// Consistent-hashing ring with virtual nodes and RF-way replica groups.
//
// Keys hash onto a ring of virtual nodes; a key's replica set is the next
// RF *distinct* servers clockwise from its hash. Every distinct replica set
// corresponds to one ring segment, so the segments double as the compact
// Replica Group ID (RGID) database that NetRS selectors query (§IV-A: "the
// size of the database should be small because key-value stores typically
// use consistent hashing").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/address.hpp"
#include "netrs/packet_format.hpp"
#include "sim/affinity.hpp"
#include "sim/rng.hpp"

namespace netrs::kv {

/// Consistent-hashing ring with virtual nodes; doubles as the RGID
/// database installed into NetRS selectors (see the file comment).
class NETRS_SHARED_IMMUTABLE ConsistentHashRing {
 public:
  /// Most ring points a ring may have: each point starts one segment at
  /// most, and every segment's RGID must fit the 24-bit wire field
  /// (core::kMaxReplicaGroupId).
  static constexpr std::uint64_t kMaxPoints =
      std::uint64_t{core::kMaxReplicaGroupId} + 1;

  /// `servers`: host ids of the KV servers. `replication_factor` servers
  /// per key (paper: 3). `virtual_nodes` ring points per server. Throws
  /// std::invalid_argument when `servers` is empty, `replication_factor`
  /// is < 1 or exceeds the server count, `virtual_nodes` < 1, or the ring
  /// would have more than kMaxPoints points (servers x virtual_nodes).
  ConsistentHashRing(std::span<const net::HostId> servers,
                     int replication_factor, int virtual_nodes = 16,
                     std::uint64_t seed = 42);

  /// RGID of the ring segment owning `key`.
  [[nodiscard]] core::ReplicaGroupId group_of_key(std::uint64_t key) const;

  /// Replica candidates for a group id, primary first.
  [[nodiscard]] std::span<const net::HostId> replicas(
      core::ReplicaGroupId g) const;

  /// Number of distinct replica groups (ring segments).
  [[nodiscard]] std::size_t group_count() const { return groups_.size(); }
  /// Replicas per key, as configured.
  [[nodiscard]] int replication_factor() const { return rf_; }

  /// Full RGID database (index == RGID), e.g. for installing into NetRS
  /// selector nodes.
  [[nodiscard]] const std::vector<std::vector<net::HostId>>& groups() const {
    return groups_;
  }

  /// The ring's key-hash function (splitmix64 finalizer; stable across
  /// platforms).
  static std::uint64_t hash_key(std::uint64_t key);

 private:
  struct Point {
    std::uint64_t hash;
    net::HostId server;
  };

  int rf_;
  std::vector<Point> ring_;                        // sorted by hash
  std::vector<core::ReplicaGroupId> point_group_;  // ring index -> RGID
  std::vector<std::vector<net::HostId>> groups_;   // RGID -> replica set
};

}  // namespace netrs::kv
