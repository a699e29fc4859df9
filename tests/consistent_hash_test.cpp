#include "kv/consistent_hash.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "golden.hpp"
#include "harness/deployment.hpp"
#include "sim/rng.hpp"

namespace netrs::kv {
namespace {

std::vector<net::HostId> make_servers(int n, net::HostId base = 100) {
  std::vector<net::HostId> s;
  for (int i = 0; i < n; ++i) s.push_back(base + static_cast<net::HostId>(i));
  return s;
}

TEST(ConsistentHashTest, ReplicaSetsHaveRfDistinctServers) {
  const auto servers = make_servers(10);
  ConsistentHashRing ring(servers, 3);
  for (std::uint64_t key = 0; key < 2000; ++key) {
    const auto reps = ring.replicas(ring.group_of_key(key));
    ASSERT_EQ(reps.size(), 3u);
    std::set<net::HostId> uniq(reps.begin(), reps.end());
    EXPECT_EQ(uniq.size(), 3u);
    for (net::HostId h : reps) {
      EXPECT_TRUE(std::find(servers.begin(), servers.end(), h) !=
                  servers.end());
    }
  }
}

TEST(ConsistentHashTest, LookupIsDeterministic) {
  const auto servers = make_servers(20);
  ConsistentHashRing a(servers, 3, 16, 7);
  ConsistentHashRing b(servers, 3, 16, 7);
  for (std::uint64_t key = 0; key < 500; ++key) {
    EXPECT_EQ(a.group_of_key(key), b.group_of_key(key));
  }
}

TEST(ConsistentHashTest, GroupDatabaseConsistentWithLookups) {
  const auto servers = make_servers(15);
  ConsistentHashRing ring(servers, 3);
  for (std::uint64_t key = 0; key < 1000; ++key) {
    const auto g = ring.group_of_key(key);
    ASSERT_LT(g, ring.group_count());
    const auto& from_db = ring.groups()[g];
    const auto direct = ring.replicas(g);
    ASSERT_EQ(direct.size(), from_db.size());
    for (std::size_t i = 0; i < from_db.size(); ++i) {
      EXPECT_EQ(direct[i], from_db[i]);
    }
  }
}

TEST(ConsistentHashTest, DatabaseIsSmall) {
  // §IV-A: the RGID database must stay small. With v virtual nodes per
  // server there are at most servers*v segments.
  const auto servers = make_servers(100);
  ConsistentHashRing ring(servers, 3, 16);
  EXPECT_LE(ring.group_count(), 100u * 16u);
  EXPECT_GE(ring.group_count(), 100u);
}

TEST(ConsistentHashTest, LoadRoughlyBalanced) {
  const auto servers = make_servers(10);
  ConsistentHashRing ring(servers, 3, 64);
  sim::Rng rng(5);
  std::map<net::HostId, int> primary_count;
  const int keys = 50000;
  for (int i = 0; i < keys; ++i) {
    const std::uint64_t key = rng.next_u64();
    primary_count[ring.replicas(ring.group_of_key(key))[0]]++;
  }
  for (const auto& [server, count] : primary_count) {
    (void)server;
    // Within a factor ~2.5 of fair share with 64 vnodes.
    EXPECT_GT(count, keys / 10 / 3);
    EXPECT_LT(count, keys / 10 * 3);
  }
  EXPECT_EQ(primary_count.size(), 10u);
}

TEST(ConsistentHashTest, SingleServerDegenerate) {
  const auto servers = make_servers(1);
  ConsistentHashRing ring(servers, 1, 4);
  for (std::uint64_t key = 0; key < 100; ++key) {
    const auto reps = ring.replicas(ring.group_of_key(key));
    ASSERT_EQ(reps.size(), 1u);
    EXPECT_EQ(reps[0], servers[0]);
  }
}

TEST(ConsistentHashTest, RfEqualsServerCount) {
  const auto servers = make_servers(3);
  ConsistentHashRing ring(servers, 3);
  for (std::uint64_t key = 0; key < 100; ++key) {
    const auto reps = ring.replicas(ring.group_of_key(key));
    std::set<net::HostId> uniq(reps.begin(), reps.end());
    EXPECT_EQ(uniq.size(), 3u);  // every server in every set
  }
}

TEST(ConsistentHashTest, MinimalDisruptionOnServerRemoval) {
  // Consistent hashing's defining property: removing one server only
  // remaps keys that had it in their replica set.
  const auto servers = make_servers(12);
  auto fewer = servers;
  fewer.pop_back();
  const net::HostId removed = servers.back();
  ConsistentHashRing full(servers, 3, 32, 9);
  ConsistentHashRing less(fewer, 3, 32, 9);
  int moved = 0, checked = 0;
  for (std::uint64_t key = 0; key < 3000; ++key) {
    const auto before = full.replicas(full.group_of_key(key));
    const auto after = less.replicas(less.group_of_key(key));
    const bool had_removed =
        std::find(before.begin(), before.end(), removed) != before.end();
    if (!had_removed) {
      ++checked;
      ASSERT_EQ(before.size(), after.size());
      for (std::size_t i = 0; i < before.size(); ++i) {
        if (before[i] != after[i]) {
          ++moved;
          break;
        }
      }
    }
  }
  EXPECT_GT(checked, 1500);
  EXPECT_EQ(moved, 0) << "keys without the removed server must not move";
}

TEST(ConsistentHashTest, GroupIdsFitWireField) {
  const auto servers = make_servers(100);
  ConsistentHashRing ring(servers, 3, 16);
  EXPECT_LE(ring.group_count(), core::kMaxReplicaGroupId);
}

TEST(ConsistentHashTest, RejectsImpossibleRings) {
  const auto two = make_servers(2);
  const std::vector<net::HostId> none;
  EXPECT_THROW(ConsistentHashRing(none, 1), std::invalid_argument);
  EXPECT_THROW(ConsistentHashRing(two, 0), std::invalid_argument);
  EXPECT_THROW(ConsistentHashRing(two, 3), std::invalid_argument);
  EXPECT_THROW(ConsistentHashRing(two, 2, 0), std::invalid_argument);
  EXPECT_NO_THROW(ConsistentHashRing(two, 2, 1));
  // 2 x (2^23 + 1) points could start more segments than a 24-bit RGID
  // numbers; the ring throws before allocating any of them.
  EXPECT_THROW(ConsistentHashRing(two, 2, (1 << 23) + 1),
               std::invalid_argument);
}

// Digest of a ring's RGID database (RGID order and members: RGIDs ride in
// packets, so renumbering them changes what selectors read) and of its key
// lookups over a fixed sample.
std::uint64_t ring_digest(const ConsistentHashRing& ring) {
  golden::Digest d;
  d.add_u64(ring.group_count());
  for (const auto& group : ring.groups()) {
    d.add_u64(group.size());
    for (net::HostId h : group) d.add_u64(h);
  }
  sim::Rng rng(11);
  for (int i = 0; i < 4096; ++i) d.add_u64(ring.group_of_key(rng.next_u64()));
  for (std::uint64_t key = 0; key < 1024; ++key) {
    d.add_u64(ring.group_of_key(key));
  }
  return d.value();
}

// The ring harness::Deployment builds for `cfg` at seed 1.
std::uint64_t harness_ring_digest(harness::Scheme scheme,
                                  const harness::ExperimentConfig& cfg) {
  const sim::FaultPlan plan = harness::validate_config(cfg);
  const harness::Deployment d(scheme, cfg, plan, 1);
  return ring_digest(d.ring);
}

// Pins the rings of the perfbench cells: the 32-server k=8 cell (NetRS-ILP
// and CliRS-R95 share it) and the 256-server k=16 NetRS-ToR cell. Any
// rewrite of the ring construction must keep both digests.
TEST(ConsistentHashTest, HarnessRingsArePinned) {
  harness::ExperimentConfig k8;
  k8.fat_tree_k = 8;
  k8.num_servers = 32;
  k8.num_clients = 64;
  k8.seed = 1;
  EXPECT_EQ(harness_ring_digest(harness::Scheme::kNetRSIlp, k8),
            0x09669c1082c68e18ULL);

  harness::ExperimentConfig k16;
  k16.fat_tree_k = 16;
  k16.num_servers = 256;
  k16.num_clients = 700;
  k16.shards = 4;
  k16.seed = 1;
  EXPECT_EQ(harness_ring_digest(harness::Scheme::kNetRSToR, k16),
            0x2caf55f1ece52667ULL);
}

}  // namespace
}  // namespace netrs::kv
