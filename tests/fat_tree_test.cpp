#include "net/fat_tree.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "sim/rng.hpp"

namespace netrs::net {
namespace {

TEST(FatTreeTest, CountsForK4) {
  FatTree t(4);
  EXPECT_EQ(t.core_count(), 4u);
  EXPECT_EQ(t.switch_count(), 4u + 16u);
  EXPECT_EQ(t.host_count(), 16u);
  EXPECT_EQ(t.racks(), 8);
}

TEST(FatTreeTest, RejectsOddZeroAndNegativeArity) {
  for (const int k : {5, 3, 1, 0, -2}) {
    try {
      const FatTree t(k);
      ADD_FAILURE() << "k=" << k << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("k=" + std::to_string(k)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(FatTreeTest, CountsForK16MatchPaper) {
  FatTree t(16);
  EXPECT_EQ(t.host_count(), 1024u);  // the paper's 1024 end-hosts
  EXPECT_EQ(t.core_count(), 64u);
  EXPECT_EQ(t.switch_count(), 64u + 128u + 128u);
}

TEST(FatTreeTest, CoordRoundTrip) {
  FatTree t(8);
  for (NodeId sw = 0; sw < t.switch_count(); ++sw) {
    const SwitchCoord c = t.coord(sw);
    switch (c.tier) {
      case Tier::kCore:  // flat core index i = group * (k/2) + j
        EXPECT_EQ(t.core_node(c.idx / (t.k() / 2), c.idx % (t.k() / 2)), sw);
        break;
      case Tier::kAgg:
        EXPECT_EQ(t.agg_node(c.pod, c.idx), sw);
        break;
      case Tier::kTor:
        EXPECT_EQ(t.tor_node(c.pod, c.idx), sw);
        break;
    }
  }
}

TEST(FatTreeTest, TierIdsMatchPaperNumbering) {
  FatTree t(4);
  EXPECT_EQ(tier_id(t.tier(t.core_node(0, 0))), 0);
  EXPECT_EQ(tier_id(t.tier(t.agg_node(1, 0))), 1);
  EXPECT_EQ(tier_id(t.tier(t.tor_node(2, 1))), 2);
}

TEST(FatTreeTest, HostLocationRoundTrip) {
  FatTree t(8);
  for (HostId h = 0; h < t.host_count(); ++h) {
    const HostLocation loc = t.location(h);
    EXPECT_EQ(t.host_id(loc.pod, loc.rack, loc.slot), h);
    EXPECT_EQ(t.host_tor(h), t.tor_node(loc.pod, loc.rack));
    EXPECT_EQ(t.marker(h).pod, loc.pod);
    EXPECT_EQ(t.marker(h).rack, loc.rack);
  }
}

TEST(FatTreeTest, AdjacencySymmetricAndStructured) {
  FatTree t(4);
  const auto total = t.node_count();
  for (NodeId a = 0; a < total; ++a) {
    for (NodeId b = 0; b < total; ++b) {
      EXPECT_EQ(t.adjacent(a, b), t.adjacent(b, a));
    }
  }
  // A host touches only its ToR.
  const HostId h = t.host_id(1, 0, 1);
  EXPECT_TRUE(t.adjacent(t.host_node(h), t.tor_node(1, 0)));
  EXPECT_FALSE(t.adjacent(t.host_node(h), t.tor_node(1, 1)));
  EXPECT_FALSE(t.adjacent(t.host_node(h), t.agg_node(1, 0)));
  // Core group structure: core (i, j) touches agg i of every pod.
  EXPECT_TRUE(t.adjacent(t.core_node(0, 1), t.agg_node(3, 0)));
  EXPECT_FALSE(t.adjacent(t.core_node(1, 0), t.agg_node(3, 0)));
}

TEST(FatTreeTest, NeighborsMatchAdjacency) {
  FatTree t(4);
  for (NodeId n = 0; n < t.node_count(); ++n) {
    const auto nbrs = t.neighbors(n);
    std::set<NodeId> nbr_set(nbrs.begin(), nbrs.end());
    EXPECT_EQ(nbr_set.size(), nbrs.size()) << "duplicate neighbor";
    for (NodeId m = 0; m < t.node_count(); ++m) {
      EXPECT_EQ(nbr_set.contains(m), t.adjacent(n, m))
          << "n=" << n << " m=" << m;
    }
  }
}

TEST(FatTreeTest, SwitchDegreeIsK) {
  FatTree t(8);
  for (NodeId sw = 0; sw < t.switch_count(); ++sw) {
    EXPECT_EQ(t.neighbors(sw).size(), 8u);
  }
}

// Routing property: from any source host's ToR, following
// next_hop_toward_host always reaches the destination host within 6 hops
// and never leaves the tree's edges.
TEST(FatTreeTest, HostRoutingAlwaysTerminates) {
  FatTree t(4);
  sim::Rng rng(5);
  for (int trial = 0; trial < 2000; ++trial) {
    const HostId src = static_cast<HostId>(rng.uniform(t.host_count()));
    const HostId dst = static_cast<HostId>(rng.uniform(t.host_count()));
    NodeId cur = t.host_tor(src);
    NodeId prev = t.host_node(src);
    int hops = 0;
    while (true) {
      const NodeId next = t.next_hop_toward_host(cur, dst, rng.next_u64());
      ASSERT_TRUE(t.adjacent(cur, next)) << "route uses a non-edge";
      prev = cur;
      cur = next;
      ASSERT_LE(++hops, 6) << "routing loop";
      if (t.is_host(cur)) break;
    }
    EXPECT_EQ(t.host_of(cur), dst);
    EXPECT_EQ(hops, t.default_forwards(src, dst));
    (void)prev;
  }
}

// Routing property: from any ToR, following next_hop_toward_switch reaches
// the target switch without ever descending below it.
TEST(FatTreeTest, SwitchRoutingReachesTargets) {
  FatTree t(4);
  sim::Rng rng(6);
  for (int trial = 0; trial < 2000; ++trial) {
    const HostId src = static_cast<HostId>(rng.uniform(t.host_count()));
    // Targets eligible per the R matrix: own ToR, same-pod agg, any core.
    const HostLocation loc = t.location(src);
    std::vector<NodeId> targets;
    targets.push_back(t.host_tor(src));
    const int half = t.k() / 2;  // aggs per pod, cores per group
    for (int a = 0; a < half; ++a) {
      targets.push_back(t.agg_node(loc.pod, a));
    }
    for (int c = 0; c < static_cast<int>(t.core_count()); ++c) {
      targets.push_back(t.core_node(c / half, c % half));
    }
    const NodeId target = targets[rng.uniform(targets.size())];
    NodeId cur = t.host_tor(src);
    int hops = 0;
    while (cur != target) {
      const NodeId next = t.next_hop_toward_switch(cur, target, rng.next_u64());
      ASSERT_TRUE(t.adjacent(cur, next));
      cur = next;
      ASSERT_LE(++hops, 4) << "switch routing loop";
    }
  }
}

// Response paths: a switch route toward an RSNode must also work from the
// *server* side (any ToR in the tree toward any core / any agg).
TEST(FatTreeTest, SwitchRoutingFromForeignPods) {
  FatTree t(8);
  sim::Rng rng(7);
  for (int pod = 0; pod < t.pods(); ++pod) {
    for (int rack = 0; rack < t.tors_per_pod(); ++rack) {
      const NodeId start = t.tor_node(pod, rack);
      // Any core.
      NodeId cur = start;
      const NodeId core = t.core_node(2, 3);
      int hops = 0;
      while (cur != core) {
        cur = t.next_hop_toward_switch(cur, core, rng.next_u64());
        ASSERT_LE(++hops, 3);
      }
      // Agg of another pod.
      cur = start;
      const NodeId agg = t.agg_node((pod + 3) % t.pods(), 1);
      hops = 0;
      while (cur != agg) {
        cur = t.next_hop_toward_switch(cur, agg, rng.next_u64());
        ASSERT_LE(++hops, 3);
      }
    }
  }
}

TEST(FatTreeTest, DefaultForwardsAndTrafficTier) {
  FatTree t(4);
  const HostId a = t.host_id(0, 0, 0);
  const HostId same_rack = t.host_id(0, 0, 1);
  const HostId same_pod = t.host_id(0, 1, 0);
  const HostId other_pod = t.host_id(2, 1, 1);
  EXPECT_EQ(t.default_forwards(a, same_rack), 1);
  EXPECT_EQ(t.default_forwards(a, same_pod), 3);
  EXPECT_EQ(t.default_forwards(a, other_pod), 5);
  EXPECT_EQ(t.traffic_tier(a, same_rack), 2);
  EXPECT_EQ(t.traffic_tier(a, same_pod), 1);
  EXPECT_EQ(t.traffic_tier(a, other_pod), 0);
}

TEST(FatTreeTest, RackIndexDense) {
  FatTree t(4);
  std::set<int> racks;
  for (HostId h = 0; h < t.host_count(); ++h) {
    racks.insert(t.rack_index(h));
  }
  EXPECT_EQ(racks.size(), static_cast<std::size_t>(t.racks()));
  EXPECT_EQ(*racks.begin(), 0);
  EXPECT_EQ(*racks.rbegin(), t.racks() - 1);
}

}  // namespace
}  // namespace netrs::net
