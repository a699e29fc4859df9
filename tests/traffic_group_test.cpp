#include "netrs/traffic_group.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace netrs::core {
namespace {

/// The hosts that `g` maps to group `gid`, ascending.
std::vector<net::HostId> members(const net::FatTree& topo,
                                 const TrafficGroups& g, GroupId gid) {
  std::vector<net::HostId> out;
  for (net::HostId h = 0; h < topo.host_count(); ++h) {
    if (g.group_of_host(h) == gid) out.push_back(h);
  }
  return out;
}

TEST(TrafficGroupsTest, HostGranularityOneGroupPerHost) {
  net::FatTree topo(4);
  TrafficGroups g(topo, GroupGranularity::kHost);
  EXPECT_EQ(g.group_count(), topo.host_count());
  for (net::HostId h = 0; h < topo.host_count(); ++h) {
    EXPECT_EQ(g.group_of_host(h), h);
    EXPECT_EQ(g.tor_of_group(g.group_of_host(h)), topo.host_tor(h));
  }
}

TEST(TrafficGroupsTest, RackGranularityGroupsWholeRacks) {
  net::FatTree topo(4);
  TrafficGroups g(topo, GroupGranularity::kRack);
  EXPECT_EQ(g.group_count(), static_cast<std::uint32_t>(topo.racks()));
  for (net::HostId h = 0; h < topo.host_count(); ++h) {
    EXPECT_EQ(static_cast<int>(g.group_of_host(h)), topo.rack_index(h));
  }
  // Every host of a group shares the group's ToR.
  for (GroupId gid = 0; gid < g.group_count(); ++gid) {
    for (net::HostId h : members(topo, g, gid)) {
      EXPECT_EQ(topo.host_tor(h), g.tor_of_group(gid));
    }
  }
}

TEST(TrafficGroupsTest, SubRackGranularitySplitsRacks) {
  net::FatTree topo(8);  // 4 hosts per rack
  TrafficGroups g(topo, GroupGranularity::kSubRack, 2);
  EXPECT_EQ(g.group_count(), topo.host_count() / 2);
  // Hosts 0 and 1 share a group; hosts 1 and 2 do not.
  EXPECT_EQ(g.group_of_host(0), g.group_of_host(1));
  EXPECT_NE(g.group_of_host(1), g.group_of_host(2));
  // Sub-rack groups never straddle rack boundaries.
  for (GroupId gid = 0; gid < g.group_count(); ++gid) {
    std::set<int> racks;
    for (net::HostId h : members(topo, g, gid)) {
      racks.insert(topo.rack_index(h));
    }
    EXPECT_EQ(racks.size(), 1u);
  }
}

TEST(TrafficGroupsTest, PodAndRackLookups) {
  net::FatTree topo(4);
  TrafficGroups g(topo, GroupGranularity::kRack);
  for (GroupId gid = 0; gid < g.group_count(); ++gid) {
    const auto hosts = members(topo, g, gid);
    ASSERT_FALSE(hosts.empty());
    const net::HostLocation loc = topo.location(hosts[0]);
    EXPECT_EQ(g.pod_of_group(gid), loc.pod);
    EXPECT_EQ(g.rack_of_group(gid), topo.rack_index(hosts[0]));
  }
}

TEST(TrafficGroupsTest, GroupsPartitionHosts) {
  net::FatTree topo(4);
  for (auto gran : {GroupGranularity::kHost, GroupGranularity::kRack}) {
    TrafficGroups g(topo, gran);
    // Every host lands in a valid group, and every group gets the same
    // number of consecutive hosts.
    std::vector<std::uint32_t> size_of(g.group_count(), 0);
    for (net::HostId h = 0; h < topo.host_count(); ++h) {
      ASSERT_LT(g.group_of_host(h), g.group_count());
      ++size_of[g.group_of_host(h)];
    }
    const std::uint32_t per_group = topo.host_count() / g.group_count();
    for (GroupId gid = 0; gid < g.group_count(); ++gid) {
      EXPECT_EQ(size_of[gid], per_group) << "group " << gid;
      const auto hosts = members(topo, g, gid);
      ASSERT_FALSE(hosts.empty());
      EXPECT_EQ(hosts.back() - hosts.front() + 1, per_group)
          << "group " << gid << " is not contiguous";
    }
  }
}

}  // namespace
}  // namespace netrs::core
