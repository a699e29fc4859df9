#include "netrs/traffic_group.hpp"

#include <cassert>

namespace netrs::core {

TrafficGroups::TrafficGroups(const net::FatTree& topo,
                             GroupGranularity granularity,
                             int hosts_per_group)
    : topo_(topo), hosts_per_group_(hosts_per_group) {
  switch (granularity) {
    case GroupGranularity::kHost:
      hosts_per_group_ = 1;
      break;
    case GroupGranularity::kRack:
      hosts_per_group_ = topo.hosts_per_rack();
      break;
    case GroupGranularity::kSubRack:
      assert(hosts_per_group > 0 &&
             topo.hosts_per_rack() % hosts_per_group == 0 &&
             "sub-rack group size must divide the rack size");
      break;
  }
  count_ = topo.host_count() / static_cast<std::uint32_t>(hosts_per_group_);
}

int TrafficGroups::groups_per_rack() const {
  return topo_.hosts_per_rack() / hosts_per_group_;
}

GroupId TrafficGroups::group_of_host(net::HostId h) const {
  assert(h < topo_.host_count());
  return h / static_cast<std::uint32_t>(hosts_per_group_);
}

net::NodeId TrafficGroups::tor_of_group(GroupId g) const {
  assert(g < count_);
  const int rack = static_cast<int>(g) / groups_per_rack();
  const int pod = rack / topo_.tors_per_pod();
  return topo_.tor_node(pod, rack % topo_.tors_per_pod());
}

int TrafficGroups::pod_of_group(GroupId g) const {
  assert(g < count_);
  const int rack = static_cast<int>(g) / groups_per_rack();
  return rack / topo_.tors_per_pod();
}

int TrafficGroups::rack_of_group(GroupId g) const {
  assert(g < count_);
  return static_cast<int>(g) / groups_per_rack();
}

}  // namespace netrs::core
