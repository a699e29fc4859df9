#include "netrs/monitor.hpp"

#include <algorithm>
#include <cassert>

namespace netrs::core {

Monitor::Monitor(const net::FatTree& topo, const TrafficGroups& groups,
                 net::NodeId tor)
    : topo_(topo), groups_(groups) {
  const net::SwitchCoord c = topo.coord(tor);
  assert(c.tier == net::Tier::kTor && "monitors live on ToR switches only");
  local_ = net::SourceMarker{c.pod, c.idx};
  const int rack = c.pod * topo.tors_per_pod() + c.idx;
  first_group_ = static_cast<GroupId>(rack * groups.groups_per_rack());
  counts_.assign(static_cast<std::size_t>(groups.groups_per_rack()),
                 TierCounts{});
}

void Monitor::on_egress(const net::Packet& pkt, net::NodeId next_hop,
                        net::Switch& sw) {
  (void)sw;
  if (!topo_.is_host(next_hop)) return;  // only packets leaving the network
  const auto mf = peek_magic(pkt.payload);
  if (!mf.has_value() || classify(*mf) != PacketKind::kMonitorOnly) return;
  const auto sm = peek_source_marker(pkt.payload);
  if (!sm.has_value()) return;

  int tier = 0;
  if (sm->pod == local_.pod) {
    tier = sm->rack == local_.rack ? 2 : 1;
  }
  // A host port of this ToR leads to a host of its rack.
  const GroupId row = groups_.group_of_host(pkt.dst) - first_group_;
  assert(row < counts_.size());
  counts_[row][static_cast<std::size_t>(tier)] += 1;
}

void Monitor::reset() { std::ranges::fill(counts_, TierCounts{}); }

}  // namespace netrs::core
