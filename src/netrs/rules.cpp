#include "netrs/rules.hpp"

#include <cassert>
#include <utility>

namespace netrs::core {

NetRSRules::NetRSRules(RsNodeId local_id, net::NodeId accelerator_node,
                       std::shared_ptr<const RsNodeDirectory> directory,
                       const net::FatTree& topo)
    : local_id_(local_id),
      accel_(accelerator_node),
      directory_(std::move(directory)),
      topo_(topo) {
  assert(local_id_ != kRidUnset && local_id_ != kRidIllegal);
  assert(directory_ != nullptr);
}

void NetRSRules::install_tor_tables(
    const TrafficGroups* groups,
    std::shared_ptr<const GroupRidTable> rid_table) {
  assert(groups != nullptr);
  groups_ = groups;
  rid_table_ = std::move(rid_table);
}

void NetRSRules::update_rid_table(
    std::shared_ptr<const GroupRidTable> rid_table) {
  assert(groups_ != nullptr && "update on a switch without ToR tables");
  rid_table_ = std::move(rid_table);
}

net::Switch::Disposition NetRSRules::on_ingress(net::Packet& pkt,
                                                net::NodeId from,
                                                net::Switch& sw) {
  const auto mf = peek_magic(pkt.payload);
  if (!mf.has_value()) return net::Switch::Continue{};
  switch (classify(*mf)) {
    case PacketKind::kNetRSRequest:
      return handle_request(pkt, from, sw);
    case PacketKind::kNetRSResponse:
      return handle_response(pkt, from, sw);
    case PacketKind::kMonitorOnly:
    case PacketKind::kOther:
      return net::Switch::Continue{};
  }
  return net::Switch::Continue{};
}

net::Switch::Disposition NetRSRules::handle_request(net::Packet& pkt,
                                                    net::NodeId from,
                                                    net::Switch& sw) {
  // ToR extra rules: a request entering the network gets its RSNode ID from
  // the source-IP -> traffic-group mapping (§IV-B).
  if (groups_ != nullptr && topo_.is_host(from)) {
    const GroupId g = groups_->group_of_host(pkt.src);
    const RsNodeId rid =
        g < rid_table_->size() ? (*rid_table_)[g] : kRidIllegal;
    if (rid == kRidIllegal || rid == kRidUnset) {
      // Degraded Replica Selection: label as monitor-visible plain traffic
      // and let it ride to the client-chosen backup replica.
      set_magic(pkt.payload, magic_f(kMagicMonitor));
      return net::Switch::Continue{};
    }
    set_rid(pkt.payload, rid);
  }

  const auto rid = peek_rid(pkt.payload);
  assert(rid.has_value());
  if (*rid == local_id_) {
    sw.fabric().send(sw.id(), accel_, std::move(pkt));
    return net::Switch::Consumed{};
  }
  const net::NodeId loc = directory_->find(*rid);
  if (loc == net::kInvalidNode) {
    // Unknown RSNode (e.g. a request raced an RSP retirement): degrade.
    set_magic(pkt.payload, magic_f(kMagicMonitor));
    return net::Switch::Continue{};
  }
  return net::Switch::Steer{loc};
}

net::Switch::Disposition NetRSRules::handle_response(net::Packet& pkt,
                                                     net::NodeId from,
                                                     net::Switch& sw) {
  // ToR extra rules: stamp the source marker when the response enters the
  // network from the responding server (§IV-B, required by the monitor).
  if (groups_ != nullptr && topo_.is_host(from)) {
    set_source_marker(pkt.payload, topo_.marker(topo_.host_of(from)));
  }

  const auto rid = peek_rid(pkt.payload);
  assert(rid.has_value());
  if (*rid == local_id_) {
    // Clone to the accelerator (selector updates its local information off
    // the critical path), relabel the original Mmon and forward normally.
    net::Packet clone = pkt;
    sw.fabric().send(sw.id(), accel_, std::move(clone));
    set_magic(pkt.payload, kMagicMonitor);
    return net::Switch::Continue{};
  }
  const net::NodeId loc = directory_->find(*rid);
  if (loc == net::kInvalidNode) {
    // The RSNode vanished (operator failure): deliver without selector
    // feedback; the monitor can still count it.
    set_magic(pkt.payload, kMagicMonitor);
    return net::Switch::Continue{};
  }
  return net::Switch::Steer{loc};
}

}  // namespace netrs::core
