#include "netrs/operator.hpp"

#include <cassert>
#include <utility>

namespace netrs::core {

SelectionUnit::SelectionUnit(net::Fabric& fabric, net::NodeId sw,
                             AcceleratorConfig cfg,
                             const ReplicaDatabase& replica_db,
                             const SelectorFactory& make_selector)
    : accelerator(fabric, sw, cfg),
      selector(fabric.simulator_for(sw), replica_db, make_selector(),
               static_cast<std::int32_t>(accelerator.node_id())) {
  accelerator.set_handler([sel = &selector](net::Packet pkt) {
    return sel->process(std::move(pkt));
  });
}

NetRSOperator::NetRSOperator(
    net::Fabric& fabric, net::Switch& sw, RsNodeId id,
    AcceleratorConfig accel_cfg,
    std::shared_ptr<const RsNodeDirectory> directory,
    const ReplicaDatabase& replica_db, SelectorFactory selector_factory,
    const TrafficGroups* tor_groups,
    std::shared_ptr<const GroupRidTable> tor_rid_table, SharedParts shared)
    : switch_(sw),
      id_(id),
      share_id_(shared.share_id),
      selector_factory_(std::move(selector_factory)) {
  assert(selector_factory_ != nullptr);
  if (shared.unit == nullptr) {
    owned_unit_ = std::make_unique<SelectionUnit>(fabric, sw.id(), accel_cfg,
                                                  replica_db,
                                                  selector_factory_);
  }
  unit_ = shared.unit != nullptr ? shared.unit : owned_unit_.get();
  // attach_switch cables a shared unit to this switch as well (an owned one
  // is cabled here already) and returns the NodeId the rules address.
  rules_ = std::make_unique<NetRSRules>(
      id, unit_->accelerator.attach_switch(sw.id()), std::move(directory),
      fabric.topology());
  if (sw.tier() == net::Tier::kTor) {
    assert(tor_groups != nullptr && tor_rid_table != nullptr);
    rules_->install_tor_tables(tor_groups, std::move(tor_rid_table));
    monitor_ = std::make_unique<Monitor>(fabric.topology(), *tor_groups,
                                         sw.id());
    sw.add_egress_stage(monitor_.get());
  }
  sw.add_ingress_stage(rules_.get());
}

}  // namespace netrs::core
