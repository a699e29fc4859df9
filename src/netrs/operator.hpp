// NetRS operator (§II): the hardware/software bundle on one switch —
// programmable switch rules + network accelerator + NetRS selector, plus
// the NetRS monitor on ToR switches.
//
// The accelerator and the selector behind it form one SelectionUnit. In the
// shared configuration of §III-B several operators are backed by one unit;
// pass it in with a common `accel_share_id` so the placement solver applies
// the pooled capacity constraint.
#pragma once

#include <functional>
#include <memory>

#include "net/switch.hpp"
#include "netrs/accelerator.hpp"
#include "netrs/monitor.hpp"
#include "netrs/rules.hpp"
#include "netrs/selector_node.hpp"
#include "sim/affinity.hpp"

namespace netrs::core {

/// Creates a fresh replica-selection algorithm instance for an RSNode.
using SelectorFactory = std::function<std::unique_ptr<rs::ReplicaSelector>()>;

/// One network accelerator and the NetRS selector behind its handler: the
/// unit a dedicated operator owns, or that a shared core-group pool (§III-B)
/// lends to several operators. Not copyable or movable: the handler points
/// at the selector.
struct NETRS_SHARD_LOCAL SelectionUnit {
  /// Cables a new accelerator to `sw` and installs a selector built by
  /// `make_selector` behind its handler. The selector traces under the
  /// accelerator's node id, the lane of its queue and service spans.
  SelectionUnit(net::Fabric& fabric, net::NodeId sw, AcceleratorConfig cfg,
                const ReplicaDatabase& replica_db,
                const SelectorFactory& make_selector);
  SelectionUnit(const SelectionUnit&) = delete;
  SelectionUnit& operator=(const SelectionUnit&) = delete;

  Accelerator accelerator;  ///< The network accelerator.
  SelectorNode selector;    ///< The selector running the RS algorithm.
};

/// Externally owned selection unit for the shared configuration of
/// §III-B; null for a dedicated operator.
struct NETRS_SHARED_IMMUTABLE SharedParts {
  SelectionUnit* unit = nullptr;  ///< Pool unit (or null).
  int share_id = -1;              ///< Pool id (-1 = dedicated).
};

/// One NetRS operator: switch rules + accelerator + selector (+ ToR
/// monitor); see the file comment for the shared configuration.
class NETRS_SHARD_LOCAL NetRSOperator {
 public:
  /// Wires the full operator onto `sw`: builds (or attaches to the shared)
  /// selection unit, installs the NetRS rules ingress stage, and — on ToR
  /// switches — the monitor egress stage and the group tables.
  NetRSOperator(net::Fabric& fabric, net::Switch& sw, RsNodeId id,
                AcceleratorConfig accel_cfg,
                std::shared_ptr<const RsNodeDirectory> directory,
                const ReplicaDatabase& replica_db,
                SelectorFactory selector_factory,
                const TrafficGroups* tor_groups,
                std::shared_ptr<const GroupRidTable> tor_rid_table,
                SharedParts shared = SharedParts());

  /// This operator's RSNode id (the RID requests carry).
  [[nodiscard]] RsNodeId id() const { return id_; }
  /// NodeId of the switch the operator is installed on.
  [[nodiscard]] net::NodeId switch_node() const { return switch_.id(); }
  /// Tier of that switch.
  [[nodiscard]] net::Tier tier() const { return switch_.tier(); }
  /// Shared-accelerator pool id (-1 = dedicated); fed into
  /// OperatorSpec::accel_share by the controller.
  [[nodiscard]] int accel_share_id() const { return share_id_; }

  /// The (possibly shared) selection unit.
  [[nodiscard]] SelectionUnit& unit() { return *unit_; }
  /// The (possibly shared) network accelerator.
  [[nodiscard]] Accelerator& accelerator() { return unit_->accelerator; }
  /// Const view of the accelerator.
  [[nodiscard]] const Accelerator& accelerator() const {
    return unit_->accelerator;
  }
  /// The (possibly shared) selector node running the RS algorithm.
  [[nodiscard]] SelectorNode& selector_node() { return unit_->selector; }
  /// The match-action rules installed on the switch.
  [[nodiscard]] NetRSRules& rules() { return *rules_; }
  /// Non-null on ToR operators only.
  [[nodiscard]] Monitor* monitor() { return monitor_.get(); }

  /// Drops all selector state (fresh RSNode activation, §II). On shared
  /// selectors this resets the whole pool's view.
  void reset_selector() { unit_->selector.reset_selector(selector_factory_()); }

 private:
  net::Switch& switch_;
  RsNodeId id_;
  int share_id_ = -1;
  SelectorFactory selector_factory_;
  std::unique_ptr<SelectionUnit> owned_unit_;
  SelectionUnit* unit_ = nullptr;
  std::unique_ptr<NetRSRules> rules_;
  std::unique_ptr<Monitor> monitor_;
};

}  // namespace netrs::core
