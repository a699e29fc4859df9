// NetRS selector (§IV-C): the application-layer logic running on a network
// accelerator.
//
// For a NetRS request it resolves the RGID against its local replica-group
// database, asks its ReplicaSelector for a target, rewrites the packet
// (destination := chosen server, RV := a fresh tag, MF := f(Mresp)) and
// hands it back to the switch. For a cloned NetRS response it updates the
// selector's local information — measuring the response time by matching
// the echoed RV against its pending table — and absorbs the clone.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "netrs/packet_format.hpp"
#include "rs/selector.hpp"
#include "sim/affinity.hpp"
#include "sim/simulator.hpp"

namespace netrs::core {

/// RGID -> replica candidates. Shared, immutable; owned by the harness
/// (derived from the KV store's consistent-hash ring).
using ReplicaDatabase = std::vector<std::vector<net::HostId>>;

/// The NetRS selector logic behind an accelerator's handler (see the
/// file comment).
class NETRS_SHARD_LOCAL SelectorNode {
 public:
  /// `db` is shared immutable state owned by the harness; `selector` is
  /// this node's private algorithm instance. "rs.select" trace events are
  /// recorded under `trace_tid` (its accelerator's node id; -1 untagged).
  SelectorNode(sim::Simulator& sim, const ReplicaDatabase& db,
               std::unique_ptr<rs::ReplicaSelector> selector,
               std::int32_t trace_tid = -1);

  /// Accelerator handler: processes one packet, optionally returning a
  /// rebuilt packet to send back to the co-located switch.
  std::optional<net::Packet> process(net::Packet pkt);

  /// Replaces the selection algorithm, dropping all local information —
  /// what happens when an RSP change activates this RSNode afresh (§II:
  /// "newly introduced RSNodes have to build the view from scratch").
  void reset_selector(std::unique_ptr<rs::ReplicaSelector> selector);

  /// Fault hook — reached only through sim::FaultInjector at global-sim
  /// barriers (fault-hook-discipline lint rule). The RSNode lost its
  /// state: every pending RV slot is invalidated (late responses for
  /// them yield feedback without a response time). On recovery the
  /// harness rebuilds the selection algorithm itself via reset_selector()
  /// (§II: a re-activated RSNode starts from scratch).
  void fail();

  /// The current selection algorithm (diagnostic/report access).
  [[nodiscard]] const rs::ReplicaSelector& selector() const {
    return *selector_;
  }
  /// Requests rewritten toward a chosen replica.
  [[nodiscard]] std::uint64_t requests_selected() const {
    return requests_selected_;
  }
  /// Cloned responses absorbed into selector state.
  [[nodiscard]] std::uint64_t responses_absorbed() const {
    return responses_absorbed_;
  }
  /// Slots currently allocated in the RV table (0 until the first
  /// selection; at most 65,536). Diagnostic.
  [[nodiscard]] std::size_t rv_table_slots() const { return pending_.size(); }

  /// Installs the decision-audit hook on the current selector and keeps
  /// it across reset_selector() (an RSP change swaps the algorithm
  /// instance but the node keeps being audited).
  void set_decision_hook(rs::DecisionHook hook) {
    hook_ = std::move(hook);
    selector_->set_decision_hook(hook_);
  }

 private:
  /// One outstanding selection; `server == kInvalidHost` marks it empty.
  struct PendingSlot {
    net::HostId server = net::kInvalidHost;
    sim::Time sent_at = 0;
  };

  std::optional<net::Packet> handle_request(net::Packet pkt);
  void handle_response(const net::Packet& pkt);
  /// Doubles the table until slot `rv` exists (capped at 2^16 slots).
  void grow_to(std::uint16_t rv);

  sim::Simulator& sim_;
  const ReplicaDatabase& db_;
  std::unique_ptr<rs::ReplicaSelector> selector_;
  rs::DecisionHook hook_;  // reapplied on reset_selector()
  // RV-indexed pending table (the RV field is 16 bits wide). It starts
  // empty and only grows as far as next_rv_ has reached, so an operator
  // that never selects costs nothing; an rv at or beyond its size was
  // never issued since the last reset and so reads as a mismatch.
  std::vector<PendingSlot> pending_;
  std::uint16_t next_rv_ = 1;
  std::uint64_t requests_selected_ = 0;
  std::uint64_t responses_absorbed_ = 0;
  std::int32_t trace_tid_;
};

}  // namespace netrs::core
