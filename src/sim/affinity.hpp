// Shard-ownership model: classification macros + the runtime affinity
// sentinel (DESIGN.md §7.3).
//
// PR 7's partitioned parallel core made cross-shard state access the most
// dangerous bug class in the codebase: a component that touches another
// shard's Simulator, server stats, or queue state races silently, and the
// conservative-window schedule rarely exercises the bad interleaving, so
// TSan only sometimes sees it. Two defenses share this header:
//
//   1. Classification macros. Every top-level class in src/{net,kv,netrs,
//      rs,obs} carries exactly one of the three markers below on its class
//      token; netrs_lint's `shard-annotation` rule enforces the marker and
//      builds a cross-TU class -> affinity table that its
//      `shard-affinity-capture` and `shard-foreign-mutation` rules consume.
//      The macros expand to nothing — they are machine-checked
//      documentation, not code.
//
//   2. ShardAffinityGuard, the runtime sentinel of checked builds
//      (-DNETRS_AUDIT=ON). Every net::Node records its owner shard when
//      Fabric::attach / attach_auxiliary binds its guard, and each sharded
//      Simulator is bound by its ShardGroup; hot entry points call
//      check(op), which verifies that the executing context — the worker's
//      thread-local shard id, or the coordinator — may touch the object.
//      The coordinator is legal only while every shard is parked
//      (ShardGroup::window_active() == false): between run_until calls and
//      at global-event barriers. Violations are recorded through the
//      owner's Auditor with owner/actor provenance, never thrown — the
//      same observation-only contract as the PR-3 auditor, so an audit
//      build stays digest-identical to a plain build. Without NETRS_AUDIT
//      every method is an inline no-op and call sites compile to nothing.
#pragma once

#include "sim/audit.hpp"

/// Marks a class whose mutable state belongs to exactly one shard: it is
/// constructed on (or pinned to) one shard's Simulator and must only be
/// mutated from that shard's worker thread, or from the coordinator while
/// all shards are parked. Examples: Switch, Host, Server, Accelerator.
#define NETRS_SHARD_LOCAL

/// Marks a class owned by the coordinator: it lives on the global
/// simulator (or outside the shard structure entirely) and touches
/// shard-local state only at barriers, when every shard is parked.
/// Examples: Controller, obs::ShardObserverSet (whose per-shard Observer
/// lanes are themselves NETRS_SHARD_LOCAL).
#define NETRS_COORD_GLOBAL

/// Marks a class that is immutable after setup or a by-value message type:
/// safe to read from (or move across) any shard because no mutable state
/// is ever shared. Examples: FatTree, configs, Packet.
#define NETRS_SHARED_IMMUTABLE

namespace netrs::sim {

class ShardGroup;

/// Runtime shard-ownership sentinel (checked builds only; see the file
/// comment). Unbound guards — serial runs, standalone component tests —
/// accept every context.
class ShardAffinityGuard {
 public:
  /// Owner value of an unbound guard (accepts every context).
  static constexpr int kUnbound = -2;

  /// Binds the guard: `group` is the shard group whose worker threads (or
  /// coordinator) may touch the object, `owner_shard` the owning shard
  /// (ShardGroup::kCoordinator for global-simulator state), `what` a
  /// static category string for provenance ("node", "simulator", ...),
  /// `id` the instance id quoted next to it, and `auditor` the owner
  /// shard's violation sink. Passing a null `group` (serial mode) leaves
  /// the guard inert. No-op in plain builds.
  void bind(const ShardGroup* group, int owner_shard, const char* what,
            long long id, Auditor* auditor) {
    if constexpr (kAuditEnabled) {
      group_ = group;
      shard_ = owner_shard;
      what_ = what;
      id_ = id;
      auditor_ = auditor;
    } else {
      (void)group;
      (void)owner_shard;
      (void)what;
      (void)id;
      (void)auditor;
    }
  }

  /// Asserts that the calling context owns the guarded object: the owner
  /// shard's worker thread, or the coordinator with every shard parked.
  /// A violation is recorded through the owner's Auditor with owner/actor
  /// provenance (never thrown). Compiles to nothing in plain builds.
  void check(const char* op) const {
    if constexpr (kAuditEnabled) {
      check_impl(op);
    } else {
      (void)op;
    }
  }

 private:
  void check_impl(const char* op) const;

  const ShardGroup* group_ = nullptr;
  int shard_ = kUnbound;
  const char* what_ = "";
  long long id_ = -1;
  Auditor* auditor_ = nullptr;
};

}  // namespace netrs::sim
