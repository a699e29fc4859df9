// Flat HostId -> slot index backing the selectors' per-server hot state.
//
// HostId is a dense index in [0, host_count) (net/address.hpp), so a plain
// vector lookup replaces the unordered_map::find chains the selectors used
// to run per candidate per select(). Selectors keep their per-server state
// in vectors indexed by the slot this table hands out (C3 one vector of
// per-server records, the baselines a vector per field), instead of
// hopping across heap-allocated hash nodes. Slots are assigned in
// first-touch order and never reclaimed — the server population of a run
// is fixed, and "absent" (kNone) keeps meaning "never touched", which the
// selectors map to their cold-start behavior exactly as the maps did.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/address.hpp"
#include "sim/affinity.hpp"

namespace netrs::rs {

/// Dense HostId -> slot map: O(1) find with no hashing, slots handed out
/// in first-touch order. Selectors index their per-server state with the
/// returned slot.
class NETRS_SHARD_LOCAL HostSlotIndex {
 public:
  /// Sentinel slot meaning "host never touched".
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// Slot of `h`, or kNone when the host was never added.
  [[nodiscard]] std::uint32_t find(net::HostId h) const {
    return h < slot_of_.size() ? slot_of_[h] : kNone;
  }

  /// Slot of `h`, assigning the next slot (== size() before the call) on
  /// first touch. Returns (slot, true) when the host was just added —
  /// the caller must then append the host's state.
  std::pair<std::uint32_t, bool> get_or_add(net::HostId h) {
    if (h >= slot_of_.size()) slot_of_.resize(h + 1, kNone);
    if (slot_of_[h] != kNone) return {slot_of_[h], false};
    const auto slot = static_cast<std::uint32_t>(count_++);
    slot_of_[h] = slot;
    return {slot, true};
  }

  /// Number of slots assigned so far.
  [[nodiscard]] std::size_t size() const { return count_; }

 private:
  std::vector<std::uint32_t> slot_of_;
  std::size_t count_ = 0;
};

}  // namespace netrs::rs
