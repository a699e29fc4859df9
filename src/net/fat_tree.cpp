#include "net/fat_tree.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace netrs::net {

FatTree::FatTree(int k) : k_(k), half_(k / 2) {
  if (k < 2 || k % 2 != 0) {
    throw std::invalid_argument("FatTree: the arity k must be even and >= 2, "
                                "got k=" + std::to_string(k));
  }
}

NodeId FatTree::core_node(int group, int j) const {
  assert(group >= 0 && group < half_ && j >= 0 && j < half_);
  return static_cast<NodeId>(group * half_ + j);
}

NodeId FatTree::agg_node(int pod, int a) const {
  assert(pod >= 0 && pod < k_ && a >= 0 && a < half_);
  return core_count() + static_cast<NodeId>(pod * half_ + a);
}

NodeId FatTree::tor_node(int pod, int t) const {
  assert(pod >= 0 && pod < k_ && t >= 0 && t < half_);
  return core_count() + static_cast<NodeId>(k_ * half_) +
         static_cast<NodeId>(pod * half_ + t);
}

NodeId FatTree::host_node(HostId h) const {
  assert(h < host_count());
  return switch_count() + h;
}

HostId FatTree::host_of(NodeId n) const {
  assert(is_host(n));
  return n - switch_count();
}

SwitchCoord FatTree::coord(NodeId sw) const {
  assert(is_switch(sw));
  const std::uint32_t cores = core_count();
  const std::uint32_t aggs = static_cast<std::uint32_t>(k_ * half_);
  if (sw < cores) {
    return SwitchCoord{Tier::kCore, 0, static_cast<std::uint16_t>(sw)};
  }
  if (sw < cores + aggs) {
    const std::uint32_t r = sw - cores;
    return SwitchCoord{Tier::kAgg, static_cast<std::uint16_t>(r / half_),
                       static_cast<std::uint16_t>(r % half_)};
  }
  const std::uint32_t r = sw - cores - aggs;
  return SwitchCoord{Tier::kTor, static_cast<std::uint16_t>(r / half_),
                     static_cast<std::uint16_t>(r % half_)};
}

HostId FatTree::host_id(int pod, int rack, int slot) const {
  assert(pod >= 0 && pod < k_ && rack >= 0 && rack < half_ && slot >= 0 &&
         slot < half_);
  return static_cast<HostId>((pod * half_ + rack) * half_ + slot);
}

HostLocation FatTree::location(HostId h) const {
  assert(h < host_count());
  const int slot = static_cast<int>(h) % half_;
  const int rack_flat = static_cast<int>(h) / half_;
  return HostLocation{static_cast<std::uint16_t>(rack_flat / half_),
                      static_cast<std::uint16_t>(rack_flat % half_),
                      static_cast<std::uint16_t>(slot)};
}

NodeId FatTree::host_tor(HostId h) const {
  const HostLocation loc = location(h);
  return tor_node(loc.pod, loc.rack);
}

SourceMarker FatTree::marker(HostId h) const {
  const HostLocation loc = location(h);
  return SourceMarker{loc.pod, loc.rack};
}

int FatTree::rack_index(HostId h) const {
  return static_cast<int>(h) / half_;
}

bool FatTree::adjacent(NodeId a, NodeId b) const {
  if (a == b) return false;
  if (a > b) std::swap(a, b);
  // After the swap: core < agg < tor < host in NodeId order.
  if (is_host(b)) {
    return is_switch(a) && host_tor(host_of(b)) == a;
  }
  const SwitchCoord ca = coord(a);
  const SwitchCoord cb = coord(b);
  if (ca.tier == Tier::kCore && cb.tier == Tier::kAgg) {
    return ca.idx / half_ == cb.idx;  // core group == agg position
  }
  if (ca.tier == Tier::kAgg && cb.tier == Tier::kTor) {
    return ca.pod == cb.pod;
  }
  return false;
}

std::vector<NodeId> FatTree::neighbors(NodeId n) const {
  std::vector<NodeId> out;
  if (is_host(n)) {
    out.push_back(host_tor(host_of(n)));
    return out;
  }
  const SwitchCoord c = coord(n);
  switch (c.tier) {
    case Tier::kCore: {
      const int group = c.idx / half_;
      for (int p = 0; p < k_; ++p) out.push_back(agg_node(p, group));
      break;
    }
    case Tier::kAgg: {
      for (int j = 0; j < half_; ++j) out.push_back(core_node(c.idx, j));
      for (int t = 0; t < half_; ++t) out.push_back(tor_node(c.pod, t));
      break;
    }
    case Tier::kTor: {
      for (int a = 0; a < half_; ++a) out.push_back(agg_node(c.pod, a));
      for (int s = 0; s < half_; ++s) {
        out.push_back(host_node(host_id(c.pod, c.idx, s)));
      }
      break;
    }
  }
  return out;
}

NodeId FatTree::next_hop_toward_host(NodeId cur, HostId dst,
                                     std::uint64_t ecmp_hash) const {
  assert(is_switch(cur));
  const HostLocation d = location(dst);
  const SwitchCoord c = coord(cur);
  switch (c.tier) {
    case Tier::kTor:
      if (c.pod == d.pod && c.idx == d.rack) return host_node(dst);
      return agg_node(c.pod, static_cast<int>(ecmp_hash % half_));
    case Tier::kAgg:
      if (c.pod == d.pod) return tor_node(d.pod, d.rack);
      return core_node(c.idx, static_cast<int>(ecmp_hash % half_));
    case Tier::kCore:
      return agg_node(d.pod, c.idx / half_);
  }
  return kInvalidNode;
}

NodeId FatTree::next_hop_toward_switch(NodeId cur, NodeId target,
                                       std::uint64_t ecmp_hash) const {
  assert(is_switch(cur) && is_switch(target));
  assert(cur != target);
  const SwitchCoord c = coord(cur);
  const SwitchCoord t = coord(target);

  switch (t.tier) {
    case Tier::kCore: {
      const int group = t.idx / half_;
      if (c.tier == Tier::kTor) return agg_node(c.pod, group);
      if (c.tier == Tier::kAgg) {
        assert(c.idx == group && "agg cannot reach a core of another group");
        return target;
      }
      break;  // core -> core is unreachable without descending
    }
    case Tier::kAgg: {
      if (c.tier == Tier::kTor) {
        // Ascend via the same-position agg; inside the target pod that IS
        // the target, outside it leads to the core group that reaches it.
        return agg_node(c.pod, t.idx);
      }
      if (c.tier == Tier::kAgg) {
        assert(c.pod != t.pod);
        assert(c.idx == t.idx && "wrong core group to reach target agg");
        return core_node(c.idx, static_cast<int>(ecmp_hash % half_));
      }
      if (c.tier == Tier::kCore) {
        assert(c.idx / half_ == t.idx);
        return target;
      }
      break;
    }
    case Tier::kTor: {
      if (c.tier == Tier::kTor) {
        // Same pod or not, ascend through a hash-picked agg position.
        return agg_node(c.pod, static_cast<int>(ecmp_hash % half_));
      }
      if (c.tier == Tier::kAgg) {
        if (c.pod == t.pod) return target;
        return core_node(c.idx, static_cast<int>(ecmp_hash % half_));
      }
      if (c.tier == Tier::kCore) {
        return agg_node(t.pod, c.idx / half_);
      }
      break;
    }
  }
  assert(false && "unroutable switch target without descending");
  return kInvalidNode;
}

int FatTree::default_forwards(HostId src, HostId dst) const {
  const HostLocation a = location(src);
  const HostLocation b = location(dst);
  if (a.pod == b.pod && a.rack == b.rack) return 1;
  if (a.pod == b.pod) return 3;
  return 5;
}

int FatTree::traffic_tier(HostId src, HostId dst) const {
  const HostLocation a = location(src);
  const HostLocation b = location(dst);
  if (a.pod == b.pod && a.rack == b.rack) return 2;
  if (a.pod == b.pod) return 1;
  return 0;
}

std::vector<NodeId> FatTree::all_switches() const {
  std::vector<NodeId> out;
  out.reserve(switch_count());
  for (NodeId n = 0; n < switch_count(); ++n) out.push_back(n);
  return out;
}

}  // namespace netrs::net
