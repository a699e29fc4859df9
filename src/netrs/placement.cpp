#include "netrs/placement.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "ilp/branch_and_bound.hpp"

namespace netrs::core {
namespace {

constexpr int kGroupTier = 2;  // groups attach to ToR switches (3-tier tree)

/// Shared-accelerator capacity pools: operators with accel_share >= 0 draw
/// from one pool per share id; dedicated operators have their own pool.
class CapacityPools {
 public:
  explicit CapacityPools(const std::vector<OperatorSpec>& ops) : ops_(ops) {
    for (std::size_t j = 0; j < ops.size(); ++j) {
      const OperatorSpec& op = ops[j];
      if (op.accel_share >= 0) {
        // One pool per share id, capacity of the shared accelerator.
        shared_.emplace(op.accel_share, op.t_max);
      } else {
        dedicated_[j] = op.t_max;
      }
    }
  }

  [[nodiscard]] double remaining(std::size_t j) const {
    const OperatorSpec& op = ops_[j];
    if (op.accel_share >= 0) return shared_.at(op.accel_share);
    return dedicated_.at(j);
  }

  void consume(std::size_t j, double load) {
    const OperatorSpec& op = ops_[j];
    if (op.accel_share >= 0) {
      shared_.at(op.accel_share) -= load;
    } else {
      dedicated_.at(j) -= load;
    }
  }

  void release(std::size_t j, double load) { consume(j, -load); }

 private:
  const std::vector<OperatorSpec>& ops_;
  std::map<int, double> shared_;
  std::map<std::size_t, double> dedicated_;
};

struct Attempt {
  // Lookup-only (finalize walks problem.groups, not this map), so the
  // unordered container is safe; never iterate it.
  std::unordered_map<GroupId, std::size_t> op_of_group;  // group -> op index
  bool proven_optimal = false;
};

PlacementResult finalize(const PlacementProblem& problem,
                         const Attempt& attempt,
                         const std::vector<GroupId>& drs,
                         std::string method) {
  PlacementResult res;
  res.method = std::move(method);
  res.drs_groups = drs;
  res.proven_optimal = attempt.proven_optimal;
  std::set<RsNodeId> used;
  for (const GroupDemand& g : problem.groups) {
    auto it = attempt.op_of_group.find(g.id);
    if (it == attempt.op_of_group.end()) continue;
    const OperatorSpec& op = problem.operators[it->second];
    res.assignment[g.id] = op.id;
    used.insert(op.id);
    res.extra_hops_used += extra_hop_cost(g, op.tier);
  }
  res.rsnodes_used = static_cast<int>(used.size());
  return res;
}

// --------------------------------------------------------------------------
// Full ILP (Eqs. 1-7 verbatim).
// --------------------------------------------------------------------------

std::optional<Attempt> solve_full_ilp(const PlacementProblem& problem,
                                      const std::vector<std::size_t>& gidx,
                                      const PlacementOptions& opts) {
  ilp::Model model;

  // D_j for available operators.
  std::vector<int> d_var(problem.operators.size(), -1);
  for (std::size_t j = 0; j < problem.operators.size(); ++j) {
    if (!problem.operators[j].available) continue;
    d_var[j] = model.add_binary(1.0);
  }

  // P_ij for eligible pairs.
  struct PVar {
    std::size_t gi;  // index into gidx
    std::size_t j;   // operator index
    int var;
  };
  std::vector<PVar> pvars;
  for (std::size_t a = 0; a < gidx.size(); ++a) {
    const GroupDemand& g = problem.groups[gidx[a]];
    for (std::size_t j = 0; j < problem.operators.size(); ++j) {
      if (d_var[j] < 0) continue;
      if (!eligible(g, problem.operators[j])) continue;
      pvars.push_back(PVar{a, j, model.add_binary(0.0)});
    }
  }

  // (3) D_j - P_ij >= 0 and (5) sum_j P_ij = 1.
  std::vector<ilp::LinExpr> per_group(gidx.size());
  for (const PVar& p : pvars) {
    ilp::LinExpr link;
    link.add(d_var[p.j], 1.0).add(p.var, -1.0);
    model.add_constraint(std::move(link), ilp::Sense::kGe, 0.0);
    per_group[p.gi].add(p.var, 1.0);
  }
  for (std::size_t a = 0; a < gidx.size(); ++a) {
    if (per_group[a].terms.empty()) return std::nullopt;  // unplaceable
    model.add_constraint(std::move(per_group[a]), ilp::Sense::kEq, 1.0);
  }

  // (6) capacity — per dedicated operator or per shared-accelerator set.
  std::map<int, ilp::LinExpr> shared_rows;
  std::map<std::size_t, ilp::LinExpr> dedicated_rows;
  for (const PVar& p : pvars) {
    const double load = problem.groups[gidx[p.gi]].total();
    const OperatorSpec& op = problem.operators[p.j];
    if (op.accel_share >= 0) {
      shared_rows[op.accel_share].add(p.var, load);
    } else {
      dedicated_rows[p.j].add(p.var, load);
    }
  }
  for (auto& [j, expr] : dedicated_rows) {
    model.add_constraint(std::move(expr), ilp::Sense::kLe,
                         problem.operators[j].t_max);
  }
  for (auto& [share, expr] : shared_rows) {
    double cap = 0.0;
    for (const OperatorSpec& op : problem.operators) {
      if (op.accel_share == share) {
        cap = op.t_max;  // one physical accelerator per share set
        break;
      }
    }
    model.add_constraint(std::move(expr), ilp::Sense::kLe, cap);
  }

  // (7) extra-hop budget.
  ilp::LinExpr hop;
  for (const PVar& p : pvars) {
    const double c = extra_hop_cost(problem.groups[gidx[p.gi]],
                                    problem.operators[p.j].tier);
    if (c > 0.0) hop.add(p.var, c);
  }
  if (!hop.terms.empty()) {
    model.add_constraint(std::move(hop), ilp::Sense::kLe,
                         problem.extra_hop_budget);
  }

  ilp::BnbOptions bnb;
  bnb.max_nodes = opts.max_bnb_nodes;
  const ilp::Solution r = ilp::solve_ilp(model, bnb);
  if (!r.has_point()) return std::nullopt;

  Attempt attempt;
  attempt.proven_optimal = r.status == ilp::SolveStatus::kOptimal;
  for (const PVar& p : pvars) {
    if (r.values[static_cast<std::size_t>(p.var)] > 0.5) {
      attempt.op_of_group[problem.groups[gidx[p.gi]].id] = p.j;
    }
  }
  return attempt;
}

// --------------------------------------------------------------------------
// Reduced ILP: pod symmetry + first-fit-decreasing concretization.
// --------------------------------------------------------------------------

struct ReducedShape {
  std::vector<std::size_t> cores;                 // operator indices
  std::map<int, std::vector<std::size_t>> aggs;   // pod -> operator indices
  // ToR operator index per (pod, rack), if present.
  std::map<std::pair<int, int>, std::size_t> tors;
  double core_tmax = 0.0;
  std::map<int, double> agg_tmax;  // per pod
};

std::optional<ReducedShape> reduced_shape(const PlacementProblem& problem) {
  ReducedShape s;
  for (std::size_t j = 0; j < problem.operators.size(); ++j) {
    const OperatorSpec& op = problem.operators[j];
    if (!op.available) continue;
    if (op.accel_share >= 0) return std::nullopt;  // needs the full model
    switch (op.tier) {
      case net::Tier::kCore:
        if (!s.cores.empty() && std::abs(s.core_tmax - op.t_max) > 1e-9) {
          return std::nullopt;  // heterogeneous cores break symmetry
        }
        s.core_tmax = op.t_max;
        s.cores.push_back(j);
        break;
      case net::Tier::kAgg: {
        auto [it, fresh] = s.agg_tmax.emplace(op.pod, op.t_max);
        if (!fresh && std::abs(it->second - op.t_max) > 1e-9) {
          return std::nullopt;
        }
        s.aggs[op.pod].push_back(j);
        break;
      }
      case net::Tier::kTor:
        s.tors[{op.pod, op.rack}] = j;
        break;
    }
  }
  return s;
}

/// First-fit-decreasing packing of (load, group-index) items into bins of
/// capacity `cap`; returns per-item bin ids or nullopt if more than
/// `max_bins` bins would be needed.
std::optional<std::vector<int>> ffd_pack(
    const std::vector<std::pair<double, std::size_t>>& items, double cap,
    std::size_t max_bins) {
  std::vector<std::pair<double, std::size_t>> sorted = items;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<double> bins;
  std::vector<int> result(items.size(), -1);
  for (const auto& [load, item_idx] : sorted) {
    int placed = -1;
    for (std::size_t b = 0; b < bins.size(); ++b) {
      if (bins[b] + load <= cap + 1e-9) {
        placed = static_cast<int>(b);
        break;
      }
    }
    if (placed < 0) {
      if (bins.size() >= max_bins || load > cap + 1e-9) return std::nullopt;
      bins.push_back(0.0);
      placed = static_cast<int>(bins.size()) - 1;
    }
    bins[static_cast<std::size_t>(placed)] += load;
    result[item_idx] = placed;
  }
  return result;
}

std::optional<Attempt> solve_reduced_ilp(const PlacementProblem& problem,
                                         const std::vector<std::size_t>& gidx,
                                         const ReducedShape& shape,
                                         const PlacementOptions& opts,
                                         bool allow_tor) {
  ilp::Model model;

  struct GroupVars {
    int tor = -1, agg = -1, core = -1;
  };
  std::vector<GroupVars> gv(gidx.size());

  // Per-rack ToR-open binaries (cover host-level groups sharing a ToR).
  std::map<std::pair<int, int>, int> tor_open;

  for (std::size_t a = 0; a < gidx.size(); ++a) {
    const GroupDemand& g = problem.groups[gidx[a]];
    const auto tor_it = allow_tor ? shape.tors.find({g.pod, g.rack})
                                  : shape.tors.end();
    if (tor_it != shape.tors.end()) {
      gv[a].tor = model.add_binary(0.0);
      auto [it, fresh] = tor_open.emplace(std::make_pair(g.pod, g.rack), -1);
      if (fresh || it->second < 0) it->second = model.add_binary(1.0);
      ilp::LinExpr link;
      link.add(it->second, 1.0).add(gv[a].tor, -1.0);
      model.add_constraint(std::move(link), ilp::Sense::kGe, 0.0);
    }
    if (shape.aggs.contains(g.pod)) gv[a].agg = model.add_binary(0.0);
    if (!shape.cores.empty()) gv[a].core = model.add_binary(0.0);
    ilp::LinExpr assign;
    if (gv[a].tor >= 0) assign.add(gv[a].tor, 1.0);
    if (gv[a].agg >= 0) assign.add(gv[a].agg, 1.0);
    if (gv[a].core >= 0) assign.add(gv[a].core, 1.0);
    if (assign.terms.empty()) return std::nullopt;  // unplaceable group
    model.add_constraint(std::move(assign), ilp::Sense::kEq, 1.0);
  }

  // Operator-count integers. These couple every group's choice, so B&B
  // branches on them first (high priority).
  std::map<int, int> n_agg;  // pod -> var
  for (const auto& [pod, ops] : shape.aggs) {
    n_agg[pod] = model.add_integer(0.0, static_cast<double>(ops.size()), 1.0);
    model.set_branch_priority(n_agg[pod], 10);
  }
  int n_core = -1;
  if (!shape.cores.empty()) {
    n_core = model.add_integer(0.0, static_cast<double>(shape.cores.size()),
                               1.0);
    model.set_branch_priority(n_core, 20);
  }
  for (const auto& [key, var] : tor_open) {
    (void)key;
    model.set_branch_priority(var, 5);
  }

  // Set-cover-style link rows: any group on an agg/core forces that count
  // to >= 1. They tighten the LP relaxation enormously (without them the
  // counts relax to load/Tmax, a near-zero bound).
  for (std::size_t a = 0; a < gidx.size(); ++a) {
    const GroupDemand& g = problem.groups[gidx[a]];
    if (gv[a].agg >= 0) {
      ilp::LinExpr link;
      link.add(n_agg.at(g.pod), 1.0).add(gv[a].agg, -1.0);
      model.add_constraint(std::move(link), ilp::Sense::kGe, 0.0);
    }
    if (gv[a].core >= 0) {
      ilp::LinExpr link;
      link.add(n_core, 1.0).add(gv[a].core, -1.0);
      model.add_constraint(std::move(link), ilp::Sense::kGe, 0.0);
    }
  }

  // Capacity rows.
  std::map<std::pair<int, int>, ilp::LinExpr> tor_cap;
  std::map<int, ilp::LinExpr> agg_cap;
  ilp::LinExpr core_cap;
  ilp::LinExpr hop;
  for (std::size_t a = 0; a < gidx.size(); ++a) {
    const GroupDemand& g = problem.groups[gidx[a]];
    const double load = g.total();
    if (gv[a].tor >= 0) tor_cap[{g.pod, g.rack}].add(gv[a].tor, load);
    if (gv[a].agg >= 0) {
      agg_cap[g.pod].add(gv[a].agg, load);
      hop.add(gv[a].agg, extra_hop_cost(g, net::Tier::kAgg));
    }
    if (gv[a].core >= 0) {
      core_cap.add(gv[a].core, load);
      hop.add(gv[a].core, extra_hop_cost(g, net::Tier::kCore));
    }
  }
  for (auto& [key, expr] : tor_cap) {
    model.add_constraint(std::move(expr), ilp::Sense::kLe,
                         problem.operators[shape.tors.at(key)].t_max);
  }
  for (auto& [pod, expr] : agg_cap) {
    expr.add(n_agg.at(pod), -shape.agg_tmax.at(pod));
    model.add_constraint(std::move(expr), ilp::Sense::kLe, 0.0);
  }
  if (n_core >= 0 && !core_cap.terms.empty()) {
    core_cap.add(n_core, -shape.core_tmax);
    model.add_constraint(std::move(core_cap), ilp::Sense::kLe, 0.0);
  }
  if (!hop.terms.empty()) {
    model.add_constraint(std::move(hop), ilp::Sense::kLe,
                         problem.extra_hop_budget);
  }

  ilp::BnbOptions bnb;
  bnb.max_nodes = opts.max_bnb_nodes;

  // Warm start: "every group on an aggregation switch of its pod" (falling
  // back to ToR, then core). Usually feasible and within ~2x of optimal,
  // it lets the integral-objective pruning close the symmetric search tree
  // quickly.
  {
    std::vector<double> warm(static_cast<std::size_t>(model.num_vars()), 0.0);
    std::map<int, double> agg_load;
    std::map<std::pair<int, int>, double> tor_load;
    double core_load = 0.0;
    for (std::size_t a = 0; a < gidx.size(); ++a) {
      const GroupDemand& g = problem.groups[gidx[a]];
      const double load = g.total();
      const auto tor_it = shape.tors.find({g.pod, g.rack});
      const double tor_cap =
          tor_it != shape.tors.end()
              ? problem.operators[tor_it->second].t_max
              : 0.0;
      if (gv[a].agg >= 0) {
        warm[static_cast<std::size_t>(gv[a].agg)] = 1.0;
        agg_load[g.pod] += load;
      } else if (gv[a].tor >= 0 &&
                 tor_load[{g.pod, g.rack}] + load <= tor_cap) {
        warm[static_cast<std::size_t>(gv[a].tor)] = 1.0;
        warm[static_cast<std::size_t>(tor_open.at({g.pod, g.rack}))] = 1.0;
        tor_load[{g.pod, g.rack}] += load;
      } else if (gv[a].core >= 0) {
        warm[static_cast<std::size_t>(gv[a].core)] = 1.0;
        core_load += load;
      }
    }
    for (const auto& [pod, load] : agg_load) {
      warm[static_cast<std::size_t>(n_agg.at(pod))] =
          std::ceil(load / shape.agg_tmax.at(pod) - 1e-9);
    }
    if (n_core >= 0 && core_load > 0.0) {
      warm[static_cast<std::size_t>(n_core)] =
          std::ceil(core_load / shape.core_tmax - 1e-9);
    }
    bnb.initial_incumbent = std::move(warm);  // ignored if infeasible
  }

  const ilp::Solution r = ilp::solve_ilp(model, bnb);
  if (!r.has_point()) return std::nullopt;
  const auto& x = r.values;

  // Concretize: ToR choices map directly; agg/core choices are packed onto
  // physical accelerators with FFD (which may use more bins than the model's
  // count variables — still valid, only slightly suboptimal).
  Attempt attempt;
  attempt.proven_optimal = r.status == ilp::SolveStatus::kOptimal;

  std::map<int, std::vector<std::pair<double, std::size_t>>> agg_items;
  std::map<int, std::vector<std::size_t>> agg_item_group;  // pod -> [a]
  std::vector<std::pair<double, std::size_t>> core_items;
  std::vector<std::size_t> core_item_group;

  for (std::size_t a = 0; a < gidx.size(); ++a) {
    const GroupDemand& g = problem.groups[gidx[a]];
    if (gv[a].tor >= 0 && x[static_cast<std::size_t>(gv[a].tor)] > 0.5) {
      attempt.op_of_group[g.id] = shape.tors.at({g.pod, g.rack});
    } else if (gv[a].agg >= 0 &&
               x[static_cast<std::size_t>(gv[a].agg)] > 0.5) {
      agg_items[g.pod].emplace_back(g.total(), agg_items[g.pod].size());
      agg_item_group[g.pod].push_back(a);
    } else if (gv[a].core >= 0 &&
               x[static_cast<std::size_t>(gv[a].core)] > 0.5) {
      core_items.emplace_back(g.total(), core_items.size());
      core_item_group.push_back(a);
    } else {
      return std::nullopt;  // rounding hole; extremely unlikely
    }
  }

  // Pack per-pod agg groups.
  for (auto& [pod, items] : agg_items) {
    const auto& ops = shape.aggs.at(pod);
    auto packed = ffd_pack(items, shape.agg_tmax.at(pod), ops.size());
    if (!packed.has_value()) return std::nullopt;
    const auto& members = agg_item_group.at(pod);
    for (std::size_t t = 0; t < items.size(); ++t) {
      const std::size_t a = members[t];
      attempt.op_of_group[problem.groups[gidx[a]].id] =
          ops[static_cast<std::size_t>((*packed)[t])];
    }
  }

  // Pack core groups.
  if (!core_items.empty()) {
    auto packed = ffd_pack(core_items, shape.core_tmax, shape.cores.size());
    if (!packed.has_value()) return std::nullopt;
    for (std::size_t t = 0; t < core_items.size(); ++t) {
      const std::size_t a = core_item_group[t];
      attempt.op_of_group[problem.groups[gidx[a]].id] =
          shape.cores[static_cast<std::size_t>((*packed)[t])];
    }
  }
  return attempt;
}

// --------------------------------------------------------------------------
// Greedy consolidation heuristic.
// --------------------------------------------------------------------------

std::optional<Attempt> solve_greedy(const PlacementProblem& problem,
                                    const std::vector<std::size_t>& gidx) {
  CapacityPools pools(problem.operators);
  double e_used = 0.0;
  std::set<std::size_t> open;
  Attempt attempt;

  std::vector<std::size_t> order = gidx;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return problem.groups[a].total() > problem.groups[b].total();
  });

  for (std::size_t gi : order) {
    const GroupDemand& g = problem.groups[gi];
    const double load = g.total();
    std::size_t best = problem.operators.size();
    bool best_open = false;
    double best_cost = std::numeric_limits<double>::max();
    for (std::size_t j = 0; j < problem.operators.size(); ++j) {
      const OperatorSpec& op = problem.operators[j];
      if (!op.available || !eligible(g, op)) continue;
      if (pools.remaining(j) + 1e-9 < load) continue;
      const double c = extra_hop_cost(g, op.tier);
      if (e_used + c > problem.extra_hop_budget + 1e-9) continue;
      const bool is_open = open.contains(j);
      // Preference order: (1) an already-open operator with the lowest
      // extra-hop cost — consolidation is the objective; (2) otherwise open
      // the highest-tier operator the hop budget affords (a core can absorb
      // every pod, an agg only its own), breaking ties by cost then by
      // remaining capacity.
      bool better;
      if (best == problem.operators.size()) {
        better = true;
      } else if (is_open != best_open) {
        better = is_open;
      } else if (is_open) {
        better = c < best_cost - 1e-12;
      } else {
        // Opening order: aggregation first (cheap hops, pod-wide reach),
        // then core (expensive hops but global reach), ToR last (one rack
        // per RSNode). The consolidation pass below then folds aggs into
        // cores while the hop budget lasts.
        auto open_rank = [](net::Tier t) {
          switch (t) {
            case net::Tier::kAgg:
              return 0;
            case net::Tier::kCore:
              return 1;
            case net::Tier::kTor:
              return 2;
          }
          return 3;
        };
        const int tj = open_rank(op.tier);
        const int tb = open_rank(problem.operators[best].tier);
        if (tj != tb) {
          better = tj < tb;
        } else if (std::abs(c - best_cost) > 1e-12) {
          better = c < best_cost;
        } else {
          better = pools.remaining(j) > pools.remaining(best);
        }
      }
      if (better) {
        best = j;
        best_open = is_open;
        best_cost = c;
      }
    }
    if (best == problem.operators.size()) return std::nullopt;  // -> DRS path
    pools.consume(best, load);
    e_used += best_cost;
    open.insert(best);
    attempt.op_of_group[g.id] = best;
  }

  // Consolidation: try to close lightly loaded operators by relocating
  // their groups onto other open operators.
  for (int pass = 0; pass < 3; ++pass) {
    bool changed = false;
    for (auto it = open.begin(); it != open.end();) {
      const std::size_t victim = *it;
      // Collect the victim's groups.
      std::vector<std::size_t> members;
      for (std::size_t gi : order) {
        auto a = attempt.op_of_group.find(problem.groups[gi].id);
        if (a != attempt.op_of_group.end() && a->second == victim) {
          members.push_back(gi);
        }
      }
      // Tentatively relocate every member.
      // Candidate destinations: open operators, plus one unopened core —
      // folding several aggs into a fresh core is a net win even though
      // the first fold is count-neutral.
      std::vector<std::size_t> dests(open.begin(), open.end());
      for (std::size_t j = 0; j < problem.operators.size(); ++j) {
        if (problem.operators[j].tier == net::Tier::kCore &&
            problem.operators[j].available && !open.contains(j)) {
          dests.push_back(j);
          break;
        }
      }
      std::vector<std::pair<std::size_t, std::size_t>> moves;  // (gi, dest)
      double e_delta = 0.0;
      CapacityPools trial = pools;
      bool ok = true;
      for (std::size_t gi : members) {
        const GroupDemand& g = problem.groups[gi];
        const double load = g.total();
        const double old_cost =
            extra_hop_cost(g, problem.operators[victim].tier);
        std::size_t dest = problem.operators.size();
        double dest_cost = 0.0;
        for (std::size_t j : dests) {
          if (j == victim) continue;
          const OperatorSpec& op = problem.operators[j];
          if (!op.available || !eligible(g, op)) continue;
          if (trial.remaining(j) + 1e-9 < load) continue;
          const double c = extra_hop_cost(g, op.tier);
          if (e_used + e_delta + (c - old_cost) >
              problem.extra_hop_budget + 1e-9) {
            continue;
          }
          if (dest == problem.operators.size() || c < dest_cost) {
            dest = j;
            dest_cost = c;
          }
        }
        if (dest == problem.operators.size()) {
          ok = false;
          break;
        }
        trial.consume(dest, load);
        e_delta += dest_cost - old_cost;
        moves.emplace_back(gi, dest);
      }
      // Only commit when the move genuinely shrinks the plan: relocating
      // everything onto a *new* core while closing just this victim is
      // count-neutral, but it unlocks further folds next iteration.
      if (ok && !members.empty()) {
        for (const auto& [gi, dest] : moves) {
          const GroupDemand& g = problem.groups[gi];
          pools.release(victim, g.total());
          pools.consume(dest, g.total());
          attempt.op_of_group[g.id] = dest;
          e_used += extra_hop_cost(g, problem.operators[dest].tier) -
                    extra_hop_cost(g, problem.operators[victim].tier);
          open.insert(dest);
        }
        it = open.erase(open.find(victim));
        changed = true;
      } else {
        ++it;
      }
    }
    if (!changed) break;
  }

  attempt.proven_optimal = false;
  return attempt;
}

}  // namespace

// --------------------------------------------------------------------------
// Public API
// --------------------------------------------------------------------------

bool eligible(const GroupDemand& g, const OperatorSpec& op) {
  if (!op.available) return false;
  switch (op.tier) {
    case net::Tier::kCore:
      return true;
    case net::Tier::kAgg:
      return op.pod == g.pod;
    case net::Tier::kTor:
      return op.pod == g.pod && op.rack == g.rack;
  }
  return false;
}

double extra_hop_cost(const GroupDemand& g, net::Tier op_tier) {
  const int h = kGroupTier - net::tier_id(op_tier);
  double cost = 0.0;
  for (int k = 0; k < h; ++k) {
    cost += 2.0 * static_cast<double>(h + k) *
            g.tier_traffic[static_cast<std::size_t>(kGroupTier - k)];
  }
  return cost;
}

PlacementResult tor_placement(const PlacementProblem& problem) {
  PlacementResult res;
  res.method = "tor";
  res.proven_optimal = false;
  std::set<RsNodeId> used;
  for (const GroupDemand& g : problem.groups) {
    bool placed = false;
    for (const OperatorSpec& op : problem.operators) {
      if (op.tier == net::Tier::kTor && op.available && op.pod == g.pod &&
          op.rack == g.rack) {
        res.assignment[g.id] = op.id;
        used.insert(op.id);
        placed = true;
        break;
      }
    }
    if (!placed) res.drs_groups.push_back(g.id);
  }
  res.rsnodes_used = static_cast<int>(used.size());
  return res;
}

bool validate_placement(const PlacementProblem& problem,
                        const PlacementResult& result, double tol) {
  std::map<RsNodeId, const OperatorSpec*> by_id;
  for (const OperatorSpec& op : problem.operators) by_id[op.id] = &op;

  CapacityPools pools(problem.operators);
  std::map<RsNodeId, std::size_t> op_index;
  for (std::size_t j = 0; j < problem.operators.size(); ++j) {
    op_index[problem.operators[j].id] = j;
  }

  double cost = 0.0;
  for (const GroupDemand& g : problem.groups) {
    const bool drs = std::find(result.drs_groups.begin(),
                               result.drs_groups.end(),
                               g.id) != result.drs_groups.end();
    auto it = result.assignment.find(g.id);
    if (drs != (it == result.assignment.end())) return false;  // exactly one
    if (drs) continue;
    auto oi = op_index.find(it->second);
    if (oi == op_index.end()) return false;
    const OperatorSpec& op = problem.operators[oi->second];
    if (!eligible(g, op)) return false;
    pools.consume(oi->second, g.total());
    cost += extra_hop_cost(g, op.tier);
  }
  for (std::size_t j = 0; j < problem.operators.size(); ++j) {
    if (pools.remaining(j) < -tol * std::max(1.0, problem.operators[j].t_max)) {
      return false;
    }
  }
  if (cost > problem.extra_hop_budget + tol * (1.0 + cost)) return false;
  return std::abs(cost - result.extra_hops_used) <=
         tol * (1.0 + std::abs(cost));
}

PlacementResult solve_placement(const PlacementProblem& problem,
                                const PlacementOptions& opts) {
  // kAuto uses the full ILP up to this many P variables; beyond that the
  // pod-symmetry-reduced model (or greedy) takes over. The dense-tableau
  // simplex makes large full models expensive.
  constexpr std::size_t kFullIlpVarLimit = 220;
  // Above this many traffic groups even the reduced model's tableau gets
  // too large for the dense simplex (host-level groups on a 16-ary tree
  // are 1024 groups); the greedy consolidation heuristic takes over.
  constexpr std::size_t kReducedIlpGroupLimit = 320;

  // DRS fallback loop (§III-C case i): shed the highest-traffic group until
  // a feasible plan exists for the rest.
  std::vector<std::size_t> gidx(problem.groups.size());
  for (std::size_t i = 0; i < gidx.size(); ++i) gidx[i] = i;
  std::vector<GroupId> drs;

  const auto shape = reduced_shape(problem);
  std::size_t pair_count = 0;
  for (const GroupDemand& g : problem.groups) {
    for (const OperatorSpec& op : problem.operators) {
      if (eligible(g, op)) ++pair_count;
    }
  }

  PlacementMethod method = opts.method;
  if (method == PlacementMethod::kAuto) {
    if (pair_count <= kFullIlpVarLimit) {
      method = PlacementMethod::kFullIlp;
    } else if (shape.has_value()) {
      method = PlacementMethod::kReducedIlp;
    } else {
      method = PlacementMethod::kGreedy;
    }
  }

  while (true) {
    std::optional<Attempt> attempt;
    std::string name;
    switch (method) {
      case PlacementMethod::kFullIlp:
        attempt = solve_full_ilp(problem, gidx, opts);
        name = "full-ilp";
        break;
      case PlacementMethod::kReducedIlp:
        name = "reduced-ilp";
        if (shape.has_value() &&
            gidx.size() <= kReducedIlpGroupLimit) {
          // ToR placements burn a whole RSNode on one rack, so the optimum
          // almost never uses them; try the smaller ToR-free model first.
          attempt = solve_reduced_ilp(problem, gidx, *shape, opts,
                                      /*allow_tor=*/false);
          if (!attempt.has_value()) {
            attempt = solve_reduced_ilp(problem, gidx, *shape, opts,
                                        /*allow_tor=*/true);
          }
        }
        if (!attempt.has_value()) {
          attempt = solve_greedy(problem, gidx);
          if (attempt.has_value()) name = "greedy";
        }
        break;
      case PlacementMethod::kGreedy:
      case PlacementMethod::kAuto:
        attempt = solve_greedy(problem, gidx);
        name = "greedy";
        break;
    }

    if (attempt.has_value()) {
      PlacementResult res = finalize(problem, *attempt, drs, name);
      if (validate_placement(problem, res)) return res;
      // A concretization slipped past a constraint: degrade one group and
      // retry rather than deploy an invalid plan.
    }

    if (gidx.empty()) {
      // Everything degraded: pure-DRS plan.
      PlacementResult res;
      res.method = name.empty() ? "drs-only" : name + "+drs-only";
      res.drs_groups = drs;
      return res;
    }
    // Shed the highest-traffic remaining group (the paper degrades the
    // highest-traffic groups first so clients with lots of traffic keep
    // reasonably fresh local information).
    std::size_t worst = 0;
    for (std::size_t a = 1; a < gidx.size(); ++a) {
      if (problem.groups[gidx[a]].total() >
          problem.groups[gidx[worst]].total()) {
        worst = a;
      }
    }
    drs.push_back(problem.groups[gidx[worst]].id);
    gidx.erase(gidx.begin() + static_cast<std::ptrdiff_t>(worst));
  }
}

}  // namespace netrs::core
