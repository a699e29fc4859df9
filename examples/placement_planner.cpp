// Example: the RSNodes-placement planner (§III) as a standalone tool.
//
// Builds the placement problem for a k-ary fat-tree under a given system
// utilization and extra-hop budget, solves it with the ILP (and the other
// methods for comparison), and prints the Replica Selection Plan the NetRS
// controller would deploy — including the per-tier RSNode breakdown the
// paper quotes ("an RSP from NetRS-ILP consists of 6 RSNodes on
// aggregation switches and 1 RSNode on a core switch").
//
// Usage: placement_planner [k] [utilization] [hop_budget_fraction]
#include <chrono>
#include <cstdio>
#include <exception>
#include <limits>
#include <map>

#include "harness/config.hpp"
#include "net/fat_tree.hpp"
#include "netrs/placement.hpp"
#include "sim/rng.hpp"

using namespace netrs;

namespace {

core::PlacementProblem build_problem(const net::FatTree& topo,
                                     double utilization,
                                     double hop_fraction) {
  // Paper parameters: Ns=100 servers x Np=4 slots at tkv=4ms.
  const double aggregate = utilization * 100.0 * 4.0 / 0.004;
  core::PlacementProblem p;
  sim::Rng rng(1);
  for (int r = 0; r < topo.racks(); ++r) {
    core::GroupDemand g;
    g.id = static_cast<core::GroupId>(r);
    g.pod = r / topo.tors_per_pod();
    g.rack = r % topo.tors_per_pod();
    // Random client/server placement makes ~94% of traffic inter-pod.
    const double load =
        aggregate / topo.racks() * (0.8 + 0.4 * rng.next_double());
    g.tier_traffic[0] = load * 0.94;
    g.tier_traffic[1] = load * 0.05;
    g.tier_traffic[2] = load * 0.01;
    p.groups.push_back(g);
  }
  core::RsNodeId id = 1;
  for (net::NodeId sw : topo.all_switches()) {
    core::OperatorSpec op;
    op.id = id++;
    op.sw = sw;
    const net::SwitchCoord c = topo.coord(sw);
    op.tier = c.tier;
    op.pod = c.pod;
    op.rack = c.idx;
    // Tmax = U * cores / (request + response service) = 0.5 / 6us.
    op.t_max = 0.5 / 6e-6;
    p.operators.push_back(op);
  }
  p.extra_hop_budget = hop_fraction * aggregate;
  return p;
}

void report(const char* name, const core::PlacementProblem& p,
            const core::PlacementResult& res, double seconds) {
  std::map<net::Tier, int> per_tier;
  std::map<core::RsNodeId, net::Tier> tier_of;
  for (const auto& op : p.operators) tier_of[op.id] = op.tier;
  std::map<core::RsNodeId, int> groups_per_node;
  for (const auto& [g, rid] : res.assignment) {
    (void)g;
    ++groups_per_node[rid];
  }
  for (const auto& [rid, n] : groups_per_node) {
    (void)n;
    ++per_tier[tier_of[rid]];
  }
  std::printf(
      "%-12s %3d RSNodes (core %d, agg %d, tor %d)  hops %8.0f / %8.0f  "
      "DRS %zu  optimal=%s  %.3fs\n",
      name, res.rsnodes_used, per_tier[net::Tier::kCore],
      per_tier[net::Tier::kAgg], per_tier[net::Tier::kTor],
      res.extra_hops_used, p.extra_hop_budget, res.drs_groups.size(),
      res.proven_optimal ? "yes" : "no", seconds);
}

int run(int argc, char** argv) {
  const int k =
      argc > 1 ? static_cast<int>(harness::parse_count(
                     "k", argv[1], std::numeric_limits<int>::max()))
               : 16;
  const double util =
      argc > 2 ? harness::parse_real("utilization", argv[2]) : 0.9;
  const double frac =
      argc > 3 ? harness::parse_real("hop_budget_fraction", argv[3]) : 0.2;

  const net::FatTree topo(k);
  const core::PlacementProblem p = build_problem(topo, util, frac);
  std::printf(
      "Placement problem: %d-ary fat-tree, %zu rack groups, %zu operators, "
      "utilization %.0f%%, E = %.0f%% of the aggregate rate\n\n",
      k, p.groups.size(), p.operators.size(), util * 100.0, frac * 100.0);

  struct MethodRow {
    const char* name;
    core::PlacementMethod method;
  };
  const MethodRow methods[] = {
      {"reduced-ilp", core::PlacementMethod::kReducedIlp},
      {"greedy", core::PlacementMethod::kGreedy},
  };
  for (const auto& m : methods) {
    core::PlacementOptions opts;
    opts.method = m.method;
    // netrs-lint: allow(wall-clock): the example reports solver wall time to the user; it never feeds back into simulated results.
    const auto t0 = std::chrono::steady_clock::now();
    const core::PlacementResult res = core::solve_placement(p, opts);
    const double dt = std::chrono::duration<double>(
                          // netrs-lint: allow(wall-clock): the example reports solver wall time to the user; it never feeds back into simulated results.
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (!core::validate_placement(p, res)) {
      std::printf("%-12s produced an INVALID plan!\n", m.name);
      return 1;
    }
    report(m.name, p, res, dt);
  }

  // The baseline the paper compares against: one RSNode per ToR.
  const core::PlacementResult tor = core::tor_placement(p);
  report("tor-plan", p, tor, 0.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A rejected argument (not a whole count or number, an odd k) is a
  // usage error, not a crash.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "placement_planner: %s\n", e.what());
    return 2;
  }
}
