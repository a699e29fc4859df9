#include "netrs/controller.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace netrs::core {

Controller::Controller(sim::Simulator& sim, const net::FatTree& topo,
                       const TrafficGroups& groups,
                       std::vector<NetRSOperator*> operators,
                       ControllerConfig cfg)
    : sim_(sim),
      topo_(topo),
      groups_(groups),
      operators_(std::move(operators)),
      cfg_(cfg),
      rates_(groups.group_count()) {
  for (NetRSOperator* op : operators_) {
    assert(op != nullptr);
    by_id_[op->id()] = op;
  }
}

double Controller::capacity_of(const NetRSOperator& op) const {
  const AcceleratorConfig& a = op.accelerator().config();
  // Tmax = U * c / t, with t the accelerator time a selected request costs
  // (ranking the request plus absorbing its cloned response).
  const double per_request_s = sim::to_seconds(a.request_service_time +
                                               a.response_service_time);
  return cfg_.utilization_cap * static_cast<double>(a.cores) / per_request_s;
}

void Controller::start() {
  if (started_) return;
  started_ = true;
  last_collect_ = sim_.now();

  // Bootstrap: the ToR plan needs no statistics and keeps every packet in
  // its default path while monitors warm up.
  install(tor_plan());

  sim_.every(cfg_.replan_interval, [this] {
    replan();
    return true;
  });
}

void Controller::collect_stats() {
  const sim::Time now = sim_.now();
  const double window_s = sim::to_seconds(now - last_collect_);
  last_collect_ = now;
  if (window_s <= 0.0) return;

  std::ranges::fill(rates_, GroupRate{});
  have_rates_ = false;
  for (NetRSOperator* op : operators_) {
    Monitor* mon = op->monitor();
    if (mon == nullptr) continue;
    const auto counts = mon->counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      const Monitor::TierCounts& c = counts[i];
      if (c[0] + c[1] + c[2] == 0) continue;
      GroupRate& r = rates_[mon->first_group() + i];
      for (int t = 0; t < 3; ++t) {
        r.responses += c[static_cast<std::size_t>(t)];
        r.tier[t] +=
            static_cast<double>(c[static_cast<std::size_t>(t)]) / window_s;
      }
      have_rates_ = true;
    }
    mon->reset();
    op->accelerator().reset_utilization(now);
  }
}

PlacementProblem Controller::build_problem() const {
  PlacementProblem problem;
  double aggregate = 0.0;
  // rates_ is indexed by GroupId, so the solver sees groups (and creates
  // its variables) in the same order every run regardless of the order
  // monitors reported them.
  for (GroupId group = 0; group < rates_.size(); ++group) {
    const GroupRate& r = rates_[group];
    if (r.responses == 0) continue;
    GroupDemand g;
    g.id = group;
    g.pod = groups_.pod_of_group(group);
    g.rack = groups_.rack_of_group(group) % topo_.tors_per_pod();
    for (int t = 0; t < 3; ++t) {
      g.tier_traffic[static_cast<std::size_t>(t)] = r.tier[t];
    }
    aggregate += g.total();
    problem.groups.push_back(g);
  }
  problem.extra_hop_budget = cfg_.extra_hop_fraction * aggregate;

  problem.operators.reserve(operators_.size());
  for (const NetRSOperator* op : operators_) {
    OperatorSpec spec;
    spec.id = op->id();
    spec.sw = op->switch_node();
    const net::SwitchCoord c = topo_.coord(op->switch_node());
    spec.tier = c.tier;
    spec.pod = c.pod;
    spec.rack = c.idx;
    spec.t_max = capacity_of(*op);
    spec.accel_share = op->accel_share_id();
    spec.available = !failed_.contains(op->id());
    problem.operators.push_back(spec);
  }
  return problem;
}

void Controller::replan() {
  // Overload handling (§III-C case ii): before planning, degrade the groups
  // of any active RSNode whose accelerator ran hotter than the cap.
  if (cfg_.overload_utilization <= 1.0) {
    for (NetRSOperator* op : operators_) {
      if (!active_.contains(op->id())) continue;
      if (op->accelerator().utilization(sim_.now()) >
          cfg_.overload_utilization) {
        fail_operator(op->id());
      }
    }
  }

  collect_stats();
  if (cfg_.mode == PlanMode::kTor) {
    // Static plan; reinstalling folds in any failed-operator changes.
    install(tor_plan());
    return;
  }
  if (!have_rates_) return;  // no traffic observed yet: keep current plan
  const bool have_ilp_plan = plan_.method != "tor";
  if (have_ilp_plan && sim_.now() - last_solve_ < cfg_.rsp_update_interval) {
    return;  // keep the current RSP (stable workloads, §II)
  }
  last_solve_ = sim_.now();
  install(solve_placement(build_problem(), cfg_.placement));
}

void Controller::install(const PlacementResult& plan) {
  if (cfg_.on_plan_change) cfg_.on_plan_change(plan);
  ++deployed_;
  // The ToR tables: every group defaults to DRS unless assigned. Most
  // replans redeploy the installed plan (every NetRS-ToR replan), so an
  // unchanged table is kept rather than swapped for an equal copy.
  next_table_.assign(groups_.group_count(), kRidIllegal);
  for (const auto& [group, rid] : plan.assignment) {
    if (group < next_table_.size() && !failed_.contains(rid)) {
      next_table_[group] = rid;
    }
  }
  if (rid_table_ == nullptr || *rid_table_ != next_table_) {
    rid_table_ = std::make_shared<const GroupRidTable>(next_table_);
    for (NetRSOperator* op : operators_) {
      if (op->monitor() != nullptr) {
        op->rules().update_rid_table(rid_table_);
      }
    }
  }

  // Fresh RSNodes start with an empty view of the system (§II). The
  // active set follows the assignment, so an unchanged one keeps it.
  if (plan.assignment != plan_.assignment) {
    std::set<RsNodeId> next_active;
    for (const auto& [group, rid] : plan.assignment) {
      (void)group;
      next_active.insert(rid);
    }
    for (RsNodeId id : next_active) {
      if (!active_.contains(id)) {
        auto it = by_id_.find(id);
        if (it != by_id_.end()) it->second->reset_selector();
      }
    }
    active_ = std::move(next_active);
  }
  plan_ = plan;
}

const PlacementResult& Controller::tor_plan() {
  if (!tor_plan_stale_) return tor_plan_;
  tor_plan_stale_ = false;
  PlacementResult& plan = tor_plan_;
  plan = PlacementResult{};
  plan.method = "tor";
  std::unordered_map<net::NodeId, RsNodeId> op_of_switch;
  for (const NetRSOperator* op : operators_) {
    if (!failed_.contains(op->id())) op_of_switch[op->switch_node()] = op->id();
  }
  std::set<RsNodeId> used;
  for (GroupId g = 0; g < groups_.group_count(); ++g) {
    auto it = op_of_switch.find(groups_.tor_of_group(g));
    if (it == op_of_switch.end()) {
      plan.drs_groups.push_back(g);
    } else {
      plan.assignment[g] = it->second;
      used.insert(it->second);
    }
  }
  plan.rsnodes_used = static_cast<int>(used.size());
  return plan;
}

void Controller::fail_operator(RsNodeId id) {
  if (!failed_.insert(id).second) return;
  tor_plan_stale_ = true;
  // Immediate mitigation: degrade every group currently mapped to it.
  PlacementResult patched = plan_;
  bool touched = false;
  for (auto it = patched.assignment.begin(); it != patched.assignment.end();) {
    if (it->second == id) {
      patched.drs_groups.push_back(it->first);
      it = patched.assignment.erase(it);
      touched = true;
    } else {
      ++it;
    }
  }
  if (touched || active_.contains(id)) {
    patched.rsnodes_used =
        plan_.rsnodes_used - (active_.contains(id) ? 1 : 0);
    install(patched);
  }
}

void Controller::restore_operator(RsNodeId id) {
  if (failed_.erase(id) > 0) tor_plan_stale_ = true;
}

void Controller::replan_now() { replan(); }

}  // namespace netrs::core
