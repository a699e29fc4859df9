#include "obs/decision.hpp"

#include <algorithm>
#include <deque>
#include <string>
#include <tuple>
#include <utility>

#include "obs/metrics.hpp"

namespace netrs::obs {
namespace {

/// Formats a score/regret for CSV output; -1 marks an absent value (real
/// values are always >= 0 for regret; scores use format_metric_value, so
/// collisions with real -1 scores are acceptable: consumers key on the
/// paired has_* CSV semantics, and no selector emits negative scores).
std::string optional_value(bool has, double v) {
  return has ? format_metric_value(v) : std::string("-1");
}

}  // namespace

double oracle_cost_ns(const OracleServerState& s) {
  const int np = s.parallelism > 0 ? s.parallelism : 1;
  return static_cast<double>(s.mean_service_time) *
         (1.0 + static_cast<double>(s.queue_size) / static_cast<double>(np));
}

void DecisionRecorder::on_decision(std::int32_t node, sim::Time now,
                                   std::span<const net::HostId> candidates,
                                   net::HostId chosen,
                                   std::span<const double> scores,
                                   std::span<const sim::Duration> ages) {
  if (!enabled_ || chosen == net::kInvalidHost) return;
  DecisionLog::Pick pick;
  pick.t = now;
  pick.node = node;
  pick.node_seq = node_seq_[node]++;
  pick.chosen = chosen;
  pick.cand_begin = static_cast<std::uint32_t>(log_.cand_pool.size());
  pick.cand_count = static_cast<std::uint32_t>(candidates.size());
  log_.cand_pool.insert(log_.cand_pool.end(), candidates.begin(),
                        candidates.end());
  std::size_t chosen_idx = candidates.size();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i] == chosen) {
      chosen_idx = i;
      break;
    }
  }
  if (chosen_idx < scores.size()) {
    pick.score = scores[chosen_idx];
    pick.has_score = true;
  }
  if (chosen_idx < ages.size() && ages[chosen_idx] >= 0) {
    pick.staleness = ages[chosen_idx];
    pick.has_staleness = true;
  }
  log_.picks.push_back(pick);
}

void DecisionRecorder::on_server_state(net::HostId host, sim::Time t,
                                       std::uint32_t queue_size,
                                       int parallelism, sim::Duration mean) {
  if (!enabled_) return;
  log_.states.push_back(
      DecisionLog::ServerState{t, host, queue_size, parallelism, mean});
}

DecisionSnapshot replay_decisions(const std::vector<DecisionLog>& logs,
                                  sim::Duration herd_window,
                                  sim::Time measure_from) {
  // Merge all picks into the canonical (t, node, node_seq) order. The
  // pick keeps a pointer to its source log so candidates resolve from the
  // right pool.
  struct MergedPick {
    const DecisionLog::Pick* pick = nullptr;
    const DecisionLog* log = nullptr;
  };
  std::vector<MergedPick> picks;
  // Oracle journal: per-host state transitions, time-ordered. Ordered map
  // (unordered containers are banned in the obs tree).
  std::map<net::HostId, std::vector<DecisionLog::ServerState>> journal;
  for (const DecisionLog& log : logs) {
    for (const DecisionLog::Pick& p : log.picks) {
      picks.push_back(MergedPick{&p, &log});
    }
    for (const DecisionLog::ServerState& s : log.states) {
      journal[s.host].push_back(s);
    }
  }
  std::stable_sort(picks.begin(), picks.end(),
                   [](const MergedPick& a, const MergedPick& b) {
                     return std::tie(a.pick->t, a.pick->node,
                                     a.pick->node_seq) <
                            std::tie(b.pick->t, b.pick->node,
                                     b.pick->node_seq);
                   });
  // A host's journal lives in one log (one server = one shard) and is
  // appended in time order; the sort is a guard, not a requirement.
  for (auto& [host, states] : journal) {
    std::stable_sort(states.begin(), states.end(),
                     [](const DecisionLog::ServerState& a,
                        const DecisionLog::ServerState& b) {
                       return a.t < b.t;
                     });
  }
  // Last journaled state at or before `t`; invalid when the host was
  // never journaled or first appears later.
  const auto oracle_at = [&journal](net::HostId host,
                                    sim::Time t) -> OracleServerState {
    OracleServerState out;
    const auto jt = journal.find(host);
    if (jt == journal.end()) return out;
    const std::vector<DecisionLog::ServerState>& states = jt->second;
    const auto it = std::upper_bound(
        states.begin(), states.end(), t,
        [](sim::Time lhs, const DecisionLog::ServerState& s) {
          return lhs < s.t;
        });
    if (it == states.begin()) return out;
    const DecisionLog::ServerState& s = *std::prev(it);
    out.valid = true;
    out.queue_size = s.queue_size;
    out.parallelism = s.parallelism;
    out.mean_service_time = s.mean;
    return out;
  };

  DecisionSnapshot snap;
  snap.enabled = true;
  snap.observed = picks.size();
  // Trailing herd window over the merged stream: (time, server) picks
  // plus per-server counts. Every pick enters it, warmup included, so the
  // first measured records see a fully warmed window.
  std::deque<std::pair<sim::Time, net::HostId>> window_picks;
  std::map<net::HostId, std::uint32_t> window_counts;
  for (const MergedPick& mp : picks) {
    const DecisionLog::Pick& p = *mp.pick;
    const sim::Time horizon = p.t - herd_window;
    while (!window_picks.empty() && window_picks.front().first <= horizon) {
      const auto cit = window_counts.find(window_picks.front().second);
      if (cit != window_counts.end() && --cit->second == 0) {
        window_counts.erase(cit);
      }
      window_picks.pop_front();
    }
    window_picks.emplace_back(p.t, p.chosen);
    ++window_counts[p.chosen];

    if (p.t < measure_from) continue;

    DecisionRecord rec;
    rec.t = p.t;
    rec.node = p.node;
    rec.chosen = p.chosen;
    rec.candidates = p.cand_count;
    rec.herd = static_cast<double>(window_counts[p.chosen]) /
               static_cast<double>(window_picks.size());
    rec.chosen_score = p.score;
    rec.has_score = p.has_score;
    rec.staleness = p.staleness;
    rec.has_staleness = p.has_staleness;

    if (p.cand_count > 0) {
      double best = 0.0;
      double chosen_cost = 0.0;
      bool all_valid = true;
      bool chosen_valid = false;
      bool first = true;
      for (std::uint32_t i = 0; i < p.cand_count; ++i) {
        const net::HostId host = mp.log->cand_pool[p.cand_begin + i];
        const OracleServerState s = oracle_at(host, p.t);
        if (!s.valid) {
          all_valid = false;
          break;
        }
        const double cost = oracle_cost_ns(s);
        if (first || cost < best) best = cost;
        first = false;
        if (host == p.chosen) {
          chosen_cost = cost;
          chosen_valid = true;
        }
      }
      if (all_valid && chosen_valid) {
        rec.regret_ns = chosen_cost - best;
        if (rec.regret_ns < 0) rec.regret_ns = 0;  // float-order guard
        rec.has_regret = true;
      }
    }
    snap.records.push_back(rec);
  }
  return snap;
}

void DecisionSummary::merge(const DecisionSnapshot& snap) {
  if (!snap.enabled) return;
  enabled = true;
  for (const DecisionRecord& r : snap.records) {
    ++decisions;
    herd.add(r.herd);
    if (r.has_regret) {
      ++with_regret;
      regret_ms.add(r.regret_ns * 1e-6);
    }
    if (r.has_staleness) {
      ++with_feedback;
      staleness_ms.add(sim::to_millis(r.staleness));
    }
  }
}

void DecisionSummary::finalize() {
  regret_ms.finalize();
  staleness_ms.finalize();
  herd.finalize();
}

void write_decision_csv(std::ostream& os,
                        const std::vector<DecisionSnapshot>& repeats) {
  os << "repeat,time_us,node,chosen,candidates,score,regret_ns,staleness_ns,"
        "herd\n";
  for (std::size_t rep = 0; rep < repeats.size(); ++rep) {
    for (const DecisionRecord& r : repeats[rep].records) {
      os << rep << ',' << format_time_us(r.t) << ',' << r.node << ','
         << r.chosen << ',' << r.candidates << ','
         << optional_value(r.has_score, r.chosen_score) << ','
         << optional_value(r.has_regret, r.regret_ns) << ','
         << (r.has_staleness ? std::to_string(r.staleness)
                             : std::string("-1"))
         << ',' << format_metric_value(r.herd) << '\n';
    }
  }
}

}  // namespace netrs::obs
