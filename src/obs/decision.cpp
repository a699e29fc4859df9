#include "obs/decision.hpp"

#include <algorithm>
#include <cassert>
#include <tuple>
#include <utility>

#include "obs/text_sink.hpp"
#include "sim/radix_sort.hpp"

namespace netrs::obs {

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
  // Slot node + 1: an RSNode without a trace tid decides as node -1.
  assert(node >= -1 && "decision node must be a trace tid or -1");
  const auto slot = static_cast<std::size_t>(node + 1);
  if (slot >= node_seq_.size()) node_seq_.resize(slot + 1, 0);
  pick.node_seq = node_seq_[slot]++;
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

DecisionSnapshot replay_decisions(std::vector<DecisionLog> logs,
                                  sim::Duration herd_window,
                                  sim::Time measure_from) {
  // The union of all logs as one flat log (the first is moved, not
  // copied); later logs' candidate offsets are re-based onto the merged
  // pool.
  DecisionLog all;
  for (std::size_t i = 0; i < logs.size(); ++i) {
    DecisionLog& log = logs[i];
    if (i == 0) {
      all = std::move(log);
      continue;
    }
    const auto base = static_cast<std::uint32_t>(all.cand_pool.size());
    for (DecisionLog::Pick p : log.picks) {
      p.cand_begin += base;
      all.picks.push_back(p);
    }
    all.cand_pool.insert(all.cand_pool.end(), log.cand_pool.begin(),
                         log.cand_pool.end());
    all.states.insert(all.states.end(), log.states.begin(),
                      log.states.end());
  }
  // Canonical pick order (time, node, per-node sequence). One log's
  // picks are appended in time order, so the sort rarely runs.
  const auto by_decision = [](const DecisionLog::Pick& a,
                              const DecisionLog::Pick& b) {
    return std::tie(a.t, a.node, a.node_seq) <
           std::tie(b.t, b.node, b.node_seq);
  };
  if (!std::is_sorted(all.picks.begin(), all.picks.end(), by_decision)) {
    std::stable_sort(all.picks.begin(), all.picks.end(), by_decision);
  }

  // Oracle journal grouped by host (a stable sort, so each host's entries
  // keep their record order), then each host's entries in time order. A
  // host's journal lives in one log (one server = one shard) and is
  // appended in time order; the time sort is a guard, not a requirement.
  std::vector<DecisionLog::ServerState>& journal = all.states;
  sim::radix_sort(journal, [](const DecisionLog::ServerState& s) {
    return std::uint64_t{s.host};
  });
  const std::size_t hosts =
      journal.empty() ? 0 : std::size_t{journal.back().host} + 1;
  // journal_begin[h]: first entry of host h (dense host ids).
  std::vector<std::size_t> journal_begin(hosts + 1, 0);
  for (const DecisionLog::ServerState& s : journal) {
    ++journal_begin[s.host + 1];
  }
  const auto by_time = [](const DecisionLog::ServerState& a,
                          const DecisionLog::ServerState& b) {
    return a.t < b.t;
  };
  for (std::size_t h = 0; h < hosts; ++h) {
    journal_begin[h + 1] += journal_begin[h];
    const auto first = journal.begin() + journal_begin[h];
    const auto last = journal.begin() + journal_begin[h + 1];
    if (!std::is_sorted(first, last, by_time)) {
      std::stable_sort(first, last, by_time);
    }
  }
  // Picks are replayed in time order, so each host's "last journaled
  // state at or before t" only moves forward: one cursor per host (one
  // past that state) replaces a search per lookup.
  std::vector<std::size_t> cursor(journal_begin.begin(),
                                  journal_begin.end() - 1);
  const auto oracle_at = [&](net::HostId host,
                             sim::Time t) -> OracleServerState {
    OracleServerState out;
    if (host >= hosts) return out;
    std::size_t& c = cursor[host];
    while (c < journal_begin[host + 1] && journal[c].t <= t) ++c;
    if (c == journal_begin[host]) return out;
    const DecisionLog::ServerState& s = journal[c - 1];
    out.valid = true;
    out.queue_size = s.queue_size;
    out.parallelism = s.parallelism;
    out.mean_service_time = s.mean;
    return out;
  };

  DecisionSnapshot snap;
  snap.enabled = true;
  snap.observed = all.picks.size();
  snap.records.reserve(all.picks.size());
  // Trailing herd window over the merged stream: the picks in
  // [tail, current] of the time-sorted array, plus dense per-server
  // counts. Every pick enters it, warmup included, so the first measured
  // records see a fully warmed window.
  std::size_t servers = 0;
  for (const DecisionLog::Pick& p : all.picks) {
    servers = std::max<std::size_t>(servers, std::size_t{p.chosen} + 1);
  }
  std::vector<std::uint32_t> window_counts(servers, 0);
  std::size_t tail = 0;
  for (std::size_t i = 0; i < all.picks.size(); ++i) {
    const DecisionLog::Pick& p = all.picks[i];
    const sim::Time horizon = p.t - herd_window;
    while (tail < i && all.picks[tail].t <= horizon) {
      --window_counts[all.picks[tail].chosen];
      ++tail;
    }
    ++window_counts[p.chosen];

    if (p.t < measure_from) continue;

    DecisionRecord rec;
    rec.t = p.t;
    rec.node = p.node;
    rec.chosen = p.chosen;
    rec.candidates = p.cand_count;
    rec.herd = static_cast<double>(window_counts[p.chosen]) /
               static_cast<double>(i + 1 - tail);
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
      for (std::uint32_t c = 0; c < p.cand_count; ++c) {
        const net::HostId host = all.cand_pool[p.cand_begin + c];
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
  TextSink out(os);
  out.put("repeat,time_us,node,chosen,candidates,score,regret_ns,"
          "staleness_ns,herd\n");
  for (std::size_t rep = 0; rep < repeats.size(); ++rep) {
    for (const DecisionRecord& r : repeats[rep].records) {
      out.put_int(rep).put(',').put_time_us(r.t).put(',').put_int(r.node)
          .put(',').put_int(r.chosen).put(',').put_int(r.candidates)
          .put(',');
      // Absent values print as -1 (real regrets and staleness are >= 0,
      // and no selector emits negative scores).
      r.has_score ? out.put_metric(r.chosen_score) : out.put("-1");
      out.put(',');
      r.has_regret ? out.put_metric(r.regret_ns) : out.put("-1");
      out.put(',');
      r.has_staleness ? out.put_int(r.staleness) : out.put("-1");
      out.put(',').put_metric(r.herd).put('\n');
    }
  }
}

}  // namespace netrs::obs
