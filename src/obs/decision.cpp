#include "obs/decision.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <tuple>
#include <utility>

#include "obs/text_sink.hpp"

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

void DecisionSnapshot::clear() {
  records.clear();
  observed = 0;
}

namespace {

// Canonical pick order: (time, node, per-node sequence). The key is
// unique within a lane (one recorder numbers each node's picks).
bool pick_before(const DecisionLog::Pick& a, const DecisionLog::Pick& b) {
  return std::tie(a.t, a.node, a.node_seq) <
         std::tie(b.t, b.node, b.node_seq);
}

}  // namespace

void DecisionReplay::apply_journal(std::span<DecisionRecorder* const> lanes,
                                   sim::Time t) {
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    const std::vector<DecisionLog::ServerState>& states =
        lanes[l]->log_.states;
    for (std::size_t& i = journal_next_[l];
         i < journal_cut_[l] && states[i].t <= t; ++i) {
      const DecisionLog::ServerState& s = states[i];
      if (s.host >= oracle_.size()) oracle_.resize(std::size_t{s.host} + 1);
      oracle_[s.host] = {true, s.queue_size, s.parallelism, s.mean};
    }
  }
}

void DecisionReplay::flush(std::span<DecisionRecorder* const> lanes,
                           sim::Time watermark, DecisionSnapshot& chunk) {
  // Each lane's cut: its picks and journal entries before the watermark.
  // A lane is logged in its shard's time order, so only same-instant picks
  // can be out of order, and the sort rarely runs.
  pick_next_.assign(lanes.size(), 0);
  pick_cut_.assign(lanes.size(), 0);
  journal_next_.assign(lanes.size(), 0);
  journal_cut_.assign(lanes.size(), 0);
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    DecisionLog& log = lanes[l]->log_;
    if (!std::is_sorted(log.picks.begin(), log.picks.end(), pick_before)) {
      std::sort(log.picks.begin(), log.picks.end(), pick_before);
    }
    pick_cut_[l] = static_cast<std::size_t>(
        std::partition_point(log.picks.begin(), log.picks.end(),
                             [watermark](const DecisionLog::Pick& p) {
                               return p.t < watermark;
                             }) -
        log.picks.begin());
    journal_cut_[l] = static_cast<std::size_t>(
        std::partition_point(log.states.begin(), log.states.end(),
                             [watermark](const DecisionLog::ServerState& s) {
                               return s.t < watermark;
                             }) -
        log.states.begin());
  }

  for (;;) {
    // The next pick in canonical order: the smallest lane head, the lower
    // lane on a tie (the order of the lanes concatenated and stably
    // sorted).
    std::size_t lane = lanes.size();
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      if (pick_next_[l] == pick_cut_[l]) continue;
      if (lane == lanes.size() ||
          pick_before(lanes[l]->log_.picks[pick_next_[l]],
                      lanes[lane]->log_.picks[pick_next_[lane]])) {
        lane = l;
      }
    }
    if (lane == lanes.size()) break;
    const DecisionLog& log = lanes[lane]->log_;
    const DecisionLog::Pick& p = log.picks[pick_next_[lane]++];
    ++chunk.observed;
    apply_journal(lanes, p.t);

    // Trailing herd window over the merged stream. Every pick enters it,
    // warmup included, so the first measured records see a warmed window.
    const sim::Time horizon = p.t - herd_window_;
    while (!window_.empty() && window_[0].t <= horizon) {
      --window_counts_[window_[0].chosen];
      window_.pop_front();
    }
    window_.push_back({p.t, p.chosen});
    if (p.chosen >= window_counts_.size()) {
      window_counts_.resize(std::size_t{p.chosen} + 1, 0);
    }
    ++window_counts_[p.chosen];

    if (p.t < measure_from_) continue;

    DecisionRecord rec;
    rec.t = p.t;
    rec.node = p.node;
    rec.chosen = p.chosen;
    rec.candidates = p.cand_count;
    rec.herd = static_cast<double>(window_counts_[p.chosen]) /
               static_cast<double>(window_.size());
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
        const net::HostId host = log.cand_pool[p.cand_begin + c];
        if (host >= oracle_.size() || !oracle_[host].valid) {
          all_valid = false;
          break;
        }
        const double cost = oracle_cost_ns(oracle_[host]);
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
    chunk.records.push_back(rec);
  }
  // The journal entries after the last pick still count for later chunks.
  apply_journal(lanes, std::numeric_limits<sim::Time>::max());

  // Drop what was replayed. The kept picks (at or after the watermark)
  // were logged after every replayed one, so their candidates follow the
  // replayed picks' in the pool.
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    DecisionLog& log = lanes[l]->log_;
    const auto kept = log.picks.begin() +
                      static_cast<std::ptrdiff_t>(pick_cut_[l]);
    std::uint32_t pool_cut =
        static_cast<std::uint32_t>(log.cand_pool.size());
    for (auto it = kept; it != log.picks.end(); ++it) {
      pool_cut = std::min(pool_cut, it->cand_begin);
    }
    for (auto it = kept; it != log.picks.end(); ++it) {
      it->cand_begin -= pool_cut;
    }
    log.picks.erase(log.picks.begin(), kept);
    log.cand_pool.erase(log.cand_pool.begin(),
                        log.cand_pool.begin() + pool_cut);
    log.states.erase(log.states.begin(),
                     log.states.begin() +
                         static_cast<std::ptrdiff_t>(journal_cut_[l]));
  }
}

void DecisionSummary::merge(const DecisionSnapshot& chunk) {
  if (!chunk.enabled) return;
  enabled = true;
  for (const DecisionRecord& r : chunk.records) {
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

void DecisionSummary::merge(DecisionSummary&& later) {
  if (!later.enabled) return;
  enabled = true;
  decisions += later.decisions;
  with_feedback += later.with_feedback;
  with_regret += later.with_regret;
  regret_ms.merge(std::move(later.regret_ms));
  staleness_ms.merge(std::move(later.staleness_ms));
  herd.merge(later.herd);
}

void DecisionSummary::reserve(std::size_t n) {
  regret_ms.reserve(n);
  staleness_ms.reserve(n);
}

void write_decision_header(TextSink& out) {
  out.put("repeat,time_us,node,chosen,candidates,score,regret_ns,"
          "staleness_ns,herd\n");
}

void write_decision_rows(TextSink& out, std::size_t repeat,
                         const DecisionSnapshot& chunk) {
  for (const DecisionRecord& r : chunk.records) {
    out.put_int(repeat).put(',').put_time_us(r.t).put(',').put_int(r.node)
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

}  // namespace netrs::obs
