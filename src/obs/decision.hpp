// Decision auditor: scores every ReplicaSelector::select() call against an
// omniscient oracle.
//
// The selectors see only stale, piggybacked server status; the oracle sees
// the true instantaneous server state (queue depth, parallelism, current
// fluctuation-mode mean), which every server journals on each transition.
// The recorder logs picks and journal entries verbatim; at each flush
// watermark of the run, a DecisionReplay moves every shard's picks and
// journal entries before the watermark out of the logs, merges them, and
// records per decision:
//
//   regret     — oracle cost of the chosen replica minus the cheapest
//                candidate's oracle cost, where cost(s) = mean_s * (1 +
//                queue_s / Np): the expected in-system time of joining
//                server s right now. Zero iff the selector picked an
//                oracle-optimal candidate;
//   staleness  — simulated age of the q_s/T̄_s snapshot behind the choice
//                (now minus the selector's last feedback from the chosen
//                server; absent when the server was never heard from);
//   herd index — fraction of all selection decisions in the trailing herd
//                window (across every RSNode of the repeat) that picked
//                the same server as this one, including this one. Near
//                1/candidates when balanced, near 1 when RSNodes stampede
//                one replica (§II load oscillation, per decision).
//
// The replay carries what a later chunk needs — the picks still inside
// the trailing herd window and every host's last journaled state — so its
// records are the same whatever the flush watermarks were (DESIGN.md §8.5).
//
// Observation-only contract (DESIGN.md §8.5): the hooks and the journal
// read const simulation state only — they consume no RNG draws, mutate no
// component, and never read the wall clock. Golden digests are identical
// with the auditor on or off, and output is bit-identical at any --jobs
// value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/address.hpp"
#include "obs/text_sink.hpp"
#include "sim/affinity.hpp"
#include "sim/ring.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace netrs::obs {

/// True state of one server at a decision time, looked up in the journal.
struct NETRS_SHARED_IMMUTABLE OracleServerState {
  /// False when the host had no journal entry yet (no regret computed).
  bool valid = false;
  /// Waiting + in-service requests right now.
  std::uint32_t queue_size = 0;
  /// Service parallelism Np (>= 1).
  int parallelism = 1;
  /// Current fluctuation-mode mean service time, ns.
  sim::Duration mean_service_time = 0;
};

/// Oracle cost of joining a server now, in ns: mean * (1 + queue / Np),
/// the expected in-system time under the server's true current state.
[[nodiscard]] double oracle_cost_ns(const OracleServerState& s);

/// One audited selection decision.
struct NETRS_SHARED_IMMUTABLE DecisionRecord {
  /// Simulated decision time, ns.
  sim::Time t = 0;
  /// Deciding RSNode's trace tid (client node id or accelerator node id).
  std::int32_t node = -1;
  /// The replica the selector picked.
  net::HostId chosen = net::kInvalidHost;
  /// Candidate count the decision chose among.
  std::uint32_t candidates = 0;
  /// Selector's score for the chosen replica (algorithm-specific units).
  double chosen_score = 0.0;
  /// False when the selector reported no scores (e.g. random).
  bool has_score = false;
  /// Oracle regret in ns (>= 0); meaningful iff has_regret.
  double regret_ns = 0.0;
  /// False when a candidate had no journal entry at the decision time.
  bool has_regret = false;
  /// Feedback age of the chosen server's snapshot, ns; meaningful iff
  /// has_staleness.
  sim::Duration staleness = 0;
  /// False when the selector never heard from the chosen server (or
  /// reported no ages at all).
  bool has_staleness = false;
  /// Herd index in [0, 1] (see the file comment).
  double herd = 0.0;
};

/// One chunk of a repeat's audited decisions (those between two flush
/// watermarks) plus bookkeeping counts.
struct NETRS_SHARED_IMMUTABLE DecisionSnapshot {
  /// True when the repeat audits decisions at all.
  bool enabled = false;
  /// Post-warmup decisions in decision order.
  std::vector<DecisionRecord> records;
  /// All decisions observed, including warmup (herd state covers these).
  std::uint64_t observed = 0;

  /// Empties the records (keeping their capacity) and zeroes the count.
  void clear();
};

/// Raw decision log of one recorder (DESIGN.md §8.6). Shard-local
/// recorders log picks and true server-state transitions (the
/// oracle journal) verbatim; a DecisionReplay merges every log, orders
/// picks canonically by (time, node, per-node sequence), and computes the
/// herd index and oracle regret chunk by chunk — the same bytes at any
/// shard count.
struct NETRS_SHARED_IMMUTABLE DecisionLog {
  /// One raw selection decision.
  struct Pick {
    /// Simulated decision time, ns.
    sim::Time t = 0;
    /// Deciding RSNode's trace tid.
    std::int32_t node = -1;
    /// Per-node decision sequence number (a node's decision stream lives
    /// on one shard, so this is shard-count-invariant).
    std::uint64_t node_seq = 0;
    /// The replica the selector picked.
    net::HostId chosen = net::kInvalidHost;
    /// Offset of this pick's candidates in `cand_pool`.
    std::uint32_t cand_begin = 0;
    /// Candidate count the decision chose among.
    std::uint32_t cand_count = 0;
    /// Selector's score for the chosen replica; meaningful iff has_score.
    double score = 0.0;
    /// False when the selector reported no score for the chosen replica.
    bool has_score = false;
    /// Feedback age of the chosen server, ns; meaningful iff
    /// has_staleness.
    sim::Duration staleness = 0;
    /// False when the selector never heard from the chosen server.
    bool has_staleness = false;
  };
  /// One true server-state transition, journaled by kv::Server on every
  /// queue/parallelism/mean change (plus a t=0 seed from the harness).
  struct ServerState {
    /// Transition time, ns.
    sim::Time t = 0;
    /// The server host.
    net::HostId host = net::kInvalidHost;
    /// Waiting + in-service requests after the transition.
    std::uint32_t queue_size = 0;
    /// Service parallelism Np after the transition.
    int parallelism = 1;
    /// Effective mean service time after the transition, ns.
    sim::Duration mean = 0;
  };
  /// Picks in this recorder's record order.
  std::vector<Pick> picks;
  /// Flattened candidate lists, indexed by Pick::cand_begin/cand_count.
  std::vector<net::HostId> cand_pool;
  /// Oracle journal entries in this recorder's record order (a host's
  /// entries are time-ordered: one host lives on one shard).
  std::vector<ServerState> states;
};

/// Per-shard, per-repeat decision auditor, owned by that shard's
/// Observer. The harness routes every selector's decision hook here and
/// kv::Server journals its state transitions here; both append to a
/// DecisionLog, and a DecisionReplay builds the records at each flush.
class NETRS_SHARD_LOCAL DecisionRecorder {
 public:
  /// A disabled recorder ignores every call.
  explicit DecisionRecorder(bool enabled) : enabled_(enabled) {}

  /// True when decisions record (construction-time switch).
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Logs one selection: `candidates`/`chosen` from the selector,
  /// `scores`/`ages` parallel to `candidates` (either may be empty; an
  /// age < 0 means never heard from). Keeps the chosen replica's score
  /// and feedback age (its staleness) plus a per-node sequence number.
  void on_decision(std::int32_t node, sim::Time now,
                   std::span<const net::HostId> candidates,
                   net::HostId chosen, std::span<const double> scores,
                   std::span<const sim::Duration> ages);

  /// Journals one true server-state transition for the oracle. kv::Server
  /// calls this under the observer null guard after every
  /// queue/parallelism/mean change.
  void on_server_state(net::HostId host, sim::Time t,
                       std::uint32_t queue_size, int parallelism,
                       sim::Duration mean);

 private:
  friend class DecisionReplay;

  bool enabled_;
  DecisionLog log_;
  // Next pick sequence number per node, indexed by node + 1 (trace tids
  // are dense node ids; -1 is an RSNode without one).
  std::vector<std::uint64_t> node_seq_;
};

/// Trailing window of the decision auditor's herd index, the window the
/// harness's DecisionReplay uses.
inline constexpr sim::Duration kHerdWindow = 1 * sim::kMillisecond;

/// Replays the logs of every shard's recorder (plus the coordinator's)
/// into decision records, one flush watermark at a time; one per repeat.
///
/// flush() takes the picks and journal entries logged before the
/// watermark out of the lanes and orders the picks canonically by (time,
/// node, per-node sequence). The herd index is computed over that merged
/// stream with a trailing `herd_window` (a FIFO of the picks inside it
/// plus dense per-server counts, both carried to the next chunk); every
/// pick, warmup included, enters the window, but only picks at or after
/// `measure_from` produce records. Regret is computed against the oracle
/// journal: before each pick every lane's entries at or before its time
/// are applied to a per-host table of last journaled states, which is
/// also carried. A chunk therefore yields the records a single replay of
/// the whole run would give for its picks, whatever the watermarks.
/// Pick times and per-node streams are shard-count-invariant (DESIGN.md
/// §4.10), so the result is byte-identical at any --shards value.
///
/// Preconditions: a lane logs picks and journal entries in time order (its
/// shard's clock), a host journals on one lane only (its server's shard),
/// and every later entry is at or after the watermark — the harness
/// flushes at engine quiescence, when all events before the watermark
/// have run and none after it.
class NETRS_COORD_GLOBAL DecisionReplay {
 public:
  DecisionReplay(sim::Duration herd_window, sim::Time measure_from)
      : herd_window_(herd_window), measure_from_(measure_from) {}

  /// Replays every lane's picks before `watermark` into `chunk` (records
  /// appended, `observed` counted) and applies their journal entries
  /// before it; both leave the lanes, which keep their capacity, as do
  /// the replay's own buffers, so a flush allocates nothing once they have
  /// grown.
  void flush(std::span<DecisionRecorder* const> lanes, sim::Time watermark,
             DecisionSnapshot& chunk);

 private:
  // One pick of the trailing herd window.
  struct WindowPick {
    sim::Time t = 0;
    net::HostId chosen = 0;
  };

  void apply_journal(std::span<DecisionRecorder* const> lanes, sim::Time t);

  sim::Duration herd_window_;
  sim::Time measure_from_;
  // Carried across chunks: the picks inside the trailing herd window, the
  // window's per-server pick counts, and each host's last journaled state
  // (invalid until its first entry).
  sim::Ring<WindowPick> window_;
  std::vector<std::uint32_t> window_counts_;
  std::vector<OracleServerState> oracle_;
  // Per-flush scratch, reused: each lane's next pick and journal entry to
  // replay, and its cuts at the watermark.
  std::vector<std::size_t> pick_next_;
  std::vector<std::size_t> pick_cut_;
  std::vector<std::size_t> journal_next_;
  std::vector<std::size_t> journal_cut_;
};

/// Selection-quality aggregates over every decision of every repeat,
/// shown as the "Selection quality" report table.
struct NETRS_SHARED_IMMUTABLE DecisionSummary {
  /// True once an enabled snapshot has been merged.
  bool enabled = false;
  /// Post-warmup decisions merged.
  std::uint64_t decisions = 0;
  /// Decisions with a feedback age for the chosen server.
  std::uint64_t with_feedback = 0;
  /// Decisions with a computed regret.
  std::uint64_t with_regret = 0;
  /// Regret distribution (ms) over decisions with regret.
  sim::LatencyRecorder regret_ms;
  /// Staleness distribution (ms) over decisions with feedback.
  sim::LatencyRecorder staleness_ms;
  /// Herd index ([0, 1]) over all merged decisions (only averaged).
  sim::MeanRecorder herd;

  /// Folds one chunk into the running summary (chunks in order).
  void merge(const DecisionSnapshot& chunk);
  /// Appends a later repeat's summary (repeats in order); moves it when
  /// this one is still empty.
  void merge(DecisionSummary&& later);
  /// Makes room for `n` decisions in every recorder.
  void reserve(std::size_t n);
};

/// Writes the decision CSV header:
/// `repeat,time_us,node,chosen,candidates,score,regret_ns,staleness_ns,
/// herd`.
void write_decision_header(TextSink& out);

/// Writes one row per record of `chunk`, tagged with `repeat`; absent
/// score/regret/staleness print as -1. Chunks written in order after the
/// header, repeats in order, make the file; it is bit-identical at any
/// --jobs value.
void write_decision_rows(TextSink& out, std::size_t repeat,
                         const DecisionSnapshot& chunk);

}  // namespace netrs::obs
