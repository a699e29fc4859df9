// Per-request latency attribution ("flight recorder").
//
// The FlightRecorder rides the existing Observer null-guard hooks and logs
// every accelerator, server and completion observation verbatim; at
// harvest, join_flights() merges the logs of every shard and decomposes
// each completed request's end-to-end latency into named additive
// components along the path of the copy that won (duplicate and cancelled
// copies are attributed to the winner): duplicate wait, client->RSNode
// wire, accelerator queue, accelerator service (the selection itself),
// RSNode->server wire, server queue, server service, and the return path.
// Every component is a difference of observed event timestamps, so the
// eight components telescope to exactly the measured end-to-end latency —
// the invariant attribution_test asserts per record.
//
// Determinism contract (DESIGN.md §8.4, §8.6): recording is
// observation-only (no RNG draws, no wall clock, no feedback into
// simulated behavior), the join processes the merged logs in a canonical
// order keyed on simulated time, and repeats merge in repeat order — so
// the CSV and summaries are bit-identical for a given seed at any harness
// --jobs value, and golden digests are unchanged with the recorder on or
// off.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <utility>
#include <vector>

#include "net/address.hpp"
#include "sim/affinity.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace netrs::obs {

/// Number of additive latency components in a FlightRecord.
inline constexpr std::size_t kFlightComponents = 8;

/// Component names in chronological (and CSV/report) order along the
/// winning copy's path. All values are durations in simulated ns:
///   dup_wait     first send -> winning copy's send (0 unless a duplicate
///                won);
///   wire_cli_rs  winning send -> accelerator arrival (0 when the request
///                never crossed an accelerator, i.e. CliRS or DRS);
///   accel_queue  accelerator arrival -> accelerator service start;
///   accel_serv   accelerator service (the in-network selection);
///   wire_rs_srv  accelerator done (or winning send) -> server arrival;
///   srv_queue    server arrival -> server service start;
///   srv_serv     server service;
///   wire_return  server service end -> response at the client.
inline constexpr std::array<const char*, kFlightComponents>
    kFlightComponentNames = {"dup_wait",    "wire_cli_rs", "accel_queue",
                             "accel_serv",  "wire_rs_srv", "srv_queue",
                             "srv_serv",    "wire_return"};

/// One completed request's latency decomposition.
struct NETRS_SHARED_IMMUTABLE FlightRecord {
  /// End-to-end correlation id (PacketMeta::request_id).
  std::uint64_t request_id = 0;
  /// Simulated completion time (first response at the client), ns.
  sim::Time completed_at = 0;
  /// Server whose response completed the request.
  net::HostId server = net::kInvalidHost;
  /// True when a redundant (R95) duplicate won, not the primary copy.
  bool dup_won = false;
  /// True when the winning copy passed through an accelerator (NetRS path).
  bool via_rs = false;
  /// Measured end-to-end latency, ns; equals the sum of `components`.
  sim::Duration total = 0;
  /// Additive components in kFlightComponentNames order, ns each.
  std::array<sim::Duration, kFlightComponents> components{};
};

/// Raw observation log of one recorder (DESIGN.md §8.6): shard-local
/// recorders append every hook verbatim (one request's accelerator,
/// server, and completion hooks fire on different shards), and
/// join_flights() builds the decomposition over the union of all logs in
/// a canonical order — the same bytes at any shard count.
struct NETRS_SHARED_IMMUTABLE FlightLog {
  /// One on_accel() observation, verbatim.
  struct Accel {
    /// End-to-end correlation id.
    std::uint64_t request_id = 0;
    /// Accelerator arrival (enqueue) time, ns.
    sim::Time arrival = 0;
    /// Accelerator service start, ns.
    sim::Time start = 0;
    /// Accelerator service duration, ns.
    sim::Duration service = 0;
  };
  /// One on_server() observation, verbatim.
  struct Server {
    /// End-to-end correlation id.
    std::uint64_t request_id = 0;
    /// Serving host.
    net::HostId server = net::kInvalidHost;
    /// Server arrival time, ns.
    sim::Time arrival = 0;
    /// Server service start, ns.
    sim::Time start = 0;
    /// Sampled service duration, ns.
    sim::Duration service = 0;
  };
  /// One on_complete() observation, verbatim.
  struct Complete {
    /// End-to-end correlation id.
    std::uint64_t request_id = 0;
    /// The primary copy's send time, ns.
    sim::Time first_send = 0;
    /// The winning copy's send time, ns.
    sim::Time winner_send = 0;
    /// Server whose response completed the request.
    net::HostId winner = net::kInvalidHost;
    /// Completion time at the client, ns.
    sim::Time at = 0;
  };
  /// Accelerator observations in this recorder's record order.
  std::vector<Accel> accels;
  /// Server observations in this recorder's record order.
  std::vector<Server> servers;
  /// Completion observations in this recorder's record order.
  std::vector<Complete> completes;
};

/// One repeat's worth of completed-flight records plus bookkeeping counts.
struct NETRS_SHARED_IMMUTABLE FlightSnapshot {
  /// True when the repeat recorded attribution at all.
  bool enabled = false;
  /// Completed records in completion order.
  std::vector<FlightRecord> records;
  /// Completions skipped because the request was issued during warmup.
  std::uint64_t warmup_skipped = 0;
  /// Completions whose winning copy had no matching server observation
  /// (defensive; 0 in practice).
  std::uint64_t unmatched = 0;
  /// Requests still pending (never completed) when the repeat ended.
  std::uint64_t pending_at_end = 0;
};

/// Per-request flight recorder; one per shard per repeat, owned by that
/// shard's Observer. Components call the on_*() hooks under the existing
/// observer null guard; every hook is a cheap early-out when the recorder
/// is disabled, and otherwise appends to the recorder's FlightLog.
/// join_flights() builds the records at harvest time.
class NETRS_SHARD_LOCAL FlightRecorder {
 public:
  /// A disabled recorder ignores every hook.
  explicit FlightRecorder(bool enabled) : enabled_(enabled) {}

  /// True when hooks record (construction-time switch).
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Accelerator observation for a request: arrival (enqueue) time,
  /// service start, and service duration. Response clones must not be
  /// reported. The join keeps one accelerator contact per request.
  void on_accel(std::uint64_t request_id, sim::Time arrival, sim::Time start,
                sim::Duration service);

  /// Server observation for one copy of a request: the serving host, its
  /// arrival time, service start, and sampled service duration.
  void on_server(std::uint64_t request_id, net::HostId server,
                 sim::Time arrival, sim::Time start, sim::Duration service);

  /// Completion at the client (first response): the primary copy's send
  /// time, the winning copy's send time and server, and the completion
  /// time.
  void on_complete(std::uint64_t request_id, sim::Time first_send,
                   sim::Time winner_send, net::HostId winner, sim::Time now);

  /// Moves the raw observation log (record order) out; the recorder is
  /// left with an empty log.
  [[nodiscard]] FlightLog take_log() { return std::exchange(log_, {}); }

 private:
  bool enabled_;
  FlightLog log_;
};

/// Joins the logs of every shard's recorder (plus the coordinator's) into
/// one repeat snapshot, in a canonical order that does not depend on which
/// shard observed what. The logs are moved in and concatenated into three
/// flat arrays; accelerator and server observations are grouped by
/// request id (stable radix sorts), completions are processed by
/// (completion time, request id), and each completion finds its request by
/// binary search. The kept accelerator contact is the minimum by (start,
/// arrival, service); the winning copy is the first by (start, arrival,
/// server, service) among the winner's copies. Completions of requests
/// first
/// sent before `measure_from` are skipped (the harness's warmup filter);
/// requests observed but never completed count in `pending_at_end`. Event
/// timestamps are shard-count-invariant (DESIGN.md §4.10), so the result
/// is byte-identical at any --shards value — including 1, which the
/// harness routes through this same join.
[[nodiscard]] FlightSnapshot join_flights(std::vector<FlightLog> logs,
                                          sim::Time measure_from);

/// Per-component latency aggregates over every record of every repeat,
/// shown as the "Latency attribution" report table.
struct NETRS_SHARED_IMMUTABLE AttributionSummary {
  /// True once an enabled snapshot has been merged.
  bool enabled = false;
  /// Records merged (completed, post-warmup requests).
  std::uint64_t requests = 0;
  /// Records where a duplicate copy won.
  std::uint64_t dup_wins = 0;
  /// Records whose winning copy crossed an accelerator.
  std::uint64_t via_rs = 0;
  /// Completions with no matching server observation, over all repeats.
  std::uint64_t unmatched = 0;
  /// End-to-end latency distribution (ms) over merged records.
  sim::LatencyRecorder total_ms;
  /// Per-component latency distributions (ms), kFlightComponentNames order.
  std::array<sim::LatencyRecorder, kFlightComponents> components_ms;

  /// Folds one repeat's snapshot into the running summary.
  void merge(const FlightSnapshot& snap);
  /// Sorts all recorders so percentile() calls are plain lookups.
  void finalize();
};

/// Writes the merged long-format attribution CSV: header
/// `repeat,req,complete_us,server,dup,via_rs,component,ns`, then one row
/// per (record, component) plus a `total` row per record, repeats in
/// order, through one buffered TextSink. Bit-identical at any --jobs
/// value.
void write_attribution_csv(std::ostream& os,
                           const std::vector<FlightSnapshot>& repeats);

}  // namespace netrs::obs
