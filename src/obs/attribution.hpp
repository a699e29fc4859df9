// Per-request latency attribution ("flight recorder").
//
// Each completed request's end-to-end latency is decomposed into named
// additive components along the path of the copy that won (duplicate and
// cancelled copies are attributed to the winner): duplicate wait,
// client->RSNode wire, accelerator queue, accelerator service (the
// selection itself), RSNode->server wire, server queue, server service,
// and the return path. The accelerator and the server stamp their timing
// into the request's simulation-only net::PacketMeta, the server's
// response carries it back, and the client's FlightRecorder builds the
// record on completion — no per-hop log and no join at harvest.
// Every component is a difference of stamped event timestamps, so the
// eight components telescope to exactly the measured end-to-end latency —
// the invariant attribution_test asserts per record.
//
// Determinism contract (DESIGN.md §8.4, §8.6): recording is
// observation-only (no RNG draws, no wall clock, no feedback into
// simulated behavior; no device reads the stamps), the lane merge restores
// a canonical order keyed on simulated time, and repeats merge in repeat
// order — so the CSV and summaries are bit-identical for a given seed at
// any harness --jobs value, and golden digests are unchanged with the
// recorder on or off.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <utility>
#include <vector>

#include "net/address.hpp"
#include "net/packet.hpp"
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

/// One repeat's worth of completed-flight records plus bookkeeping counts.
struct NETRS_SHARED_IMMUTABLE FlightSnapshot {
  /// True when the repeat recorded attribution at all.
  bool enabled = false;
  /// Completed records in (completed_at, request_id) order.
  std::vector<FlightRecord> records;
  /// Completions skipped because the request was issued during warmup.
  std::uint64_t warmup_skipped = 0;
  /// Completions whose winning response carried no server stamps
  /// (defensive; 0 in practice).
  std::uint64_t unmatched = 0;
};

/// Per-request flight recorder; one per shard per repeat, owned by that
/// shard's Observer. The client calls on_complete() under the existing
/// observer null guard when a request's first response arrives; the
/// response carries the winning copy's accelerator and server stamps
/// (net::PacketMeta), so the record is built there and appended to this
/// recorder's lane. merge_flights() concatenates the lanes at harvest.
class NETRS_SHARD_LOCAL FlightRecorder {
 public:
  /// A disabled recorder ignores every hook.
  explicit FlightRecorder(bool enabled) : enabled_(enabled) {}

  /// True when hooks record (construction-time switch).
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Completions of requests first sent before `t` count as
  /// `warmup_skipped` instead of producing a record (the harness's warmup
  /// filter). Set before the run.
  void set_measure_from(sim::Time t) { measure_from_ = t; }

  /// Completion at the client (first response): the primary copy's send
  /// time, the winning copy's send time and server, the completion time,
  /// and the winning response's `meta` with its flight stamps.
  void on_complete(std::uint64_t request_id, sim::Time first_send,
                   sim::Time winner_send, net::HostId winner, sim::Time now,
                   const net::PacketMeta& stamps);

  /// Moves this lane's records (completion order) and counts out; the
  /// recorder is left empty.
  [[nodiscard]] FlightSnapshot take() { return std::exchange(lane_, {}); }

 private:
  bool enabled_;
  sim::Time measure_from_ = 0;
  FlightSnapshot lane_;
};

/// Merges the lanes of every shard's recorder (plus the coordinator's)
/// into one repeat snapshot in canonical (completion time, request id)
/// order, summing the counts. Each lane already holds completion-time
/// order (one shard's clock), so it is fixed up with an insertion sort
/// (same-instant completions only) and merged into the result; one lane
/// is moved, not copied. Stamps are shard-count-invariant (DESIGN.md
/// §4.10), so the result is byte-identical at any --shards value.
[[nodiscard]] FlightSnapshot merge_flights(std::vector<FlightSnapshot> lanes);

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
  /// Completions without server stamps, over all repeats.
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

/// Writes the merged attribution CSV, one row per record: header
/// `repeat,req,complete_us,server,dup,via_rs,` then the eight
/// kFlightComponentNames and `total` as columns (integer ns), repeats in
/// order, through one buffered TextSink. Bit-identical at any --jobs
/// value.
void write_attribution_csv(std::ostream& os,
                           const std::vector<FlightSnapshot>& repeats);

}  // namespace netrs::obs
