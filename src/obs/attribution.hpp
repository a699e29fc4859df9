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
// record on completion — no per-hop log and no join.
// Every component is a difference of stamped event timestamps, so the
// eight components telescope to exactly the measured end-to-end latency —
// the invariant attribution_test asserts per record.
//
// Records leave the lanes while the run goes on: at each flush watermark
// the harness moves every record that completed before it out of the
// lanes (merge_flights) and writes them as one chunk of the CSV, so a
// lane holds at most one sampling interval of completions (DESIGN.md
// §8.4, §8.6).
//
// Determinism contract: recording is observation-only (no RNG draws, no
// wall clock, no feedback into simulated behavior; no device reads the
// stamps), each chunk is in a canonical order keyed on simulated time and
// chunks follow each other in time, and repeats follow each other in
// repeat order — so the CSV and summaries are bit-identical for a given
// seed at any harness --jobs value and any chunking, and golden digests
// are unchanged with the recorder on or off.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/address.hpp"
#include "net/packet.hpp"
#include "obs/text_sink.hpp"
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

/// Completed-flight records plus bookkeeping counts: one lane's records,
/// or one chunk of a repeat (the records that completed between two flush
/// watermarks, merged over the lanes).
struct NETRS_SHARED_IMMUTABLE FlightSnapshot {
  /// True when the repeat records attribution at all.
  bool enabled = false;
  /// Completed records; in (completed_at, request_id) order in a chunk.
  std::vector<FlightRecord> records;
  /// Completions skipped because the request was issued during warmup.
  std::uint64_t warmup_skipped = 0;
  /// Completions whose winning response carried no server stamps
  /// (defensive; 0 in practice).
  std::uint64_t unmatched = 0;

  /// Empties the records (keeping their capacity) and zeroes the counts.
  void clear();
};

class FlightRecorder;

/// Moves every lane's records that completed before `watermark` into
/// `chunk`, after what it holds, in canonical (completion time, request
/// id) order, and moves the lanes' counts there too. Each lane is
/// appended in its shard's completion-time order, so only same-instant
/// completions can be out of id order: the lane is fixed up with an
/// insertion sort, cut at the watermark, and its head appended; the
/// appended range is sorted only when more than one lane contributed. The
/// lanes keep their capacity, so a flush allocates nothing once the
/// buffers have grown. Stamps are shard-count-invariant (DESIGN.md
/// §4.10), so the chunk is byte-identical at any --shards value.
void merge_flights(std::span<FlightRecorder* const> lanes,
                   sim::Time watermark, FlightSnapshot& chunk);

/// Per-request flight recorder; one per shard per repeat, owned by that
/// shard's Observer. The client calls on_complete() under the existing
/// observer null guard when a request's first response arrives; the
/// response carries the winning copy's accelerator and server stamps
/// (net::PacketMeta), so the record is built there and appended to this
/// recorder's lane. merge_flights() moves the lanes out at each flush.
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

 private:
  friend void merge_flights(std::span<FlightRecorder* const> lanes,
                            sim::Time watermark, FlightSnapshot& chunk);

  bool enabled_;
  sim::Time measure_from_ = 0;
  FlightSnapshot lane_;
};

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

  /// Folds one chunk into the running summary (chunks in order).
  void merge(const FlightSnapshot& chunk);
  /// Appends a later repeat's summary (repeats in order); moves it when
  /// this one is still empty.
  void merge(AttributionSummary&& later);
  /// Makes room for `n` records in every recorder.
  void reserve(std::size_t n);
};

/// Writes the attribution CSV header:
/// `repeat,req,complete_us,server,dup,via_rs,` then the eight
/// kFlightComponentNames and `total`.
void write_attribution_header(TextSink& out);

/// Writes one row per record of `chunk` (integer ns components), tagged
/// with `repeat`. Chunks written in order after the header, repeats in
/// order, make the file; it is bit-identical at any --jobs value.
void write_attribution_rows(TextSink& out, std::size_t repeat,
                            const FlightSnapshot& chunk);

}  // namespace netrs::obs
