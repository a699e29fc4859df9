#include "obs/attribution.hpp"

#include <algorithm>
#include <cstddef>
#include <tuple>
#include <utility>

#include "obs/text_sink.hpp"

namespace netrs::obs {

void FlightRecorder::on_complete(std::uint64_t request_id,
                                 sim::Time first_send, sim::Time winner_send,
                                 net::HostId winner, sim::Time now,
                                 const net::PacketMeta& stamps) {
  if (!enabled_ || request_id == 0) return;
  if (!stamps.server_stamped) {
    ++lane_.unmatched;
    return;
  }
  if (first_send < measure_from_) {
    ++lane_.warmup_skipped;
    return;
  }
  // The telescoping decomposition: every component is a difference of
  // adjacent stamped timestamps along the winning copy's path, so the sum
  // equals `total` exactly (the invariant attribution_test asserts per
  // record).
  FlightRecord& r = lane_.records.emplace_back();
  r.request_id = request_id;
  r.completed_at = now;
  r.server = winner;
  r.dup_won = winner_send != first_send;
  r.via_rs = stamps.accel_stamped;
  r.total = now - first_send;
  r.components[0] = winner_send - first_send;  // dup_wait
  sim::Time cursor = winner_send;
  if (stamps.accel_stamped) {
    r.components[1] = stamps.accel_arrival - cursor;  // wire_cli_rs
    r.components[2] = stamps.accel_start - stamps.accel_arrival;  // accel_queue
    r.components[3] = stamps.accel_service;  // accel_serv
    cursor = stamps.accel_start + stamps.accel_service;
  }
  r.components[4] = stamps.server_arrival - cursor;  // wire_rs_srv
  r.components[5] = stamps.server_start - stamps.server_arrival;  // srv_queue
  r.components[6] = stamps.server_service;  // srv_serv
  r.components[7] =
      now - (stamps.server_start + stamps.server_service);  // wire_return
}

namespace {

// (completed_at, request_id) is unique per record, so this order does not
// depend on how the records were split across lanes.
bool canonical(const FlightRecord& a, const FlightRecord& b) {
  return std::tie(a.completed_at, a.request_id) <
         std::tie(b.completed_at, b.request_id);
}

// Puts one lane in canonical order. A lane is appended in its shard's
// completion-time order, so only same-instant completions can be out of
// id order, and this insertion sort moves each past its few same-instant
// neighbours: linear in the lane.
void sort_lane(std::vector<FlightRecord>& records) {
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (!canonical(records[i], records[i - 1])) continue;
    const FlightRecord r = records[i];
    std::size_t j = i;
    for (; j > 0 && canonical(r, records[j - 1]); --j) {
      records[j] = records[j - 1];
    }
    records[j] = r;
  }
}

}  // namespace

void FlightSnapshot::clear() {
  records.clear();
  warmup_skipped = 0;
  unmatched = 0;
}

void merge_flights(std::span<FlightRecorder* const> lanes,
                   sim::Time watermark, FlightSnapshot& chunk) {
  const std::size_t first = chunk.records.size();
  int contributing = 0;
  for (FlightRecorder* rec : lanes) {
    FlightSnapshot& lane = rec->lane_;
    chunk.warmup_skipped += std::exchange(lane.warmup_skipped, 0);
    chunk.unmatched += std::exchange(lane.unmatched, 0);
    std::vector<FlightRecord>& records = lane.records;
    sort_lane(records);
    const auto cut = std::partition_point(
        records.begin(), records.end(), [watermark](const FlightRecord& r) {
          return r.completed_at < watermark;
        });
    if (cut == records.begin()) continue;
    ++contributing;
    chunk.records.insert(chunk.records.end(), records.begin(), cut);
    records.erase(records.begin(), cut);
  }
  if (contributing > 1) {
    std::sort(chunk.records.begin() + static_cast<std::ptrdiff_t>(first),
              chunk.records.end(), canonical);
  }
}

void AttributionSummary::merge(const FlightSnapshot& chunk) {
  if (!chunk.enabled) return;
  enabled = true;
  unmatched += chunk.unmatched;
  for (const FlightRecord& r : chunk.records) {
    ++requests;
    if (r.dup_won) ++dup_wins;
    if (r.via_rs) ++via_rs;
    total_ms.add(sim::to_millis(r.total));
    for (std::size_t c = 0; c < kFlightComponents; ++c) {
      components_ms[c].add(sim::to_millis(r.components[c]));
    }
  }
}

void AttributionSummary::merge(AttributionSummary&& later) {
  if (!later.enabled) return;
  enabled = true;
  requests += later.requests;
  dup_wins += later.dup_wins;
  via_rs += later.via_rs;
  unmatched += later.unmatched;
  total_ms.merge(std::move(later.total_ms));
  for (std::size_t c = 0; c < kFlightComponents; ++c) {
    components_ms[c].merge(std::move(later.components_ms[c]));
  }
}

void AttributionSummary::reserve(std::size_t n) {
  total_ms.reserve(n);
  for (sim::LatencyRecorder& rec : components_ms) rec.reserve(n);
}

void write_attribution_header(TextSink& out) {
  out.put("repeat,req,complete_us,server,dup,via_rs");
  for (const char* name : kFlightComponentNames) out.put(',').put(name);
  out.put(",total\n");
}

void write_attribution_rows(TextSink& out, std::size_t repeat,
                            const FlightSnapshot& chunk) {
  for (const FlightRecord& r : chunk.records) {
    out.put_int(repeat).put(',').put_int(r.request_id).put(',')
        .put_time_us(r.completed_at).put(',').put_int(r.server).put(',')
        .put(r.dup_won ? '1' : '0').put(',').put(r.via_rs ? '1' : '0');
    for (const sim::Duration c : r.components) out.put(',').put_int(c);
    out.put(',').put_int(r.total).put('\n');
  }
}

}  // namespace netrs::obs
