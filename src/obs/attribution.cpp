#include "obs/attribution.hpp"

#include <algorithm>
#include <string_view>
#include <tuple>
#include <utility>

#include "obs/text_sink.hpp"
#include "sim/radix_sort.hpp"

namespace netrs::obs {

void FlightRecorder::on_accel(std::uint64_t request_id, sim::Time arrival,
                              sim::Time start, sim::Duration service) {
  if (!enabled_ || request_id == 0) return;
  log_.accels.push_back(FlightLog::Accel{request_id, arrival, start, service});
}

void FlightRecorder::on_server(std::uint64_t request_id, net::HostId server,
                               sim::Time arrival, sim::Time start,
                               sim::Duration service) {
  if (!enabled_ || request_id == 0) return;
  log_.servers.push_back(
      FlightLog::Server{request_id, server, arrival, start, service});
}

void FlightRecorder::on_complete(std::uint64_t request_id,
                                 sim::Time first_send, sim::Time winner_send,
                                 net::HostId winner, sim::Time now) {
  if (!enabled_ || request_id == 0) return;
  log_.completes.push_back(
      FlightLog::Complete{request_id, first_send, winner_send, winner, now});
}

namespace {

/// Flight::accel value of a request with no accelerator contact.
constexpr std::uint32_t kNoAccel = 0xFFFFFFFFu;

/// Appends `src` to `dst`, stealing its storage when `dst` is empty (the
/// single-log case costs no copy).
template <typename T>
void append_moved(std::vector<T>& dst, std::vector<T>& src) {
  if (dst.empty()) {
    dst = std::move(src);
  } else {
    dst.insert(dst.end(), src.begin(), src.end());
  }
}

// The telescoping decomposition: every component is a difference of
// adjacent observed timestamps along the winning copy's path, so the sum
// equals `total` exactly (the invariant attribution_test asserts per
// record). `accel` is null when the winning copy never crossed an
// accelerator.
FlightRecord make_record(const FlightLog::Complete& c,
                         const FlightLog::Accel* accel,
                         const FlightLog::Server& copy) {
  FlightRecord r;
  r.request_id = c.request_id;
  r.completed_at = c.at;
  r.server = c.winner;
  r.dup_won = c.winner_send != c.first_send;
  r.via_rs = accel != nullptr;
  r.total = c.at - c.first_send;
  r.components[0] = c.winner_send - c.first_send;  // dup_wait
  sim::Time cursor = c.winner_send;
  if (accel != nullptr) {
    r.components[1] = accel->arrival - cursor;         // wire_cli_rs
    r.components[2] = accel->start - accel->arrival;   // accel_queue
    r.components[3] = accel->service;                  // accel_serv
    cursor = accel->start + accel->service;
  }
  r.components[4] = copy.arrival - cursor;               // wire_rs_srv
  r.components[5] = copy.start - copy.arrival;           // srv_queue
  r.components[6] = copy.service;                        // srv_serv
  r.components[7] = c.at - (copy.start + copy.service);  // wire_return
  return r;
}

}  // namespace

FlightSnapshot join_flights(std::vector<FlightLog> logs,
                            sim::Time measure_from) {
  // The union of all logs, as three flat arrays.
  FlightLog all;
  for (FlightLog& log : logs) {
    append_moved(all.accels, log.accels);
    append_moved(all.servers, log.servers);
    append_moved(all.completes, log.completes);
  }
  // Canonical orders, independent of which log observed what: every
  // observation grouped by request id, completions by (completion time,
  // request id). The sorts are stable, and the order inside a request's
  // group does not matter: the kept accelerator contact is the minimum by
  // (start, arrival, service) and the winning copy the first by (start,
  // arrival, server, service) among the winner's copies, both found by a
  // scan of the (short) group.
  const auto by_id = [](const auto& x) { return x.request_id; };
  sim::radix_sort(all.accels, by_id);
  sim::radix_sort(all.servers, by_id);
  std::stable_sort(all.completes.begin(), all.completes.end(),
                   [](const FlightLog::Complete& a,
                      const FlightLog::Complete& b) {
                     return std::tie(a.at, a.request_id) <
                            std::tie(b.at, b.request_id);
                   });

  // One entry per distinct request id observed at an accelerator or a
  // server, in id order: its accelerator contact, its group of copies,
  // and whether a completion has consumed it yet.
  struct Flight {
    std::uint64_t id = 0;
    std::uint32_t accel = kNoAccel;
    std::uint32_t copies_begin = 0;
    std::uint32_t copies_end = 0;
    bool consumed = false;
  };
  std::vector<Flight> flights;
  const std::vector<FlightLog::Accel>& accels = all.accels;
  const std::vector<FlightLog::Server>& servers = all.servers;
  std::size_t ai = 0;
  std::size_t si = 0;
  while (ai < accels.size() || si < servers.size()) {
    Flight f;
    if (si == servers.size() ||
        (ai < accels.size() &&
         accels[ai].request_id < servers[si].request_id)) {
      f.id = accels[ai].request_id;
    } else {
      f.id = servers[si].request_id;
    }
    for (; ai < accels.size() && accels[ai].request_id == f.id; ++ai) {
      const FlightLog::Accel& a = accels[ai];
      if (f.accel == kNoAccel ||
          std::tie(a.start, a.arrival, a.service) <
              std::tie(accels[f.accel].start, accels[f.accel].arrival,
                       accels[f.accel].service)) {
        f.accel = static_cast<std::uint32_t>(ai);
      }
    }
    f.copies_begin = static_cast<std::uint32_t>(si);
    while (si < servers.size() && servers[si].request_id == f.id) ++si;
    f.copies_end = static_cast<std::uint32_t>(si);
    flights.push_back(f);
  }

  FlightSnapshot snap;
  snap.enabled = true;
  snap.records.reserve(all.completes.size());
  std::size_t consumed = 0;
  for (const FlightLog::Complete& c : all.completes) {
    const auto it = std::lower_bound(
        flights.begin(), flights.end(), c.request_id,
        [](const Flight& f, std::uint64_t id) { return f.id < id; });
    // A request never observed, or already consumed by an earlier
    // completion, is unmatched.
    if (it == flights.end() || it->id != c.request_id || it->consumed) {
      ++snap.unmatched;
      continue;
    }
    it->consumed = true;
    ++consumed;
    if (c.first_send < measure_from) {
      ++snap.warmup_skipped;
      continue;
    }
    const FlightLog::Server* copy = nullptr;
    for (std::uint32_t i = it->copies_begin; i < it->copies_end; ++i) {
      const FlightLog::Server& s = servers[i];
      if (s.server == c.winner &&
          (copy == nullptr ||
           std::tie(s.start, s.arrival, s.service) <
               std::tie(copy->start, copy->arrival, copy->service))) {
        copy = &s;
      }
    }
    if (copy == nullptr) {
      ++snap.unmatched;
      continue;
    }
    snap.records.push_back(make_record(
        c, it->accel != kNoAccel ? &accels[it->accel] : nullptr, *copy));
  }
  snap.pending_at_end = flights.size() - consumed;
  return snap;
}

void AttributionSummary::merge(const FlightSnapshot& snap) {
  if (!snap.enabled) return;
  enabled = true;
  unmatched += snap.unmatched;
  for (const FlightRecord& r : snap.records) {
    ++requests;
    if (r.dup_won) ++dup_wins;
    if (r.via_rs) ++via_rs;
    total_ms.add(sim::to_millis(r.total));
    for (std::size_t c = 0; c < kFlightComponents; ++c) {
      components_ms[c].add(sim::to_millis(r.components[c]));
    }
  }
}

void AttributionSummary::finalize() {
  total_ms.finalize();
  for (sim::LatencyRecorder& rec : components_ms) rec.finalize();
}

void write_attribution_csv(std::ostream& os,
                           const std::vector<FlightSnapshot>& repeats) {
  TextSink out(os);
  out.put("repeat,req,complete_us,server,dup,via_rs,component,ns\n");
  for (std::size_t rep = 0; rep < repeats.size(); ++rep) {
    for (const FlightRecord& r : repeats[rep].records) {
      // "repeat,req,complete_us,server,dup,via_rs," is shared by the
      // record's nine rows; format it once.
      char prefix[5 * kMaxNumberChars];
      char* p = write_int(prefix, rep);
      *p++ = ',';
      p = write_int(p, r.request_id);
      *p++ = ',';
      p = write_time_us(p, r.completed_at);
      *p++ = ',';
      p = write_int(p, r.server);
      *p++ = ',';
      *p++ = r.dup_won ? '1' : '0';
      *p++ = ',';
      *p++ = r.via_rs ? '1' : '0';
      *p++ = ',';
      const std::string_view row(prefix,
                                 static_cast<std::size_t>(p - prefix));
      for (std::size_t c = 0; c < kFlightComponents; ++c) {
        out.put(row).put(kFlightComponentNames[c]).put(',')
            .put_int(r.components[c]).put('\n');
      }
      out.put(row).put("total,").put_int(r.total).put('\n');
    }
  }
}

}  // namespace netrs::obs
