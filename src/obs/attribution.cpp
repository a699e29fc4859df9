#include "obs/attribution.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "obs/metrics.hpp"

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

FlightSnapshot join_flights(const std::vector<FlightLog>& logs,
                            sim::Time measure_from) {
  // Canonical per-request state assembled from the union of all logs.
  struct Joined {
    bool accel_valid = false;
    FlightLog::Accel accel;
    std::vector<FlightLog::Server> copies;
  };
  std::map<std::uint64_t, Joined> pending;
  std::vector<FlightLog::Complete> completes;
  for (const FlightLog& log : logs) {
    for (const FlightLog::Accel& a : log.accels) {
      Joined& j = pending[a.request_id];
      // Canonical "first accelerator contact": the minimum by (start,
      // arrival, service), whichever log holds it.
      if (!j.accel_valid ||
          std::tie(a.start, a.arrival, a.service) <
              std::tie(j.accel.start, j.accel.arrival, j.accel.service)) {
        j.accel_valid = true;
        j.accel = a;
      }
    }
    for (const FlightLog::Server& s : log.servers) {
      pending[s.request_id].copies.push_back(s);
    }
    completes.insert(completes.end(), log.completes.begin(),
                     log.completes.end());
  }
  // Canonical copy order (service starts in time order) and completion
  // order. request_id breaks exact-time ties.
  for (auto& [id, j] : pending) {
    std::stable_sort(j.copies.begin(), j.copies.end(),
                     [](const FlightLog::Server& a,
                        const FlightLog::Server& b) {
                       return std::tie(a.start, a.arrival, a.server,
                                       a.service) <
                              std::tie(b.start, b.arrival, b.server,
                                       b.service);
                     });
  }
  std::stable_sort(completes.begin(), completes.end(),
                   [](const FlightLog::Complete& a,
                      const FlightLog::Complete& b) {
                     return std::tie(a.at, a.request_id) <
                            std::tie(b.at, b.request_id);
                   });

  FlightSnapshot snap;
  snap.enabled = true;
  for (const FlightLog::Complete& c : completes) {
    const auto it = pending.find(c.request_id);
    if (it == pending.end()) {
      ++snap.unmatched;
      continue;
    }
    if (c.first_send < measure_from) {
      pending.erase(it);
      ++snap.warmup_skipped;
      continue;
    }
    const Joined& j = it->second;
    const FlightLog::Server* copy = nullptr;
    for (const FlightLog::Server& s : j.copies) {
      if (s.server == c.winner) {
        copy = &s;
        break;
      }
    }
    if (copy == nullptr) {
      ++snap.unmatched;
      pending.erase(it);
      continue;
    }
    snap.records.push_back(
        make_record(c, j.accel_valid ? &j.accel : nullptr, *copy));
    pending.erase(it);
  }
  snap.pending_at_end = pending.size();
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
  os << "repeat,req,complete_us,server,dup,via_rs,component,ns\n";
  for (std::size_t rep = 0; rep < repeats.size(); ++rep) {
    for (const FlightRecord& r : repeats[rep].records) {
      const std::string t = format_time_us(r.completed_at);
      const char* prefix_dup = r.dup_won ? "1" : "0";
      const char* prefix_rs = r.via_rs ? "1" : "0";
      for (std::size_t c = 0; c < kFlightComponents; ++c) {
        os << rep << ',' << r.request_id << ',' << t << ',' << r.server
           << ',' << prefix_dup << ',' << prefix_rs << ','
           << kFlightComponentNames[c] << ',' << r.components[c] << '\n';
      }
      os << rep << ',' << r.request_id << ',' << t << ',' << r.server << ','
         << prefix_dup << ',' << prefix_rs << ",total," << r.total << '\n';
    }
  }
}

}  // namespace netrs::obs
