#include "kv/server.hpp"

#include <cassert>
#include <utility>

#include "netrs/packet_format.hpp"
#include "obs/observer.hpp"

namespace netrs::kv {

Server::Server(net::Fabric& fabric, net::HostId id, ServerConfig cfg,
               sim::Rng rng)
    : net::Host(fabric, id),
      cfg_(cfg),
      rng_(rng),
      current_mean_(cfg.mean_service_time),
      service_time_ewma_(cfg.status_ewma_alpha) {
  assert(cfg.parallelism >= 1);
  service_slots_.resize(static_cast<std::size_t>(cfg.parallelism));
  slot_busy_.resize(static_cast<std::size_t>(cfg.parallelism), false);
  service_events_.resize(static_cast<std::size_t>(cfg.parallelism), 0);
  station_ledger_.set_name("server@" + std::to_string(id));
  // Seed the advertised service time with the configured mean so early
  // piggybacks are sane.
  service_time_ewma_.add(sim::to_micros(cfg.mean_service_time));
  if (cfg_.fluctuate) {
    // Randomize the initial mode as well.
    fluctuate();
    simulator().every(cfg_.fluctuation_interval, [this] {
      fluctuate();
      return true;
    });
  }
}

void Server::fluctuate() {
  const double fast_mean =
      static_cast<double>(cfg_.mean_service_time) / cfg_.fluctuation_factor;
  current_mean_ = rng_.bernoulli(0.5)
                      ? cfg_.mean_service_time
                      : static_cast<sim::Duration>(fast_mean);
  journal_state();
}

void Server::set_service_inflation(double factor) {
  inflation_ = factor;
  journal_state();
}

void Server::journal_state() {
  // Oracle journal for the decision replay: one entry per {queue,
  // parallelism, mean} transition, on this server's own shard recorder
  // (fault hooks run at coordinator barriers, where the affinity check
  // inside queue_size() passes by construction).
  if (obs::Observer* o = simulator().observer()) {
    o->decisions().on_server_state(host_id(), simulator().now(), queue_size(),
                                   cfg_.parallelism, current_mean());
  }
}

void Server::receive(net::Packet pkt, net::NodeId from) {
  shard_affinity().check("receive");
  (void)from;
  assert(pkt.dst == host_id());
  if (failed_) {
    // A crashed server is dark: every arrival (requests and cancels
    // alike) is dropped on the floor. The issuing client's Pending entry
    // stays open until the run's drain deadline — there are no client
    // timeouts — so losses surface as issued > completed.
    ++rejected_;
    simulator().auditor().on_packet_dropped("server-down");
    return;
  }
  // A real server drops traffic it cannot parse instead of crashing.
  if (!core::decode_request(pkt.payload).has_value()) {
    ++malformed_;
    simulator().auditor().on_packet_dropped("server-malformed");
    return;
  }
  const auto app = decode_app_request(core::request_app_payload(pkt.payload));
  if (!app.has_value()) {
    ++malformed_;
    simulator().auditor().on_packet_dropped("server-malformed");
    return;
  }
  if (app->op == AppOp::kCancel) {
    handle_cancel(pkt, *app);
    return;
  }
  if (in_service_ < cfg_.parallelism) {
    start_service(std::move(pkt), simulator().now());
  } else {
    queue_.push_back(Queued{std::move(pkt), simulator().now()});
    station_ledger_.on_enqueue(simulator().auditor(), queue_.size());
    journal_state();
  }
}

void Server::handle_cancel(const net::Packet& cancel, const AppRequest& app) {
  // Cross-server cancellation: remove the matching *queued* copy (an
  // in-service request cannot be recalled) and settle it immediately with
  // an empty response so the issuing client's bookkeeping completes.
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->pkt.src != cancel.src) continue;
    const auto queued_app =
        decode_app_request(core::request_app_payload(it->pkt.payload));
    if (!queued_app.has_value() ||
        queued_app->client_request_id != app.client_request_id) {
      continue;
    }
    net::Packet victim = std::move(it->pkt);
    queue_.erase(it);
    station_ledger_.on_remove(simulator().auditor(), queue_.size());
    simulator().auditor().on_packet_dropped("server-cancel");
    ++cancelled_;
    journal_state();
    if (obs::Observer* o = simulator().observer()) {
      o->instant("kv.cancel", "kv", static_cast<std::int32_t>(node_id()),
                 simulator().now(), victim.meta.request_id);
    }
    send_response(victim, /*value_bytes=*/0);
    return;
  }
  // Not queued (already serving, served, or never arrived): ignore; the
  // normal response settles the copy.
}

void Server::start_service(net::Packet pkt, sim::Time arrival) {
  if (in_service_ == 0) busy_since_ = simulator().now();
  ++in_service_;
  station_ledger_.on_service_start(simulator().auditor(), in_service_,
                                   cfg_.parallelism);
  std::size_t slot = slot_busy_.size();
  for (std::size_t s = 0; s < slot_busy_.size(); ++s) {
    if (!slot_busy_[s]) {
      slot = s;
      break;
    }
  }
  if constexpr (sim::kAuditEnabled) {
    simulator().auditor().check(
        slot < slot_busy_.size(), "service-slot-overflow", [&] {
          return "server admitted a request with all " +
                 std::to_string(cfg_.parallelism) + " slots busy";
        });
    if (slot >= slot_busy_.size()) return;  // unrecordable; avoid UB
  } else {
    assert(slot < slot_busy_.size() &&
           "in_service_ admitted more requests than parallelism");
  }
  slot_busy_[slot] = true;
  // Slow-node inflation scales the sampled mean; at the default 1.0 the
  // multiply is exact, so the RNG stream (and golden digests) are
  // untouched in fault-free runs.
  const double mean = static_cast<double>(current_mean_) * inflation_;
  const auto service =
      cfg_.deterministic_service
          ? static_cast<sim::Duration>(mean)
          : static_cast<sim::Duration>(rng_.exponential(mean));
  // Both spans are known here: the wait ended now and the (just-sampled)
  // service ends `service` from now.
  if (obs::Observer* o = simulator().observer()) {
    const sim::Time now = simulator().now();
    const auto tid = static_cast<std::int32_t>(node_id());
    if (now > arrival) {
      o->span("kv.queue", "kv", tid, arrival, now - arrival,
              pkt.meta.request_id);
    }
    o->span("kv.service", "kv", tid, now, service, pkt.meta.request_id);
    o->flight().on_server(pkt.meta.request_id, host_id(), arrival, now,
                          service);
  }
  // The request parks in its slot; the completion event captures
  // {this, slot, service} only, so scheduling never heap-allocates.
  service_slots_[slot] = std::move(pkt);
  service_events_[slot] = simulator().after(
      service, [this, slot, service] { finish_service(slot, service); });
  journal_state();
}

void Server::finish_service(std::size_t slot, sim::Duration service_time) {
  if constexpr (sim::kAuditEnabled) {
    simulator().auditor().check(
        in_service_ > 0 && slot_busy_[slot], "service-slot-underflow", [&] {
          return "server completion fired for slot " + std::to_string(slot) +
                 " with in_service=" + std::to_string(in_service_) +
                 " slot_busy=" +
                 std::to_string(static_cast<int>(slot_busy_[slot]));
        });
  } else {
    assert(in_service_ > 0);
    assert(slot_busy_[slot]);
  }
  --in_service_;
  station_ledger_.on_service_finish(simulator().auditor(), in_service_,
                                    cfg_.parallelism);
  if (in_service_ == 0) busy_accum_ += simulator().now() - busy_since_;
  net::Packet pkt = std::move(service_slots_[slot]);
  slot_busy_[slot] = false;
  ++served_;
  service_time_ewma_.add(sim::to_micros(service_time));
  send_response(pkt, cfg_.value_bytes);

  if (!queue_.empty()) {
    Queued next = std::move(queue_.front());
    queue_.pop_front();
    station_ledger_.on_dequeue(simulator().auditor(), queue_.size());
    start_service(std::move(next.pkt), next.enqueued);
  } else {
    journal_state();
  }
}

void Server::send_response(const net::Packet& pkt,
                           std::uint32_t value_bytes) {
  // Build the response per §IV: copy RID/RV, invert the magic field,
  // piggyback status. The SM segment is filled in by our ToR switch.
  // (Parseability was checked on receive.)
  const auto req = core::decode_request(pkt.payload);
  const auto app = decode_app_request(core::request_app_payload(pkt.payload));
  assert(req.has_value() && app.has_value());

  core::ResponseHeader rh;
  rh.rid = req->rid;
  rh.mf = core::magic_f_inverse(req->mf);
  rh.rv = req->rv;
  rh.sm = net::SourceMarker{};  // set by the ToR on network entry
  rh.status.queue_size = queue_size();
  rh.status.service_time_ns = static_cast<std::uint32_t>(
      service_time_ewma_.value() * 1000.0);  // EWMA is in microseconds

  AppResponse ar;
  ar.client_request_id = app->client_request_id;
  ar.key = app->key;
  ar.value_bytes = value_bytes;

  net::Packet resp;
  resp.dst = pkt.src;
  resp.src_port = kServerPort;
  resp.dst_port = pkt.src_port;
  resp.payload = core::encode_response(rh, encode_app_response(ar));
  resp.phantom_payload = value_bytes;
  resp.meta = pkt.meta;  // keep request id / send time for measurement
  send(std::move(resp));
}

void Server::fail() {
  if (failed_) return;
  failed_ = true;
  sim::Auditor& audit = simulator().auditor();
  // Drop the FIFO queue: each waiting request leaves the station ledger
  // and is accounted as a crash casualty.
  while (!queue_.empty()) {
    queue_.pop_front();
    station_ledger_.on_remove(audit, queue_.size());
    audit.on_packet_dropped("server-crash");
  }
  // Cancel every in-flight completion and drop the parked request; the
  // slot frees immediately so recover() starts from a clean station.
  const bool was_busy = in_service_ > 0;
  for (std::size_t slot = 0; slot < slot_busy_.size(); ++slot) {
    if (!slot_busy_[slot]) continue;
    simulator().cancel(service_events_[slot]);
    slot_busy_[slot] = false;
    service_slots_[slot] = net::Packet{};
    --in_service_;
    station_ledger_.on_service_finish(audit, in_service_, cfg_.parallelism);
    audit.on_packet_dropped("server-crash");
  }
  if (was_busy) busy_accum_ += simulator().now() - busy_since_;
  journal_state();
}

void Server::recover() {
  failed_ = false;
  journal_state();
}

double Server::busy_fraction(sim::Time now) const {
  sim::Duration busy = busy_accum_;
  if (in_service_ > 0) busy += now - busy_since_;
  return now > 0 ? static_cast<double>(busy) / static_cast<double>(now) : 0.0;
}

}  // namespace netrs::kv
