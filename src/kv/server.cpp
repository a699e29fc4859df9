#include "kv/server.hpp"

#include <cassert>
#include <optional>
#include <string>
#include <utility>

#include "netrs/packet_format.hpp"
#include "obs/observer.hpp"

namespace netrs::kv {
namespace {

/// EWMA weight of the service time piggybacked in the SS fields.
constexpr double kStatusEwmaAlpha = 0.9;

}  // namespace

Server::Server(net::Fabric& fabric, net::HostId id, ServerConfig cfg,
               sim::Rng rng)
    : net::Host(fabric, id),
      cfg_(cfg),
      rng_(rng),
      current_mean_(cfg.mean_service_time),
      station_(simulator(), cfg.parallelism, "server@" + std::to_string(id)),
      service_time_ewma_(kStatusEwmaAlpha) {
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
    simulator().auditor().on_packet_dropped("server-down");
    return;
  }
  // A real server drops traffic it cannot parse instead of crashing.
  if (!core::decode_request(pkt.payload).has_value()) {
    simulator().auditor().on_packet_dropped("server-malformed");
    return;
  }
  const auto app = decode_app_request(core::request_app_payload(pkt.payload));
  if (!app.has_value()) {
    simulator().auditor().on_packet_dropped("server-malformed");
    return;
  }
  if (app->op == AppOp::kCancel) {
    handle_cancel(pkt, *app);
    return;
  }
  Job job{std::move(pkt), simulator().now()};
  if (station_.has_free_slot()) {
    start_service(std::move(job));
  } else {
    station_.enqueue(std::move(job));
    journal_state();
  }
}

void Server::handle_cancel(const net::Packet& cancel, const AppRequest& app) {
  // Cross-server cancellation: remove the matching *queued* copy (an
  // in-service request cannot be recalled) and settle it immediately with
  // an empty response so the issuing client's bookkeeping completes.
  std::optional<Job> victim = station_.remove_first([&](const Job& job) {
    if (job.pkt.src != cancel.src) return false;
    const auto queued_app =
        decode_app_request(core::request_app_payload(job.pkt.payload));
    return queued_app.has_value() &&
           queued_app->client_request_id == app.client_request_id;
  });
  // Not queued (already serving, served, or never arrived): ignore; the
  // normal response settles the copy.
  if (!victim.has_value()) return;
  simulator().auditor().on_packet_dropped("server-cancel");
  journal_state();
  if (obs::Observer* o = simulator().observer()) {
    o->instant("kv.cancel", "kv", static_cast<std::int32_t>(node_id()),
               simulator().now(), victim->pkt.meta.request_id);
  }
  send_response(victim->pkt, /*value_bytes=*/0);
}

void Server::start_service(Job job) {
  // Slow-node inflation scales the sampled mean; at the default 1.0 the
  // multiply is exact, so the RNG stream (and golden digests) are
  // untouched in fault-free runs.
  const double mean = static_cast<double>(current_mean_) * inflation_;
  const auto service =
      cfg_.deterministic_service
          ? static_cast<sim::Duration>(mean)
          : static_cast<sim::Duration>(rng_.exponential(mean));
  const sim::Time now = simulator().now();
  // Flight stamps: send_response() copies `meta` into the response, so
  // the client reads this copy's server timing off the response it gets.
  net::PacketMeta& meta = job.pkt.meta;
  if constexpr (sim::kAuditEnabled) {
    simulator().auditor().check(!meta.server_stamped, "flight-restamp", [&] {
      return "request " + std::to_string(meta.request_id) +
             " copy served twice by server " + std::to_string(host_id());
    });
  }
  meta.server_stamped = true;
  meta.server_arrival = job.enqueued;
  meta.server_start = now;
  meta.server_service = service;
  // Both spans are known here: the wait ended now and the (just-sampled)
  // service ends `service` from now.
  if (obs::Observer* o = simulator().observer()) {
    const auto tid = static_cast<std::int32_t>(node_id());
    const std::uint64_t rid = meta.request_id;
    if (now > job.enqueued) {
      o->span("kv.queue", "kv", tid, job.enqueued, now - job.enqueued, rid);
    }
    o->span("kv.service", "kv", tid, now, service, rid);
  }
  station_.start(std::move(job), service, [this](Job done, sim::Time started) {
    finish_service(std::move(done), started);
  });
  journal_state();
}

void Server::finish_service(Job job, sim::Time started) {
  // The completion fires exactly `service` after `started`.
  service_time_ewma_.add(sim::to_micros(simulator().now() - started));
  // Respond before dequeuing: the piggybacked queue size counts the slot
  // just freed as idle and the next request as still waiting.
  send_response(job.pkt, cfg_.value_bytes);
  if (std::optional<Job> next = station_.dequeue()) {
    start_service(std::move(*next));
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
  // Queued and in-service requests alike are crash casualties; the slots
  // free immediately so recover() starts from a clean station.
  station_.crash("server-crash");
  journal_state();
}

void Server::recover() {
  failed_ = false;
  journal_state();
}

}  // namespace netrs::kv
