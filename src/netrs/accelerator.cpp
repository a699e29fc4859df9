#include "netrs/accelerator.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <string>
#include <utility>

#include "netrs/packet_format.hpp"
#include "obs/observer.hpp"

namespace netrs::core {

Accelerator::Accelerator(net::Fabric& fabric, net::NodeId co_located_switch,
                         AcceleratorConfig cfg)
    : fabric_(fabric), sim_(fabric.simulator_for(co_located_switch)),
      cfg_(cfg),
      station_(sim_, cfg.cores,
               "accelerator@" + std::to_string(co_located_switch)) {
  primary_switch_ = co_located_switch;
  primary_node_ = attach_switch(co_located_switch);
}

net::NodeId Accelerator::attach_switch(net::NodeId sw) {
  auto it = by_switch_.find(sw);
  if (it != by_switch_.end()) return it->second;
  // A shared accelerator must stay on one shard: every switch it is cabled
  // to has to live in the same core group / pod (the 1.25 us link is far
  // below the cross-shard lookahead window).
  assert(&fabric_.simulator_for(sw) == &sim_ &&
         "accelerator shared across shards");
  const net::NodeId aux = fabric_.attach_auxiliary(this, sw);
  by_switch_.emplace(sw, aux);
  return aux;
}

net::NodeId Accelerator::node_id_for(net::NodeId sw) const {
  const auto it = by_switch_.find(sw);
  assert(it != by_switch_.end() && "switch not cabled to this accelerator");
  return it->second;
}

void Accelerator::receive(net::Packet pkt, net::NodeId from) {
  shard_affinity().check("receive");
  if (failed_) {
    // A failed accelerator is dark: the switch's forwarded packet is
    // dropped, so the request it carried never reaches a server and the
    // issuing client's Pending entry stays open (no client timeouts).
    sim_.auditor().on_packet_dropped("accel-down");
    return;
  }
  if constexpr (sim::kAuditEnabled) {
    sim_.auditor().check(
        by_switch_.contains(from), "invalid-forward", [&] {
          return "accelerator received packet src=" +
                 std::to_string(pkt.src) + " from uncabled switch " +
                 std::to_string(from);
        });
  } else {
    assert(by_switch_.contains(from) &&
           "packet from a switch this accelerator is not cabled to");
  }
  Job job{std::move(pkt), from, sim_.now()};
  if (station_.has_free_slot()) {
    start_service(std::move(job));
  } else {
    station_.enqueue(std::move(job));
  }
}

void Accelerator::start_service(Job job) {
  const auto mf = peek_magic(job.pkt.payload);
  const bool request =
      mf.has_value() && classify(*mf) == PacketKind::kNetRSRequest;
  const sim::Duration service =
      request ? cfg_.request_service_time : cfg_.response_service_time;
  const sim::Time now = sim_.now();
  if (request) {
    // Flight stamps for the client's attribution (net::PacketMeta). The
    // selection relabels the request (Mreq -> f(Mresp), or a plain label
    // on DRS), so no later accelerator serves it as a request again.
    net::PacketMeta& meta = job.pkt.meta;
    if constexpr (sim::kAuditEnabled) {
      sim_.auditor().check(!meta.accel_stamped, "flight-restamp", [&] {
        return "request " + std::to_string(meta.request_id) +
               " served as a request by a second accelerator";
      });
    }
    meta.accel_stamped = true;
    meta.accel_arrival = job.enqueued;
    meta.accel_start = now;
    meta.accel_service = service;
  }
  // Both spans are known here: the wait ended now and the (deterministic)
  // service ends `service` from now.
  if (obs::Observer* o = sim_.observer()) {
    const auto tid = static_cast<std::int32_t>(primary_node_);
    const std::uint64_t rid = job.pkt.meta.request_id;
    if (now > job.enqueued) {
      o->span("accel.queue", "accel", tid, job.enqueued, now - job.enqueued,
              rid);
    }
    o->span("accel.service", "accel", tid, now, service, rid, "is_req",
            request ? 1 : 0);
  }
  station_.start(std::move(job), service, [this](Job done, sim::Time started) {
    finish_service(std::move(done), started);
  });
}

void Accelerator::finish_service(Job job, sim::Time started) {
  // Charge only the busy time inside the current window: a
  // reset_utilization() mid-service moved window_start_ past `started`.
  busy_accum_ += sim_.now() - std::max(started, window_start_);
  ++processed_;
  // The handler runs and its packet is sent before the next job starts.
  if (handler_) {
    const net::NodeId from = job.from_switch;
    std::optional<net::Packet> out = handler_(std::move(job.pkt));
    if (out.has_value()) {
      fabric_.send(by_switch_.at(from), from, std::move(*out));
    }
  }
  if (std::optional<Job> next = station_.dequeue()) {
    start_service(std::move(*next));
  }
}

void Accelerator::fail() {
  if (failed_) return;
  failed_ = true;
  // In-flight services are charged up to the crash, as a window close
  // would charge them; then queued and in-service jobs are dropped.
  busy_accum_ = busy_time(sim_.now());
  station_.crash("accel-crash");
}

void Accelerator::recover() { failed_ = false; }

sim::Duration Accelerator::busy_time(sim::Time now) const {
  sim::Duration busy = busy_accum_;
  station_.for_each_in_service([this, now, &busy](const Job&,
                                                  sim::Time started) {
    const sim::Time from = std::max(started, window_start_);
    if (now > from) busy += now - from;
  });
  return busy;
}

double Accelerator::utilization(sim::Time now) const {
  const sim::Duration span = now - window_start_;
  if (span <= 0) return 0.0;
  return static_cast<double>(busy_time(now)) /
         (static_cast<double>(span) * cfg_.cores);
}

void Accelerator::reset_utilization(sim::Time now) {
  if constexpr (sim::kAuditEnabled) {
    // Busy core-time can never exceed the window's wall time x cores; an
    // overflow here is the PR 1 utilization-accounting bug resurfacing.
    // Checked here (window close) rather than in utilization() so the
    // getter stays a pure const read for samplers.
    const sim::Duration span = now - window_start_;
    if (span > 0) station_.check_busy_time(busy_time(now), span);
  }
  // In-flight services are split at the boundary: busy_time() and
  // finish_service() charge only what falls after the new window_start_.
  window_start_ = now;
  busy_accum_ = 0;
}

}  // namespace netrs::core
