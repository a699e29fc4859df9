// Key-value server model (paper §V-A).
//
// An Np-way parallel queueing station: up to `parallelism` requests are in
// service simultaneously, the rest wait FIFO. Service times are exponential
// with a mean that fluctuates every `fluctuation_interval`: with equal
// probability the mean is tkv (slow mode) or tkv/d (fast mode), the bimodal
// cloud-performance model of Schad et al. the paper adopts (d = 3).
//
// Responses follow §IV: RID and RV are copied from the request, the magic
// field is f^-1(request MF), and the server piggybacks its status SS
// (queue size and its own EWMA of observed service times) for the RSNode's
// replica-selection algorithm.
#pragma once

#include <cstdint>

#include "kv/app_message.hpp"
#include "net/host.hpp"
#include "sim/affinity.hpp"
#include "sim/rng.hpp"
#include "sim/station.hpp"
#include "sim/stats.hpp"

namespace netrs::kv {

/// Service-process parameters (defaults follow the paper, see the file
/// comment).
struct NETRS_SHARED_IMMUTABLE ServerConfig {
  int parallelism = 4;                              ///< Np
  sim::Duration mean_service_time = sim::millis(4); ///< tkv
  /// When true, every request takes exactly the current mean (no
  /// exponential sampling) — for tests and deterministic ablations.
  bool deterministic_service = false;
  bool fluctuate = true;  ///< Enable the bimodal fast/slow mode switching.
  /// How often the service-time mode is re-drawn.
  sim::Duration fluctuation_interval = sim::millis(50);
  double fluctuation_factor = 3.0;                  ///< d: fast mean = tkv/d
  std::uint32_t value_bytes = 1024;                 ///< response value size
};

/// Key-value server: an Np-way parallel queueing station with bimodal
/// service-time fluctuation (see the file comment).
class NETRS_SHARD_LOCAL Server final : public net::Host {
 public:
  /// Attaches the server to `fabric` as host `id`. Throws
  /// std::invalid_argument when `cfg.parallelism` < 1.
  Server(net::Fabric& fabric, net::HostId id, ServerConfig cfg, sim::Rng rng);

  /// Handles a delivered request (or cancel) packet.
  void receive(net::Packet pkt, net::NodeId from) override;

  /// Fault hook — reached only through sim::FaultInjector at global-sim
  /// barriers (fault-hook-discipline lint rule). Crashes the server:
  /// queued and in-service requests are dropped (`server-crash` in the
  /// audit ledger), the dropped requests' completions do nothing, and
  /// all traffic is rejected (`server-down`) until recover().
  void fail();
  /// Fault hook — clears the crash flag; the server resumes with an
  /// empty queue and fresh slots.
  void recover();
  /// Fault hook — sets the slow-node service-time inflation factor
  /// (1.0 = nominal). Scales the mean the service sampler and the
  /// advertised/oracle mean both see.
  void set_service_inflation(double factor);

  /// True while crashed by fault injection.
  [[nodiscard]] bool failed() const { return failed_; }

  /// Waiting requests the station holds before its queue next doubles
  /// (diagnostic).
  [[nodiscard]] std::size_t queue_capacity() const {
    return station_.queue_capacity();
  }
  /// Waiting + in-service requests (the SS queue-size field). Legitimate
  /// off-shard readers (herd sampler, decision oracle) run at barriers or
  /// in serial mode, where the affinity check passes by construction.
  [[nodiscard]] std::uint32_t queue_size() const {
    shard_affinity().check("queue_size");
    return static_cast<std::uint32_t>(station_.queued()) +
           static_cast<std::uint32_t>(station_.busy());
  }

  /// Current fluctuation-mode mean, scaled by any slow-node inflation
  /// (tests and the decision auditor's oracle).
  [[nodiscard]] sim::Duration current_mean() const {
    return static_cast<sim::Duration>(static_cast<double>(current_mean_) *
                                      inflation_);
  }
  /// Configured service parallelism Np (the decision auditor's oracle).
  [[nodiscard]] int parallelism() const { return cfg_.parallelism; }

 private:
  /// A request plus its arrival time (for the kv.queue trace span).
  struct Job {
    net::Packet pkt;
    sim::Time enqueued = 0;
  };

  void start_service(Job job);
  void finish_service(Job job, sim::Time started);
  void handle_cancel(const net::Packet& cancel, const AppRequest& app);
  void send_response(const net::Packet& pkt, std::uint32_t value_bytes);
  void fluctuate();
  /// Journals {queue_size, parallelism, current mean} to the decision
  /// recorder's oracle journal after any transition of those values
  /// (no-op without an observer or with decision auditing off).
  void journal_state();

  ServerConfig cfg_;
  sim::Rng rng_;
  sim::Duration current_mean_;
  sim::Station<Job> station_;
  bool failed_ = false;      // crash-fault flag (fail()/recover())
  double inflation_ = 1.0;   // slow-node service-time multiplier
  sim::Ewma service_time_ewma_;
};

}  // namespace netrs::kv
