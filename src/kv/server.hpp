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
#include <deque>
#include <vector>

#include "kv/app_message.hpp"
#include "net/host.hpp"
#include "sim/affinity.hpp"
#include "sim/audit.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
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
  double status_ewma_alpha = 0.9;  ///< EWMA weight of the SS service time.
};

/// Key-value server: an Np-way parallel queueing station with bimodal
/// service-time fluctuation (see the file comment).
class NETRS_SHARD_LOCAL Server final : public net::Host {
 public:
  /// Attaches the server to `fabric` as host `id`.
  Server(net::Fabric& fabric, net::HostId id, ServerConfig cfg, sim::Rng rng);

  /// Handles a delivered request (or cancel) packet.
  void receive(net::Packet pkt, net::NodeId from) override;

  /// Fault hook — reached only through sim::FaultInjector at global-sim
  /// barriers (fault-hook-discipline lint rule). Crashes the server:
  /// queued requests are dropped (`server-crash` in the audit ledger),
  /// in-flight completions are cancelled and their requests dropped, and
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
  /// Packets rejected while crashed (diagnostic).
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }

  /// Waiting + in-service requests (the SS queue-size field). Legitimate
  /// off-shard readers (herd sampler, decision oracle) run at barriers or
  /// in serial mode, where the affinity check passes by construction.
  [[nodiscard]] std::uint32_t queue_size() const {
    shard_affinity().check("queue_size");
    return static_cast<std::uint32_t>(queue_.size()) +
           static_cast<std::uint32_t>(in_service_);
  }

  /// Requests fully served.
  [[nodiscard]] std::uint64_t served() const { return served_; }
  /// Unparseable packets dropped (diagnostic).
  [[nodiscard]] std::uint64_t malformed() const { return malformed_; }
  /// Queued requests removed by cross-server cancellation.
  [[nodiscard]] std::uint64_t cancelled() const { return cancelled_; }
  /// Fraction of time the server had at least one busy slot (diagnostic).
  [[nodiscard]] double busy_fraction(sim::Time now) const;
  /// Current fluctuation-mode mean, scaled by any slow-node inflation
  /// (tests and the decision auditor's oracle).
  [[nodiscard]] sim::Duration current_mean() const {
    return static_cast<sim::Duration>(static_cast<double>(current_mean_) *
                                      inflation_);
  }
  /// Configured service parallelism Np (the decision auditor's oracle).
  [[nodiscard]] int parallelism() const { return cfg_.parallelism; }

 private:
  /// A waiting request plus its arrival time (for the kv.queue trace span).
  struct Queued {
    net::Packet pkt;
    sim::Time enqueued = 0;
  };

  void start_service(net::Packet pkt, sim::Time arrival);
  void finish_service(std::size_t slot, sim::Duration service_time);
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
  std::deque<Queued> queue_;
  // In-service requests parked per parallelism slot (valid iff
  // slot_busy_), so the completion event captures {this, slot, service}
  // and stays inline in the scheduled Task — no per-request allocation.
  std::vector<net::Packet> service_slots_;
  std::vector<bool> slot_busy_;
  // Per-slot completion EventId so fail() can cancel in-flight service.
  std::vector<sim::EventId> service_events_;
  int in_service_ = 0;
  bool failed_ = false;      // crash-fault flag (fail()/recover())
  double inflation_ = 1.0;   // slow-node service-time multiplier
  std::uint64_t rejected_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t malformed_ = 0;
  std::uint64_t cancelled_ = 0;
  sim::Ewma service_time_ewma_;
  // Busy-time accounting.
  sim::Time busy_since_ = 0;
  sim::Duration busy_accum_ = 0;
  sim::StationLedger station_ledger_;  // queue-accounting audit
};

}  // namespace netrs::kv
