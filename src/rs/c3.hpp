// C3 replica selection (Suresh, Canini, Schmid, Feldmann — NSDI'15), the
// state-of-the-art algorithm the paper runs on every RSNode (§V-A).
//
// Replica ranking: each RSNode keeps, per server s,
//   R̄_s  — EWMA of measured response times,
//   T̄_s  — EWMA of server-reported service times (piggybacked SS),
//   q_s  — last reported queue size (piggybacked SS),
//   os_s — requests outstanding from this RSNode.
// The queue estimate with concurrency compensation is
//   q̂_s = 1 + os_s * n + q_s          (n = number of RSNodes in the system)
// and the score is the cubic function
//   Ψ_s = (R̄_s - T̄_s) + q̂_s^b * T̄_s   (b = 3),
// i.e. expected wait excluding own service plus a cubically penalized queue
// term. The replica with minimal Ψ wins.
//
// Distributed rate control: a CUBIC controller per server limits the send
// rate. Deviation from C3: when every replica's controller is exhausted we
// send to the best-ranked replica anyway instead of parking the request in
// a backpressure queue — RSNodes in the data plane cannot buffer
// indefinitely. DESIGN.md records this substitution.
#pragma once

#include <vector>

#include "rs/rate_control.hpp"
#include "rs/selector.hpp"
#include "rs/server_table.hpp"
#include "sim/affinity.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace netrs::rs {

/// C3 tuning knobs (defaults follow the NSDI'15 paper; c3.cpp holds the
/// EWMA weight and cubic exponent).
struct NETRS_SHARED_IMMUTABLE C3Options {
  /// Concurrency-compensation factor n: how many RSNodes share the servers.
  double concurrency = 1.0;
  bool rate_control = true;  ///< Enable CUBIC rate control ("c3-norate" off).
  CubicOptions cubic;        ///< Per-server rate-controller parameters.
  /// Prior service time for servers never heard from (paper tkv = 4 ms).
  sim::Duration service_time_prior = sim::millis(4);
};

/// C3 replica selection: cubic replica ranking plus CUBIC rate control
/// (see the file comment for the scoring function).
class NETRS_SHARD_LOCAL C3Selector final : public ReplicaSelector {
 public:
  /// `sim` supplies the clock for rate control; `rng` breaks score ties.
  C3Selector(sim::Simulator& sim, sim::Rng rng, C3Options opts);

  /// Returns the candidate with minimal score Ψ whose rate controller
  /// admits a send (or the best-ranked one when all are exhausted).
  net::HostId select(std::span<const net::HostId> candidates) override;
  /// Increments the server's outstanding count.
  void on_send(net::HostId server) override;
  /// Folds the SS fields and measured response time into the server state.
  void on_response(const Feedback& fb) override;
  /// "c3".
  [[nodiscard]] std::string name() const override { return "c3"; }

  /// Current score of a server (exposed for tests).
  [[nodiscard]] double score(net::HostId server) const;
  /// Outstanding requests to a server from this RSNode (for tests).
  [[nodiscard]] std::uint32_t outstanding(net::HostId server) const;

 private:
  // Ranked candidate; sorted by (score, host) exactly like the
  // pair<double, HostId> this replaced, with the slot carried along so the
  // rate-control pass needs no second lookup.
  struct Ranked {
    double score;
    net::HostId host;
    std::uint32_t slot;

    bool operator<(const Ranked& o) const {
      if (score != o.score) return score < o.score;
      return host < o.host;
    }
  };

  // What this RSNode knows of one server.
  struct Server {
    explicit Server(const CubicOptions& cubic);

    sim::Ewma response_time;  // R̄_s
    sim::Ewma service_time;   // T̄_s
    std::uint32_t queue_size = 0;   // q_s
    std::uint32_t outstanding = 0;  // os_s
    sim::Time last_feedback = 0;
    bool heard = false;
    CubicRateController rate;
  };

  /// Slot of `server`, created on first touch (one Server appended).
  std::uint32_t slot_of(net::HostId server);
  [[nodiscard]] double score_of(std::uint32_t slot) const;

  sim::Simulator& sim_;
  sim::Rng rng_;
  C3Options opts_;
  // Per-server state in one vector indexed by the slot from index_, so a
  // new server costs at most one growth of one vector. Nothing is sized
  // at construction: most RSNodes never select.
  HostSlotIndex index_;
  std::vector<Server> servers_;
  // Scratch buffers reused across select() calls, sized on the first.
  std::vector<Ranked> ranked_;
  std::vector<double> scores_scratch_;
  std::vector<sim::Duration> ages_scratch_;
};

}  // namespace netrs::rs
