// Key-value client / workload generator (paper §V-A).
//
// Open-loop Poisson arrivals; keys drawn from a Zipf(0.99) distribution
// over the keyspace. Two operating modes:
//
//   kClientSelect (CliRS)  — the client is the RSNode: it runs a local
//     ReplicaSelector (C3 by default) fed by piggybacked server status, and
//     optionally issues one redundant request per primary after it has been
//     outstanding longer than the client's streaming 95th-percentile
//     latency estimate (the CliRS-R95 scheme).
//
//   kNetRS — replica selection happens in the network: the client emits a
//     NetRS request (MF = Mreq, RID unset, RGID of the key's replica group)
//     whose destination is a *backup* replica (the Degraded Replica
//     Selection target required by §III-C); the ToR assigns the RSNode.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "kv/app_message.hpp"
#include "kv/consistent_hash.hpp"
#include "net/host.hpp"
#include "rs/factory.hpp"
#include "sim/affinity.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace netrs::kv {

/// Who performs replica selection (see the file comment).
enum class ClientMode {
  kClientSelect,  ///< Client-side selection (CliRS / CliRS-R95).
  kNetRS,         ///< In-network selection at an RSNode.
};

/// CliRS-R95 duplicate-request policy knobs.
struct NETRS_SHARED_IMMUTABLE RedundancyConfig {
  bool enabled = false;  ///< CliRS-R95 when true (kClientSelect mode only)
  /// Minimum completed requests before duplicates may fire (estimator
  /// warmup; duplicating on a cold estimate would flood the cluster).
  std::uint64_t min_samples = 30;
  /// Cross-server cancellation ("The Tail at Scale"): when the first
  /// response arrives, send cancels for the still-outstanding copies so
  /// servers can drop them from their queues.
  bool cancel_on_completion = false;
};

/// Per-client workload and selection parameters.
struct NETRS_SHARED_IMMUTABLE ClientConfig {
  ClientMode mode = ClientMode::kClientSelect;  ///< Selection scheme.
  double arrival_rate = 100.0;  ///< requests per second (open loop)
  RedundancyConfig redundancy;
  rs::SelectorConfig selector;  ///< local algorithm for kClientSelect
};

/// Key-value client: open-loop workload generator and latency observer
/// (see the file comment for the two operating modes).
class NETRS_SHARD_LOCAL Client final : public net::Host {
 public:
  /// Everything recorded about one finished request.
  struct Completion {
    sim::Duration latency = 0;  ///< First-response latency.
    std::uint64_t key = 0;      ///< Key that was read.
    net::HostId server = net::kInvalidHost;  ///< first responder
    bool redundant_used = false;             ///< a duplicate had been sent
    /// Switch forwarding operations over the whole request+response path
    /// (the paper's hop metric; extra hops to RSNodes show up here).
    std::uint32_t forwards = 0;
    /// Completion time on the client's own shard clock (under sharding the
    /// harness must not read another simulator's now() for warmup cuts).
    sim::Time completed_at = 0;
  };
  /// Invoked once per completed request (first response).
  using CompletionCallback = std::function<void(const Completion&)>;

  /// `zipf` and `ring` are shared, immutable workload state owned by the
  /// harness; they must outlive the client.
  Client(net::Fabric& fabric, net::HostId id, ClientConfig cfg,
         const ConsistentHashRing& ring, const sim::ZipfDistribution& zipf,
         sim::Rng rng);

  /// Begins the open-loop arrival process.
  void start();
  /// Stops generating new requests (in-flight ones still complete).
  void stop() { running_ = false; }

  /// Registers the per-completion observer (the harness's latency sink).
  void set_completion_callback(CompletionCallback cb) {
    on_complete_ = std::move(cb);
  }

  /// Installs the decision-audit hook on the local selector (no-op in
  /// kNetRS mode, where selection happens at an RSNode instead).
  void set_decision_hook(rs::DecisionHook hook) {
    if (selector_) selector_->set_decision_hook(std::move(hook));
  }

  /// Handles a delivered response packet.
  void receive(net::Packet pkt, net::NodeId from) override;

  /// Primary requests issued so far.
  [[nodiscard]] std::uint64_t issued() const { return issued_; }
  /// Requests completed (first response received).
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  /// Redundant (R95 duplicate) copies sent.
  [[nodiscard]] std::uint64_t redundant_sent() const { return redundant_; }
  /// Cross-server cancel messages sent.
  [[nodiscard]] std::uint64_t cancels_sent() const { return cancels_; }
  /// Requests currently outstanding.
  [[nodiscard]] std::size_t in_flight() const { return pending_.size(); }
  /// Slots of the pending-request table (0 until the first request, then
  /// 16, doubling at 1/2 load; diagnostic).
  [[nodiscard]] std::size_t pending_capacity() const {
    return pending_.capacity();
  }

 private:
  /// Copies one request can have: the primary plus one R95 duplicate.
  static constexpr std::size_t kMaxCopies = 2;

  /// One copy of a request as sent.
  struct Copy {
    net::HostId server = net::kInvalidHost;
    bool answered = false;  ///< its response has arrived
    sim::Time sent_at = 0;
  };

  /// One outstanding request. `req_id == 0` marks an empty table slot
  /// (request ids carry a sequence number starting at 1).
  struct Pending {
    std::uint64_t req_id = 0;
    std::uint64_t key = 0;
    sim::Time first_send = 0;
    std::array<Copy, kMaxCopies> copies{};
    std::uint32_t copy_count = 0;
    std::uint32_t responses = 0;
    bool completed = false;
    bool redundant_sent = false;
  };

  /// Request id -> Pending, as an open-addressing table: power-of-two
  /// capacity, linear probing, backward-shift deletion (no tombstones),
  /// grown at 1/2 load. Storage is reused across requests, so the steady
  /// state allocates nothing. Never iterated, so its layout cannot leak
  /// into any output order.
  class PendingTable {
   public:
    /// The entry for `req_id`, or nullptr.
    Pending* find(std::uint64_t req_id);
    /// A fresh entry for `req_id`, which must not be present. References
    /// into the table stay valid until the next insert or erase.
    Pending& insert(std::uint64_t req_id);
    /// Removes `p`, which must point into this table.
    void erase(Pending& p);
    /// Live entries.
    [[nodiscard]] std::size_t size() const { return size_; }
    /// Slots allocated.
    [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

   private:
    [[nodiscard]] std::size_t home(std::uint64_t req_id) const;
    void grow();

    std::vector<Pending> slots_;  // empty until the first insert
    std::size_t size_ = 0;
    int shift_ = 64;  // 64 - log2(capacity), for Fibonacci hashing
  };

  void schedule_next_arrival();
  void issue_request();
  void send_copy(Pending& p, net::HostId target, core::ReplicaGroupId rgid,
                 bool redundant);
  void maybe_send_redundant(std::uint64_t req_id);
  void send_cancels(const Pending& p);
  void handle_response(net::Packet& pkt);

  ClientConfig cfg_;
  const ConsistentHashRing& ring_;
  const sim::ZipfDistribution& zipf_;
  sim::Rng rng_;
  std::unique_ptr<rs::ReplicaSelector> selector_;  // kClientSelect only
  CompletionCallback on_complete_;

  PendingTable pending_;
  // Duplicate-target candidates, reused across R95 duplicates (reserved to
  // the replication factor, so it never reallocates).
  std::vector<net::HostId> remaining_;
  sim::P2Quantile p95_;
  bool running_ = false;
  std::uint64_t next_seq_ = 1;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t redundant_ = 0;
  std::uint64_t cancels_ = 0;
};

}  // namespace netrs::kv
