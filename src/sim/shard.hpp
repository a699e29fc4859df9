// Partitioned parallel DES core (DESIGN.md §4.10).
//
// A ShardGroup owns S independent `Simulator` instances ("shards") plus one
// coordinator-driven "global" simulator, and advances the shards in parallel
// under classic conservative (null-message / Chandy-Misra-Bryant style)
// synchronization: every cross-shard interaction crosses a fabric link of
// latency >= the configured lookahead L, so a shard may safely execute all
// events strictly below
//
//     safe = min(bound, min_{j != i} published_clock_j + L)
//
// where published_clock_j means "shard j has executed every event < clock_j
// and all its cross-shard sends from those events are visible". Shards
// publish clocks with release stores after pushing their sends and read
// peers' clocks with acquire loads, so any message that could land below a
// shard's safe bound is visible before the shard drains its inboxes.
//
// Events living on the global simulator (controller replans, harness
// samplers — anything that reads or mutates state across shards) execute at
// full barriers: the coordinator parks every shard exactly at the global
// event's timestamp, runs the event single-threaded, and resumes the
// shards. Each park is one std::barrier handshake shared by the workers and
// the coordinator: a start phase hands the workers the new bound, a done
// phase returns once every shard has reached it. With shards == 1 the group
// degenerates to one Simulator driven directly — bit-for-bit today's serial
// execution.
#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <thread>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace netrs::sim {

/// Wall-clock self-telemetry of the parallel engine (DESIGN.md §8.6):
/// per-shard window counts, events executed, execute vs. stall
/// (wait-for-peer) wall time, and safe-bound advancement, aggregated into
/// fixed simulated-time buckets for the shard-timeline plot. Telemetry is
/// wall-clock based and therefore **nondeterministic** — it is opt-in
/// (`--shard-telemetry`) and never feeds back into simulated behavior;
/// default runs stay byte-identical with it disabled. Each lane is
/// written only by its shard's worker thread; read at engine quiescence
/// (between ShardGroup::run_until calls or at a barrier), where the
/// worker handshake orders the writes before the read.
struct ShardTelemetry {
  /// One fixed simulated-time bucket of one shard's activity.
  struct Bucket {
    /// Bucket start, simulated ns.
    Time start = 0;
    /// Windows whose execution started in this bucket.
    std::uint64_t windows = 0;
    /// Events executed by those windows.
    std::uint64_t events = 0;
    /// Simulated ns of safe-bound advancement by those windows.
    std::uint64_t advance_ns = 0;
    /// Wall ns spent draining inboxes + executing those windows.
    std::uint64_t exec_ns = 0;
    /// Wall ns spent stalled (yielding for a lagging peer) while the
    /// shard's clock sat in this bucket.
    std::uint64_t stall_ns = 0;
  };
  /// One shard's accumulated telemetry: run totals plus the bucket series.
  struct Lane {
    /// Parallel windows executed (one conservative safe-bound advance).
    std::uint64_t windows = 0;
    /// Events executed inside windows.
    std::uint64_t events = 0;
    /// Total wall ns draining + executing windows.
    std::uint64_t exec_ns = 0;
    /// Total wall ns stalled waiting for peers.
    std::uint64_t stall_ns = 0;
    /// Total simulated ns of safe-bound advancement.
    std::uint64_t advance_ns = 0;
    /// Fixed-width bucket series, indexed by simulated time / bucket
    /// width (capped; the tail aggregates into the last bucket).
    std::vector<Bucket> buckets;
  };
  /// True once ShardGroup::enable_telemetry ran.
  bool enabled = false;
  /// Simulated-time width of each bucket, ns.
  Duration bucket_width = 0;
  /// One lane per shard, shard order. Empty in serial mode (a single
  /// shard never enters the window loop; there is nothing to stall on).
  std::vector<Lane> lanes;
};

/// Writes the shard-telemetry CSV: header `repeat,shard,bucket_start_us,
/// windows,events,advance_ns,exec_ns,stall_ns`, one row per active bucket
/// per shard, repeats in order. Wall-clock derived — informative, not
/// reproducible.
void write_shard_telemetry_csv(std::ostream& os,
                               const std::vector<ShardTelemetry>& repeats);

/// Coordinates S per-pod simulator shards plus a global simulator under
/// conservative lookahead synchronization (see the file comment).
class ShardGroup {
 public:
  /// current_shard() value outside any shard worker thread (construction,
  /// global-event execution, post-run reads).
  static constexpr int kCoordinator = -1;

  /// Creates `shards` simulator shards synchronized with lookahead
  /// `lookahead` (the minimum latency of any link that may cross a shard
  /// boundary). Throws std::invalid_argument, before any worker starts,
  /// when `shards` < 1 or when `shards` > 1 and `lookahead` <= 0 (no window
  /// could ever advance). With shards == 1 no worker threads are created
  /// and the single shard doubles as the global simulator.
  explicit ShardGroup(int shards, Duration lookahead = micros(30));
  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;
  ~ShardGroup();

  /// Number of shards (>= 1).
  [[nodiscard]] int shards() const { return static_cast<int>(sims_.size()); }
  /// The conservative lookahead window.
  [[nodiscard]] Duration lookahead() const { return lookahead_; }

  /// Shard `i`'s simulator. Components owned by shard `i` schedule only
  /// here; touching another shard's simulator from a worker thread is a
  /// race (netrs_lint's cross-shard-sim rule flags call sites outside the
  /// sim/fabric/harness layers).
  [[nodiscard]] Simulator& shard_sim(int i) { return *sims_[std::size_t(i)]; }
  /// Read-only shard simulator access (post-run stats/audit extraction).
  [[nodiscard]] const Simulator& shard_sim(int i) const {
    return *sims_[std::size_t(i)];
  }
  /// The global simulator: barrier-executed cross-shard events (controller
  /// replan ticks, harness samplers). Same object as shard_sim(0) when
  /// shards() == 1.
  [[nodiscard]] Simulator& global_sim() { return *global_; }
  /// Read-only global simulator access.
  [[nodiscard]] const Simulator& global_sim() const { return *global_; }

  /// The shard index of the calling thread: a shard id inside a worker,
  /// kCoordinator everywhere else (the fabric uses this to classify a send
  /// as intra-shard, cross-shard, or barrier-context).
  [[nodiscard]] static int current_shard();

  /// True while the workers are inside a parallel window (between the
  /// coordinator releasing them and the last worker parking again).
  /// Coordinator-context access to shard-local state is only legal while
  /// this is false — between run_until calls and at global-event barriers
  /// (the ShardAffinityGuard's rule). Always false with shards() == 1.
  [[nodiscard]] bool window_active() const {
    return window_active_.load(std::memory_order_relaxed);
  }

  /// Audit/test hook: forces the window-active flag so affinity fault
  /// injections can model "coordinator touches shard state off-window"
  /// without staging a real concurrent window. Never call while run_until
  /// is executing.
  void testing_set_window_active(bool active) {
    window_active_.store(active, std::memory_order_relaxed);
  }

  /// Audit/test hook: runs the drain hook for `shard` as a window starting
  /// with exclusive bound `safe` would, but executes nothing, so a test can
  /// inspect arrivals parked but not yet delivered. The group must not run
  /// afterwards; never call while run_until is executing.
  void testing_drain(int shard, Time safe) { drain_hook_(shard, safe); }

  /// Called on a shard's worker thread at the start of every window with
  /// the window's exclusive safe bound; the fabric drains that shard's
  /// cross-shard inboxes here, scheduling every arrival below the bound.
  using DrainHook = std::function<void(int shard, Time safe_bound)>;
  /// Installs the inbox drain hook (the fabric's). Must precede run_until.
  void set_drain_hook(DrainHook hook) { drain_hook_ = std::move(hook); }

  /// Advances every shard (and the global simulator) through `deadline`:
  /// events at exactly `deadline` still fire and every clock ends at
  /// `deadline`, matching Simulator::run_until. Callable repeatedly with
  /// non-decreasing deadlines; between calls all shards are parked and any
  /// thread may safely inspect cross-shard state.
  void run_until(Time deadline);

  /// Group clock: the last run_until deadline (0 before the first run).
  [[nodiscard]] Time now() const { return now_; }

  /// Events fired across all shards plus the global simulator, summed in
  /// shard order (deterministic for any jobs/shards value).
  [[nodiscard]] std::uint64_t events_fired() const;

  /// Events fired per shard, shard order (excludes the global simulator:
  /// events_fired() minus this sum is the global queue's share; in serial
  /// mode the single entry includes it). Deterministic at any shard/job
  /// split.
  [[nodiscard]] std::vector<std::uint64_t> events_fired_per_shard() const;

  /// Turns on wall-clock self-telemetry with the given simulated-time
  /// bucket width (> 0). Call before the first run_until; telemetry is
  /// observation-only but nondeterministic (see ShardTelemetry).
  void enable_telemetry(Duration bucket_width);

  /// The accumulated self-telemetry (enabled == false when
  /// enable_telemetry was never called). Read at quiescence only.
  [[nodiscard]] const ShardTelemetry& telemetry() const {
    return telemetry_;
  }

 private:
  /// Cache-line-isolated published clock of one shard.
  struct alignas(64) PaddedClock {
    std::atomic<Time> v{0};
  };

  void worker_loop(int shard);
  void run_windows(int shard, Time bound);
  /// The telemetry bucket a shard clock value lands in (lane grown on
  /// demand, index capped so a mis-sized width cannot balloon memory).
  ShardTelemetry::Bucket& telemetry_bucket(ShardTelemetry::Lane& lane,
                                           Time clock);
  /// Parks every shard at `bound` with two barrier phases (start, done):
  /// on return each shard has executed all events strictly below `bound`
  /// and published clock == bound.
  void advance_shards(Time bound);

  std::vector<std::unique_ptr<Simulator>> sims_;
  std::unique_ptr<Simulator> owned_global_;  // shards > 1 only
  Simulator* global_ = nullptr;
  Duration lookahead_;
  Time now_ = 0;
  DrainHook drain_hook_;

  std::unique_ptr<PaddedClock[]> clocks_;
  /// Window handshake of the workers plus the coordinator (shards > 1
  /// only). The coordinator writes target_ (or stop_) before arriving; the
  /// barrier orders those writes before every worker's read.
  std::optional<std::barrier<>> sync_;
  Time target_ = 0;
  bool stop_ = false;
  std::atomic<bool> window_active_{false};
  ShardTelemetry telemetry_;
  std::vector<std::thread> workers_;  // after every member they use
};

/// RAII override of ShardGroup::current_shard() for the calling thread:
/// construction masquerades the thread as `shard`, destruction restores the
/// previous value. Used by affinity fault-injection tests to model a
/// foreign-shard actor deterministically (no worker thread needed); the
/// shard workers themselves set the id directly for their whole lifetime.
class ScopedShardContext {
 public:
  /// Makes current_shard() return `shard` on this thread until destruction.
  explicit ScopedShardContext(int shard);
  ~ScopedShardContext();
  ScopedShardContext(const ScopedShardContext&) = delete;
  ScopedShardContext& operator=(const ScopedShardContext&) = delete;

 private:
  int prev_;
};

}  // namespace netrs::sim
