#include "sim/shard.hpp"

#include <cassert>
#include <chrono>
#include <stdexcept>
#include <string>

namespace netrs::sim {

namespace {

/// Monotonic wall-clock read for the self-telemetry accumulators only.
std::uint64_t wall_ns() {
  // netrs-lint: allow(wall-clock): engine self-telemetry measures real
  // execute/stall wall time by design; it is opt-in, observation-only, and
  // never feeds back into simulated behavior (ShardTelemetry's contract).
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t).count());
}
// Shard id of the executing thread; kCoordinator on every non-worker
// thread, including the harness repeat pool.
// netrs-lint: allow(mutable-static): this thread-local IS the shard-context
// mechanism the mutable-static rule protects — each worker writes only its
// own copy, and the affinity guard reads it to attribute accesses.
thread_local int tls_current_shard = ShardGroup::kCoordinator;
}  // namespace

int ShardGroup::current_shard() { return tls_current_shard; }

ScopedShardContext::ScopedShardContext(int shard)
    : prev_(tls_current_shard) {
  tls_current_shard = shard;
}

ScopedShardContext::~ScopedShardContext() { tls_current_shard = prev_; }

ShardGroup::ShardGroup(int shards, Duration lookahead)
    : lookahead_(lookahead) {
  if (shards < 1) {
    throw std::invalid_argument("ShardGroup: needs at least one shard, got " +
                                std::to_string(shards));
  }
  if (shards > 1 && lookahead <= 0) {
    throw std::invalid_argument(
        "ShardGroup: conservative sync across " + std::to_string(shards) +
        " shards needs a positive lookahead window, got " +
        std::to_string(lookahead) + " ns");
  }
  sims_.reserve(std::size_t(shards));
  for (int i = 0; i < shards; ++i) {
    sims_.push_back(std::make_unique<Simulator>());
  }
  if (shards == 1) {
    // Degenerate serial mode: one simulator is both the only shard and the
    // global queue; run_until drives it directly on the calling thread, so
    // execution is bit-for-bit the pre-shard serial core.
    global_ = sims_[0].get();
    return;
  }
  owned_global_ = std::make_unique<Simulator>();
  global_ = owned_global_.get();
  // Affinity sentinel (audit builds): each shard simulator is owned by its
  // worker, the global simulator by the coordinator. Serial mode (above)
  // leaves the guards unbound — one thread owns everything.
  for (int i = 0; i < shards; ++i) {
    Simulator& s = *sims_[std::size_t(i)];
    s.shard_affinity().bind(this, i, "simulator", i, &s.auditor());
  }
  global_->shard_affinity().bind(this, kCoordinator, "global-simulator", -1,
                                 &global_->auditor());
  clocks_ = std::make_unique<PaddedClock[]>(std::size_t(shards));
  sync_.emplace(shards + 1);
  workers_.reserve(std::size_t(shards));
  for (int i = 0; i < shards; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ShardGroup::~ShardGroup() {
  if (workers_.empty()) return;
  // A start phase with stop_ set: every worker returns instead of running.
  stop_ = true;
  sync_->arrive_and_wait();
  for (std::thread& t : workers_) t.join();
}

void ShardGroup::worker_loop(int shard) {
  tls_current_shard = shard;
  for (;;) {
    sync_->arrive_and_wait();  // start: target_ / stop_ are published
    if (stop_) return;
    run_windows(shard, target_);
    sync_->arrive_and_wait();  // done: every shard reached target_
  }
}

ShardTelemetry::Bucket& ShardGroup::telemetry_bucket(
    ShardTelemetry::Lane& lane, Time clock) {
  // Cap the series so a tiny bucket width on a huge run degrades into a
  // coarse tail bucket instead of unbounded memory.
  constexpr std::size_t kMaxBuckets = 1u << 16;
  std::size_t idx = static_cast<std::size_t>(
      clock / (telemetry_.bucket_width > 0 ? telemetry_.bucket_width : 1));
  if (idx >= kMaxBuckets) idx = kMaxBuckets - 1;
  if (idx >= lane.buckets.size()) {
    const std::size_t old = lane.buckets.size();
    lane.buckets.resize(idx + 1);
    for (std::size_t b = old; b < lane.buckets.size(); ++b) {
      lane.buckets[b].start =
          static_cast<Time>(b) * telemetry_.bucket_width;
    }
  }
  return lane.buckets[idx];
}

void ShardGroup::run_windows(int shard, Time bound) {
  const int n = shards();
  Simulator& sim = shard_sim(shard);
  std::atomic<Time>& my_clock = clocks_[std::size_t(shard)].v;
  Time clock = my_clock.load(std::memory_order_relaxed);
  ShardTelemetry::Lane* tel =
      telemetry_.enabled ? &telemetry_.lanes[std::size_t(shard)] : nullptr;
  while (clock < bound) {
    // Conservative safe bound: every peer has executed all events below its
    // published clock and made the resulting cross-shard sends visible
    // (release/acquire pairing on the clock), and any *future* send from
    // peer j arrives no earlier than clock_j + lookahead.
    Time safe = bound;
    for (int j = 0; j < n; ++j) {
      if (j == shard) continue;
      const Time peer = clocks_[std::size_t(j)].v.load(std::memory_order_acquire);
      const Time horizon = peer >= bound ? bound : peer + lookahead_;
      if (horizon < safe) safe = horizon;
    }
    if (safe <= clock) {
      // A peer lags; let it run. With equal clocks the horizon is
      // clock + lookahead > clock, so at least one shard always advances.
      if (tel != nullptr) {
        const std::uint64_t y0 = wall_ns();
        std::this_thread::yield();
        const std::uint64_t dt = wall_ns() - y0;
        tel->stall_ns += dt;
        telemetry_bucket(*tel, clock).stall_ns += dt;
      } else {
        std::this_thread::yield();
      }
      continue;
    }
    std::uint64_t t0 = 0;
    std::uint64_t ev0 = 0;
    if (tel != nullptr) {
      t0 = wall_ns();
      ev0 = sim.events_fired();
    }
    if (drain_hook_) drain_hook_(shard, safe);
    // Execute every local event strictly below `safe` (integer times make
    // run_until(safe - 1) exactly that), then publish.
    sim.run_until(safe - 1);
    if (tel != nullptr) {
      const std::uint64_t exec = wall_ns() - t0;
      const std::uint64_t events = sim.events_fired() - ev0;
      const std::uint64_t advance = static_cast<std::uint64_t>(safe - clock);
      ++tel->windows;
      tel->events += events;
      tel->exec_ns += exec;
      tel->advance_ns += advance;
      ShardTelemetry::Bucket& b = telemetry_bucket(*tel, clock);
      ++b.windows;
      b.events += events;
      b.exec_ns += exec;
      b.advance_ns += advance;
    }
    clock = safe;
    my_clock.store(clock, std::memory_order_release);
  }
}

void ShardGroup::advance_shards(Time bound) {
  if (workers_.empty()) return;
  window_active_.store(true, std::memory_order_relaxed);
  target_ = bound;
  sync_->arrive_and_wait();  // start
  sync_->arrive_and_wait();  // done
  window_active_.store(false, std::memory_order_relaxed);
}

void ShardGroup::run_until(Time deadline) {
  assert(deadline >= now_);
  assert(deadline < kNever);
  if (workers_.empty()) {
    // Serial mode: the single simulator holds both shard and global events.
    global_->run_until(deadline);
    now_ = deadline;
    return;
  }
  // Alternate conservative shard windows with full barriers at every global
  // event: shards park exactly at the event's timestamp, the coordinator
  // runs it single-threaded (free to touch any shard's state), and shard
  // events at that same timestamp run in the next parallel window.
  for (;;) {
    const Time g = global_->next_event_time();
    if (g > deadline) break;
    advance_shards(g);
    global_->run_until(g);
  }
  // No global event remains at or before the deadline: finish the shards
  // through `deadline` inclusive (hence the +1 exclusive bound) and move
  // the global clock up for the next call.
  advance_shards(deadline + 1);
  global_->run_until(deadline);
  now_ = deadline;
}

std::uint64_t ShardGroup::events_fired() const {
  std::uint64_t total = 0;
  for (const auto& s : sims_) total += s->events_fired();
  if (owned_global_) total += owned_global_->events_fired();
  return total;
}

std::vector<std::uint64_t> ShardGroup::events_fired_per_shard() const {
  std::vector<std::uint64_t> out;
  out.reserve(sims_.size());
  for (const auto& s : sims_) out.push_back(s->events_fired());
  return out;
}

void ShardGroup::enable_telemetry(Duration bucket_width) {
  assert(bucket_width > 0);
  telemetry_.enabled = true;
  telemetry_.bucket_width = bucket_width;
  telemetry_.lanes.clear();
  if (!workers_.empty()) {
    telemetry_.lanes.resize(sims_.size());
  }
}

void write_shard_telemetry_csv(std::ostream& os,
                               const std::vector<ShardTelemetry>& repeats) {
  os << "repeat,shard,bucket_start_us,windows,events,advance_ns,exec_ns,"
        "stall_ns\n";
  for (std::size_t rep = 0; rep < repeats.size(); ++rep) {
    const ShardTelemetry& t = repeats[rep];
    for (std::size_t s = 0; s < t.lanes.size(); ++s) {
      for (const ShardTelemetry::Bucket& b : t.lanes[s].buckets) {
        if (b.windows == 0 && b.stall_ns == 0) continue;
        os << rep << ',' << s << ','
           << static_cast<std::uint64_t>(b.start) / 1000 << ',' << b.windows
           << ',' << b.events << ',' << b.advance_ns << ',' << b.exec_ns
           << ',' << b.stall_ns << '\n';
      }
    }
  }
}

}  // namespace netrs::sim
