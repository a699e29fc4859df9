// Experiment configuration with the paper's §V-A defaults.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "netrs/accelerator.hpp"
#include "netrs/placement.hpp"
#include "netrs/traffic_group.hpp"
#include "obs/observer.hpp"
#include "rs/factory.hpp"
#include "sim/time.hpp"

namespace netrs::harness {

/// The four replica-selection schemes compared in §V.
enum class Scheme {
  kCliRS,
  kCliRSR95,
  /// CliRS-R95 plus cross-server cancellation of the losing copy (the
  /// "Tail at Scale" companion technique; extension experiment).
  kCliRSR95Cancel,
  kNetRSToR,
  kNetRSIlp,
};

/// Short scheme label used in reports ("cli-rs", "netrs-ilp", ...).
[[nodiscard]] const char* scheme_name(Scheme s);
/// True for the NetRS schemes (kNetRSToR, kNetRSIlp).
[[nodiscard]] bool is_netrs(Scheme s);

/// Every knob of one experiment; defaults are the paper's §V-A setup.
struct ExperimentConfig {
  // --- Topology (16-ary 3-tier fat-tree, 1024 hosts) ---
  int fat_tree_k = 16;  ///< Fat-tree arity.

  // --- Cluster ---
  int num_servers = 100;  ///< Ns
  int num_clients = 500;
  int replication_factor = 3;
  int virtual_nodes = 16;
  std::uint64_t keyspace = 100'000'000;
  double zipf_exponent = 0.99;

  // --- Server model ---
  int server_parallelism = 4;                            ///< Np
  sim::Duration mean_service_time = sim::millis(4);      ///< tkv
  bool fluctuate = true;
  sim::Duration fluctuation_interval = sim::millis(50);
  double fluctuation_factor = 3.0;                       ///< d
  std::uint32_t value_bytes = 1024;

  // --- Workload ---
  /// System utilization tkv*A/(Ns*Np); determines the aggregate rate A.
  double utilization = 0.9;
  /// Logical client streams superposed on each simulated Client object, so
  /// num_clients x client_multiplicity logical clients share num_clients
  /// hosts. Each Client keeps the rate aggregate / num_clients (set by
  /// `utilization`); only the selectors' concurrency math counts the
  /// logical clients. Lets a k=32 tree (8192 hosts) carry 100k+ logical
  /// clients without 100k objects (superposed Poisson processes are one
  /// Poisson process). 1 = one stream per client (the paper's setup).
  int client_multiplicity = 1;
  /// Fraction of all requests issued by 20% of the clients; 0 = uniform
  /// (the paper sweeps 70%..95%).
  double demand_skew = 0.0;
  /// Total requests to issue (warmup + measured). The paper uses 6M; the
  /// default here is laptop-sized and overridable from the environment.
  std::uint64_t total_requests = 120'000;
  /// Leading fraction of the run excluded from measurement.
  double warmup_fraction = 0.15;

  // --- Network ---
  sim::Duration switch_link_latency = sim::micros(30);
  sim::Duration host_link_latency = sim::micros(30);
  sim::Duration accelerator_link_latency = sim::micros(1.25);
  core::AcceleratorConfig accelerator;

  // --- NetRS framework ---
  double utilization_cap = 0.5;     ///< U
  double extra_hop_fraction = 0.2;  ///< E = fraction * A
  /// Monitor-poll / replan period. 100 ms puts the first ILP deployment -
  /// and its transition spike (fresh RSNodes rebuild their view, paper
  /// section II) - inside the measurement warmup of default-length runs.
  sim::Duration replan_interval = sim::millis(100);
  core::GroupGranularity granularity = core::GroupGranularity::kRack;
  int sub_rack_hosts = 0;  ///< for kSubRack granularity
  core::PlacementOptions placement;
  /// Overload-DRS trigger (§III-C case ii); > 1 disables.
  double overload_utilization = 1.5;
  /// Shared accelerators (§III-B): all core switches of the same core
  /// group share one physical accelerator. Dedicated accelerators
  /// everywhere when false.
  bool share_core_accelerators = false;

  // --- Replica selection ---
  /// Selector algorithm and its tuning. The deployment sets
  /// `c3.concurrency` (from the scheme and the logical client count) and
  /// `c3.service_time_prior` (from `mean_service_time`) for every client
  /// and RSNode selector, so the values given here are ignored.
  rs::SelectorConfig selector;

  // --- Run control ---
  std::uint64_t seed = 1;
  /// Independent re-runs with re-randomized deployments, merged into one
  /// distribution (the paper repeats every experiment 3 times).
  int repeats = 2;
  /// Worker threads for fanning repeats (and, in the benches, whole sweep
  /// cells) out in parallel: 0 = hardware concurrency, 1 = serial. Each
  /// repeat keeps its seed derivation (`seed + rep`) and owns its whole
  /// simulation, and merge order is fixed, so results are bit-identical
  /// at any jobs value.
  int jobs = 0;
  /// Event-queue shards per repeat (DESIGN.md §4.10): the fat tree is
  /// partitioned by pod across this many simulator shards advancing in
  /// parallel under conservative lookahead sync. Clamped to [1, pods];
  /// 1 = the serial core. Golden digests are bit-identical at any value.
  int shards = 1;

  // --- Fault injection (DESIGN.md §9, docs/SCENARIOS.md) ---
  /// Declarative fault schedule in sim::FaultPlan::parse() grammar
  /// ("at 5s crash server 0; at 10s recover server 0"); an "@path" value
  /// loads the plan from a file. Empty (the default) disables fault
  /// injection entirely — zero-fault runs reproduce the pre-fault golden
  /// digests bit-for-bit.
  std::string fault_plan;
  /// Latency-timeline bucket width: > 0 records one latency recorder per
  /// bucket of absolute simulated time (warmup included — the ramp is
  /// part of the picture), which fig_failover and plot_results.py turn
  /// into the latency-through-failure panel. 0 (default) disables.
  sim::Duration timeline_bucket = 0;

  // --- Observability (DESIGN.md §8) ---
  /// Trace / metrics / attribution / decision outputs; empty paths (the
  /// default) disable the observability layer entirely. Observation-only:
  /// results and golden digests are identical with it on or off.
  obs::ObsConfig obs;
  /// Engine self-telemetry CSV path ("" = off, the default): per-shard
  /// window counts, events executed, and execute vs. stall wall time in
  /// simulated-time buckets (DESIGN.md §8.6). Wall-clock derived and
  /// therefore nondeterministic — it never feeds back into the
  /// simulation, and all other outputs stay byte-identical with it on.
  std::string shard_telemetry_path;
  /// Simulated-time bucket width of the telemetry series.
  sim::Duration shard_telemetry_bucket = sim::millis(5);

  /// Aggregate request arrival rate A in requests/s (from `utilization`).
  [[nodiscard]] double aggregate_rate() const;
  /// Nominal run length: total_requests / aggregate_rate().
  [[nodiscard]] sim::Duration nominal_duration() const;
};

/// `value` as a whole non-negative decimal count no larger than `max`:
/// no sign, exponent or suffix ("-1", "1e6" and "64k" are rejected).
/// Throws std::invalid_argument naming `what` and the value otherwise.
/// The cell fields and the examples' arguments parse through it.
[[nodiscard]] std::uint64_t parse_count(std::string_view what,
                                        std::string_view value,
                                        std::uint64_t max);

/// `value` as one whole finite number (strtod syntax, nothing after it).
/// Throws std::invalid_argument naming `what` and the value otherwise.
/// The real-valued cell fields and examples' arguments parse through it.
[[nodiscard]] double parse_real(std::string_view what, const char* value);

/// One cell of the §V evaluation grid.
struct Cell {
  Scheme scheme = Scheme::kNetRSIlp;  ///< The compared scheme.
  ExperimentConfig cfg;               ///< Every other knob.
};

/// One settable field of a Cell. cell_fields() is the one place a flag or
/// environment variable name is written.
struct CellField {
  const char* flag;  ///< "--k"; "--k=V" works too.
  const char* env;   ///< "NETRS_REQUESTS", or nullptr.
  const char* arg;   ///< Usage placeholder; nullptr for a switch.
  const char* help;  ///< The usage line.
  /// Sets the field (`value` is nullptr for a switch); throws
  /// std::invalid_argument naming `what` and `value` when it is rejected.
  void (*parse)(Cell& cell, std::string_view what, const char* value);
  /// The value as parse() reads it back exactly; "" for a switch that is
  /// off.
  std::string (*format)(const Cell& cell);
};

/// Every settable cell field, in usage order.
[[nodiscard]] std::span<const CellField> cell_fields();
/// The field the reports' trace-ring overflow warnings name.
[[nodiscard]] const CellField& trace_capacity_field();

/// Applies "--flag V", "--flag=V" and bare-switch arguments to `cell`, in
/// order; throws std::invalid_argument naming an unknown flag, a missing
/// value or a rejected one. Stops and returns false at a "--help" or "-h"
/// in flag position (not as a flag's value).
[[nodiscard]] bool apply_cell_args(Cell& cell,
                                   std::span<const std::string> args);
/// The arguments that apply_cell_args() turns into `cell`: every field.
[[nodiscard]] std::vector<std::string> cell_args(const Cell& cell);
/// One usage line per field, with its default and variable.
[[nodiscard]] std::string cell_usage();

/// Paper defaults with the fields' environment variables applied (the
/// benches use this). An empty or unset variable keeps the default; a
/// rejected value throws std::invalid_argument naming the variable.
[[nodiscard]] ExperimentConfig default_config();

}  // namespace netrs::harness
