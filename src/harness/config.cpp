#include "harness/config.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace netrs::harness {

namespace {

// Indexed by Scheme: the report label and the --scheme spelling.
constexpr const char* kSchemeNames[] = {"CliRS", "CliRS-R95", "CliRS-R95C",
                                        "NetRS-ToR", "NetRS-ILP"};
constexpr const char* kSchemeSpellings[] = {"clirs", "clirs-r95", "clirs-r95c",
                                            "netrs-tor", "netrs-ilp"};

}  // namespace

const char* scheme_name(Scheme s) {
  return kSchemeNames[static_cast<std::size_t>(s)];
}

bool is_netrs(Scheme s) {
  return s == Scheme::kNetRSToR || s == Scheme::kNetRSIlp;
}

double ExperimentConfig::aggregate_rate() const {
  // utilization = tkv * A / (Ns * Np)  =>  A = u * Ns * Np / tkv.
  return utilization * static_cast<double>(num_servers) *
         static_cast<double>(server_parallelism) /
         sim::to_seconds(mean_service_time);
}

sim::Duration ExperimentConfig::nominal_duration() const {
  return sim::seconds(static_cast<double>(total_requests) /
                      aggregate_rate());
}

std::uint64_t parse_count(std::string_view what, std::string_view value,
                          std::uint64_t max) {
  std::uint64_t n = 0;
  const char* const last = value.data() + value.size();
  const auto [end, ec] = std::from_chars(value.data(), last, n);
  if (ec != std::errc{} || end != last || n > max) {
    throw std::invalid_argument(std::string(what) + "=\"" +
                                std::string(value) +
                                "\" is not a count in [0, " +
                                std::to_string(max) + "]");
  }
  return n;
}

double parse_real(std::string_view what, const char* value) {
  char* end = nullptr;
  const double x = std::strtod(value, &end);
  if (end == value || *end != '\0' || !std::isfinite(x)) {
    throw std::invalid_argument(std::string(what) + "=\"" + value +
                                "\" is not a number");
  }
  return x;
}

namespace {

/// Shortest text that strtod() reads back as exactly `x`.
std::string shortest(double x) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, x);
  return std::string(buf, end);
}

// How each field type is parsed and printed. A bool is a switch.
template <typename T>
void parse_into(T& field, std::string_view what, const char* v) {
  if constexpr (std::is_same_v<T, bool>) {
    field = true;
  } else if constexpr (std::is_same_v<T, std::string>) {
    field = v;
  } else if constexpr (std::is_same_v<T, double>) {
    field = parse_real(what, v);
  } else {
    field = static_cast<T>(parse_count(
        what, v, static_cast<std::uint64_t>(std::numeric_limits<T>::max())));
  }
}

template <typename T>
std::string format_value(const T& field) {
  if constexpr (std::is_same_v<T, bool>) {
    return field ? "on" : "";
  } else if constexpr (std::is_same_v<T, std::string>) {
    return field;
  } else if constexpr (std::is_same_v<T, double>) {
    return shortest(field);
  } else {
    return std::to_string(field);
  }
}

/// The entry of the ExperimentConfig field at member path `Path`.
template <auto... Path>
constexpr CellField field(const char* flag, const char* env, const char* arg,
                          const char* help) {
  return {flag, env, arg, help,
          [](Cell& c, std::string_view what, const char* v) {
            parse_into((c.cfg .* ... .* Path), what, v);
          },
          [](const Cell& c) {
            return format_value((c.cfg .* ... .* Path));
          }};
}

/// The entry of a sim::Duration field, given in (fractional) milliseconds.
template <auto... Path>
constexpr CellField ms_field(const char* flag, const char* help) {
  return {flag, nullptr, "MS", help,
          [](Cell& c, std::string_view what, const char* v) {
            (c.cfg .* ... .* Path) = sim::millis(parse_real(what, v));
          },
          [](const Cell& c) {
            return shortest(sim::to_millis((c.cfg .* ... .* Path)));
          }};
}

/// The index of `v` in `names`; throws naming `what` and listing the
/// names when it is not there.
std::size_t choose(std::span<const char* const> names, std::string_view what,
                   const char* v) {
  std::string known;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (std::string_view(names[i]) == v) return i;
    known += std::string(i == 0 ? "" : ", ") + names[i];
  }
  throw std::invalid_argument(std::string(what) + "=\"" + v +
                              "\" is not one of " + known);
}

void parse_scheme(Cell& c, std::string_view what, const char* v) {
  c.scheme = static_cast<Scheme>(choose(kSchemeSpellings, what, v));
}

std::string format_scheme(const Cell& c) {
  return kSchemeSpellings[static_cast<std::size_t>(c.scheme)];
}

// The --granularity spellings, indexed by core::GroupGranularity; the flag
// offers sub-rack groups of 4 hosts only.
constexpr const char* kGranularities[] = {"host", "rack", "subrack4"};

void parse_granularity(Cell& c, std::string_view what, const char* v) {
  c.cfg.granularity =
      static_cast<core::GroupGranularity>(choose(kGranularities, what, v));
  if (c.cfg.granularity == core::GroupGranularity::kSubRack) {
    c.cfg.sub_rack_hosts = 4;
  }
}

std::string format_granularity(const Cell& c) {
  return kGranularities[static_cast<std::size_t>(c.cfg.granularity)];
}

using C = ExperimentConfig;
using O = obs::ObsConfig;

constexpr CellField kTraceCapacity = field<&C::obs, &O::trace_capacity>(
    "--trace-capacity", "NETRS_TRACE_CAPACITY", "N",
    "trace ring size per shard and repeat");

constexpr CellField kCellFields[] = {
    {"--scheme", nullptr, "S", "compared scheme; a wrong name lists them",
     parse_scheme, format_scheme},
    field<&C::fat_tree_k>("--k", nullptr, "N", "fat-tree arity"),
    field<&C::num_servers>("--servers", nullptr, "N", "KV servers"),
    field<&C::num_clients>("--clients", nullptr, "N", "clients"),
    field<&C::utilization>("--utilization", nullptr, "F",
                           "system utilization"),
    field<&C::demand_skew>("--skew", nullptr, "F",
                           "demand share of 20% of the clients, 0 = uniform"),
    ms_field<&C::mean_service_time>("--tkv", "mean service time"),
    field<&C::total_requests>("--requests", "NETRS_REQUESTS", "N",
                              "total requests, warmup included"),
    field<&C::repeats>("--repeats", "NETRS_REPEATS", "N",
                       "deployments merged into the result"),
    field<&C::selector, &rs::SelectorConfig::algorithm>(
        "--algorithm", nullptr, "A",
        "replica-selection algorithm; a wrong name lists them"),
    {"--granularity", nullptr, "G",
     "NetRS traffic-group size; a wrong name lists them", parse_granularity,
     format_granularity},
    field<&C::extra_hop_fraction>(
        "--hop-budget", nullptr, "F",
        "extra-hop budget E as a fraction of the rate A"),
    field<&C::share_core_accelerators>(
        "--share-accel", nullptr, nullptr,
        "share one accelerator per core group"),
    field<&C::seed>("--seed", "NETRS_SEED", "N", "RNG seed"),
    field<&C::jobs>("--jobs", "NETRS_JOBS", "N",
                    "worker threads for repeats, 0 = all cores"),
    field<&C::shards>("--shards", "NETRS_SHARDS", "N",
                      "event-queue shards per repeat, clamped to the pods"),
    field<&C::client_multiplicity>(
        "--multiplicity", nullptr, "N",
        "logical client streams per client (C3 concurrency only)"),
    field<&C::obs, &O::trace_path>(
        "--trace", "NETRS_TRACE", "FILE",
        "Chrome trace-event JSON of request spans (Perfetto)"),
    field<&C::obs, &O::metrics_path>(
        "--metrics", "NETRS_METRICS", "FILE",
        "sampled metrics CSV (repeat,time_us,metric,value)"),
    field<&C::obs, &O::attribution_path>(
        "--attribution", "NETRS_ATTRIBUTION", "FILE",
        "per-request latency-attribution CSV"),
    field<&C::obs, &O::decision_path>(
        "--decisions", "NETRS_DECISIONS", "FILE",
        "per-decision audit CSV (regret, staleness, herd)"),
    kTraceCapacity,
    field<&C::shard_telemetry_path>(
        "--shard-telemetry", "NETRS_SHARD_TELEMETRY", "FILE",
        "engine self-telemetry CSV (wall-clock, nondeterministic)"),
    field<&C::fault_plan>("--faults", "NETRS_FAULTS", "PLAN",
                          "fault plan (docs/SCENARIOS.md) or @file"),
    ms_field<&C::timeline_bucket>(
        "--timeline-bucket",
        "latency-timeline bucket width in sim ms, 0 = off"),
};

}  // namespace

std::span<const CellField> cell_fields() { return kCellFields; }

const CellField& trace_capacity_field() { return kTraceCapacity; }

bool apply_cell_args(Cell& cell, std::span<const std::string> args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--help" || args[i] == "-h") return false;
    const std::size_t eq = args[i].find('=');
    const std::string flag = args[i].substr(0, eq);
    const auto f = std::find_if(
        std::begin(kCellFields), std::end(kCellFields),
        [&](const CellField& field) { return flag == field.flag; });
    if (f == std::end(kCellFields)) {
      throw std::invalid_argument("unknown flag \"" + args[i] +
                                  "\" (--help lists the flags)");
    }
    const char* value = nullptr;  // a switch takes none
    if (f->arg == nullptr && eq != std::string::npos) {
      throw std::invalid_argument(flag + " takes no value, got \"" +
                                  args[i] + "\"");
    } else if (f->arg != nullptr && eq != std::string::npos) {
      value = args[i].c_str() + eq + 1;
    } else if (f->arg != nullptr && i + 1 < args.size()) {
      value = args[++i].c_str();
    } else if (f->arg != nullptr) {
      throw std::invalid_argument(flag + " needs a value");
    }
    f->parse(cell, flag, value);
  }
  return true;
}

std::vector<std::string> cell_args(const Cell& cell) {
  std::vector<std::string> args;
  for (const CellField& f : kCellFields) {
    std::string value = f.format(cell);
    if (f.arg != nullptr || !value.empty()) args.emplace_back(f.flag);
    if (f.arg != nullptr) args.push_back(std::move(value));
  }
  return args;
}

std::string cell_usage() {
  const Cell defaults;
  std::string out;
  for (const CellField& f : kCellFields) {
    std::string line = std::string("  ") + f.flag;
    if (f.arg != nullptr) line += std::string(" ") + f.arg;
    line.resize(std::max<std::size_t>(line.size() + 1, 26), ' ');
    line += f.help;
    const std::string value = f.format(defaults);
    if (f.arg != nullptr && !value.empty()) line += " (default " + value + ")";
    if (f.env != nullptr) line += std::string("; also ") + f.env;
    out += line + '\n';
  }
  return out;
}

ExperimentConfig default_config() {
  Cell cell;
  for (const CellField& f : kCellFields) {
    if (f.env == nullptr) continue;
    const char* v = std::getenv(f.env);
    if (v != nullptr && *v != '\0') f.parse(cell, f.env, v);
  }
  return cell.cfg;
}

}  // namespace netrs::harness
