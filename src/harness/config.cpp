#include "harness/config.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

namespace netrs::harness {

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kCliRS:
      return "CliRS";
    case Scheme::kCliRSR95:
      return "CliRS-R95";
    case Scheme::kCliRSR95Cancel:
      return "CliRS-R95C";
    case Scheme::kNetRSToR:
      return "NetRS-ToR";
    case Scheme::kNetRSIlp:
      return "NetRS-ILP";
  }
  return "?";
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

/// The count in environment variable `name`, or `fallback` when it is
/// unset or empty; parse_count() checks it against T's range.
template <typename T>
T env_count(const char* name, T fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<T>(parse_count(
      name, v, static_cast<std::uint64_t>(std::numeric_limits<T>::max())));
}

std::string env_str(const char* name, std::string fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return v;
}

}  // namespace

ExperimentConfig default_config() {
  ExperimentConfig cfg;
  cfg.total_requests = env_count("NETRS_REQUESTS", cfg.total_requests);
  cfg.repeats = env_count("NETRS_REPEATS", cfg.repeats);
  cfg.seed = env_count("NETRS_SEED", cfg.seed);
  cfg.jobs = env_count("NETRS_JOBS", cfg.jobs);
  cfg.shards = env_count("NETRS_SHARDS", cfg.shards);
  cfg.fault_plan = env_str("NETRS_FAULTS", cfg.fault_plan);
  cfg.obs.trace_path = env_str("NETRS_TRACE", cfg.obs.trace_path);
  cfg.obs.metrics_path = env_str("NETRS_METRICS", cfg.obs.metrics_path);
  cfg.obs.attribution_path =
      env_str("NETRS_ATTRIBUTION", cfg.obs.attribution_path);
  cfg.obs.decision_path = env_str("NETRS_DECISIONS", cfg.obs.decision_path);
  cfg.obs.trace_capacity =
      env_count("NETRS_TRACE_CAPACITY", cfg.obs.trace_capacity);
  cfg.shard_telemetry_path =
      env_str("NETRS_SHARD_TELEMETRY", cfg.shard_telemetry_path);
  return cfg;
}

}  // namespace netrs::harness
