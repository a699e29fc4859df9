// The golden contract the determinism tests share: the FNV-1a digest of an
// ExperimentResult, the small k=4 cell it is pinned on, and the recorded
// digest of each scheme on that cell.
//
// The recorded digests were produced by golden_digest_test (run it with
// NETRS_PRINT_DIGESTS=1 to reprint them). They are a *behavioral
// contract*: update them only for a change that intentionally alters
// simulation results, and say so in the commit message.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "harness/experiment.hpp"

namespace netrs::golden {

/// FNV-1a over raw bytes; doubles are hashed by bit pattern, so any change
/// in any sample or statistic changes the digest.
class Digest {
 public:
  void add_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001B3ULL;
    }
  }
  void add_u64(std::uint64_t v) { add_bytes(&v, sizeof(v)); }
  void add_double(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add_u64(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// FNV-1a over `bytes` (an obs file's contents).
inline std::uint64_t fnv1a(std::string_view bytes) {
  Digest d;
  d.add_bytes(bytes.data(), bytes.size());
  return d.value();
}

/// Digest of a finalized result: the bit pattern of every measured latency
/// plus the summary statistics. `include_fault` adds the fault-phase
/// outputs (fired events and the per-phase samples); the pinned digests
/// below do not include them.
inline std::uint64_t result_digest(const harness::ExperimentResult& res,
                                   bool include_fault = false) {
  Digest d;
  d.add_u64(res.latencies_ms.count());
  for (double s : res.latencies_ms.samples()) d.add_double(s);
  d.add_u64(res.issued);
  d.add_u64(res.completed);
  d.add_u64(res.redundant);
  d.add_u64(res.cancels);
  d.add_double(res.avg_forwards);
  d.add_double(res.wire_bytes_per_request);
  d.add_double(res.load_oscillation);
  d.add_u64(static_cast<std::uint64_t>(res.rsnodes));
  d.add_bytes(res.plan_method.data(), res.plan_method.size());
  d.add_u64(static_cast<std::uint64_t>(res.plans_deployed));
  d.add_u64(res.drs_groups);
  if (include_fault) {
    d.add_u64(res.fault.events_fired);
    for (int p = 0; p < 3; ++p) {
      d.add_u64(res.fault.latency_ms[p].count());
      for (double s : res.fault.latency_ms[p].samples()) d.add_double(s);
    }
  }
  return d.value();
}

/// The golden cell: k=4 (16 hosts, 4 pods, so up to 4 shards), 5 servers,
/// 8 clients, 2000 requests, two repeats, seed 17, serial repeats.
inline harness::ExperimentConfig cell() {
  harness::ExperimentConfig cfg;
  cfg.fat_tree_k = 4;
  cfg.num_servers = 5;
  cfg.num_clients = 8;
  cfg.total_requests = 2000;
  cfg.repeats = 2;
  cfg.seed = 17;
  cfg.jobs = 1;
  return cfg;
}

/// One scheme's recorded digest on cell().
struct Pin {
  harness::Scheme scheme;
  std::uint64_t digest;
};

// NetRS-ILP was re-recorded when Controller::rates_ switched from
// unordered_map to an ordered map (sorted GroupId order): build_problem
// iterates rates_, so the ILP's variable order — and with it tie-breaking
// among equal-cost placements — previously depended on hash layout. The
// new digest is the deterministic-order plan; CliRS/CliRS-R95C/NetRS-ToR
// never consult the ILP and were unaffected.
/// The recorded digests, any shard or job count.
inline constexpr Pin kPins[] = {
    {harness::Scheme::kCliRS, 0x22129A79E79D7970ULL},
    {harness::Scheme::kCliRSR95Cancel, 0x0891AE823F6B4F89ULL},
    {harness::Scheme::kNetRSToR, 0x3A2BD8D30D7BB217ULL},
    {harness::Scheme::kNetRSIlp, 0xE5DF15E64FB0AFFBULL},
};

/// The recorded digest of `scheme` on cell() (0 for an unpinned scheme).
inline std::uint64_t pinned(harness::Scheme scheme) {
  for (const Pin& p : kPins) {
    if (p.scheme == scheme) return p.digest;
  }
  return 0;
}

}  // namespace netrs::golden
