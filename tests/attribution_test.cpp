// Flight-recorder and decision-auditor tests (DESIGN.md §8.4-§8.6):
// hand-built oracle-regret scenarios with exact expected values, the
// canonical merge rules of merge_flights()/replay_decisions() across
// per-shard lanes, the telescoping invariant (components sum to the
// measured end-to-end latency for every record), determinism with
// recording on at any --jobs value, and the paper's causal claim —
// in-network selection (NetRS-ILP) decides on fresher information and
// closer to the oracle than client-side C3.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "obs/attribution.hpp"
#include "obs/decision.hpp"
#include "sim/audit.hpp"

namespace netrs {
namespace {

// ---------------------------------------------------------------------------
// FlightRecorder unit tests: hand-stamped winning responses with exact
// sums, harvested through merge_flights() as the harness does.

// The flight stamps of a copy that crossed no accelerator.
net::PacketMeta server_stamps(sim::Time arrival, sim::Time start,
                              sim::Duration service) {
  net::PacketMeta m;
  m.server_stamped = true;
  m.server_arrival = arrival;
  m.server_start = start;
  m.server_service = service;
  return m;
}

// ...and of one that an accelerator served on the way.
net::PacketMeta accel_and_server_stamps(sim::Time accel_arrival,
                                        sim::Time accel_start,
                                        sim::Duration accel_service,
                                        sim::Time arrival, sim::Time start,
                                        sim::Duration service) {
  net::PacketMeta m = server_stamps(arrival, start, service);
  m.accel_stamped = true;
  m.accel_arrival = accel_arrival;
  m.accel_start = accel_start;
  m.accel_service = accel_service;
  return m;
}

obs::FlightSnapshot harvest(obs::FlightRecorder& rec) {
  std::vector<obs::FlightSnapshot> lanes;
  lanes.push_back(rec.take());
  return obs::merge_flights(std::move(lanes));
}

TEST(FlightRecorderTest, AccelPathTelescopesExactly) {
  obs::FlightRecorder rec(true);
  rec.on_complete(7, /*first_send=*/1000, /*winner_send=*/1000, /*winner=*/3,
                  /*now=*/7000,
                  accel_and_server_stamps(/*accel_arrival=*/1500,
                                          /*accel_start=*/1600,
                                          /*accel_service=*/200,
                                          /*arrival=*/2400, /*start=*/2500,
                                          /*service=*/4000));

  const obs::FlightSnapshot snap = harvest(rec);
  ASSERT_EQ(snap.records.size(), 1u);
  const obs::FlightRecord& r = snap.records[0];
  EXPECT_EQ(r.request_id, 7u);
  EXPECT_EQ(r.server, 3u);
  EXPECT_FALSE(r.dup_won);
  EXPECT_TRUE(r.via_rs);
  EXPECT_EQ(r.total, 6000);
  EXPECT_EQ(r.components[0], 0);     // dup_wait
  EXPECT_EQ(r.components[1], 500);   // wire_cli_rs
  EXPECT_EQ(r.components[2], 100);   // accel_queue
  EXPECT_EQ(r.components[3], 200);   // accel_serv
  EXPECT_EQ(r.components[4], 600);   // wire_rs_srv
  EXPECT_EQ(r.components[5], 100);   // srv_queue
  EXPECT_EQ(r.components[6], 4000);  // srv_serv
  EXPECT_EQ(r.components[7], 500);   // wire_return
  sim::Duration sum = 0;
  for (const sim::Duration c : r.components) sum += c;
  EXPECT_EQ(sum, r.total);
}

TEST(FlightRecorderTest, DuplicateWinAttributesToWinner) {
  obs::FlightRecorder rec(true);
  // Primary copy to server 1 (slow), duplicate sent at t=500 to server 2,
  // whose response wins and carries server 2's stamps.
  rec.on_complete(9, /*first_send=*/0, /*winner_send=*/500, /*winner=*/2,
                  /*now=*/2000,
                  server_stamps(/*arrival=*/800, /*start=*/850,
                                /*service=*/1000));

  const obs::FlightSnapshot snap = harvest(rec);
  ASSERT_EQ(snap.records.size(), 1u);
  const obs::FlightRecord& r = snap.records[0];
  EXPECT_TRUE(r.dup_won);
  EXPECT_FALSE(r.via_rs);  // no accelerator on this path
  EXPECT_EQ(r.total, 2000);
  EXPECT_EQ(r.components[0], 500);   // dup_wait: first send -> winning send
  EXPECT_EQ(r.components[1], 0);     // no accelerator
  EXPECT_EQ(r.components[2], 0);
  EXPECT_EQ(r.components[3], 0);
  EXPECT_EQ(r.components[4], 300);   // winning send -> server arrival
  EXPECT_EQ(r.components[5], 50);    // srv_queue
  EXPECT_EQ(r.components[6], 1000);  // srv_serv (winner's, not the primary's)
  EXPECT_EQ(r.components[7], 150);   // wire_return
  sim::Duration sum = 0;
  for (const sim::Duration c : r.components) sum += c;
  EXPECT_EQ(sum, r.total);
}

TEST(FlightRecorderTest, WarmupCompletionsAreSkipped) {
  obs::FlightRecorder rec(true);
  rec.set_measure_from(10'000);
  rec.on_complete(1, /*first_send=*/500, 500, 0, 900,
                  server_stamps(600, 600, 100));
  const obs::FlightSnapshot snap = harvest(rec);
  EXPECT_TRUE(snap.records.empty());
  EXPECT_EQ(snap.warmup_skipped, 1u);
  EXPECT_EQ(snap.unmatched, 0u);
}

TEST(FlightRecorderTest, CompletionWithoutServerObservationCountsUnmatched) {
  obs::FlightRecorder rec(true);
  // A response whose copy no server served (e.g. a cancel's reply) has no
  // server stamps; it counts as unmatched before the warmup filter.
  rec.set_measure_from(10'000);
  rec.on_complete(5, 0, 0, 4, 1000, net::PacketMeta{});
  const obs::FlightSnapshot snap = harvest(rec);
  EXPECT_TRUE(snap.records.empty());
  EXPECT_EQ(snap.unmatched, 1u);
  EXPECT_EQ(snap.warmup_skipped, 0u);
}

TEST(FlightRecorderTest, DisabledRecorderIgnoresHooks) {
  obs::FlightRecorder rec(false);
  rec.on_complete(1, 0, 0, 0, 500, server_stamps(0, 0, 100));
  rec.on_complete(2, 0, 0, 0, 500, net::PacketMeta{});
  const obs::FlightSnapshot snap = rec.take();
  EXPECT_TRUE(snap.records.empty());
  EXPECT_EQ(snap.unmatched, 0u);
  EXPECT_EQ(snap.warmup_skipped, 0u);
}

TEST(FlightRecorderTest, LaneMergeRestoresCompletionOrder) {
  // As in a sharded run: clients on different shards complete requests
  // into their own lanes; the merge yields one (completion time, request
  // id) order whichever lane holds what.
  obs::FlightRecorder lane_a(true);
  obs::FlightRecorder lane_b(true);
  const net::PacketMeta stamps = server_stamps(2400, 2500, 4000);
  // Lane a: request 9 then request 7, both completing at 7000 ns (the
  // order the shard's events ran in, not id order).
  lane_a.on_complete(9, 1000, 1000, 3, 7000, stamps);
  lane_a.on_complete(7, 1000, 1000, 3, 7000, stamps);
  lane_a.on_complete(4, 1000, 1000, 3, 9000, stamps);
  // Lane b: request 8 completes between them; one warmup completion and
  // one unmatched completion add to the counts.
  lane_b.set_measure_from(500);
  lane_b.on_complete(8, 1000, 1000, 3, 8000, stamps);
  lane_b.on_complete(6, /*first_send=*/100, 100, 3, 8500, stamps);
  lane_b.on_complete(5, 1000, 1000, 3, 8600, net::PacketMeta{});
  const obs::FlightSnapshot a = lane_a.take();
  const obs::FlightSnapshot b = lane_b.take();

  for (const std::vector<obs::FlightSnapshot>& lanes :
       {std::vector<obs::FlightSnapshot>{a, b},
        std::vector<obs::FlightSnapshot>{b, a}}) {
    const obs::FlightSnapshot snap = obs::merge_flights(lanes);
    ASSERT_EQ(snap.records.size(), 4u);
    EXPECT_EQ(snap.records[0].request_id, 7u);  // same instant: id order
    EXPECT_EQ(snap.records[1].request_id, 9u);
    EXPECT_EQ(snap.records[2].request_id, 8u);
    EXPECT_EQ(snap.records[3].request_id, 4u);
    EXPECT_EQ(snap.warmup_skipped, 1u);
    EXPECT_EQ(snap.unmatched, 1u);
    for (const obs::FlightRecord& r : snap.records) {
      sim::Duration sum = 0;
      for (const sim::Duration c : r.components) sum += c;
      EXPECT_EQ(sum, r.total) << "request " << r.request_id;
    }
  }
}

// ---------------------------------------------------------------------------
// Decision-auditor unit tests: two servers with known true state, so the
// oracle regret is exact arithmetic. Harvested through replay_decisions()
// as the harness does.

void journal_two_servers(obs::DecisionRecorder& rec) {
  // Server 1: idle, mean 4 ms, Np=1 -> cost 4 ms. Server 2: 4 queued,
  // mean 4 ms, Np=1 -> cost 4 ms * (1 + 4) = 20 ms.
  rec.on_server_state(1, /*t=*/0, /*queue_size=*/0, /*parallelism=*/1,
                      sim::millis(4));
  rec.on_server_state(2, /*t=*/0, /*queue_size=*/4, /*parallelism=*/1,
                      sim::millis(4));
}

obs::DecisionSnapshot replay(obs::DecisionRecorder& rec,
                             sim::Time measure_from = 0) {
  return obs::replay_decisions({rec.take_log()}, sim::millis(1),
                               measure_from);
}

TEST(DecisionRecorderTest, PickingLoadedServerHasExactPositiveRegret) {
  obs::DecisionRecorder rec(true);
  journal_two_servers(rec);
  const std::vector<net::HostId> cand = {1, 2};
  rec.on_decision(0, /*now=*/0, cand, /*chosen=*/2, {}, {});

  const obs::DecisionSnapshot snap = replay(rec);
  ASSERT_EQ(snap.records.size(), 1u);
  const obs::DecisionRecord& r = snap.records[0];
  ASSERT_TRUE(r.has_regret);
  // cost(2) - cost(1) = 20 ms - 4 ms = 16 ms, exactly.
  EXPECT_DOUBLE_EQ(r.regret_ns, 16.0 * 1e6);
  EXPECT_FALSE(r.has_score);
  EXPECT_FALSE(r.has_staleness);
}

TEST(DecisionRecorderTest, PickingIdleServerHasZeroRegret) {
  obs::DecisionRecorder rec(true);
  journal_two_servers(rec);
  const std::vector<net::HostId> cand = {1, 2};
  rec.on_decision(0, 0, cand, /*chosen=*/1, {}, {});

  const obs::DecisionSnapshot snap = replay(rec);
  ASSERT_EQ(snap.records.size(), 1u);
  ASSERT_TRUE(snap.records[0].has_regret);
  EXPECT_DOUBLE_EQ(snap.records[0].regret_ns, 0.0);
}

TEST(DecisionRecorderTest, ParallelismDividesQueueInOracleCost) {
  // 4 queued at Np=4 is one "round" of wait: cost = mean * (1 + 4/4).
  const obs::OracleServerState s{true, 4, 4, sim::millis(4)};
  EXPECT_DOUBLE_EQ(obs::oracle_cost_ns(s), 2.0 * 4e6);
}

TEST(DecisionRecorderTest, StalenessComesFromChosenServersFeedbackAge) {
  obs::DecisionRecorder rec(true);
  const std::vector<net::HostId> cand = {1, 2};
  // Delayed feedback: the chosen server (1) was last heard 250 us ago;
  // server 2 was never heard from (age < 0).
  const std::vector<sim::Duration> ages = {sim::micros(250), -1};
  const std::vector<double> scores = {3.5, 9.0};
  rec.on_decision(0, sim::millis(2), cand, /*chosen=*/1, scores, ages);
  rec.on_decision(0, sim::millis(2), cand, /*chosen=*/2, scores, ages);

  const obs::DecisionSnapshot snap = replay(rec);
  ASSERT_EQ(snap.records.size(), 2u);
  ASSERT_TRUE(snap.records[0].has_staleness);
  EXPECT_EQ(snap.records[0].staleness, sim::micros(250));
  ASSERT_TRUE(snap.records[0].has_score);
  EXPECT_DOUBLE_EQ(snap.records[0].chosen_score, 3.5);
  // Never-heard chosen server: no staleness, but the score is still there.
  EXPECT_FALSE(snap.records[1].has_staleness);
  ASSERT_TRUE(snap.records[1].has_score);
  EXPECT_DOUBLE_EQ(snap.records[1].chosen_score, 9.0);
}

TEST(DecisionRecorderTest, HerdIndexTracksTrailingWindow) {
  obs::DecisionRecorder rec(true);
  const std::vector<net::HostId> cand = {1, 2};
  rec.on_decision(0, sim::micros(0), cand, 1, {}, {});
  rec.on_decision(0, sim::micros(100), cand, 1, {}, {});
  rec.on_decision(0, sim::micros(200), cand, 2, {}, {});
  // 1.5 ms: everything up to 0.5 ms has left the 1 ms window.
  rec.on_decision(0, sim::micros(1500), cand, 2, {}, {});

  const obs::DecisionSnapshot snap = replay(rec);
  ASSERT_EQ(snap.records.size(), 4u);
  EXPECT_DOUBLE_EQ(snap.records[0].herd, 1.0);        // {1}
  EXPECT_DOUBLE_EQ(snap.records[1].herd, 1.0);        // {1, 1}
  EXPECT_DOUBLE_EQ(snap.records[2].herd, 1.0 / 3.0);  // {1, 1, 2}
  EXPECT_DOUBLE_EQ(snap.records[3].herd, 1.0);        // {2} after eviction
}

TEST(DecisionRecorderTest, WarmupDecisionsFeedHerdStateButProduceNoRecords) {
  obs::DecisionRecorder rec(true);
  const std::vector<net::HostId> cand = {1, 2};
  rec.on_decision(0, sim::micros(0), cand, 1, {}, {});    // warmup
  rec.on_decision(0, sim::micros(100), cand, 1, {}, {});  // warmup
  rec.on_decision(0, sim::micros(200), cand, 1, {}, {});  // measured

  const obs::DecisionSnapshot snap = replay(rec, sim::micros(150));
  EXPECT_EQ(snap.observed, 3u);
  ASSERT_EQ(snap.records.size(), 1u);
  // The measured record sees the warmed window: 3 of 3 picks match.
  EXPECT_DOUBLE_EQ(snap.records[0].herd, 1.0);
}

TEST(DecisionRecorderTest, JournalEntryAtTheDecisionTimeIsTheOneUsed) {
  obs::DecisionRecorder rec(true);
  journal_two_servers(rec);
  // At 1 ms server 1 fills up: 9 queued -> cost 40 ms, now worse than
  // server 2's 20 ms.
  rec.on_server_state(1, sim::millis(1), 9, 1, sim::millis(4));
  const std::vector<net::HostId> cand = {1, 2};
  rec.on_decision(0, sim::millis(1) - 1, cand, /*chosen=*/2, {}, {});
  rec.on_decision(0, sim::millis(1), cand, /*chosen=*/2, {}, {});

  const obs::DecisionSnapshot snap = replay(rec);
  ASSERT_EQ(snap.records.size(), 2u);
  // One ns before the transition the t=0 state still holds.
  ASSERT_TRUE(snap.records[0].has_regret);
  EXPECT_DOUBLE_EQ(snap.records[0].regret_ns, 16.0 * 1e6);
  // At exactly 1 ms the new entry applies: server 2 is now the best pick.
  ASSERT_TRUE(snap.records[1].has_regret);
  EXPECT_DOUBLE_EQ(snap.records[1].regret_ns, 0.0);
}

TEST(DecisionRecorderTest, CandidateFirstJournaledAfterDecisionHasNoRegret) {
  obs::DecisionRecorder rec(true);
  rec.on_server_state(1, 0, 0, 1, sim::millis(4));
  rec.on_server_state(2, sim::millis(2), 4, 1, sim::millis(4));
  const std::vector<net::HostId> cand = {1, 2};
  rec.on_decision(0, sim::millis(1), cand, /*chosen=*/1, {}, {});
  rec.on_decision(0, sim::millis(3), cand, /*chosen=*/1, {}, {});

  const obs::DecisionSnapshot snap = replay(rec);
  ASSERT_EQ(snap.records.size(), 2u);
  EXPECT_FALSE(snap.records[0].has_regret);
  ASSERT_TRUE(snap.records[1].has_regret);
  EXPECT_DOUBLE_EQ(snap.records[1].regret_ns, 0.0);
}

TEST(DecisionRecorderTest, SameInstantPicksFromTwoLogsOrderByNodeThenSeq) {
  // Two shards decide at the same instant. Node 5 (logged first, in its
  // own log) decides twice; node 3 once.
  obs::DecisionRecorder shard_a(true);
  obs::DecisionRecorder shard_b(true);
  const std::vector<net::HostId> cand = {1, 2, 3};
  shard_a.on_decision(5, sim::micros(100), cand, /*chosen=*/1, {}, {});
  shard_a.on_decision(5, sim::micros(100), cand, /*chosen=*/2, {}, {});
  shard_b.on_decision(3, sim::micros(100), cand, /*chosen=*/3, {}, {});
  const obs::DecisionLog a = shard_a.take_log();
  const obs::DecisionLog b = shard_b.take_log();

  for (const std::vector<obs::DecisionLog>& logs :
       {std::vector<obs::DecisionLog>{a, b},
        std::vector<obs::DecisionLog>{b, a}}) {
    const obs::DecisionSnapshot snap =
        obs::replay_decisions(logs, sim::millis(1), 0);
    ASSERT_EQ(snap.records.size(), 3u);
    EXPECT_EQ(snap.records[0].node, 3);
    EXPECT_EQ(snap.records[0].chosen, 3u);
    EXPECT_EQ(snap.records[1].node, 5);
    EXPECT_EQ(snap.records[1].chosen, 1u);  // node 5's first pick
    EXPECT_EQ(snap.records[2].node, 5);
    EXPECT_EQ(snap.records[2].chosen, 2u);
    // The herd window follows the merged order: {3}, {3, 1}, {3, 1, 2}.
    EXPECT_DOUBLE_EQ(snap.records[0].herd, 1.0);
    EXPECT_DOUBLE_EQ(snap.records[1].herd, 0.5);
    EXPECT_DOUBLE_EQ(snap.records[2].herd, 1.0 / 3.0);
  }
}

// ---------------------------------------------------------------------------
// Experiment-level tests: full runs with recording enabled.

harness::ExperimentConfig small_config() {
  harness::ExperimentConfig cfg;
  cfg.fat_tree_k = 4;  // 16 hosts
  cfg.num_servers = 5;
  cfg.num_clients = 8;
  cfg.total_requests = 2000;
  cfg.repeats = 2;
  cfg.seed = 17;
  cfg.jobs = 1;
  return cfg;
}

// FNV-1a over every measured latency sample plus the summary counters —
// the same digest shape golden_digest_test pins.
std::uint64_t result_digest(const harness::ExperimentResult& res) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (std::size_t i = 0; i < sizeof(v); ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  mix(res.latencies_ms.count());
  for (const double s : res.latencies_ms.samples()) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &s, sizeof(bits));
    mix(bits);
  }
  mix(res.issued);
  mix(res.completed);
  mix(res.redundant);
  mix(res.cancels);
  return h;
}

TEST(AttributionExperimentTest, DigestsUnchangedWithRecordingOnAtAnyJobs) {
  for (const harness::Scheme scheme :
       {harness::Scheme::kCliRSR95Cancel, harness::Scheme::kNetRSIlp}) {
    harness::ExperimentConfig off = small_config();
    const std::uint64_t base = result_digest(run_experiment(scheme, off));

    harness::ExperimentConfig on = small_config();
    on.obs.record_attribution = true;
    on.obs.record_decisions = true;
    const std::uint64_t serial = result_digest(run_experiment(scheme, on));
    on.jobs = 4;
    const std::uint64_t parallel = result_digest(run_experiment(scheme, on));

    EXPECT_EQ(base, serial)
        << "recording changed behavior for "
        << harness::scheme_name(scheme);
    EXPECT_EQ(serial, parallel)
        << "jobs=1 vs jobs=4 diverged with recording on for "
        << harness::scheme_name(scheme);
  }
}

TEST(AttributionExperimentTest, ComponentsSumToTotalForEveryRequest) {
  const std::string path =
      ::testing::TempDir() + "/attribution_test_flight.csv";
  for (const harness::Scheme scheme :
       {harness::Scheme::kCliRSR95Cancel, harness::Scheme::kNetRSIlp}) {
    harness::ExperimentConfig cfg = small_config();
    cfg.obs.attribution_path = path;
    const harness::ExperimentResult res =
        harness::run_experiment(scheme, cfg);

    // Every measured completion produced exactly one record.
    EXPECT_TRUE(res.attribution.enabled);
    EXPECT_EQ(res.attribution.requests, res.latencies_ms.count());
    EXPECT_EQ(res.attribution.unmatched, 0u);

    // One row per record: the eight component columns must sum to the
    // total column exactly (integer ns, no tolerance).
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open()) << path;
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line,
              "repeat,req,complete_us,server,dup,via_rs,dup_wait,"
              "wire_cli_rs,accel_queue,accel_serv,wire_rs_srv,srv_queue,"
              "srv_serv,wire_return,total");
    std::uint64_t rows = 0;
    while (std::getline(in, line)) {
      std::stringstream ss(line);
      std::vector<std::string> fields;
      for (std::string f; std::getline(ss, f, ',');) fields.push_back(f);
      ASSERT_EQ(fields.size(), 15u) << line;
      long long sum = 0;
      for (std::size_t c = 6; c < 14; ++c) sum += std::stoll(fields[c]);
      EXPECT_EQ(sum, std::stoll(fields[14]))
          << "components do not telescope for " << fields[0] << ":"
          << fields[1] << " (" << harness::scheme_name(scheme) << ")";
      ++rows;
    }
    EXPECT_EQ(rows, res.attribution.requests);
  }
}

TEST(AttributionExperimentTest, StampsAreWrittenOncePerCopyInAuditBuilds) {
  // In-band attribution rests on two facts the audit build checks
  // ("flight-restamp"): a request is served as a request by at most one
  // accelerator, and each copy by at most one server — so the winning
  // response carries exactly the winner's stamps.
  if constexpr (!sim::kAuditEnabled) {
    GTEST_SKIP() << "stamp checks exist only under -DNETRS_AUDIT=ON";
  }
  for (const harness::Scheme scheme :
       {harness::Scheme::kCliRSR95Cancel, harness::Scheme::kNetRSToR,
        harness::Scheme::kNetRSIlp}) {
    for (const bool shared : {false, true}) {
      harness::ExperimentConfig cfg = small_config();
      cfg.shards = 2;
      cfg.share_core_accelerators = shared;
      cfg.fault_plan = "at 0.15s crash server 3; at 0.3s recover server 3";
      const harness::ExperimentResult res =
          harness::run_experiment(scheme, cfg);
      ASSERT_TRUE(res.audit.enabled);
      EXPECT_EQ(res.audit.violations_total, 0u)
          << harness::scheme_name(scheme) << " shared=" << shared;
    }
  }
}

TEST(AttributionExperimentTest, NetRSDecidesFresherAndCloserToOracle) {
  // The paper's causal chain as numbers: concentrating selection at a few
  // in-network points gives each decision point more feedback per second,
  // so decisions ride fresher state and land closer to the oracle than
  // 8 independent client-side C3 instances.
  // Needs enough independent clients for client-side feedback to actually
  // go stale: with only a handful of clients the two schemes are within
  // noise of each other (128 hosts, 64 clients here).
  harness::ExperimentConfig cfg = small_config();
  cfg.fat_tree_k = 8;
  cfg.num_servers = 16;
  cfg.num_clients = 64;
  cfg.total_requests = 12000;
  cfg.jobs = 2;
  cfg.obs.record_decisions = true;
  const harness::ExperimentResult cli =
      harness::run_experiment(harness::Scheme::kCliRS, cfg);
  const harness::ExperimentResult ilp =
      harness::run_experiment(harness::Scheme::kNetRSIlp, cfg);

  ASSERT_TRUE(cli.decisions.enabled);
  ASSERT_TRUE(ilp.decisions.enabled);
  ASSERT_GT(cli.decisions.decisions, 0u);
  ASSERT_GT(ilp.decisions.decisions, 0u);
  ASSERT_FALSE(cli.decisions.regret_ms.empty());
  ASSERT_FALSE(ilp.decisions.regret_ms.empty());
  EXPECT_LT(ilp.decisions.regret_ms.mean(), cli.decisions.regret_ms.mean());
  EXPECT_LT(ilp.decisions.staleness_ms.mean(),
            cli.decisions.staleness_ms.mean());
}

}  // namespace
}  // namespace netrs
