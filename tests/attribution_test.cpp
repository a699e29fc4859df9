// Flight-recorder and decision-auditor tests (DESIGN.md §8.4-§8.6):
// hand-built oracle-regret scenarios with exact expected values, the
// canonical merge rules of join_flights()/replay_decisions() across
// per-shard logs, the telescoping invariant (components sum to the
// measured end-to-end latency for every record), determinism with
// recording on at any --jobs value, and the paper's causal claim —
// in-network selection (NetRS-ILP) decides on fresher information and
// closer to the oracle than client-side C3.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "obs/attribution.hpp"
#include "obs/decision.hpp"

namespace netrs {
namespace {

// ---------------------------------------------------------------------------
// FlightRecorder unit tests: hand-built event sequences with exact sums,
// harvested through join_flights() as the harness does.

TEST(FlightRecorderTest, AccelPathTelescopesExactly) {
  obs::FlightRecorder rec(true);
  rec.on_accel(7, /*arrival=*/1500, /*start=*/1600, /*service=*/200);
  rec.on_server(7, /*server=*/3, /*arrival=*/2400, /*start=*/2500,
                /*service=*/4000);
  rec.on_complete(7, /*first_send=*/1000, /*winner_send=*/1000, /*winner=*/3,
                  /*now=*/7000);

  const obs::FlightSnapshot snap = obs::join_flights({rec.take_log()}, 0);
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
  // Primary copy to server 1 (slow), duplicate sent at t=500 to server 2.
  rec.on_server(9, /*server=*/1, /*arrival=*/300, /*start=*/900,
                /*service=*/5000);
  rec.on_server(9, /*server=*/2, /*arrival=*/800, /*start=*/850,
                /*service=*/1000);
  rec.on_complete(9, /*first_send=*/0, /*winner_send=*/500, /*winner=*/2,
                  /*now=*/2000);

  const obs::FlightSnapshot snap = obs::join_flights({rec.take_log()}, 0);
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
  rec.on_server(1, 0, 600, 600, 100);
  rec.on_complete(1, /*first_send=*/500, 500, 0, 900);
  const obs::FlightSnapshot snap =
      obs::join_flights({rec.take_log()}, /*measure_from=*/10'000);
  EXPECT_TRUE(snap.records.empty());
  EXPECT_EQ(snap.warmup_skipped, 1u);
  EXPECT_EQ(snap.pending_at_end, 0u);
}

TEST(FlightRecorderTest, CompletionWithoutServerObservationCountsUnmatched) {
  obs::FlightRecorder rec(true);
  rec.on_complete(5, 0, 0, 4, 1000);
  const obs::FlightSnapshot snap = obs::join_flights({rec.take_log()}, 0);
  EXPECT_TRUE(snap.records.empty());
  EXPECT_EQ(snap.unmatched, 1u);
}

TEST(FlightRecorderTest, DisabledRecorderIgnoresHooks) {
  obs::FlightRecorder rec(false);
  rec.on_accel(1, 0, 0, 50);
  rec.on_server(1, 0, 0, 0, 100);
  rec.on_complete(1, 0, 0, 0, 500);
  const obs::FlightLog log = rec.take_log();
  EXPECT_TRUE(log.accels.empty());
  EXPECT_TRUE(log.servers.empty());
  EXPECT_TRUE(log.completes.empty());
}

TEST(FlightRecorderTest, JoinMergesOneRequestObservedAcrossThreeLogs) {
  // As in a sharded run: the accelerator, the server and the client of one
  // request sit on different shards, so each hook lands in its own log.
  obs::FlightRecorder accel_lane(true);
  obs::FlightRecorder server_lane(true);
  obs::FlightRecorder client_lane(true);
  // Request 7 contacts two accelerators. The later contact is logged first
  // and in another log; the join keeps the minimum by (start, arrival,
  // service) wherever it was logged.
  accel_lane.on_accel(7, /*arrival=*/1700, /*start=*/1800, /*service=*/100);
  server_lane.on_server(7, /*server=*/3, /*arrival=*/2400, /*start=*/2500,
                        /*service=*/4000);
  client_lane.on_accel(7, /*arrival=*/1500, /*start=*/1600, /*service=*/200);
  client_lane.on_complete(7, /*first_send=*/1000, /*winner_send=*/1000,
                          /*winner=*/3, /*now=*/7000);
  // Request 8: two contacts that tie on start; the earlier arrival wins.
  accel_lane.on_accel(8, /*arrival=*/1300, /*start=*/1600, /*service=*/200);
  server_lane.on_accel(8, /*arrival=*/1200, /*start=*/1600, /*service=*/200);
  server_lane.on_server(8, 4, 2400, 2500, 4000);
  client_lane.on_complete(8, 1000, 1000, 4, 7000);
  // Request 9 is served but never completes.
  accel_lane.on_accel(9, 2000, 2100, 200);
  server_lane.on_server(9, 5, 3000, 3100, 4000);

  const std::vector<obs::FlightLog> logs = {
      accel_lane.take_log(), server_lane.take_log(), client_lane.take_log()};
  const obs::FlightSnapshot snap = obs::join_flights(logs, 0);
  ASSERT_EQ(snap.records.size(), 2u);
  EXPECT_EQ(snap.unmatched, 0u);
  EXPECT_EQ(snap.pending_at_end, 1u);

  // Same completion time: request id orders the records.
  const obs::FlightRecord& r7 = snap.records[0];
  EXPECT_EQ(r7.request_id, 7u);
  EXPECT_TRUE(r7.via_rs);
  EXPECT_EQ(r7.components[1], 500);  // wire_cli_rs from the 1500 ns arrival
  EXPECT_EQ(r7.components[2], 100);  // accel_queue
  EXPECT_EQ(r7.components[3], 200);  // accel_serv
  EXPECT_EQ(r7.components[4], 600);  // wire_rs_srv from the 1800 ns finish
  const obs::FlightRecord& r8 = snap.records[1];
  EXPECT_EQ(r8.request_id, 8u);
  EXPECT_EQ(r8.components[1], 200);  // the 1200 ns arrival won the tie
  EXPECT_EQ(r8.components[2], 400);
  for (const obs::FlightRecord& r : snap.records) {
    sim::Duration sum = 0;
    for (const sim::Duration c : r.components) sum += c;
    EXPECT_EQ(sum, r.total) << "request " << r.request_id;
  }

  // The join does not depend on which log holds what.
  const obs::FlightSnapshot reversed =
      obs::join_flights({logs[2], logs[1], logs[0]}, 0);
  ASSERT_EQ(reversed.records.size(), snap.records.size());
  for (std::size_t i = 0; i < snap.records.size(); ++i) {
    EXPECT_EQ(reversed.records[i].request_id, snap.records[i].request_id);
    EXPECT_EQ(reversed.records[i].components, snap.records[i].components);
  }
  EXPECT_EQ(reversed.pending_at_end, 1u);
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

    // Long-format CSV: per (repeat, req), the eight component rows must
    // sum to the total row exactly (integer ns, no tolerance).
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open()) << path;
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "repeat,req,complete_us,server,dup,via_rs,component,ns");
    std::map<std::string, long long> component_sum;
    std::map<std::string, long long> totals;
    std::uint64_t total_rows = 0;
    while (std::getline(in, line)) {
      std::stringstream ss(line);
      std::string repeat, req, rest, component, ns;
      ASSERT_TRUE(std::getline(ss, repeat, ','));
      ASSERT_TRUE(std::getline(ss, req, ','));
      for (int skip = 0; skip < 4; ++skip) {
        ASSERT_TRUE(std::getline(ss, rest, ','));
      }
      ASSERT_TRUE(std::getline(ss, component, ','));
      ASSERT_TRUE(std::getline(ss, ns, ','));
      const std::string key = repeat + ":" + req;
      if (component == "total") {
        totals[key] = std::stoll(ns);
        ++total_rows;
      } else {
        component_sum[key] += std::stoll(ns);
      }
    }
    EXPECT_EQ(total_rows, res.attribution.requests);
    ASSERT_EQ(component_sum.size(), totals.size());
    for (const auto& [key, total] : totals) {
      const auto it = component_sum.find(key);
      ASSERT_NE(it, component_sum.end()) << key;
      EXPECT_EQ(it->second, total)
          << "components do not telescope for " << key << " ("
          << harness::scheme_name(scheme) << ")";
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
