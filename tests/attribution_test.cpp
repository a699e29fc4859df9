// Flight-recorder and decision-auditor tests (DESIGN.md §8.4-§8.6):
// hand-built oracle-regret scenarios with exact expected values, the
// canonical merge rules of merge_flights() and DecisionReplay across
// per-shard lanes, chunked flushes at random watermarks writing the same
// CSV bytes as one flush, the telescoping invariant (components sum to
// the measured end-to-end latency for every record), determinism with
// recording on at any --jobs value, and the paper's causal claim —
// in-network selection (NetRS-ILP) decides on fresher information and
// closer to the oracle than client-side C3.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "obs/attribution.hpp"
#include "obs/decision.hpp"
#include "obs/text_sink.hpp"
#include "sim/audit.hpp"
#include "sim/rng.hpp"

namespace netrs {
namespace {

// The final flush's watermark: everything the lanes hold.
constexpr sim::Time kForever = std::numeric_limits<sim::Time>::max();

// ---------------------------------------------------------------------------
// FlightRecorder unit tests: hand-stamped winning responses with exact
// sums, flushed through merge_flights() as the harness does.

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

// Everything `rec` holds as one chunk, as the harness's final flush.
obs::FlightSnapshot harvest(obs::FlightRecorder& rec) {
  obs::FlightSnapshot chunk;
  obs::FlightRecorder* const lanes[] = {&rec};
  obs::merge_flights(lanes, kForever, chunk);
  return chunk;
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
  const obs::FlightSnapshot snap = harvest(rec);
  EXPECT_TRUE(snap.records.empty());
  EXPECT_EQ(snap.unmatched, 0u);
  EXPECT_EQ(snap.warmup_skipped, 0u);
}

TEST(FlightRecorderTest, LaneMergeRestoresCompletionOrder) {
  // As in a sharded run: clients on different shards complete requests
  // into their own lanes; the merge yields one (completion time, request
  // id) order whichever lane holds what.
  const net::PacketMeta stamps = server_stamps(2400, 2500, 4000);
  const auto fill = [&stamps](obs::FlightRecorder& lane_a,
                              obs::FlightRecorder& lane_b) {
    // Lane a: request 9 then request 7, both completing at 7000 ns (the
    // order the shard's events ran in, not id order).
    lane_a.on_complete(9, 1000, 1000, 3, 7000, stamps);
    lane_a.on_complete(7, 1000, 1000, 3, 7000, stamps);
    lane_a.on_complete(4, 1000, 1000, 3, 9000, stamps);
    // Lane b: request 8 completes between them; one warmup completion
    // and one unmatched completion add to the counts.
    lane_b.set_measure_from(500);
    lane_b.on_complete(8, 1000, 1000, 3, 8000, stamps);
    lane_b.on_complete(6, /*first_send=*/100, 100, 3, 8500, stamps);
    lane_b.on_complete(5, 1000, 1000, 3, 8600, net::PacketMeta{});
  };

  for (const bool a_first : {true, false}) {
    obs::FlightRecorder lane_a(true);
    obs::FlightRecorder lane_b(true);
    fill(lane_a, lane_b);
    obs::FlightRecorder* const lanes[] = {a_first ? &lane_a : &lane_b,
                                          a_first ? &lane_b : &lane_a};
    obs::FlightSnapshot snap;
    obs::merge_flights(lanes, kForever, snap);
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

TEST(FlightRecorderTest, SameInstantCompletionsAtTheWatermarkWaitForTheNextChunk) {
  // Two lanes complete requests at exactly the watermark: they are not
  // before it, so they stay in their lanes and open the next chunk, in id
  // order across the lanes.
  const net::PacketMeta stamps = server_stamps(2400, 2500, 4000);
  obs::FlightRecorder lane_a(true);
  obs::FlightRecorder lane_b(true);
  lane_a.on_complete(3, 1000, 1000, 1, 4999, stamps);
  lane_a.on_complete(12, 1000, 1000, 1, 5000, stamps);
  lane_b.on_complete(11, 1000, 1000, 2, 5000, stamps);
  lane_b.on_complete(2, 1000, 1000, 2, 6000, stamps);
  obs::FlightRecorder* const lanes[] = {&lane_a, &lane_b};

  obs::FlightSnapshot first;
  obs::merge_flights(lanes, 5000, first);
  ASSERT_EQ(first.records.size(), 1u);
  EXPECT_EQ(first.records[0].request_id, 3u);

  obs::FlightSnapshot second;
  obs::merge_flights(lanes, kForever, second);
  ASSERT_EQ(second.records.size(), 3u);
  EXPECT_EQ(second.records[0].request_id, 11u);
  EXPECT_EQ(second.records[1].request_id, 12u);
  EXPECT_EQ(second.records[2].request_id, 2u);
}

// The attribution CSV rows of `chunks`, written in order.
std::string attribution_rows(const std::vector<obs::FlightSnapshot>& chunks) {
  std::ostringstream os;
  {
    obs::TextSink out(os);
    for (const obs::FlightSnapshot& chunk : chunks) {
      obs::write_attribution_rows(out, 0, chunk);
    }
  }
  return os.str();
}

TEST(FlightRecorderTest, ChunkedFlushesWriteTheBytesOfOneFlush) {
  // Random lanes: completions on a coarse time grid (so same-instant
  // completions land in one lane and across lanes), some in warmup and
  // some unmatched. Flushing at random watermarks must write the same
  // rows as one flush after the run.
  sim::Rng rng(41);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t lane_count = 1 + rng.uniform(4);
    struct Completion {
      std::size_t lane;
      std::uint64_t id;
      sim::Time first_send, now;
      bool stamped;
    };
    std::vector<Completion> log;
    sim::Time now = 0;
    for (std::uint64_t id = 1; id <= 300; ++id) {
      now += static_cast<sim::Time>(rng.uniform(3)) * 1000;
      const sim::Time first_send =
          now - 500 - static_cast<sim::Time>(rng.uniform(4000));
      // Ids are unique, as request ids are, but not in completion order.
      log.push_back({rng.uniform(lane_count), rng.uniform(1000) * 1000 + id,
                     first_send, now, !rng.bernoulli(0.02)});
    }
    const sim::Time measure_from = static_cast<sim::Time>(rng.uniform(50'000));
    const auto record = [&](std::vector<obs::FlightRecorder>& lanes) {
      for (obs::FlightRecorder& lane : lanes) {
        lane.set_measure_from(measure_from);
      }
      for (const Completion& c : log) {
        lanes[c.lane].on_complete(
            c.id, c.first_send, c.first_send, 1, c.now,
            c.stamped ? server_stamps(c.first_send + 100, c.first_send + 200,
                                      300)
                      : net::PacketMeta{});
      }
    };
    const auto pointers = [](std::vector<obs::FlightRecorder>& lanes) {
      std::vector<obs::FlightRecorder*> out;
      for (obs::FlightRecorder& lane : lanes) out.push_back(&lane);
      return out;
    };

    std::vector<obs::FlightRecorder> one_lanes(lane_count,
                                               obs::FlightRecorder(true));
    record(one_lanes);
    std::vector<obs::FlightSnapshot> one(1);
    obs::merge_flights(pointers(one_lanes), kForever, one[0]);

    std::vector<obs::FlightRecorder> chunk_lanes(lane_count,
                                                 obs::FlightRecorder(true));
    record(chunk_lanes);
    std::vector<obs::FlightSnapshot> chunks;
    sim::Time watermark = 0;
    while (watermark < now) {
      // Watermarks on the completion grid, so some fall exactly on
      // completions.
      watermark += static_cast<sim::Time>(rng.uniform(20)) * 1000;
      obs::merge_flights(pointers(chunk_lanes), watermark,
                         chunks.emplace_back());
    }
    obs::merge_flights(pointers(chunk_lanes), kForever,
                       chunks.emplace_back());

    ASSERT_FALSE(one[0].records.empty());
    EXPECT_EQ(attribution_rows(chunks), attribution_rows(one))
        << "trial " << trial;
    std::uint64_t skipped = 0;
    std::uint64_t unmatched = 0;
    for (const obs::FlightSnapshot& chunk : chunks) {
      skipped += chunk.warmup_skipped;
      unmatched += chunk.unmatched;
    }
    EXPECT_EQ(skipped, one[0].warmup_skipped);
    EXPECT_EQ(unmatched, one[0].unmatched);
  }
}

// ---------------------------------------------------------------------------
// Decision-auditor unit tests: two servers with known true state, so the
// oracle regret is exact arithmetic. Replayed through a DecisionReplay as
// the harness does.

void journal_two_servers(obs::DecisionRecorder& rec) {
  // Server 1: idle, mean 4 ms, Np=1 -> cost 4 ms. Server 2: 4 queued,
  // mean 4 ms, Np=1 -> cost 4 ms * (1 + 4) = 20 ms.
  rec.on_server_state(1, /*t=*/0, /*queue_size=*/0, /*parallelism=*/1,
                      sim::millis(4));
  rec.on_server_state(2, /*t=*/0, /*queue_size=*/4, /*parallelism=*/1,
                      sim::millis(4));
}

// Everything `rec` logged, replayed as one chunk.
obs::DecisionSnapshot replay(obs::DecisionRecorder& rec,
                             sim::Time measure_from = 0) {
  obs::DecisionReplay replay(sim::millis(1), measure_from);
  obs::DecisionSnapshot chunk;
  obs::DecisionRecorder* const lanes[] = {&rec};
  replay.flush(lanes, kForever, chunk);
  return chunk;
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
  const std::vector<net::HostId> cand = {1, 2, 3};
  for (const bool a_first : {true, false}) {
    obs::DecisionRecorder shard_a(true);
    obs::DecisionRecorder shard_b(true);
    shard_a.on_decision(5, sim::micros(100), cand, /*chosen=*/1, {}, {});
    shard_a.on_decision(5, sim::micros(100), cand, /*chosen=*/2, {}, {});
    shard_b.on_decision(3, sim::micros(100), cand, /*chosen=*/3, {}, {});
    obs::DecisionRecorder* const lanes[] = {a_first ? &shard_a : &shard_b,
                                            a_first ? &shard_b : &shard_a};
    obs::DecisionReplay replay(sim::millis(1), 0);
    obs::DecisionSnapshot snap;
    replay.flush(lanes, kForever, snap);
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

TEST(DecisionReplayTest, HerdWindowStraddlesAFlush) {
  // Picks at 0.2, 0.6 and 0.9 ms, a flush at 1 ms, then a pick at 1.3 ms:
  // its 1 ms window still holds the last two picks of the first chunk.
  obs::DecisionRecorder rec(true);
  const std::vector<net::HostId> cand = {1, 2};
  rec.on_decision(0, sim::micros(200), cand, 1, {}, {});
  rec.on_decision(0, sim::micros(600), cand, 1, {}, {});
  rec.on_decision(0, sim::micros(900), cand, 2, {}, {});
  obs::DecisionRecorder* const lanes[] = {&rec};
  obs::DecisionReplay replay(sim::millis(1), 0);
  obs::DecisionSnapshot first;
  replay.flush(lanes, sim::millis(1), first);
  ASSERT_EQ(first.records.size(), 3u);

  rec.on_decision(0, sim::micros(1300), cand, 2, {}, {});
  obs::DecisionSnapshot second;
  replay.flush(lanes, kForever, second);
  ASSERT_EQ(second.records.size(), 1u);
  // 0.2 ms left the window at 1.3 ms; {1, 2, 2} remain.
  EXPECT_DOUBLE_EQ(second.records[0].herd, 2.0 / 3.0);
  EXPECT_EQ(first.observed + second.observed, 4u);
}

TEST(DecisionReplayTest, MeasureFromInsideAChunkStartsTheRecordsThere) {
  // measure_from at 0.5 ms falls inside the first chunk [0, 1 ms): the
  // earlier picks feed the herd window but produce no records.
  obs::DecisionRecorder rec(true);
  const std::vector<net::HostId> cand = {1, 2};
  rec.on_decision(0, sim::micros(100), cand, 1, {}, {});
  rec.on_decision(0, sim::micros(400), cand, 1, {}, {});
  rec.on_decision(0, sim::micros(700), cand, 2, {}, {});
  rec.on_decision(0, sim::micros(1200), cand, 1, {}, {});
  obs::DecisionRecorder* const lanes[] = {&rec};
  obs::DecisionReplay replay(sim::millis(1), sim::micros(500));
  obs::DecisionSnapshot first;
  replay.flush(lanes, sim::millis(1), first);
  EXPECT_EQ(first.observed, 3u);
  ASSERT_EQ(first.records.size(), 1u);
  EXPECT_DOUBLE_EQ(first.records[0].herd, 1.0 / 3.0);  // {1, 1, 2}
  obs::DecisionSnapshot second;
  replay.flush(lanes, kForever, second);
  ASSERT_EQ(second.records.size(), 1u);
  // 0.1 ms left the window at 1.2 ms: {1, 2, 1}.
  EXPECT_DOUBLE_EQ(second.records[0].herd, 2.0 / 3.0);
}

TEST(DecisionReplayTest, HostJournaledBeforeTheChunkKeepsItsState) {
  // Both servers journal only at t=0; the decision at 3 ms, two chunks
  // later, is scored against those carried states.
  obs::DecisionRecorder rec(true);
  journal_two_servers(rec);
  obs::DecisionRecorder* const lanes[] = {&rec};
  obs::DecisionReplay replay(sim::millis(1), 0);
  obs::DecisionSnapshot chunk;
  replay.flush(lanes, sim::millis(1), chunk);
  replay.flush(lanes, sim::millis(2), chunk);
  const std::vector<net::HostId> cand = {1, 2};
  rec.on_decision(0, sim::millis(3), cand, /*chosen=*/2, {}, {});
  replay.flush(lanes, kForever, chunk);
  ASSERT_EQ(chunk.records.size(), 1u);
  ASSERT_TRUE(chunk.records[0].has_regret);
  EXPECT_DOUBLE_EQ(chunk.records[0].regret_ns, 16.0 * 1e6);
}

// The decision CSV rows of `chunks`, written in order.
std::string decision_rows(const std::vector<obs::DecisionSnapshot>& chunks) {
  std::ostringstream os;
  {
    obs::TextSink out(os);
    for (const obs::DecisionSnapshot& chunk : chunks) {
      obs::write_decision_rows(out, 0, chunk);
    }
  }
  return os.str();
}

TEST(DecisionReplayTest, ChunkedFlushesWriteTheBytesOfOneFlush) {
  // Random lanes, as a sharded run logs them: every node and every server
  // lives on one lane, picks and journal entries arrive in time order on
  // a coarse grid (same-instant picks within and across lanes), some
  // servers journal only at t=0, and measure_from falls anywhere. Each
  // lane is fed only up to a watermark before that watermark's flush,
  // as the engine does. The chunked replay must write the rows of one
  // replay after the run.
  sim::Rng rng(43);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t lane_count = 1 + rng.uniform(4);
    constexpr std::uint32_t kHosts = 8;
    struct Event {
      sim::Time t;
      bool pick;
      std::int32_t node;  // pick: the deciding node
      net::HostId host;   // journal: the server; pick: the chosen one
      std::vector<net::HostId> cand;
      std::vector<double> scores;
      std::vector<sim::Duration> ages;
      std::uint32_t queue;
    };
    std::vector<Event> log;
    // Hosts below 2 journal only their t=0 state.
    for (net::HostId h = 0; h < kHosts; ++h) {
      log.push_back({0, false, 0, h, {}, {}, {}, h});
    }
    sim::Time t = 0;
    for (int i = 0; i < 400; ++i) {
      t += static_cast<sim::Time>(rng.uniform(3)) * sim::micros(100);
      Event e{t, rng.bernoulli(0.6), 0, 0, {}, {}, {}, 0};
      if (e.pick) {
        e.node = static_cast<std::int32_t>(rng.uniform(6));
        std::vector<net::HostId> all = {0, 1, 2, 3, 4, 5, 6, 7, 8};
        for (int c = 0; c < 3; ++c) {
          const std::size_t j = c + rng.uniform(all.size() - c);
          std::swap(all[c], all[j]);
          e.cand.push_back(all[c]);
          e.scores.push_back(rng.next_double());
          e.ages.push_back(rng.bernoulli(0.1)
                               ? -1
                               : static_cast<sim::Duration>(rng.uniform(9000)));
        }
        e.host = e.cand[rng.uniform(3)];
        if (rng.bernoulli(0.2)) e.scores.clear();
      } else {
        e.host = static_cast<net::HostId>(2 + rng.uniform(kHosts - 2));
        e.queue = static_cast<std::uint32_t>(rng.uniform(10));
      }
      log.push_back(std::move(e));
    }
    const sim::Time measure_from = static_cast<sim::Time>(
        rng.uniform(static_cast<std::uint64_t>(t / 2)));
    const auto lane_of = [lane_count](const Event& e) {
      return e.pick ? static_cast<std::size_t>(e.node) % lane_count
                    : std::size_t{e.host} % lane_count;
    };
    // Feeds the events before `until`, from `next` on, to their lanes.
    const auto feed = [&](std::vector<obs::DecisionRecorder>& lanes,
                          std::size_t& next, sim::Time until) {
      for (; next < log.size() && log[next].t < until; ++next) {
        const Event& e = log[next];
        obs::DecisionRecorder& lane = lanes[lane_of(e)];
        if (e.pick) {
          lane.on_decision(e.node, e.t, e.cand, e.host, e.scores, e.ages);
        } else {
          lane.on_server_state(e.host, e.t, e.queue, 1 + e.host % 3,
                               sim::micros(100 + 50 * e.host));
        }
      }
    };
    const auto pointers = [](std::vector<obs::DecisionRecorder>& lanes) {
      std::vector<obs::DecisionRecorder*> out;
      for (obs::DecisionRecorder& lane : lanes) out.push_back(&lane);
      return out;
    };

    std::vector<obs::DecisionRecorder> one_lanes(lane_count,
                                                 obs::DecisionRecorder(true));
    std::size_t next = 0;
    feed(one_lanes, next, kForever);
    obs::DecisionReplay one_replay(sim::millis(1), measure_from);
    std::vector<obs::DecisionSnapshot> one(1);
    one_replay.flush(pointers(one_lanes), kForever, one[0]);

    std::vector<obs::DecisionRecorder> chunk_lanes(
        lane_count, obs::DecisionRecorder(true));
    obs::DecisionReplay chunk_replay(sim::millis(1), measure_from);
    std::vector<obs::DecisionSnapshot> chunks;
    next = 0;
    sim::Time watermark = 0;
    while (next < log.size()) {
      watermark += static_cast<sim::Time>(rng.uniform(12)) * sim::micros(100);
      feed(chunk_lanes, next, watermark);
      chunk_replay.flush(pointers(chunk_lanes), watermark,
                         chunks.emplace_back());
    }
    chunk_replay.flush(pointers(chunk_lanes), kForever,
                       chunks.emplace_back());

    ASSERT_FALSE(one[0].records.empty());
    EXPECT_EQ(decision_rows(chunks), decision_rows(one)) << "trial " << trial;
    std::uint64_t observed = 0;
    for (const obs::DecisionSnapshot& chunk : chunks) {
      observed += chunk.observed;
    }
    EXPECT_EQ(observed, one[0].observed);
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
