// Direct tests of the partitioned engine's two concurrency protocols
// (DESIGN.md §4.10): the ShardGroup window handshake (run_until deadlines,
// global-before-shard ordering at a barrier instant, clean shutdown) and
// the fabric's cross-shard lanes (deterministic drain order, in-flight
// accounting between run_until calls).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/fabric.hpp"
#include "net/fat_tree.hpp"
#include "net/node.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"

namespace netrs {
namespace {

class ShardGroupTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardGroupTest, FiresEventsAtExactlyTheDeadline) {
  const int shards = GetParam();
  sim::ShardGroup group(shards);
  // fired[s] is written only by shard s's worker and read between calls.
  std::vector<std::vector<sim::Time>> fired(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    for (sim::Time t : {sim::micros(10), sim::micros(20), sim::micros(45)}) {
      group.shard_sim(s).at(t, [&fired, &group, s] {
        fired[std::size_t(s)].push_back(group.shard_sim(s).now());
      });
    }
  }
  const std::vector<sim::Time> deadlines = {sim::micros(10), sim::micros(10),
                                            sim::micros(44), sim::micros(45)};
  const std::vector<std::size_t> expected_counts = {1, 1, 2, 3};
  for (std::size_t i = 0; i < deadlines.size(); ++i) {
    group.run_until(deadlines[i]);
    EXPECT_EQ(group.now(), deadlines[i]);
    EXPECT_EQ(group.global_sim().now(), deadlines[i]);
    for (int s = 0; s < shards; ++s) {
      EXPECT_EQ(group.shard_sim(s).now(), deadlines[i]) << "shard " << s;
      ASSERT_EQ(fired[std::size_t(s)].size(), expected_counts[i])
          << "shard " << s << " after run_until(" << deadlines[i] << ")";
    }
  }
  for (int s = 0; s < shards; ++s) {
    EXPECT_EQ(fired[std::size_t(s)],
              (std::vector<sim::Time>{sim::micros(10), sim::micros(20),
                                      sim::micros(45)}));
  }
}

TEST_P(ShardGroupTest, GlobalEventRunsBeforeShardEventsAtItsInstant) {
  const int shards = GetParam();
  sim::ShardGroup group(shards);
  const sim::Time t = sim::micros(75);
  bool global_ran = false;
  std::vector<char> shard_ran(std::size_t(shards), 0);
  std::vector<char> shard_saw_global(std::size_t(shards), 0);
  std::vector<char> global_saw_shard(std::size_t(shards), 0);
  group.global_sim().at(t, [&] {
    global_ran = true;
    for (int s = 0; s < shards; ++s) {
      global_saw_shard[std::size_t(s)] = shard_ran[std::size_t(s)];
    }
  });
  for (int s = 0; s < shards; ++s) {
    group.shard_sim(s).at(t, [&, s] {
      shard_ran[std::size_t(s)] = 1;
      shard_saw_global[std::size_t(s)] = global_ran ? 1 : 0;
    });
  }
  group.run_until(sim::micros(100));
  ASSERT_TRUE(global_ran);
  for (int s = 0; s < shards; ++s) {
    EXPECT_TRUE(shard_ran[std::size_t(s)]) << "shard " << s;
    EXPECT_TRUE(shard_saw_global[std::size_t(s)]) << "shard " << s;
    EXPECT_FALSE(global_saw_shard[std::size_t(s)]) << "shard " << s;
  }
}

TEST_P(ShardGroupTest, DestructionReturnsWhetherOrNotTheGroupRan) {
  const int shards = GetParam();
  { sim::ShardGroup idle(shards); }
  {
    sim::ShardGroup ran(shards);
    ran.shard_sim(shards - 1).at(sim::micros(5), [] {});
    ran.run_until(sim::micros(50));
    EXPECT_EQ(ran.events_fired(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardGroupTest,
                         ::testing::Values(2, 4));

// Records every delivery with its arrival time (on the receiving shard's
// worker; read by the test between run_until calls).
class RecordingNode final : public net::Node {
 public:
  struct Arrival {
    net::NodeId from;
    std::uint16_t tag;
    sim::Time at;
  };
  explicit RecordingNode(const sim::Simulator& sim) : sim_(&sim) {}
  void receive(net::Packet pkt, net::NodeId from) override {
    log.push_back({from, pkt.src_port, sim_->now()});
  }
  std::vector<Arrival> log;

 private:
  const sim::Simulator* sim_;
};

net::Packet tagged(std::uint16_t tag) {
  net::Packet p;
  p.src_port = tag;
  return p;
}

// k = 4 over four shards: core group 0 lives on shard 0 and is cabled to
// aggregation switch 0 of every pod, and pod p lives on shard p, so core
// switch (0, 0) hears from three foreign source shards.
struct CrossShardRig {
  sim::ShardGroup group{4};
  net::FatTree topo{4};
  net::Fabric fabric{group, topo, net::FabricConfig{}};
  net::NodeId dst = topo.core_node(0, 0);
  RecordingNode sink{group.shard_sim(0)};

  CrossShardRig() { fabric.attach(dst, &sink); }
  net::NodeId agg(int pod) const { return topo.agg_node(pod, 0); }
  // Schedules `agg(pod)` to send `tags` in order from its own shard's
  // worker at time `at`.
  void send_from_worker(int pod, sim::Time at,
                        std::vector<std::uint16_t> tags) {
    group.shard_sim(fabric.shard_of(agg(pod))).at(at, [this, pod, tags] {
      for (std::uint16_t tag : tags) fabric.send(agg(pod), dst, tagged(tag));
    });
  }
};

TEST(FabricLaneTest, SameInstantArrivalsDeliverInArriveSrcShardSeqOrder) {
  CrossShardRig rig;
  ASSERT_EQ(rig.fabric.shard_of(rig.dst), 0);
  // A coordinator-context send from shard 2 goes through the (0, 2) lane,
  // so it takes that lane's first seq rather than jumping the queue.
  rig.fabric.send(rig.agg(2), rig.dst, tagged(20));
  rig.send_from_worker(2, 0, {21, 22});
  rig.send_from_worker(1, 0, {10, 11});
  rig.send_from_worker(3, 0, {30});
  rig.group.run_until(sim::micros(100));

  const std::vector<std::uint16_t> expected = {10, 11, 20, 21, 22, 30};
  ASSERT_EQ(rig.sink.log.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(rig.sink.log[i].tag, expected[i]) << "delivery " << i;
    EXPECT_EQ(rig.sink.log[i].at, sim::micros(30)) << "delivery " << i;
  }
  EXPECT_EQ(rig.fabric.cross_sends(1), 2u);
  EXPECT_EQ(rig.fabric.cross_sends(2), 3u);
  EXPECT_EQ(rig.fabric.cross_sends(3), 1u);
}

// Crossings and local events reaching one node at one nanosecond. The
// crossings are parked in (arrive, src_shard, per-lane FIFO) order at the
// start of the first window whose safe bound passes their arrival, and
// each park takes the shard queue's next seq there: same-instant local
// events scheduled before that drain fire before them, and those
// scheduled after it fire after them. Splitting the run at 20 us pins the
// drain to the window that starts at 20 us, whatever the thread timing.
TEST(FabricLaneTest, CrossingsTakeDrainTimeSeqAmongSameInstantLocalEvents) {
  const sim::Time arrive = sim::micros(30);
  const std::vector<std::uint16_t> expected = {1, 2, 20, 21, 22, 30, 31, 3};
  for (int run = 0; run < 20; ++run) {
    CrossShardRig rig;
    sim::Simulator& local = rig.group.shard_sim(0);
    ASSERT_EQ(rig.fabric.shard_of(rig.agg(0)), 0);
    // Marks an instant in the sink's log from shard 0's own events.
    auto mark_at = [&rig, &local](sim::Time at, std::uint16_t tag) {
      local.at(at, [&rig, tag, &local] {
        rig.sink.log.push_back({net::kInvalidNode, tag, local.now()});
      });
    };
    // A coordinator-context crossing takes the (0, 2) lane's first place.
    rig.fabric.send(rig.agg(2), rig.dst, tagged(20));
    rig.send_from_worker(2, 0, {21, 22});
    rig.send_from_worker(3, 0, {30, 31});
    // Local traffic on shard 0: a hop sent at 0 and a mark set at 10 us
    // both take their seq before the drain...
    rig.send_from_worker(0, 0, {1});
    local.at(sim::micros(10), [&] { mark_at(arrive, 2); });
    // ...and a mark set at 25 us takes its seq after it.
    local.at(sim::micros(25), [&] { mark_at(arrive, 3); });
    rig.group.run_until(sim::micros(20));
    ASSERT_TRUE(rig.sink.log.empty());
    rig.group.run_until(sim::micros(100));

    ASSERT_EQ(rig.sink.log.size(), expected.size()) << "run " << run;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(rig.sink.log[i].tag, expected[i])
          << "run " << run << ", delivery " << i;
      EXPECT_EQ(rig.sink.log[i].at, arrive)
          << "run " << run << ", delivery " << i;
    }
    EXPECT_EQ(rig.fabric.deliveries_in_flight(), 0u);
  }
}

TEST(FabricLaneTest, InFlightCountsLaneAndPendingEntriesBetweenRuns) {
  CrossShardRig rig;
  EXPECT_EQ(rig.fabric.deliveries_in_flight(), 0u);
  rig.fabric.send(rig.agg(1), rig.dst, tagged(1));  // sits in a lane
  EXPECT_EQ(rig.fabric.deliveries_in_flight(), 1u);
  EXPECT_EQ(rig.fabric.cross_pending_depth(0), 1u);
  rig.send_from_worker(3, sim::micros(5), {2, 3});

  // Arrivals land at 30 and 35 us: in between they sit in a lane or the
  // destination's per-source arrivals, parked on its cross-shard event
  // lane or not, depending on how far the windows got, and every one of
  // them is counted.
  rig.group.run_until(sim::micros(10));
  EXPECT_EQ(rig.fabric.deliveries_in_flight(), 3u);
  EXPECT_TRUE(rig.sink.log.empty());
  rig.group.run_until(sim::micros(30));
  EXPECT_EQ(rig.fabric.deliveries_in_flight(), 2u);
  EXPECT_EQ(rig.sink.log.size(), 1u);
  rig.group.run_until(sim::micros(35));
  EXPECT_EQ(rig.fabric.deliveries_in_flight(), 0u);
  EXPECT_EQ(rig.fabric.cross_pending_depth(0), 0u);
  EXPECT_EQ(rig.sink.log.size(), 3u);
  EXPECT_EQ(rig.fabric.packets_sent(), 3u);
}

}  // namespace
}  // namespace netrs
