// Unit tests for the NetRS selector (§IV-C) in isolation: RGID database
// lookups, packet rewriting, RV-based response-time measurement (including
// slot reuse and the lazily sized RV table), and state reset.
#include "netrs/selector_node.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "rs/baselines.hpp"
#include "rs/selector.hpp"

namespace netrs::core {
namespace {

// A selector that records feedbacks and always picks the first candidate.
class RecordingSelector final : public rs::ReplicaSelector {
 public:
  net::HostId select(std::span<const net::HostId> candidates) override {
    ++selects;
    return candidates[0];
  }
  void on_send(net::HostId) override { ++sends; }
  void on_response(const rs::Feedback& fb) override {
    feedbacks.push_back(fb);
  }
  [[nodiscard]] std::string name() const override { return "recording"; }

  int selects = 0;
  int sends = 0;
  std::vector<rs::Feedback> feedbacks;
};

class SelectorNodeTest : public ::testing::Test {
 protected:
  SelectorNodeTest() {
    db.push_back({10, 20, 30});  // RGID 0
    db.push_back({40, 50});      // RGID 1
    auto sel = std::make_unique<RecordingSelector>();
    recorder = sel.get();
    node = std::make_unique<SelectorNode>(sim, db, std::move(sel));
  }

  net::Packet request(ReplicaGroupId rgid, net::HostId backup = 99) {
    RequestHeader rh;
    rh.mf = kMagicRequest;
    rh.rgid = rgid;
    net::Packet p;
    p.src = 7;
    p.dst = backup;
    p.payload = encode_request(rh, {});
    return p;
  }

  net::Packet response(net::HostId server, std::uint16_t rv,
                       std::uint32_t queue = 3) {
    ResponseHeader rh;
    rh.mf = kMagicResponse;
    rh.rv = rv;
    rh.status.queue_size = queue;
    rh.status.service_time_ns = 4'000'000;
    net::Packet p;
    p.src = server;
    p.dst = 7;
    p.payload = encode_response(rh, {});
    return p;
  }

  sim::Simulator sim;
  ReplicaDatabase db;
  RecordingSelector* recorder = nullptr;
  std::unique_ptr<SelectorNode> node;
};

TEST_F(SelectorNodeTest, RequestRewrittenToSelectedReplica) {
  auto out = node->process(request(0));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->dst, 10u);  // first candidate of RGID 0
  EXPECT_EQ(recorder->selects, 1);
  EXPECT_EQ(recorder->sends, 1);
  const auto rh = decode_request(out->payload);
  ASSERT_TRUE(rh.has_value());
  EXPECT_EQ(rh->mf, magic_f(kMagicResponse));
  EXPECT_NE(rh->rv, 0);  // a fresh tag was assigned
  EXPECT_EQ(node->requests_selected(), 1u);
}

TEST_F(SelectorNodeTest, ResponseMeasuredViaRvTag) {
  auto out = node->process(request(0));
  const auto rv = decode_request(out->payload)->rv;
  sim.at(sim::millis(3), [] {});
  sim.run();  // advance time to 3ms

  node->process(response(10, rv));
  ASSERT_EQ(recorder->feedbacks.size(), 1u);
  const rs::Feedback& fb = recorder->feedbacks[0];
  EXPECT_TRUE(fb.has_response_time);
  EXPECT_EQ(fb.response_time, sim::millis(3));
  EXPECT_EQ(fb.server, 10u);
  EXPECT_EQ(fb.queue_size, 3u);
  EXPECT_EQ(fb.service_time, sim::Duration{4'000'000});
}

TEST_F(SelectorNodeTest, ResponseClonesAreAbsorbed) {
  auto out = node->process(response(10, 123));
  EXPECT_FALSE(out.has_value());
  EXPECT_EQ(node->responses_absorbed(), 1u);
}

TEST_F(SelectorNodeTest, MismatchedRvStillUpdatesStatus) {
  // A response whose RV slot was never filled (or was reused by another
  // server) must not fabricate a response time.
  node->process(response(20, 999));
  ASSERT_EQ(recorder->feedbacks.size(), 1u);
  EXPECT_FALSE(recorder->feedbacks[0].has_response_time);
  EXPECT_EQ(recorder->feedbacks[0].queue_size, 3u);
}

TEST_F(SelectorNodeTest, RvSlotServerMismatchDetected) {
  auto out = node->process(request(0));  // selects server 10
  const auto rv = decode_request(out->payload)->rv;
  // A response with the right RV but from the wrong server (slot reuse).
  node->process(response(30, rv));
  ASSERT_EQ(recorder->feedbacks.size(), 1u);
  EXPECT_FALSE(recorder->feedbacks[0].has_response_time);
}

TEST_F(SelectorNodeTest, RvSlotConsumedOnce) {
  auto out = node->process(request(0));
  const auto rv = decode_request(out->payload)->rv;
  node->process(response(10, rv));
  node->process(response(10, rv));  // duplicate: slot already invalid
  ASSERT_EQ(recorder->feedbacks.size(), 2u);
  EXPECT_TRUE(recorder->feedbacks[0].has_response_time);
  EXPECT_FALSE(recorder->feedbacks[1].has_response_time);
}

TEST_F(SelectorNodeTest, UnknownRgidDegradesToBackup) {
  auto out = node->process(request(/*rgid=*/57, /*backup=*/42));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->dst, 42u) << "must keep the client's backup destination";
  const auto rh = decode_request(out->payload);
  // Relabelled so downstream devices treat it as plain monitor traffic.
  EXPECT_EQ(rh->mf, magic_f(kMagicMonitor));
  EXPECT_EQ(recorder->selects, 0);
  EXPECT_EQ(node->requests_selected(), 0u);
}

TEST_F(SelectorNodeTest, NonNetRSPacketBouncesBack) {
  net::Packet plain;
  plain.src = 1;
  plain.dst = 2;
  plain.payload.assign(32, std::byte{0});
  auto out = node->process(plain);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->dst, 2u);
}

TEST_F(SelectorNodeTest, ResetDropsPendingAndSelectorState) {
  auto out = node->process(request(0));
  const auto rv = decode_request(out->payload)->rv;
  auto fresh = std::make_unique<RecordingSelector>();
  RecordingSelector* fresh_ptr = fresh.get();
  node->reset_selector(std::move(fresh));
  // The old RV slot must be gone: the response measures nothing.
  node->process(response(10, rv));
  ASSERT_EQ(fresh_ptr->feedbacks.size(), 1u);
  EXPECT_FALSE(fresh_ptr->feedbacks[0].has_response_time);
}

TEST_F(SelectorNodeTest, RvTagsWrapWithoutCollision) {
  // Issue > 65536 requests: RV wraps; every new slot overwrites an old
  // one and the bookkeeping never crashes.
  for (int i = 0; i < 70000; ++i) {
    auto out = node->process(request(1));
    ASSERT_TRUE(out.has_value());
  }
  EXPECT_EQ(node->requests_selected(), 70000u);
}

// ---- The lazily sized RV table ----

// Advances simulated time to `t`.
void advance_to(sim::Simulator& sim, sim::Time t) {
  sim.at(t, [] {});
  sim.run();
}

TEST_F(SelectorNodeTest, IdleNodeAllocatesNoSlots) {
  EXPECT_EQ(node->rv_table_slots(), 0u);
  node->process(response(10, 1));  // a clone before any selection
  EXPECT_EQ(node->rv_table_slots(), 0u);
  node->process(request(0));
  EXPECT_GT(node->rv_table_slots(), 0u);
  EXPECT_LE(node->rv_table_slots(), 64u);
}

TEST_F(SelectorNodeTest, RvBeyondAnyIssuedIsAMismatchNotAGrowth) {
  for (int i = 0; i < 3; ++i) node->process(request(0));  // rv 1..3
  const std::size_t slots = node->rv_table_slots();
  // Inside the table but never issued, then far beyond it, then the top
  // of the 16-bit range.
  for (const std::uint16_t rv : {std::uint16_t{40}, std::uint16_t{5000},
                                 std::uint16_t{65535}}) {
    node->process(response(10, rv));
  }
  EXPECT_EQ(node->rv_table_slots(), slots) << "a response grew the table";
  ASSERT_EQ(recorder->feedbacks.size(), 3u);
  for (const rs::Feedback& fb : recorder->feedbacks) {
    EXPECT_FALSE(fb.has_response_time);
    EXPECT_EQ(fb.queue_size, 3u);  // server status is still absorbed
  }
}

TEST_F(SelectorNodeTest, WrappedRvsMeasureResponseTimes) {
  // rv 1..65534 at t=0, then 65535 at 1ms, the wrapped 0 at 2ms and the
  // reused 1 at 3ms; the last three are answered at 10ms.
  for (int i = 1; i <= 65534; ++i) node->process(request(1));
  advance_to(sim, sim::millis(1));
  auto out = node->process(request(1));
  ASSERT_EQ(decode_request(out->payload)->rv, 65535);
  advance_to(sim, sim::millis(2));
  out = node->process(request(1));
  ASSERT_EQ(decode_request(out->payload)->rv, 0);
  advance_to(sim, sim::millis(3));
  out = node->process(request(1));
  ASSERT_EQ(decode_request(out->payload)->rv, 1);
  EXPECT_EQ(node->rv_table_slots(), 65536u);

  advance_to(sim, sim::millis(10));
  node->process(response(40, 65535));
  node->process(response(40, 0));
  node->process(response(40, 1));
  ASSERT_EQ(recorder->feedbacks.size(), 3u);
  const sim::Duration want[] = {sim::millis(9), sim::millis(8),
                                sim::millis(7)};
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(recorder->feedbacks[i].has_response_time) << i;
    EXPECT_EQ(recorder->feedbacks[i].response_time, want[i]) << i;
  }
}

TEST_F(SelectorNodeTest, FailCountsOutstandingSlotsAfterGrowth) {
  std::vector<std::uint16_t> rvs;
  for (int i = 0; i < 100; ++i) {
    rvs.push_back(decode_request(node->process(request(0))->payload)->rv);
  }
  for (int i = 0; i < 30; ++i) node->process(response(10, rvs[i]));
  node->fail();
  node->fail();  // nothing left to drop
  for (int i = 30; i < 100; ++i) node->process(response(10, rvs[i]));
  // The 30 answered before the failure measured; the 70 dropped did not.
  ASSERT_EQ(recorder->feedbacks.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(recorder->feedbacks[i].has_response_time, i < 30) << i;
  }

  // After the wrap every one of the 65,536 rvs is outstanding: the dense
  // ring dropped them all, and so must the grown table.
  for (int i = 0; i < 70000; ++i) node->process(request(0));
  EXPECT_EQ(node->rv_table_slots(), 65536u);
  node->fail();
  recorder->feedbacks.clear();
  for (int rv = 0; rv < 65536; ++rv) {
    node->process(response(10, static_cast<std::uint16_t>(rv)));
  }
  ASSERT_EQ(recorder->feedbacks.size(), 65536u);
  EXPECT_TRUE(std::none_of(
      recorder->feedbacks.begin(), recorder->feedbacks.end(),
      [](const rs::Feedback& fb) { return fb.has_response_time; }));
}

TEST_F(SelectorNodeTest, ResetInvalidatesEveryOutstandingRv) {
  std::vector<std::uint16_t> rvs;
  for (int i = 0; i < 200; ++i) {
    rvs.push_back(decode_request(node->process(request(0))->payload)->rv);
  }
  auto fresh = std::make_unique<RecordingSelector>();
  RecordingSelector* fresh_ptr = fresh.get();
  node->reset_selector(std::move(fresh));
  for (const std::uint16_t rv : rvs) node->process(response(10, rv));
  ASSERT_EQ(fresh_ptr->feedbacks.size(), 200u);
  for (const rs::Feedback& fb : fresh_ptr->feedbacks) {
    EXPECT_FALSE(fb.has_response_time);
  }

  // Numbering continues after the reset, and new tags measure again.
  advance_to(sim, sim::millis(1));
  const auto rv = decode_request(node->process(request(0))->payload)->rv;
  EXPECT_EQ(rv, 201);
  advance_to(sim, sim::millis(5));
  node->process(response(10, rv));
  EXPECT_TRUE(fresh_ptr->feedbacks.back().has_response_time);
  EXPECT_EQ(fresh_ptr->feedbacks.back().response_time, sim::millis(4));
}

}  // namespace
}  // namespace netrs::core
