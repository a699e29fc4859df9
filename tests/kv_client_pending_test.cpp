// Randomized check of kv::Client's pending-request table against a
// std::map reference model. Stand-in servers capture every request copy;
// the test answers the copies itself, out of order and at random times,
// leaves some unanswered for good (a crashed server's dropped queue), and
// issues enough requests that the table rehashes several times. After
// every step and every answer it compares in_flight(), completions, the
// per-copy response times the client feeds its selector, and (with
// cancel_on_completion) the cancels the client sends.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "kv/app_message.hpp"
#include "kv/client.hpp"
#include "net/switch.hpp"
#include "netrs/packet_format.hpp"
#include "sim/stats.hpp"

namespace netrs::kv {
namespace {

// One request copy or cancel as it reached a stand-in server.
struct Arrival {
  std::uint64_t req_id = 0;
  net::HostId server = net::kInvalidHost;
  sim::Time sent_at = 0;
  bool redundant = false;
  bool cancel = false;
};

// A KV server stand-in that records what reaches it and never answers.
class CaptureServer final : public net::Host {
 public:
  CaptureServer(net::Fabric& fabric, net::HostId id,
                std::vector<Arrival>& log)
      : Host(fabric, id), log_(log) {}

  void receive(net::Packet pkt, net::NodeId) override {
    const auto app =
        decode_app_request(core::request_app_payload(pkt.payload));
    ASSERT_TRUE(app.has_value());
    log_.push_back({app->client_request_id, host_id(),
                    pkt.meta.client_send_time, pkt.meta.redundant,
                    app->op == AppOp::kCancel});
  }

 private:
  std::vector<Arrival>& log_;
};

// The reference model of one outstanding request.
struct ModelCopy {
  net::HostId server = net::kInvalidHost;
  sim::Time sent_at = 0;
  bool answered = false;
  bool doomed = false;  // never answered
};
struct ModelRequest {
  sim::Time first_send = 0;
  std::vector<ModelCopy> copies;
  std::size_t responses = 0;
  bool completed = false;
};

class PendingTableModel : public ::testing::TestWithParam<bool> {
 protected:
  // Zero-latency links: once run_until(t) returns, every packet sent up
  // to t has arrived, so the model sees exactly what the client sent.
  PendingTableModel()
      : topo(4), fabric(group, topo, net::FabricConfig{0, 0, 0}) {
    for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
      switches.push_back(std::make_unique<net::Switch>(fabric, sw));
      fabric.attach(sw, switches.back().get());
    }
    server_hosts = {topo.host_id(0, 0, 0), topo.host_id(0, 0, 1),
                    topo.host_id(0, 1, 0)};
    for (net::HostId h : server_hosts) {
      servers.push_back(std::make_unique<CaptureServer>(fabric, h, arrivals));
    }
    ring = std::make_unique<ConsistentHashRing>(server_hosts, 3, 8);
    zipf = std::make_unique<sim::ZipfDistribution>(1000, 0.99);
  }

  sim::ShardGroup group{1};
  net::FatTree topo;
  net::Fabric fabric;
  std::vector<std::unique_ptr<net::Switch>> switches;
  std::vector<net::HostId> server_hosts;
  std::vector<Arrival> arrivals;
  std::vector<std::unique_ptr<CaptureServer>> servers;
  std::unique_ptr<ConsistentHashRing> ring;
  std::unique_ptr<sim::ZipfDistribution> zipf;
};

net::Packet response_from(net::HostId server, std::uint64_t req_id) {
  core::ResponseHeader rh;
  rh.mf = core::kMagicResponse;
  rh.status.queue_size = 1;
  rh.status.service_time_ns = 1000;
  AppResponse ar;
  ar.client_request_id = req_id;
  net::Packet p;
  p.src = server;
  p.src_port = kServerPort;
  p.dst_port = kClientPort;
  p.payload = core::encode_response(rh, encode_app_response(ar));
  return p;
}

TEST_P(PendingTableModel, MatchesMapReferenceUnderRandomAnswers) {
  const bool cancel_on_completion = GetParam();
  ClientConfig cfg;
  cfg.mode = ClientMode::kClientSelect;
  cfg.selector.algorithm = "ewma-latency";  // scores = fed response times
  cfg.arrival_rate = 20000.0;
  cfg.redundancy.enabled = true;
  cfg.redundancy.min_samples = 5;
  cfg.redundancy.cancel_on_completion = cancel_on_completion;
  const net::HostId me = topo.host_id(0, 1, 1);
  Client client(fabric, me, cfg, *ring, *zipf, sim::Rng(11));

  std::map<std::uint64_t, ModelRequest> model;
  std::map<net::HostId, sim::Ewma> latency;  // what the selector was fed
  std::uint64_t issued = 0, completed = 0;
  std::multiset<std::pair<std::uint64_t, net::HostId>> want_cancels,
      got_cancels;
  std::vector<Client::Completion> done;
  client.set_completion_callback(
      [&](const Client::Completion& c) { done.push_back(c); });

  // Every select() must see the EWMA of exactly the per-copy response
  // times the model computed, in the same order.
  std::uint64_t decisions = 0;
  client.set_decision_hook([&](const rs::DecisionContext& ctx) {
    ++decisions;
    ASSERT_EQ(ctx.scores.size(), ctx.candidates.size());
    for (std::size_t i = 0; i < ctx.candidates.size(); ++i) {
      const auto it = latency.find(ctx.candidates[i]);
      EXPECT_EQ(ctx.scores[i], it == latency.end() ? -1.0 : it->second.value())
          << "server " << ctx.candidates[i];
    }
  });

  const auto check = [&] {
    ASSERT_EQ(client.in_flight(), model.size());
    ASSERT_EQ(client.issued(), issued);
    ASSERT_EQ(client.completed(), completed);
    ASSERT_EQ(done.size(), completed);
  };

  sim::Rng rng(GetParam() ? 23 : 17);
  std::size_t max_in_flight = 0;
  // Copies that will be answered: (request id, copy index).
  std::vector<std::pair<std::uint64_t, std::size_t>> answerable;
  const auto answer = [&](std::uint64_t id, std::size_t copy_index) {
    ModelRequest& r = model.at(id);
    ModelCopy& c = r.copies[copy_index];
    ASSERT_FALSE(c.answered);
    c.answered = true;
    ++r.responses;
    latency.try_emplace(c.server, 0.9)
        .first->second.add(sim::to_micros(group.now() - c.sent_at));
    if (!r.completed) {
      r.completed = true;
      ++completed;
      if (cancel_on_completion) {
        for (const ModelCopy& other : r.copies) {
          if (!other.answered) want_cancels.emplace(id, other.server);
        }
      }
    }
    const net::HostId server = c.server;
    const sim::Time first_send = r.first_send;
    const bool dup = r.copies.size() > 1;
    const std::size_t done_before = done.size();
    if (r.responses == r.copies.size()) model.erase(id);  // settled

    client.receive(response_from(server, id), /*from=*/0);
    if (done.size() > done_before) {
      EXPECT_EQ(done.back().latency, group.now() - first_send);
      EXPECT_EQ(done.back().server, server);
      EXPECT_EQ(done.back().redundant_used, dup);
    }
    check();
  };

  client.start();
  const sim::Duration step = sim::micros(100);
  for (int s = 0; s < 4000; ++s) {
    if (s == 3000) client.stop();
    group.run_until(group.now() + step);

    // Fold what the client sent into the model.
    for (const Arrival& a : arrivals) {
      if (a.cancel) {
        got_cancels.emplace(a.req_id, a.server);
        continue;
      }
      if (!a.redundant) {
        ASSERT_EQ(model.count(a.req_id), 0u);
        model[a.req_id].first_send = a.sent_at;
        ++issued;
      } else {
        ASSERT_EQ(model.count(a.req_id), 1u) << "duplicate of a settled id";
        ASSERT_FALSE(model[a.req_id].completed);
      }
      ModelRequest& r = model[a.req_id];
      ASSERT_LT(r.copies.size(), 2u);
      const bool doomed = rng.bernoulli(0.08);
      r.copies.push_back({a.server, a.sent_at, false, doomed});
      if (!doomed) answerable.emplace_back(a.req_id, r.copies.size() - 1);
    }
    arrivals.clear();
    check();
    ASSERT_EQ(got_cancels, want_cancels);
    max_in_flight = std::max(max_in_flight, client.in_flight());

    // Answer a random subset, in random order.
    rng.shuffle(answerable);
    std::vector<std::pair<std::uint64_t, std::size_t>> later;
    for (const auto& [id, copy_index] : answerable) {
      if (rng.bernoulli(0.35)) {
        answer(id, copy_index);
      } else {
        later.emplace_back(id, copy_index);
      }
    }
    answerable = std::move(later);

    // A stray response (unknown id) changes nothing.
    const std::uint64_t stray =
        (static_cast<std::uint64_t>(me) << 32) | (1u << 31) | rng.uniform(64);
    client.receive(response_from(server_hosts[0], stray), 0);
    check();
  }

  // Drain: answer everything answerable; doomed copies keep their request.
  for (const auto& [id, copy_index] : answerable) answer(id, copy_index);
  group.run_until(group.now() + step);
  for (const Arrival& a : arrivals) {
    ASSERT_TRUE(a.cancel) << "request sent after stop()";
    got_cancels.emplace(a.req_id, a.server);
  }
  EXPECT_EQ(got_cancels, want_cancels);
  check();

  EXPECT_GT(client.redundant_sent(), 100u);
  EXPECT_GT(decisions, issued);
  EXPECT_GT(client.in_flight(), 0u);  // the doomed requests
  for (const auto& [id, r] : model) {
    EXPECT_TRUE(std::any_of(r.copies.begin(), r.copies.end(),
                            [](const ModelCopy& c) { return c.doomed; }));
  }
  // 16 starting slots, grown at 1/2 load: > 256 live entries took at
  // least five rehashes.
  EXPECT_GT(max_in_flight, 256u);
  if (cancel_on_completion) {
    EXPECT_GT(client.cancels_sent(), 0u);
  } else {
    EXPECT_EQ(client.cancels_sent(), 0u);
  }
  EXPECT_EQ(client.cancels_sent(), got_cancels.size());
}

INSTANTIATE_TEST_SUITE_P(Cancel, PendingTableModel, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "CancelOnCompletion"
                                             : "NoCancel";
                         });

}  // namespace
}  // namespace netrs::kv
