#include "netrs/packet_format.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "kv/app_message.hpp"
#include "sim/rng.hpp"

namespace netrs::core {
namespace {

std::vector<std::byte> bytes(std::initializer_list<int> xs) {
  std::vector<std::byte> out;
  for (int x : xs) out.push_back(static_cast<std::byte>(x));
  return out;
}

TEST(MagicTest, ConstantsAreDistinct) {
  EXPECT_NE(kMagicRequest, kMagicResponse);
  EXPECT_NE(kMagicRequest, kMagicMonitor);
  EXPECT_NE(kMagicResponse, kMagicMonitor);
}

TEST(MagicTest, FIsInvolutiveAndCollisionFree) {
  for (Magic m : {kMagicRequest, kMagicResponse, kMagicMonitor}) {
    EXPECT_EQ(magic_f_inverse(magic_f(m)), m);
    EXPECT_NE(magic_f(m), kMagicRequest);
    EXPECT_NE(magic_f(m), kMagicResponse);
    EXPECT_NE(magic_f(m), kMagicMonitor);
  }
}

TEST(MagicTest, Classification) {
  EXPECT_EQ(classify(kMagicRequest), PacketKind::kNetRSRequest);
  EXPECT_EQ(classify(kMagicResponse), PacketKind::kNetRSResponse);
  EXPECT_EQ(classify(kMagicMonitor), PacketKind::kMonitorOnly);
  EXPECT_EQ(classify(magic_f(kMagicResponse)), PacketKind::kOther);
  EXPECT_EQ(classify(magic_f(kMagicMonitor)), PacketKind::kOther);
  EXPECT_EQ(classify(0), PacketKind::kOther);
}

TEST(PacketFormatTest, RequestRoundTrip) {
  RequestHeader h;
  h.rid = 0x1234;
  h.mf = kMagicRequest;
  h.rv = 0xBEEF;
  h.rgid = 0xABCDEF;
  const auto app = bytes({1, 2, 3, 4});
  const auto p = encode_request(h, app);
  EXPECT_EQ(p.size(), kRequestHeaderBytes + 4);

  const auto back = decode_request(p);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->rid, h.rid);
  EXPECT_EQ(back->mf, h.mf);
  EXPECT_EQ(back->rv, h.rv);
  EXPECT_EQ(back->rgid, h.rgid);
  const auto got_app = request_app_payload(p);
  ASSERT_EQ(got_app.size(), 4u);
  EXPECT_EQ(got_app[0], std::byte{1});
  EXPECT_EQ(got_app[3], std::byte{4});
}

TEST(PacketFormatTest, ResponseRoundTrip) {
  ResponseHeader h;
  h.rid = 7;
  h.mf = kMagicResponse;
  h.rv = 99;
  h.sm = net::SourceMarker{3, 12};
  h.status.queue_size = 42;
  h.status.service_time_ns = 4'000'000;
  const auto app = bytes({9, 8});
  const auto p = encode_response(h, app);
  EXPECT_EQ(p.size(), kResponseHeaderBytes + 2);

  const auto back = decode_response(p);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->rid, 7);
  EXPECT_EQ(back->mf, kMagicResponse);
  EXPECT_EQ(back->rv, 99);
  EXPECT_EQ(back->sm, (net::SourceMarker{3, 12}));
  EXPECT_EQ(back->status.queue_size, 42u);
  EXPECT_EQ(back->status.service_time_ns, 4'000'000u);
  EXPECT_EQ(response_app_payload(p).size(), 2u);
}

TEST(PacketFormatTest, HeaderSizesMatchFig2) {
  // Request: RID(2) + MF(6) + RV(2) + RGID(3) = 13 bytes.
  EXPECT_EQ(kRequestHeaderBytes, 13u);
  // Response: RID(2) + MF(6) + RV(2) + SM(4) + SSL(2) + SS(8) = 24 bytes.
  EXPECT_EQ(kResponseHeaderBytes, 24u);
}

TEST(PacketFormatTest, DecodeRejectsShortBuffers) {
  EXPECT_FALSE(decode_request(bytes({1, 2, 3})).has_value());
  EXPECT_FALSE(decode_response(bytes({1, 2, 3, 4, 5})).has_value());
  EXPECT_FALSE(peek_magic(bytes({1, 2})).has_value());
  EXPECT_FALSE(peek_rid(bytes({1})).has_value());
}

TEST(PacketFormatTest, DecodeResponseRejectsBadStatusLength) {
  ResponseHeader h;
  auto p = encode_response(h, {});
  // Corrupt SSL (offset 14, little-endian u16).
  p[14] = std::byte{0xFF};
  EXPECT_FALSE(decode_response(p).has_value());
}

TEST(PacketFormatTest, InPlaceFieldRewrites) {
  RequestHeader h;
  h.rid = 1;
  h.rv = 2;
  h.rgid = 3;
  auto p = encode_request(h, {});

  set_rid(p, 0xFFFF);
  set_rv(p, 777);
  set_magic(p, magic_f(kMagicResponse));

  const auto back = decode_request(p);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->rid, kRidIllegal);
  EXPECT_EQ(back->rv, 777);
  EXPECT_EQ(back->mf, magic_f(kMagicResponse));
  EXPECT_EQ(back->rgid, 3u);  // untouched
  EXPECT_EQ(*peek_rid(p), kRidIllegal);
}

TEST(PacketFormatTest, SourceMarkerRewriteOnResponse) {
  ResponseHeader h;
  auto p = encode_response(h, {});
  set_source_marker(p, net::SourceMarker{15, 7});
  const auto sm = peek_source_marker(p);
  ASSERT_TRUE(sm.has_value());
  EXPECT_EQ(sm->pod, 15);
  EXPECT_EQ(sm->rack, 7);
}

TEST(PacketFormatTest, MagicPeekMatchesHeader) {
  RequestHeader h;
  h.mf = kMagicRequest;
  const auto p = encode_request(h, {});
  EXPECT_EQ(*peek_magic(p), kMagicRequest);
}

TEST(PacketFormatTest, ServerMagicAlgebra) {
  // Selector labels a rewritten request f(Mresp); the server answers with
  // f^-1 of that, which must be exactly Mresp (a NetRS response).
  EXPECT_EQ(magic_f_inverse(magic_f(kMagicResponse)), kMagicResponse);
  // A DRS request labelled f(Mmon) yields an Mmon response: visible to
  // monitors, not steered.
  EXPECT_EQ(classify(magic_f_inverse(magic_f(kMagicMonitor))),
            PacketKind::kMonitorOnly);
  // A plain Mreq that never met a selector yields a non-NetRS response.
  EXPECT_EQ(classify(magic_f_inverse(kMagicRequest)), PacketKind::kOther);
}

TEST(PacketFormatTest, RandomRoundTripProperty) {
  sim::Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    RequestHeader rq;
    rq.rid = static_cast<RsNodeId>(rng.uniform(65536));
    rq.mf = rng.next_u64() & kMagicMask;
    rq.rv = static_cast<std::uint16_t>(rng.uniform(65536));
    rq.rgid = static_cast<ReplicaGroupId>(rng.uniform(kMaxReplicaGroupId + 1));
    // Every app size that fits behind the request header.
    std::vector<std::byte> app(rng.uniform(
        net::PayloadBuffer::kInlineCapacity - kRequestHeaderBytes + 1));
    for (auto& b : app) b = static_cast<std::byte>(rng.uniform(256));
    const auto p = encode_request(rq, app);
    const auto back = decode_request(p);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->rid, rq.rid);
    EXPECT_EQ(back->mf, rq.mf);
    EXPECT_EQ(back->rv, rq.rv);
    EXPECT_EQ(back->rgid, rq.rgid);
    const auto got = request_app_payload(p);
    ASSERT_EQ(got.size(), app.size());
    for (std::size_t j = 0; j < app.size(); ++j) EXPECT_EQ(got[j], app[j]);
  }
}

// The largest frames the KV stack builds fit the fixed payload capacity.
static_assert(kRequestHeaderBytes + kv::kAppRequestBytes <=
              net::PayloadBuffer::kInlineCapacity);
static_assert(kResponseHeaderBytes + kv::kAppResponseBytes <=
              net::PayloadBuffer::kInlineCapacity);

TEST(PacketFormatTest, EncodeThrowsOneBytePastCapacity) {
  constexpr std::size_t kCap = net::PayloadBuffer::kInlineCapacity;
  const std::vector<std::byte> req_fits(kCap - kRequestHeaderBytes);
  const std::vector<std::byte> req_over(kCap - kRequestHeaderBytes + 1);
  EXPECT_EQ(encode_request(RequestHeader{}, req_fits).size(), kCap);
  EXPECT_THROW((void)encode_request(RequestHeader{}, req_over),
               std::length_error);
  const std::vector<std::byte> resp_fits(kCap - kResponseHeaderBytes);
  const std::vector<std::byte> resp_over(kCap - kResponseHeaderBytes + 1);
  EXPECT_EQ(encode_response(ResponseHeader{}, resp_fits).size(), kCap);
  EXPECT_THROW((void)encode_response(ResponseHeader{}, resp_over),
               std::length_error);
}

}  // namespace
}  // namespace netrs::core
