// Unit tests for net::PayloadBuffer, the fixed-capacity payload type
// behind net::Packet. The capacity bound, vector-parity zero-fill on
// resize, and flat copy/move semantics are all load-bearing for the
// allocation-free forwarding path.
#include "net/payload.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <stdexcept>
#include <utility>

namespace netrs::net {
namespace {

TEST(PayloadBufferTest, DefaultIsEmptyAndInline) {
  PayloadBuffer p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.size(), 0u);
  EXPECT_EQ(p.capacity(), PayloadBuffer::kInlineCapacity);
}

TEST(PayloadBufferTest, SizedConstructorZeroFills) {
  PayloadBuffer p(42);
  ASSERT_EQ(p.size(), 42u);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(p[i], std::byte{0}) << "byte " << i;
  }
}

TEST(PayloadBufferTest, ResizeZeroFillsNewBytesLikeVector) {
  PayloadBuffer p;
  p.resize(8);
  p.assign(8, std::byte{0xFF});
  p.resize(4);   // shrink: keeps the first 4 bytes
  p.resize(16);  // regrow: bytes 4..15 must be zero, not stale 0xFF
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(p[i], std::byte{0xFF});
  for (std::size_t i = 4; i < 16; ++i) EXPECT_EQ(p[i], std::byte{0});
}

TEST(PayloadBufferTest, StaysInlineUpToInlineCapacity) {
  // That the largest frame the stack builds fits is asserted next to the
  // codec (packet_format_test); here the whole capacity is usable.
  PayloadBuffer p(PayloadBuffer::kInlineCapacity);
  EXPECT_EQ(p.size(), PayloadBuffer::kInlineCapacity);
  EXPECT_EQ(p.size(), p.capacity());
}

TEST(PayloadBufferTest, OversizeResizeOrAssignThrows) {
  constexpr std::size_t kOver = PayloadBuffer::kInlineCapacity + 1;
  EXPECT_THROW((void)PayloadBuffer(kOver), std::length_error);
  PayloadBuffer p(4);
  p.assign(4, std::byte{0x5A});
  EXPECT_THROW(p.resize(kOver), std::length_error);
  EXPECT_THROW(p.assign(kOver, std::byte{1}), std::length_error);
  // A rejected resize or assign leaves the contents untouched.
  ASSERT_EQ(p.size(), 4u);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(p[i], std::byte{0x5A}) << "byte " << i;
  }
}

TEST(PayloadBufferTest, ShrinkNeverReleasesCapacity) {
  PayloadBuffer p(PayloadBuffer::kInlineCapacity);
  p.assign(PayloadBuffer::kInlineCapacity, std::byte{0xAB});
  p.resize(2);
  EXPECT_EQ(p.capacity(), PayloadBuffer::kInlineCapacity);
  EXPECT_EQ(p[1], std::byte{0xAB});
  // Regrowing to the full capacity still fits, zero-filling the tail.
  p.resize(PayloadBuffer::kInlineCapacity);
  EXPECT_EQ(p[1], std::byte{0xAB});
  EXPECT_EQ(p[PayloadBuffer::kInlineCapacity - 1], std::byte{0});
}

TEST(PayloadBufferTest, CopyIsDeep) {
  PayloadBuffer a(10);
  a.assign(10, std::byte{7});
  PayloadBuffer b(a);
  b[0] = std::byte{9};
  EXPECT_EQ(a[0], std::byte{7});
  EXPECT_EQ(b[0], std::byte{9});
  EXPECT_EQ(a.size(), b.size());
}

TEST(PayloadBufferTest, MoveOfInlineBufferCopiesBytes) {
  PayloadBuffer a(10);
  a.assign(10, std::byte{5});
  PayloadBuffer b(std::move(a));
  ASSERT_EQ(b.size(), 10u);
  EXPECT_EQ(b[9], std::byte{5});
  // A move is a flat copy: the moved-from buffer keeps its bytes.
  EXPECT_EQ(a, b);  // NOLINT(bugprone-use-after-move): spec'd state
  PayloadBuffer c(3);
  c = std::move(b);
  EXPECT_EQ(c, a);
  EXPECT_EQ(b, a);  // NOLINT(bugprone-use-after-move): spec'd state
}

TEST(PayloadBufferTest, EqualityComparesContents) {
  PayloadBuffer a(5);
  PayloadBuffer b(5);
  EXPECT_EQ(a, b);
  b[2] = std::byte{1};
  EXPECT_NE(a, b);
  PayloadBuffer c(6);
  EXPECT_NE(a, c);
}

TEST(PayloadBufferTest, SpanConversionsSeeLiveBytes) {
  PayloadBuffer p(4);
  p[1] = std::byte{0x11};
  std::span<const std::byte> ro = p;
  ASSERT_EQ(ro.size(), 4u);
  EXPECT_EQ(ro[1], std::byte{0x11});
  std::span<std::byte> rw = p;
  rw[2] = std::byte{0x22};
  EXPECT_EQ(p[2], std::byte{0x22});
}

TEST(PayloadBufferTest, ClearKeepsCapacity) {
  PayloadBuffer p(PayloadBuffer::kInlineCapacity);
  p.clear();
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.capacity(), PayloadBuffer::kInlineCapacity);
  EXPECT_NO_THROW(p.resize(PayloadBuffer::kInlineCapacity));
}

}  // namespace
}  // namespace netrs::net
