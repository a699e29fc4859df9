#include "netrs/packet_format.hpp"

#include <cassert>
#include <cstring>

namespace netrs::core {
namespace {

// Little-endian primitive writers/readers over byte spans.

void put_u16(std::span<std::byte> p, std::size_t off, std::uint16_t v) {
  p[off] = static_cast<std::byte>(v & 0xFF);
  p[off + 1] = static_cast<std::byte>((v >> 8) & 0xFF);
}

std::uint16_t get_u16(std::span<const std::byte> p, std::size_t off) {
  return static_cast<std::uint16_t>(
      std::to_integer<unsigned>(p[off]) |
      (std::to_integer<unsigned>(p[off + 1]) << 8));
}

void put_u32(std::span<std::byte> p, std::size_t off, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[off + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}

std::uint32_t get_u32(std::span<const std::byte> p, std::size_t off) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= std::to_integer<std::uint32_t>(p[off + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

void put_u24(std::span<std::byte> p, std::size_t off, std::uint32_t v) {
  assert(v <= kMaxReplicaGroupId);
  for (int i = 0; i < 3; ++i) {
    p[off + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}

std::uint32_t get_u24(std::span<const std::byte> p, std::size_t off) {
  std::uint32_t v = 0;
  for (int i = 0; i < 3; ++i) {
    v |= std::to_integer<std::uint32_t>(p[off + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

void put_u48(std::span<std::byte> p, std::size_t off, std::uint64_t v) {
  for (int i = 0; i < 6; ++i) {
    p[off + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}

std::uint64_t get_u48(std::span<const std::byte> p, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 0; i < 6; ++i) {
    v |= std::to_integer<std::uint64_t>(p[off + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

// Field offsets shared by both layouts.
constexpr std::size_t kOffRid = 0;
constexpr std::size_t kOffMagic = 2;
constexpr std::size_t kOffRv = 8;
// Request-only.
constexpr std::size_t kOffRgid = 10;
// Response-only.
constexpr std::size_t kOffSm = 10;
constexpr std::size_t kOffSsl = 14;
constexpr std::size_t kOffSs = 16;

}  // namespace

net::PayloadBuffer encode_request(const RequestHeader& h,
                                  std::span<const std::byte> app) {
  net::PayloadBuffer out(kRequestHeaderBytes + app.size());
  put_u16(out, kOffRid, h.rid);
  put_u48(out, kOffMagic, h.mf & kMagicMask);
  put_u16(out, kOffRv, h.rv);
  put_u24(out, kOffRgid, h.rgid);
  if (!app.empty()) {
    std::memcpy(out.data() + kRequestHeaderBytes, app.data(), app.size());
  }
  return out;
}

net::PayloadBuffer encode_response(const ResponseHeader& h,
                                   std::span<const std::byte> app) {
  net::PayloadBuffer out(kResponseHeaderBytes + app.size());
  put_u16(out, kOffRid, h.rid);
  put_u48(out, kOffMagic, h.mf & kMagicMask);
  put_u16(out, kOffRv, h.rv);
  put_u32(out, kOffSm, h.sm.encoded());
  put_u16(out, kOffSsl, static_cast<std::uint16_t>(kServerStatusBytes));
  put_u32(out, kOffSs, h.status.queue_size);
  put_u32(out, kOffSs + 4, h.status.service_time_ns);
  if (!app.empty()) {
    std::memcpy(out.data() + kResponseHeaderBytes, app.data(), app.size());
  }
  return out;
}

std::optional<RequestHeader> decode_request(std::span<const std::byte> p) {
  if (p.size() < kRequestHeaderBytes) return std::nullopt;
  RequestHeader h;
  h.rid = get_u16(p, kOffRid);
  h.mf = get_u48(p, kOffMagic);
  h.rv = get_u16(p, kOffRv);
  h.rgid = get_u24(p, kOffRgid);
  return h;
}

std::optional<ResponseHeader> decode_response(std::span<const std::byte> p) {
  if (p.size() < kOffSs) return std::nullopt;
  ResponseHeader h;
  h.rid = get_u16(p, kOffRid);
  h.mf = get_u48(p, kOffMagic);
  h.rv = get_u16(p, kOffRv);
  h.sm = net::SourceMarker::decode(get_u32(p, kOffSm));
  const std::uint16_t ssl = get_u16(p, kOffSsl);
  if (ssl != kServerStatusBytes || p.size() < kOffSs + ssl) {
    return std::nullopt;
  }
  h.status.queue_size = get_u32(p, kOffSs);
  h.status.service_time_ns = get_u32(p, kOffSs + 4);
  return h;
}

std::span<const std::byte> request_app_payload(std::span<const std::byte> p) {
  assert(p.size() >= kRequestHeaderBytes);
  return p.subspan(kRequestHeaderBytes);
}

std::span<const std::byte> response_app_payload(
    std::span<const std::byte> p) {
  assert(p.size() >= kResponseHeaderBytes);
  return p.subspan(kResponseHeaderBytes);
}

std::optional<Magic> peek_magic(std::span<const std::byte> p) {
  if (p.size() < kOffMagic + 6) return std::nullopt;
  return get_u48(p, kOffMagic);
}

std::optional<RsNodeId> peek_rid(std::span<const std::byte> p) {
  if (p.size() < 2) return std::nullopt;
  return get_u16(p, kOffRid);
}

void set_rid(std::span<std::byte> p, RsNodeId rid) {
  assert(p.size() >= 2);
  put_u16(p, kOffRid, rid);
}

void set_magic(std::span<std::byte> p, Magic mf) {
  assert(p.size() >= kOffMagic + 6);
  put_u48(p, kOffMagic, mf & kMagicMask);
}

void set_rv(std::span<std::byte> p, std::uint16_t rv) {
  assert(p.size() >= kOffRv + 2);
  put_u16(p, kOffRv, rv);
}

void set_source_marker(std::span<std::byte> p, net::SourceMarker sm) {
  assert(p.size() >= kOffSm + 4);
  put_u32(p, kOffSm, sm.encoded());
}

std::optional<net::SourceMarker> peek_source_marker(
    std::span<const std::byte> p) {
  if (p.size() < kOffSm + 4) return std::nullopt;
  return net::SourceMarker::decode(get_u32(p, kOffSm));
}

}  // namespace netrs::core
