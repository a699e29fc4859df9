// NetRS packet format (paper Fig. 2), carried in the UDP payload.
//
// Request:   RID(2) | MF(6) | RV(2) | RGID(3)            | app payload
// Response:  RID(2) | MF(6) | RV(2) | SM(4) | SSL(2) | SS | app payload
//
//   RID  — RSNode ID: which NetRS operator performs replica selection.
//   MF   — magic field: packet-type label switches match on.
//   RV   — retaining value: RSNode-chosen tag echoed by the server, used
//          here (as the paper suggests) to measure per-request latency.
//   RGID — replica group ID: key of the selector's replica database.
//   SM   — source marker: pod+rack of the responding server's ToR.
//   SSL  — length of the piggybacked server status SS.
//   SS   — server status: queue size + mean service time (what C3 needs).
//
// The magic-field algebra follows §IV-B/§IV-C: requests start as Mreq; the
// selector relabels a rewritten request f(Mresp); the server answers with
// f^-1(request MF), so selector-approved traffic produces Mresp responses
// and DRS traffic (relabelled f(Mmon) by the ToR) produces Mmon responses —
// visible to monitors, invisible to steering rules. f is an involutive XOR.
//
// All integers are little-endian on the wire.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "net/address.hpp"
#include "net/packet.hpp"
#include "net/payload.hpp"
#include "sim/affinity.hpp"
#include "sim/time.hpp"

namespace netrs::core {

/// 48-bit magic-field value (low 48 bits used).
using Magic = std::uint64_t;

inline constexpr Magic kMagicMask = 0xFFFFFFFFFFFFULL;  ///< Low 48 bits.
inline constexpr Magic kMagicRequest = 0x4E4554525351ULL;   ///< "NETRSQ".
inline constexpr Magic kMagicResponse = 0x4E4554525350ULL;  ///< "NETRSP".
inline constexpr Magic kMagicMonitor = 0x4E455452534DULL;   ///< "NETRSM".
/// XOR constant implementing the invertible f(.) — involutive: f == f^-1.
inline constexpr Magic kMagicXorKey = 0x0F0F0F0F0F0FULL;

/// The paper's invertible magic-field transform f(.).
constexpr Magic magic_f(Magic m) { return (m ^ kMagicXorKey) & kMagicMask; }
/// f^-1 — equal to f because f is an involution.
constexpr Magic magic_f_inverse(Magic m) { return magic_f(m); }

static_assert(magic_f(kMagicResponse) != kMagicRequest);
static_assert(magic_f(kMagicResponse) != kMagicResponse);
static_assert(magic_f_inverse(magic_f(kMagicMonitor)) == kMagicMonitor);

/// How a switch classifies a packet by magic field (first match stage of
/// the Fig. 3 pipeline).
enum class PacketKind : std::uint8_t {
  kOther,          ///< non-NetRS traffic: default forwarding only
  kNetRSRequest,   ///< MF == Mreq
  kNetRSResponse,  ///< MF == Mresp
  kMonitorOnly,    ///< MF == Mmon: forwarded normally, counted by monitors
};

/// Maps a magic field to its PacketKind.
constexpr PacketKind classify(Magic mf) {
  switch (mf) {
    case kMagicRequest:
      return PacketKind::kNetRSRequest;
    case kMagicResponse:
      return PacketKind::kNetRSResponse;
    case kMagicMonitor:
      return PacketKind::kMonitorOnly;
    default:
      return PacketKind::kOther;
  }
}

/// RSNode ids live in the RID field. 0 is reserved, 0xFFFF is the illegal
/// id that enables Degraded Replica Selection (§III-C / §IV-B).
using RsNodeId = std::uint16_t;
inline constexpr RsNodeId kRidUnset = 0;       ///< No RSNode assigned yet.
inline constexpr RsNodeId kRidIllegal = 0xFFFF;  ///< DRS trigger value.

/// Replica-group identifier (24-bit on the wire).
using ReplicaGroupId = std::uint32_t;
inline constexpr ReplicaGroupId kMaxReplicaGroupId = 0xFFFFFF;  ///< 2^24-1.

/// Decoded NetRS request header (Fig. 2 top row; see the file comment).
struct NETRS_SHARED_IMMUTABLE RequestHeader {
  RsNodeId rid = kRidUnset;     ///< Assigned RSNode (or unset/illegal).
  Magic mf = kMagicRequest;     ///< Packet-type label.
  std::uint16_t rv = 0;         ///< Retaining value echoed by the server.
  ReplicaGroupId rgid = 0;      ///< Replica group of the key.
};

/// Piggybacked server status (SS segment) — exactly what C3 consumes.
struct NETRS_SHARED_IMMUTABLE ServerStatus {
  std::uint32_t queue_size = 0;        ///< waiting + in-service requests
  std::uint32_t service_time_ns = 0;   ///< server's mean service time
};

/// Decoded NetRS response header (Fig. 2 bottom row; see the file comment).
struct NETRS_SHARED_IMMUTABLE ResponseHeader {
  RsNodeId rid = kRidUnset;   ///< Echoed from the request.
  Magic mf = kMagicResponse;  ///< f^-1 of the request's magic field.
  std::uint16_t rv = 0;       ///< Echoed retaining value.
  net::SourceMarker sm;       ///< Pod+rack of the responding server.
  ServerStatus status;        ///< Piggybacked SS segment.
};

/// Wire size of the request header (RID+MF+RV+RGID).
inline constexpr std::size_t kRequestHeaderBytes = 2 + 6 + 2 + 3;
/// Wire size of the SS segment.
inline constexpr std::size_t kServerStatusBytes = 8;
/// Wire size of the response header (RID+MF+RV+SM+SSL+SS).
inline constexpr std::size_t kResponseHeaderBytes =
    2 + 6 + 2 + 4 + 2 + kServerStatusBytes;

// --- Whole-header encode/decode --------------------------------------------

/// Serializes header + app payload into a fresh UDP payload buffer
/// (small-buffer: no allocation for NetRS-sized payloads).
net::PayloadBuffer encode_request(const RequestHeader& h,
                                  std::span<const std::byte> app);
/// Serializes a response header + app payload (see encode_request).
net::PayloadBuffer encode_response(const ResponseHeader& h,
                                   std::span<const std::byte> app);

/// Parses a request/response header. Returns nullopt on malformed/short
/// payloads. The app payload starts at the returned offset.
std::optional<RequestHeader> decode_request(std::span<const std::byte> p);
/// Parses a response header (see decode_request).
std::optional<ResponseHeader> decode_response(std::span<const std::byte> p);

/// App payload view behind a request header.
std::span<const std::byte> request_app_payload(std::span<const std::byte> p);
/// App payload view behind a response header.
std::span<const std::byte> response_app_payload(std::span<const std::byte> p);

// --- Field peeks/rewrites (what a programmable switch actually does) -------

/// Reads the magic field; nullopt when the payload is too short to be a
/// NetRS packet.
std::optional<Magic> peek_magic(std::span<const std::byte> p);

/// Reads the RID field; nullopt on short payloads.
std::optional<RsNodeId> peek_rid(std::span<const std::byte> p);

/// Overwrites the RID field in place.
void set_rid(std::span<std::byte> p, RsNodeId rid);
/// Overwrites the magic field in place.
void set_magic(std::span<std::byte> p, Magic mf);
/// Overwrites the retaining value in place.
void set_rv(std::span<std::byte> p, std::uint16_t rv);
/// Overwrites the response's source marker (offsets differ from the
/// request layout — response-only).
void set_source_marker(std::span<std::byte> p, net::SourceMarker sm);
/// Reads the response's source marker; nullopt on short payloads.
std::optional<net::SourceMarker> peek_source_marker(
    std::span<const std::byte> p);

}  // namespace netrs::core
