// The wire packet exchanged between hosts, switches and accelerators.
//
// A Packet models a UDP datagram: L3 endpoints, ports, and an opaque byte
// payload. NetRS headers (Fig. 2 of the paper) live *inside* the payload and
// are parsed/rewritten by the devices, never accessed through side channels.
// `meta` carries simulation-only bookkeeping (latency measurement, hop
// accounting, flight stamps) that no device may use for forwarding
// decisions.
//
// A Packet is trivially copyable and exactly two cache lines (128 B): the
// wire fields (addresses, ports, phantom length and the 48 B payload
// buffer) fill bytes 0-63 and `meta` fills bytes 64-127. The payload is a
// fixed inline array with no heap fallback, so copying or moving a packet
// is a flat copy. The switch pipeline and the fabric pass it by reference;
// a hop copies it only into its link lane's FIFO and out of it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "net/address.hpp"
#include "net/payload.hpp"
#include "sim/affinity.hpp"
#include "sim/time.hpp"

namespace netrs::net {

/// Simulation-side bookkeeping. Devices must not branch on these fields;
/// they exist so the harness can attribute latencies and count hops.
///
/// The flight stamps are written by the devices that serve a request copy
/// and ride the server's response back to the client (which copies `meta`
/// into it), the way NetRS servers piggyback their status on the response
/// header: the client assembles the request's latency attribution from
/// the winning response alone (obs::FlightRecorder, DESIGN.md §8.4).
struct NETRS_SHARED_IMMUTABLE PacketMeta {
  std::uint64_t request_id = 0;   ///< end-to-end request correlation
  std::uint32_t forwards = 0;     ///< switch forwarding operations so far
  bool redundant = false;         ///< true for CliRS-R95 duplicate requests
  bool accel_stamped = false;     ///< an accelerator served the request
  bool server_stamped = false;    ///< a server served this copy
  sim::Time accel_arrival = 0;    ///< accelerator arrival (enqueue), ns
  sim::Time accel_start = 0;      ///< accelerator service start, ns
  sim::Duration accel_service = 0;  ///< accelerator service time, ns
  sim::Time server_arrival = 0;   ///< server arrival (enqueue), ns
  sim::Time server_start = 0;     ///< server service start, ns
  sim::Duration server_service = 0;  ///< sampled server service time, ns
};

/// A simulated UDP datagram (see the file comment).
struct NETRS_SHARED_IMMUTABLE Packet {
  HostId src = kInvalidHost;   ///< Sending host.
  HostId dst = kInvalidHost;   ///< Destination host (switches may rewrite).
  std::uint16_t src_port = 0;  ///< UDP source port.
  std::uint16_t dst_port = 0;  ///< UDP destination port (service demux).
  /// Bytes carried on the wire but never parsed by any device (the bulk of
  /// a ~1 KB value). Counted in wire_size() without being materialized.
  std::uint32_t phantom_payload = 0;
  /// UDP payload (NetRS header + app data). Fixed inline capacity: NetRS
  /// payloads are tens of bytes, so construction/clone/move never touch
  /// the heap.
  PayloadBuffer payload;
  PacketMeta meta;  ///< Simulation-side bookkeeping (never forwarded on).

  /// Total bytes on the wire: Ethernet(18) + IPv4(20) + UDP(8) + payload.
  [[nodiscard]] std::size_t wire_size() const {
    return 46 + payload.size() + phantom_payload;
  }
};

static_assert(std::is_trivially_copyable_v<Packet>);
static_assert(sizeof(PacketMeta) == 64);
static_assert(offsetof(Packet, meta) == 64);
static_assert(sizeof(Packet) == 128);

}  // namespace netrs::net
