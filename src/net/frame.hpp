// Length-prefixed message framing over a stream socket.
//
// Every driver/worker message travels as one frame:
//
//   magic   u32  'GPFB' — rejects a peer that is not speaking the protocol
//   type    u32  message type (runtime/protocol.hpp assigns meanings)
//   req_id  u64  request correlation id, echoed by responses
//   len     u64  payload byte count (bounded by FrameLimits::max_payload)
//   check   u64  FNV-1a 64 of the payload
//   payload len bytes
//
// The checksum (common/checksum.hpp's fnv1a64, the one that guards
// shuffle blocks) guards the transport: a damaged or desynchronized stream
// surfaces as a typed FrameError instead of garbage records.  All integers are
// little-endian (the ByteWriter convention used by every codec in the
// repo).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/socket.hpp"

namespace gpf::net {

inline constexpr std::uint32_t kFrameMagic = 0x42465047;  // "GPFB" LE
inline constexpr std::size_t kFrameHeaderBytes = 32;

/// Why a frame could not be read.
enum class FrameFault {
  kBadMagic,   // stream is not frame-aligned / wrong protocol
  kOversized,  // declared payload exceeds the limit
  kTruncated,  // peer closed mid-frame
  kChecksum,   // payload bytes do not match the header checksum
};

class FrameError : public std::runtime_error {
 public:
  FrameError(FrameFault fault, const std::string& message)
      : std::runtime_error(message), fault_(fault) {}
  FrameFault fault() const { return fault_; }

 private:
  FrameFault fault_;
};

/// Clean EOF before the first header byte — the peer hung up between
/// messages, which servers treat as a normal disconnect.
class FrameEof : public std::runtime_error {
 public:
  FrameEof() : std::runtime_error("peer closed the connection") {}
};

struct Frame {
  std::uint32_t type = 0;
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> payload;
};

struct FrameLimits {
  /// Largest accepted payload; a corrupted length field otherwise asks the
  /// reader to allocate petabytes.
  std::size_t max_payload = std::size_t{256} << 20;
};

/// Serializes `frame` into the wire format (header + payload).
std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Parses one complete frame from `bytes` (throws FrameError on any
/// malformation; used directly by the framing fuzz tests).
Frame decode_frame(std::span<const std::uint8_t> bytes,
                   const FrameLimits& limits = {});

/// Writes one frame to the socket.
void write_frame(Socket& sock, const Frame& frame, int timeout_ms);

/// Reads one frame, throwing FrameEof on clean disconnect and FrameError
/// on malformed input; SocketError covers timeouts and transport failures.
Frame read_frame(Socket& sock, const FrameLimits& limits, int timeout_ms);

}  // namespace gpf::net
