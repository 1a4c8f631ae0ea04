// Versioned byte-level wire framing for the Vehicle-Key protocol.
//
// Everything above this layer trades in `Message` structs; everything the
// radio actually carries is a packed, versioned binary frame:
//
//   offset size field
//   0      2    magic        0x564B ("VK"), big-endian
//   2      1    version      kWireVersion; anything else is rejected
//   3      2    payload_len  big-endian u16, <= kMaxPayloadBytes
//   5      1    mac_len      u8, <= kMaxMacBytes
//   6      1    type         MessageType, 1..kMaxMessageType
//   7      8    session_id   big-endian u64
//   15     8    nonce        big-endian u64
//   23     n    payload      payload_len bytes
//   23+n   m    mac          mac_len bytes
//   23+n+m 4    crc32        IEEE CRC-32 over bytes [0, 23+n+m)
//
// All multi-byte integers are big-endian (network order). The CRC covers
// the whole frame including the header, so a flipped version or length
// byte is caught exactly like flipped payload — corruption cannot silently
// downgrade a frame. The MAC carried *inside* the frame is the protocol
// layer's cryptographic integrity (session.h / key_schedule.h); the CRC is
// the radio-grade integrity that lets the link discard line noise cheaply.
//
// Decoding is defensive and zero-copy: a bounded FrameReader walks the
// buffer, every length field is validated against both policy bounds and
// the actual buffer before anything is copied, and every rejection is a
// typed WireError. decode_frame() also counts each rejection in the metrics
// registry ("wire.reject.<reason>"), so a bench or vkey_sim --metrics can
// report exactly why frames died on the wire. Version negotiation is
// deliberately absent: v1 speaks v1 and rejects everything else
// (kBadVersion), which is what makes downgrade attacks a parse error
// instead of a protocol state.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "protocol/message.h"

namespace vkey::protocol::wire {

inline constexpr std::uint16_t kMagic = 0x564B;  // "VK"
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kHeaderBytes = 23;
inline constexpr std::size_t kCrcBytes = 4;
/// Smallest structurally valid frame: full header + CRC, empty payload/MAC.
inline constexpr std::size_t kMinFrameBytes = kHeaderBytes + kCrcBytes;

/// Why a frame was rejected. Ordering mirrors the validation pipeline:
/// structural checks first (truncation, magic, version, lengths), then the
/// CRC, then semantic checks (type) — so a frame is diagnosed by the
/// *first* gate it fails, deterministically.
enum class WireError : std::uint8_t {
  kNone,
  kTruncated,        ///< shorter than the header or than the lengths claim
  kBadMagic,         ///< first two bytes are not 0x564B
  kBadVersion,       ///< unknown or downgraded protocol version
  kOversizedPayload, ///< payload_len exceeds kMaxPayloadBytes
  kOversizedMac,     ///< mac_len exceeds kMaxMacBytes
  kTrailingBytes,    ///< buffer longer than header + lengths + CRC
  kBadCrc,           ///< CRC32 mismatch (line noise)
  kBadType,          ///< CRC-valid frame with an unknown MessageType
};

/// Short name for logs, metrics suffixes and the flight recorder
/// ("truncated", "magic", "version", "payload-len", "mac-len", "trailing",
/// "crc", "type").
std::string to_string(WireError e);
/// Same text as to_string(), static: flight-event details use it.
const char* label(WireError e);

/// IEEE 802.3 CRC-32 (reflected, poly 0xEDB88320), the same polynomial the
/// LoRa PHY uses for its payload CRC.
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

/// Bounded big-endian reader over a borrowed buffer. Every read checks the
/// remaining length and fails by returning false / nullopt — the reader
/// never advances past the end and never touches bytes it was not given.
/// This is the only sanctioned way to parse wire bytes (vkey_lint's
/// bounded-reader rule forbids raw pointer parsing outside this file).
class FrameReader {
 public:
  explicit FrameReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  bool read_u8(std::uint8_t& v);
  bool read_u16(std::uint16_t& v);
  bool read_u32(std::uint32_t& v);
  bool read_u64(std::uint64_t& v);
  /// Borrow the next `n` bytes without copying; nullopt when fewer remain.
  std::optional<std::span<const std::uint8_t>> read_bytes(std::size_t n);

  std::size_t consumed() const noexcept { return off_; }
  std::size_t remaining() const noexcept { return bytes_.size() - off_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t off_ = 0;
};

/// Big-endian frame builder; finish() stamps the CRC over everything
/// appended so far and returns the completed frame.
class FrameWriter {
 public:
  void put_u8(std::uint8_t v);
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_bytes(std::span<const std::uint8_t> bytes);

  /// Append crc32(everything so far) and hand the buffer out.
  std::vector<std::uint8_t> finish() &&;

 private:
  std::vector<std::uint8_t> out_;
};

/// Exact on-air size of `msg` framed: kMinFrameBytes + payload + mac.
/// (Computed without encoding; used for airtime math on the hot path.)
std::size_t frame_size(const Message& msg);

/// Pack a Message into a v1 frame. Throws vkey::Error when the message
/// violates the wire bounds (oversized payload or MAC) — an honest sender
/// never does.
std::vector<std::uint8_t> encode_frame(const Message& msg);

/// Parse a frame. On success returns the Message; on failure returns
/// nullopt and stores the typed reason in *error (when non-null) and bumps
/// the matching `wire.reject.<reason>` counter. Accepted frames bump
/// `wire.decoded`; re-encoding an accepted frame reproduces the input
/// byte-for-byte.
std::optional<Message> decode_frame(std::span<const std::uint8_t> bytes,
                                    WireError* error = nullptr);

}  // namespace vkey::protocol::wire
