// Wire messages of the Vehicle-Key agreement protocol.
//
// Only reconciliation and confirmation need explicit messages (probing is
// radio-level and carried by the channel simulator). Every message carries a
// session id and a monotonically increasing nonce; syndrome and confirmation
// messages are authenticated with HMAC-SHA256 keyed by the (Bloom-mapped)
// key material, which is how the paper defeats man-in-the-middle
// modification (Sec. IV-C), while nonces + session ids defeat replay.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace vkey::protocol {

enum class MessageType : std::uint8_t {
  kKeyGenRequest = 1,   ///< Alice -> Bob: start a session
  kKeyGenAccept = 2,    ///< Bob -> Alice: session accepted
  kSyndrome = 3,        ///< Bob -> Alice: y_Bob + MAC
  kKeyConfirm = 4,      ///< Alice -> Bob: hash commitment of the final key
  kKeyConfirmAck = 5,   ///< Bob -> Alice: confirmation verified
  kData = 6,            ///< AES-CTR protected payload
  kAck = 7,             ///< transport-level delivery acknowledgement (ARQ);
                        ///< nonce = the nonce of the frame being acked
  kRekey = 8,           ///< key-schedule epoch announcement (key_schedule.h):
                        ///< payload = be32(epoch) || HMAC under the new
                        ///< epoch's confirmation key
};

/// Highest MessageType value a parser may accept; anything outside
/// [1, kMaxMessageType] is malformed.
inline constexpr std::uint8_t kMaxMessageType =
    static_cast<std::uint8_t>(MessageType::kRekey);

/// Hard bounds a parser enforces on length fields *before* trusting them.
/// The largest honest payload is the syndrome (code_dim doubles, well under
/// 4 KiB at every configuration the repo ships); the largest MAC is
/// HMAC-SHA256 (32 bytes, bounded at 64 for agility). Anything bigger is an
/// attack or corruption, and must be rejected without allocating.
inline constexpr std::size_t kMaxPayloadBytes = 8192;
inline constexpr std::size_t kMaxMacBytes = 64;

/// Short wire name ("key-gen-request", "ack", ...) for logs and the
/// flight recorder.
std::string to_string(MessageType t);
/// Same text as to_string(), static: flight-event details use it.
const char* label(MessageType t);

struct Message {
  MessageType type = MessageType::kKeyGenRequest;
  std::uint64_t session_id = 0;
  std::uint64_t nonce = 0;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> mac;  ///< empty when the type is unauthenticated

  bool operator==(const Message&) const = default;
};

/// The byte string a MAC covers: type | session | nonce | u64 payload length
/// | payload, big-endian. Independent of the wire framing (protocol/wire.h).
std::vector<std::uint8_t> mac_input(const Message& msg);

/// Pack a vector of doubles into the payload (little-endian IEEE754) and
/// back (the syndrome y_Bob is a real vector).
std::vector<std::uint8_t> pack_doubles(std::span<const double> values);
std::vector<double> unpack_doubles(std::span<const std::uint8_t> bytes);

}  // namespace vkey::protocol
