#include "protocol/wire.h"

#include <array>

#include "common/error.h"
#include "protocol/instruments.h"

namespace vkey::protocol::wire {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

std::optional<Message> reject(WireError e, WireError* error) {
  if (error != nullptr) *error = e;
  instruments().wire.reject[e].add(1);
  return std::nullopt;
}

}  // namespace

std::string to_string(WireError e) { return label(e); }

const char* label(WireError e) {
  switch (e) {
    case WireError::kNone: return "none";
    case WireError::kTruncated: return "truncated";
    case WireError::kBadMagic: return "magic";
    case WireError::kBadVersion: return "version";
    case WireError::kOversizedPayload: return "payload-len";
    case WireError::kOversizedMac: return "mac-len";
    case WireError::kTrailingBytes: return "trailing";
    case WireError::kBadCrc: return "crc";
    case WireError::kBadType: return "type";
  }
  return "?";
}

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) {
    c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------- FrameReader

bool FrameReader::read_u8(std::uint8_t& v) {
  if (remaining() < 1) return false;
  v = bytes_[off_++];
  return true;
}

bool FrameReader::read_u16(std::uint16_t& v) {
  if (remaining() < 2) return false;
  v = static_cast<std::uint16_t>((bytes_[off_] << 8) | bytes_[off_ + 1]);
  off_ += 2;
  return true;
}

bool FrameReader::read_u32(std::uint32_t& v) {
  if (remaining() < 4) return false;
  v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | bytes_[off_++];
  return true;
}

bool FrameReader::read_u64(std::uint64_t& v) {
  if (remaining() < 8) return false;
  v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | bytes_[off_++];
  return true;
}

std::optional<std::span<const std::uint8_t>> FrameReader::read_bytes(
    std::size_t n) {
  if (remaining() < n) return std::nullopt;
  auto view = bytes_.subspan(off_, n);
  off_ += n;
  return view;
}

// ---------------------------------------------------------------- FrameWriter

void FrameWriter::put_u8(std::uint8_t v) { out_.push_back(v); }

void FrameWriter::put_u16(std::uint16_t v) {
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
  out_.push_back(static_cast<std::uint8_t>(v));
}

void FrameWriter::put_u32(std::uint32_t v) {
  for (int i = 3; i >= 0; --i) {
    out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void FrameWriter::put_u64(std::uint64_t v) {
  for (int i = 7; i >= 0; --i) {
    out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void FrameWriter::put_bytes(std::span<const std::uint8_t> bytes) {
  out_.insert(out_.end(), bytes.begin(), bytes.end());
}

std::vector<std::uint8_t> FrameWriter::finish() && {
  const std::uint32_t c = crc32(out_);
  put_u32(c);
  return std::move(out_);
}

// --------------------------------------------------------------- encode/decode

std::size_t frame_size(const Message& msg) {
  return kMinFrameBytes + msg.payload.size() + msg.mac.size();
}

std::vector<std::uint8_t> encode_frame(const Message& msg) {
  VKEY_REQUIRE(msg.payload.size() <= kMaxPayloadBytes,
               "payload exceeds the wire bound");
  VKEY_REQUIRE(msg.mac.size() <= kMaxMacBytes, "MAC exceeds the wire bound");
  FrameWriter w;
  w.put_u16(kMagic);
  w.put_u8(kWireVersion);
  w.put_u16(static_cast<std::uint16_t>(msg.payload.size()));
  w.put_u8(static_cast<std::uint8_t>(msg.mac.size()));
  w.put_u8(static_cast<std::uint8_t>(msg.type));
  w.put_u64(msg.session_id);
  w.put_u64(msg.nonce);
  w.put_bytes(msg.payload);
  w.put_bytes(msg.mac);
  instruments().wire.encoded.add(1);
  return std::move(w).finish();
}

std::optional<Message> decode_frame(std::span<const std::uint8_t> bytes,
                                    WireError* error) {
  if (error != nullptr) *error = WireError::kNone;
  FrameReader r(bytes);

  // Structural gates, cheapest first. A buffer shorter than the fixed
  // header cannot even be classified further.
  std::uint16_t magic = 0;
  std::uint8_t version = 0;
  std::uint16_t payload_len = 0;
  std::uint8_t mac_len = 0;
  std::uint8_t type = 0;
  std::uint64_t session = 0;
  std::uint64_t nonce = 0;
  if (!r.read_u16(magic) || !r.read_u8(version) || !r.read_u16(payload_len) ||
      !r.read_u8(mac_len) || !r.read_u8(type) || !r.read_u64(session) ||
      !r.read_u64(nonce)) {
    return reject(WireError::kTruncated, error);
  }
  if (magic != kMagic) return reject(WireError::kBadMagic, error);
  if (version != kWireVersion) return reject(WireError::kBadVersion, error);
  if (payload_len > kMaxPayloadBytes) {
    return reject(WireError::kOversizedPayload, error);
  }
  if (mac_len > kMaxMacBytes) return reject(WireError::kOversizedMac, error);

  const std::size_t want =
      static_cast<std::size_t>(payload_len) + mac_len + kCrcBytes;
  if (r.remaining() < want) return reject(WireError::kTruncated, error);
  if (r.remaining() > want) return reject(WireError::kTrailingBytes, error);

  const auto payload = r.read_bytes(payload_len);
  const auto mac = r.read_bytes(mac_len);
  std::uint32_t stored_crc = 0;
  const bool crc_ok = r.read_u32(stored_crc);
  VKEY_REQUIRE(payload.has_value() && mac.has_value() && crc_ok,
               "bounded reader out of sync with the length checks");
  if (crc32(bytes.first(bytes.size() - kCrcBytes)) != stored_crc) {
    return reject(WireError::kBadCrc, error);
  }

  // Semantic gate last: the frame is structurally sound and CRC-clean, so a
  // bad type here is a protocol-level forgery, not line noise.
  if (type < 1 || type > kMaxMessageType) {
    return reject(WireError::kBadType, error);
  }

  Message msg;
  msg.type = static_cast<MessageType>(type);
  msg.session_id = session;
  msg.nonce = nonce;
  msg.payload.assign(payload->begin(), payload->end());
  msg.mac.assign(mac->begin(), mac->end());
  instruments().wire.decoded.add(1);
  return msg;
}

}  // namespace vkey::protocol::wire
