#include "protocol/wire.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/metrics.h"
#include "protocol/instruments.h"

namespace vkey::protocol::wire {
namespace {

Message sample_message() {
  Message m;
  m.type = MessageType::kSyndrome;
  m.session_id = 0x1122334455667788ULL;
  m.nonce = 42;
  m.payload = {1, 2, 3, 4, 5};
  m.mac = {9, 8, 7};
  return m;
}

WireError decode_error(const std::vector<std::uint8_t>& bytes) {
  WireError err = WireError::kNone;
  EXPECT_FALSE(decode_frame(bytes, &err).has_value());
  return err;
}

// A CRC-stamped frame with arbitrary (possibly forged) length fields,
// backed by `payload_backing` / `mac_backing` actual bytes.
std::vector<std::uint8_t> forged_frame(
    std::uint16_t payload_len, std::size_t payload_backing,
    std::uint8_t mac_len, std::size_t mac_backing,
    MessageType type = MessageType::kData) {
  FrameWriter w;
  w.put_u16(kMagic);
  w.put_u8(kWireVersion);
  w.put_u16(payload_len);
  w.put_u8(mac_len);
  w.put_u8(static_cast<std::uint8_t>(type));
  w.put_u64(1);  // session
  w.put_u64(2);  // nonce
  w.put_bytes(std::vector<std::uint8_t>(payload_backing, 0xab));
  w.put_bytes(std::vector<std::uint8_t>(mac_backing, 0xcd));
  return std::move(w).finish();
}

TEST(Crc32, MatchesTheIeeeCheckValue) {
  // The canonical check vector: CRC-32("123456789") = 0xCBF43926.
  const std::vector<std::uint8_t> check{'1', '2', '3', '4', '5',
                                        '6', '7', '8', '9'};
  EXPECT_EQ(crc32(check), 0xCBF43926u);
  EXPECT_EQ(crc32(std::span<const std::uint8_t>{}), 0x00000000u);
}

TEST(FrameReaderTest, ReadsBigEndianAndStopsAtTheEnd) {
  const std::vector<std::uint8_t> buf{0x01, 0x02, 0x03, 0x04,
                                      0x05, 0x06, 0x07};
  FrameReader r(buf);
  std::uint16_t a = 0;
  std::uint32_t b = 0;
  ASSERT_TRUE(r.read_u16(a));
  EXPECT_EQ(a, 0x0102u);
  ASSERT_TRUE(r.read_u32(b));
  EXPECT_EQ(b, 0x03040506u);
  EXPECT_EQ(r.consumed(), 6u);
  EXPECT_EQ(r.remaining(), 1u);
  // One byte left: a u16 must fail *without* consuming anything.
  ASSERT_FALSE(r.read_u16(a));
  EXPECT_EQ(r.remaining(), 1u);
  std::uint8_t c = 0;
  ASSERT_TRUE(r.read_u8(c));
  EXPECT_EQ(c, 0x07u);
  EXPECT_FALSE(r.read_u8(c));
}

TEST(FrameReaderTest, ReadBytesBorrowsWithoutCopying) {
  const std::vector<std::uint8_t> buf{10, 20, 30, 40};
  FrameReader r(buf);
  const auto span = r.read_bytes(3);
  ASSERT_TRUE(span.has_value());
  EXPECT_EQ(span->data(), buf.data());  // zero-copy: borrows the buffer
  EXPECT_FALSE(r.read_bytes(2).has_value());
  EXPECT_TRUE(r.read_bytes(1).has_value());
  EXPECT_TRUE(r.read_bytes(0).has_value());  // empty read always succeeds
}

TEST(Wire, EncodeDecodeRoundTripsEveryType) {
  for (std::uint8_t t = 1; t <= kMaxMessageType; ++t) {
    Message m = sample_message();
    m.type = static_cast<MessageType>(t);
    const auto bytes = encode_frame(m);
    EXPECT_EQ(bytes.size(), frame_size(m));
    WireError err = WireError::kNone;
    const auto back = decode_frame(bytes, &err);
    ASSERT_TRUE(back.has_value()) << "type " << int(t) << ": "
                                  << to_string(err);
    EXPECT_EQ(*back, m);
    // Re-encoding reproduces the frame byte-for-byte.
    EXPECT_EQ(encode_frame(*back), bytes);
  }
}

TEST(Wire, EmptyPayloadAndMacIsTheMinimumFrame) {
  Message m;
  m.type = MessageType::kAck;
  m.session_id = 7;
  m.nonce = 9;
  const auto bytes = encode_frame(m);
  EXPECT_EQ(bytes.size(), kMinFrameBytes);
  const auto back = decode_frame(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, m);
}

TEST(Wire, FrameLayoutIsTheDocumentedOne) {
  const Message m = sample_message();
  const auto b = encode_frame(m);
  ASSERT_EQ(b.size(), kHeaderBytes + 5 + 3 + kCrcBytes);
  EXPECT_EQ(b[0], 0x56u);  // 'V'
  EXPECT_EQ(b[1], 0x4Bu);  // 'K'
  EXPECT_EQ(b[2], kWireVersion);
  EXPECT_EQ(b[3], 0x00u);  // payload_len hi
  EXPECT_EQ(b[4], 0x05u);  // payload_len lo
  EXPECT_EQ(b[5], 0x03u);  // mac_len
  EXPECT_EQ(b[6], static_cast<std::uint8_t>(m.type));
  EXPECT_EQ(b[7], 0x11u);  // session_id, big-endian
  EXPECT_EQ(b[14], 0x88u);
  EXPECT_EQ(b[22], 42u);  // nonce low byte
  EXPECT_EQ(b[23], 1u);   // payload starts
  EXPECT_EQ(b[28], 9u);   // mac starts
}

TEST(Wire, RejectsEveryTruncation) {
  const auto bytes = encode_frame(sample_message());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() +
                                            static_cast<std::ptrdiff_t>(len));
    WireError err = WireError::kNone;
    ASSERT_FALSE(decode_frame(cut, &err).has_value()) << "len " << len;
    EXPECT_EQ(err, WireError::kTruncated) << "len " << len;
  }
}

TEST(Wire, RejectsTrailingBytes) {
  auto bytes = encode_frame(sample_message());
  bytes.push_back(0x00);
  EXPECT_EQ(decode_error(bytes), WireError::kTrailingBytes);
}

TEST(Wire, RejectsBadMagic) {
  auto bytes = encode_frame(sample_message());
  bytes[0] = 0x00;
  EXPECT_EQ(decode_error(bytes), WireError::kBadMagic);
}

TEST(Wire, RejectsVersionSkewBeforeCheckingTheCrc) {
  // A version-2 frame with a *correct* CRC must still die on kBadVersion:
  // there is no downgrade negotiation, and the structural gate fires first.
  auto bytes = encode_frame(sample_message());
  bytes[2] = kWireVersion + 1;
  bytes.resize(bytes.size() - kCrcBytes);
  const std::uint32_t crc = crc32(bytes);
  bytes.push_back(static_cast<std::uint8_t>(crc >> 24));
  bytes.push_back(static_cast<std::uint8_t>(crc >> 16));
  bytes.push_back(static_cast<std::uint8_t>(crc >> 8));
  bytes.push_back(static_cast<std::uint8_t>(crc));
  EXPECT_EQ(decode_error(bytes), WireError::kBadVersion);
}

TEST(Wire, RejectsOversizedLengthClaims) {
  // payload_len = 0xFFFF > kMaxPayloadBytes: rejected on the length field
  // itself, before any attempt to read that many bytes.
  auto bytes = encode_frame(sample_message());
  bytes[3] = 0xFF;
  bytes[4] = 0xFF;
  EXPECT_EQ(decode_error(bytes), WireError::kOversizedPayload);

  bytes = encode_frame(sample_message());
  bytes[5] = 0xFF;  // mac_len > kMaxMacBytes
  EXPECT_EQ(decode_error(bytes), WireError::kOversizedMac);
}

TEST(Wire, LengthFieldClaimingMoreThanTheBufferIsTruncation) {
  auto bytes = encode_frame(sample_message());
  bytes[4] = 0x06;  // payload_len 5 -> 6, buffer unchanged
  EXPECT_EQ(decode_error(bytes), WireError::kTruncated);
}

TEST(Wire, FlippedPayloadBitFailsTheCrc) {
  auto bytes = encode_frame(sample_message());
  bytes[kHeaderBytes] ^= 0x01;
  EXPECT_EQ(decode_error(bytes), WireError::kBadCrc);
}

TEST(Wire, CrcValidFrameWithUnknownTypeIsBadType) {
  // Forge type=99 and restamp the CRC: structurally perfect, semantically
  // meaningless — the one reject that fires *after* the CRC gate.
  Message m = sample_message();
  auto bytes = encode_frame(m);
  bytes[6] = 99;
  bytes.resize(bytes.size() - kCrcBytes);
  const std::uint32_t crc = crc32(bytes);
  bytes.push_back(static_cast<std::uint8_t>(crc >> 24));
  bytes.push_back(static_cast<std::uint8_t>(crc >> 16));
  bytes.push_back(static_cast<std::uint8_t>(crc >> 8));
  bytes.push_back(static_cast<std::uint8_t>(crc));
  EXPECT_EQ(decode_error(bytes), WireError::kBadType);
}

TEST(Wire, EncodeRefusesMessagesThatViolateWireBounds) {
  Message m = sample_message();
  m.payload.assign(kMaxPayloadBytes + 1, 0);
  EXPECT_THROW(encode_frame(m), vkey::Error);
  m = sample_message();
  m.mac.assign(kMaxMacBytes + 1, 0);
  EXPECT_THROW(encode_frame(m), vkey::Error);
}

TEST(Wire, RejectCountersTrackTypedReasons) {
  metrics::set_enabled(true);
  // Readers find the codec's counters by their registry names; the
  // catalogue's members are those very instruments.
  auto& reg = metrics::Registry::global();
  auto& crc_counter = reg.counter("wire.reject.crc");
  auto& trunc_counter = reg.counter("wire.reject.truncated");
  EXPECT_EQ(&instruments().wire.reject[WireError::kBadCrc], &crc_counter);
  EXPECT_EQ(&instruments().wire.reject[WireError::kTruncated],
            &trunc_counter);
  const auto crc0 = crc_counter.value();
  const auto trunc0 = trunc_counter.value();

  auto bytes = encode_frame(sample_message());
  auto corrupted = bytes;
  corrupted[kHeaderBytes] ^= 0x10;
  (void)decode_frame(corrupted);
  EXPECT_EQ(crc_counter.value(), crc0 + 1);

  const std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + 4);
  (void)decode_frame(cut);
  EXPECT_EQ(trunc_counter.value(), trunc0 + 1);
  metrics::set_enabled(false);
}

// Length-field invariants of the frame codec: bounded sizes are accepted,
// claims beyond a bound die on the bound (not on the buffer), and claims
// within a bound but beyond the buffer are truncation.

TEST(Message, SerializeRoundTrip) {
  const Message m = sample_message();
  const auto bytes = encode_frame(m);
  WireError err = WireError::kTruncated;
  const auto back = decode_frame(bytes, &err);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(err, WireError::kNone);
  EXPECT_EQ(*back, m);
  EXPECT_EQ(encode_frame(*back), bytes);
}

TEST(Message, DeserializeRejectsEmpty) {
  EXPECT_EQ(decode_error(std::vector<std::uint8_t>{}), WireError::kTruncated);
  EXPECT_FALSE(decode_frame(std::span<const std::uint8_t>{}).has_value());
}

TEST(Message, DeserializeRejectsTruncation) {
  // Cuts from the tail: losing the CRC, the MAC or the payload is truncation.
  const auto bytes = encode_frame(sample_message());
  for (std::size_t cut = 1; cut < bytes.size(); cut += 3) {
    const std::vector<std::uint8_t> shorter(
        bytes.begin(), bytes.end() - static_cast<std::ptrdiff_t>(cut));
    EXPECT_EQ(decode_error(shorter), WireError::kTruncated) << "cut " << cut;
  }
}

TEST(Message, DeserializeRejectsTrailingGarbage) {
  auto bytes = encode_frame(sample_message());
  bytes.push_back(0xff);
  EXPECT_EQ(decode_error(bytes), WireError::kTrailingBytes);
  // Two valid frames back to back are not one frame either.
  auto doubled = encode_frame(sample_message());
  const auto second = encode_frame(sample_message());
  doubled.insert(doubled.end(), second.begin(), second.end());
  EXPECT_EQ(decode_error(doubled), WireError::kTrailingBytes);
}

TEST(Message, EmptyPayloadAndMacRoundTrip) {
  // Every type frames with neither payload nor MAC at the minimum size.
  for (std::uint8_t t = 1; t <= kMaxMessageType; ++t) {
    Message m;
    m.type = static_cast<MessageType>(t);
    m.session_id = 1;
    const auto bytes = encode_frame(m);
    EXPECT_EQ(bytes.size(), kMinFrameBytes) << "type " << int(t);
    const auto back = decode_frame(bytes);
    ASSERT_TRUE(back.has_value()) << "type " << int(t);
    EXPECT_EQ(*back, m);
  }
}

TEST(Message, AcceptsTheMaximumBoundedSizes) {
  Message m;
  m.type = MessageType::kData;
  m.session_id = 1;
  m.nonce = 2;
  m.payload.assign(kMaxPayloadBytes, 0x5a);
  m.mac.assign(kMaxMacBytes, 0xa5);
  const auto bytes = encode_frame(m);
  EXPECT_EQ(bytes.size(), kMinFrameBytes + kMaxPayloadBytes + kMaxMacBytes);
  const auto back = decode_frame(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, m);
}

TEST(Message, RejectsOversizedPayloadClaimEvenWhenFullyBacked) {
  // One byte past the policy bound, with the buffer genuinely holding that
  // many bytes and a valid CRC: the *bound* must reject it.
  EXPECT_EQ(decode_error(forged_frame(kMaxPayloadBytes + 1,
                                      kMaxPayloadBytes + 1, 0, 0)),
            WireError::kOversizedPayload);
}

TEST(Message, RejectsOversizedMacClaimEvenWhenFullyBacked) {
  EXPECT_EQ(decode_error(forged_frame(4, 4, kMaxMacBytes + 1,
                                      kMaxMacBytes + 1)),
            WireError::kOversizedMac);
}

TEST(Message, RejectsWraparoundLengthPrefixes) {
  // The frame's length fields are u16/u8, so the wraparound hazard lives in
  // the bounded reader: a near-2^64 request must fail against the bytes
  // that remain (no `offset + n` that could wrap) and consume nothing.
  const std::vector<std::uint8_t> buf(16, 0x11);
  FrameReader r(buf);
  ASSERT_TRUE(r.read_bytes(8).has_value());
  for (const std::uint64_t evil :
       {~0ULL, ~0ULL - 7, ~0ULL - 24, 1ULL << 63}) {
    EXPECT_FALSE(r.read_bytes(static_cast<std::size_t>(evil)).has_value())
        << "n " << evil;
    EXPECT_EQ(r.remaining(), 8u);
  }
  // The largest values the fields can carry are rejected on the bound.
  EXPECT_EQ(decode_error(forged_frame(0xFFFF, 8, 0, 0)),
            WireError::kOversizedPayload);
  EXPECT_EQ(decode_error(forged_frame(4, 4, 0xFF, 8)),
            WireError::kOversizedMac);
}

TEST(Message, RejectsLengthPrefixOverrunningTheBuffer) {
  // In-bounds length claims that still exceed what the buffer holds.
  EXPECT_EQ(decode_error(forged_frame(16, 8, 0, 0)), WireError::kTruncated);
  EXPECT_EQ(decode_error(forged_frame(4, 4, 32, 16)), WireError::kTruncated);
}

TEST(Message, DeserializeRejectsBadType) {
  // Both edges of the type range, in CRC-valid frames.
  for (const int type : {0, kMaxMessageType + 1}) {
    EXPECT_EQ(decode_error(forged_frame(4, 4, 0, 0,
                                        static_cast<MessageType>(type))),
              WireError::kBadType)
        << "type " << type;
  }
}

TEST(Message, MacInputExcludesMac) {
  Message a = sample_message();
  Message b = a;
  b.mac = {0xde, 0xad};
  EXPECT_EQ(mac_input(a), mac_input(b));
  b.nonce += 1;
  EXPECT_NE(mac_input(a), mac_input(b));
}

TEST(Message, PackUnpackDoubles) {
  const std::vector<double> v{1.5, -2.25, 3.125, 0.0};
  EXPECT_EQ(unpack_doubles(pack_doubles(v)), v);
}

TEST(Message, UnpackRejectsMisaligned) {
  EXPECT_THROW(unpack_doubles(std::vector<std::uint8_t>(7)), vkey::Error);
}

}  // namespace
}  // namespace vkey::protocol::wire
