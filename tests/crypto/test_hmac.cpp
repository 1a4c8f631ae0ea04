#include "crypto/hmac.h"

#include <gtest/gtest.h>

namespace vkey::crypto {
namespace {

std::vector<std::uint8_t> bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

std::string hex_of(const std::array<std::uint8_t, 32>& d) {
  return to_hex(d.data(), d.size());
}

// RFC 4231 test cases.
TEST(Hmac, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  EXPECT_EQ(hex_of(hmac_sha256(key, bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(
      hex_of(hmac_sha256(bytes("Jefe"),
                         bytes("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const std::vector<std::uint8_t> key(20, 0xaa);
  const std::vector<std::uint8_t> msg(50, 0xdd);
  EXPECT_EQ(hex_of(hmac_sha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case4) {
  std::vector<std::uint8_t> key;
  for (int i = 0x01; i <= 0x19; ++i) {
    key.push_back(static_cast<std::uint8_t>(i));
  }
  const std::vector<std::uint8_t> msg(50, 0xcd);
  EXPECT_EQ(hex_of(hmac_sha256(key, msg)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(Hmac, Rfc4231Case5Truncated) {
  const std::vector<std::uint8_t> key(20, 0x0c);
  const auto tag = hmac_sha256(key, bytes("Test With Truncation"));
  EXPECT_EQ(to_hex(tag.data(), 16), "a3b6167473100ee06e0c796c2955552b");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const std::vector<std::uint8_t> key(131, 0xaa);
  EXPECT_EQ(hex_of(hmac_sha256(
                key, bytes("Test Using Larger Than Block-Size Key - "
                           "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, Rfc4231Case7LongKeyAndData) {
  const std::vector<std::uint8_t> key(131, 0xaa);
  EXPECT_EQ(hex_of(hmac_sha256(
                key, bytes("This is a test using a larger than block-size "
                           "key and a larger than block-size data. The key "
                           "needs to be hashed before being used by the "
                           "HMAC algorithm."))),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(Hmac, DifferentKeysDifferentTags) {
  const auto t1 = hmac_sha256(bytes("k1"), bytes("m"));
  const auto t2 = hmac_sha256(bytes("k2"), bytes("m"));
  EXPECT_NE(to_hex(t1.data(), 32), to_hex(t2.data(), 32));
}

TEST(Hmac, DifferentMessagesDifferentTags) {
  const auto t1 = hmac_sha256(bytes("k"), bytes("m1"));
  const auto t2 = hmac_sha256(bytes("k"), bytes("m2"));
  EXPECT_NE(to_hex(t1.data(), 32), to_hex(t2.data(), 32));
}

TEST(HmacKey, ReusedKeyMatchesOneShotOverManyMessages) {
  // One key absorbed once, then 100 messages of lengths 0..99 (across the
  // one-block/two-block inner boundary at 55 bytes), each against the
  // one-shot path.
  const std::vector<std::uint8_t> key = bytes("a reusable HMAC key");
  const HmacKey keyed(key);
  std::vector<std::uint8_t> msg;
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(hex_of(keyed.mac(msg)), hex_of(hmac_sha256(key, msg)))
        << "message length " << msg.size();
    msg.push_back(static_cast<std::uint8_t>(i * 13 + 1));
  }
}

TEST(HmacKey, MultiPartMessageMatchesContiguous) {
  const std::vector<std::uint8_t> key(131, 0xaa);  // hashed long key
  const HmacKey keyed(key);
  const std::vector<std::uint8_t> msg = bytes("split across three updates");
  Sha256 inner = keyed.start();
  inner.update(msg.data(), 5);
  inner.update(msg.data() + 5, 10);
  inner.update(msg.data() + 15, msg.size() - 15);
  std::array<std::uint8_t, 32> tag{};
  keyed.finish(inner, tag);
  EXPECT_EQ(hex_of(tag), hex_of(hmac_sha256(key, msg)));
}

TEST(ConstantTimeEqual, Basics) {
  using V = std::vector<std::uint8_t>;
  EXPECT_TRUE(constant_time_equal(V{1, 2, 3}, V{1, 2, 3}));
  EXPECT_FALSE(constant_time_equal(V{1, 2, 3}, V{1, 2, 4}));
  EXPECT_FALSE(constant_time_equal(V{1, 2}, V{1, 2, 3}));
  EXPECT_TRUE(constant_time_equal(V{}, V{}));
}

}  // namespace
}  // namespace vkey::crypto
