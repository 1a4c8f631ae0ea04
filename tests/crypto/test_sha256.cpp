#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace vkey::crypto {
namespace {

std::string hex_of(const std::array<std::uint8_t, 32>& d) {
  return to_hex(d.data(), d.size());
}

// FIPS 180-4 / NIST CAVP reference vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_of(Sha256::digest(std::string{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_of(Sha256::digest(std::string{"abc"})),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex_of(Sha256::digest(std::string{
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"})),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.update(reinterpret_cast<const std::uint8_t*>(chunk.data()),
             chunk.size());
  }
  EXPECT_EQ(hex_of(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (char c : msg) {
    const auto b = static_cast<std::uint8_t>(c);
    h.update(&b, 1);
  }
  EXPECT_EQ(hex_of(h.finalize()), hex_of(Sha256::digest(msg)));
}

TEST(Sha256, PaddingBoundaries) {
  // Lengths on both sides of the 55/56-byte padding split and the 64-byte
  // block edge, for one and two blocks. Message byte i is (7i + len) mod
  // 256; digests computed independently with Python's hashlib. Each length
  // is checked one-shot and split into two update() calls at every offset.
  struct Vector {
    std::size_t len;
    const char* hex;
  };
  const Vector vectors[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {1, "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a"},
      {55, "81afe5b788dc2ce138ff83d9b20164db75a94d75d2b2432eea4a0ef605088c72"},
      {56, "2aba54f0ac632420a2b502431408866e40e1d5e430df4cd822642c78ab2eb9c1"},
      {57, "903284efbf9100e8ba1614ec65eacacad125e03f857cae7acbf8b73b23e0fdfe"},
      {63, "733d3d4ee79ee67145bf73da13588f6f235d37414fc64b14a2f00f1762792f5e"},
      {64, "79322907b3e9d013d7dc2c2f256674dbf733045cde01df3539271c6f5605feb8"},
      {65, "d85c007c6eb440f085afa2b84f6f2bce4658b240e9f62cb1364bf0485a57e720"},
      {119, "6c87eedf096b345de205b702e5223b73b447a3207791ded3ea007ba15ed6736e"},
      {120, "42500cf6a1e3936d6b9e0bcfe296d654b63255e525487d3634d0b15fde591c4d"},
      {127, "68f6ff710276900c0ffbbc57426f67e00c2e01f0750c7edc25ac06b8ce7a8095"},
      {128, "489d55fea9a73af36b6dd0be7b4117d8e5683386d39544e8a44c99a87f368707"},
  };
  for (const Vector& v : vectors) {
    std::vector<std::uint8_t> m(v.len);
    for (std::size_t i = 0; i < v.len; ++i) {
      m[i] = static_cast<std::uint8_t>(i * 7 + v.len);
    }
    EXPECT_EQ(hex_of(Sha256::digest(m)), v.hex) << "len " << v.len;
    for (std::size_t split = 0; split <= v.len; ++split) {
      Sha256 h;
      h.update(m.data(), split);
      h.update(m.data() + split, v.len - split);
      EXPECT_EQ(hex_of(h.finalize()), v.hex)
          << "len " << v.len << " split " << split;
    }
  }
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 h;
  h.update(std::vector<std::uint8_t>{1, 2, 3});
  (void)h.finalize();
  h.reset();
  h.update(std::vector<std::uint8_t>{});
  EXPECT_EQ(hex_of(h.finalize()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, UseAfterFinalizeThrows) {
  Sha256 h;
  (void)h.finalize();
  const std::uint8_t b = 0;
  EXPECT_THROW(h.update(&b, 1), vkey::Error);
  EXPECT_THROW(h.finalize(), vkey::Error);
}

TEST(Sha256, ToHexFormat) {
  const std::uint8_t data[] = {0x00, 0xab, 0xff};
  EXPECT_EQ(to_hex(data, 3), "00abff");
}

}  // namespace
}  // namespace vkey::crypto
