#include "crypto/hkdf.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "crypto/sha256.h"

namespace vkey::crypto {
namespace {

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// Test-only: render a derived secret for comparison against RFC vectors.
// Library code never does this (vkey_secretflow.py flags it); tests are
// the sanctioned place to look at known test-vector keys.
std::string hex_of(const SecretBuffer& s) {
  const auto view = s.expose();
  return to_hex(view.data(), view.size());
}

// RFC 5869 Appendix A, test case 1 (SHA-256).
TEST(Hkdf, Rfc5869Case1) {
  const auto ikm = from_hex("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b");
  const auto salt = from_hex("000102030405060708090a0b0c");
  const auto info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  const auto prk = hkdf_extract(salt, ikm);
  EXPECT_EQ(hex_of(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  const auto okm = hkdf_expand(prk, info, 42);
  EXPECT_EQ(hex_of(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

// RFC 5869 Appendix A, test case 2 (longer inputs/outputs).
TEST(Hkdf, Rfc5869Case2) {
  std::vector<std::uint8_t> ikm, salt, info;
  for (int i = 0x00; i <= 0x4f; ++i) ikm.push_back(static_cast<std::uint8_t>(i));
  for (int i = 0x60; i <= 0xaf; ++i) salt.push_back(static_cast<std::uint8_t>(i));
  for (int i = 0xb0; i <= 0xff; ++i) info.push_back(static_cast<std::uint8_t>(i));
  const auto okm = hkdf(salt, ikm, info, 82);
  EXPECT_EQ(hex_of(okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
            "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
            "cc30c58179ec3e87c14c01d5c1f3434f1d87");
}

// RFC 5869 Appendix A, test case 3 (empty salt and info).
TEST(Hkdf, Rfc5869Case3) {
  const auto ikm = from_hex("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b");
  const auto okm = hkdf({}, ikm, {}, 42);
  EXPECT_EQ(hex_of(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, LengthBoundsChecked) {
  const auto prk = SecretBuffer(std::vector<std::uint8_t>(32, 1));
  EXPECT_THROW(hkdf_expand(prk, {}, 0), vkey::Error);
  EXPECT_THROW(hkdf_expand(prk, {}, 255 * 32 + 1), vkey::Error);
  EXPECT_THROW(
      hkdf_expand(SecretBuffer(std::vector<std::uint8_t>(8, 1)), {}, 16),
      vkey::Error);
}

TEST(Hkdf, SpanExpandFillsEveryLengthUpToTheMaximum) {
  // RFC 5869 case 1's PRK and info, expanded to the 255-block maximum:
  // shorter outputs must be prefixes of it, and the whole of it hashes to
  // a digest computed independently with Python's hmac/hashlib.
  const auto prk = from_hex(
      "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  const auto info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  const HmacKey keyed(prk);
  std::vector<std::uint8_t> full(255 * 32);
  hkdf_expand(keyed, info, full);
  const auto digest = Sha256::digest(full);
  EXPECT_EQ(to_hex(digest.data(), digest.size()),
            "06ce7419405a88a66ba5c9795579cb05130c85101924d187552a0f7f57deb091");
  EXPECT_EQ(to_hex(full.data(), 33),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34");
  for (std::size_t len : {1u, 31u, 32u, 33u}) {
    std::vector<std::uint8_t> out(len);
    hkdf_expand(keyed, info, out);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), full.begin()))
        << "length " << len;
  }
  std::vector<std::uint8_t> none;
  EXPECT_THROW(hkdf_expand(keyed, info, none), vkey::Error);
  std::vector<std::uint8_t> too_long(255 * 32 + 1);
  EXPECT_THROW(hkdf_expand(keyed, info, too_long), vkey::Error);
}

TEST(Hkdf, SpanExtractMatchesSecretBufferExtract) {
  const auto ikm = from_hex("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b");
  std::array<std::uint8_t, 32> prk{};
  hkdf_extract({}, ikm, prk);
  EXPECT_TRUE(constant_time_equal(std::span<const std::uint8_t>(prk),
                                  hkdf_extract({}, ikm).expose()));
}

TEST(Hkdf, DistinctLabelsDistinctSubkeys) {
  const std::vector<std::uint8_t> secret(16, 0xaa);
  const auto enc = derive_subkey(secret, "vkey encryption", 16);
  const auto mac = derive_subkey(secret, "vkey mac", 32);
  EXPECT_EQ(enc.size(), 16u);
  EXPECT_EQ(mac.size(), 32u);
  EXPECT_FALSE(constant_time_equal(enc.expose(), mac.expose().subspan(0, 16)));
}

TEST(Hkdf, Deterministic) {
  const std::vector<std::uint8_t> secret(16, 0x42);
  EXPECT_TRUE(constant_time_equal(derive_subkey(secret, "x", 24),
                                  derive_subkey(secret, "x", 24)));
}

}  // namespace
}  // namespace vkey::crypto
