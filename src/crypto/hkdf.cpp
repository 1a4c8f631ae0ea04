#include "crypto/hkdf.h"

#include <algorithm>
#include <array>

#include "common/error.h"

namespace vkey::crypto {

void hkdf_extract(std::span<const std::uint8_t> salt,
                  std::span<const std::uint8_t> ikm,
                  std::span<std::uint8_t, Sha256::kDigestSize> prk) {
  static constexpr std::array<std::uint8_t, Sha256::kDigestSize> kZeroSalt{};
  const HmacKey key(salt.empty() ? std::span<const std::uint8_t>(kZeroSalt)
                                 : salt);
  Sha256 inner = key.start();
  inner.update(ikm);
  key.finish(inner, prk);
}

SecretBuffer hkdf_extract(std::span<const std::uint8_t> salt,
                          std::span<const std::uint8_t> ikm) {
  auto prk = SecretBuffer::zeros(Sha256::kDigestSize);
  hkdf_extract(salt, ikm, prk.expose_mut().first<Sha256::kDigestSize>());
  return prk;
}

void hkdf_expand(const HmacKey& prk, std::span<const std::uint8_t> info,
                 std::span<std::uint8_t> out) {
  VKEY_REQUIRE(!out.empty() && out.size() <= 255 * Sha256::kDigestSize,
               "HKDF output length out of range");
  // T(i) = HMAC(PRK, T(i-1) || info || i), with T(0) empty.
  std::array<std::uint8_t, Sha256::kDigestSize> t{};
  std::size_t t_len = 0;
  std::uint8_t counter = 1;
  for (std::size_t pos = 0; pos < out.size(); ++counter) {
    Sha256 inner = prk.start();
    inner.update(t.data(), t_len);
    inner.update(info);
    inner.update(&counter, 1);
    prk.finish(inner, t);
    t_len = t.size();
    const std::size_t take = std::min(t.size(), out.size() - pos);
    std::copy_n(t.begin(), take, out.begin() + pos);
    pos += take;
  }
  secure_wipe(t.data(), t.size());
}

SecretBuffer hkdf_expand(const SecretBuffer& prk,
                         std::span<const std::uint8_t> info,
                         std::size_t length) {
  VKEY_REQUIRE(prk.size() >= Sha256::kDigestSize,
               "PRK must be at least one hash block");
  VKEY_REQUIRE(length >= 1 && length <= 255 * Sha256::kDigestSize,
               "HKDF output length out of range");
  auto okm = SecretBuffer::zeros(length);
  hkdf_expand(HmacKey(prk), info, okm.expose_mut());
  return okm;
}

SecretBuffer hkdf(std::span<const std::uint8_t> salt,
                  std::span<const std::uint8_t> ikm,
                  std::span<const std::uint8_t> info, std::size_t length) {
  return hkdf_expand(hkdf_extract(salt, ikm), info, length);
}

SecretBuffer derive_subkey(std::span<const std::uint8_t> session_secret,
                           const std::string& label, std::size_t length) {
  const std::vector<std::uint8_t> info(label.begin(), label.end());
  return hkdf({}, session_secret, info, length);
}

}  // namespace vkey::crypto
