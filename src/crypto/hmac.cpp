#include "crypto/hmac.h"

#include <algorithm>

namespace vkey::crypto {

HmacKey::HmacKey(std::span<const std::uint8_t> key) {
  constexpr std::size_t kBlockSize = 64;
  // Keys longer than the block size are hashed first. `pad` holds the
  // zero-padded key, then key ^ ipad, then key ^ opad; it is wiped before
  // return, so only the two midstates keep anything key-derived.
  std::array<std::uint8_t, kBlockSize> pad{};
  if (key.size() > kBlockSize) {
    Sha256 h;
    h.update(key);
    h.finalize(std::span<std::uint8_t, kBlockSize>(pad).first<
               Sha256::kDigestSize>());
  } else {
    std::copy(key.begin(), key.end(), pad.begin());
  }
  for (auto& b : pad) b ^= 0x36;
  inner_.update(pad);
  for (auto& b : pad) b ^= 0x36 ^ 0x5c;
  outer_.update(pad);
  secure_wipe(pad.data(), pad.size());
}

void HmacKey::finish(Sha256& inner,
                     std::span<std::uint8_t, Sha256::kDigestSize> tag) const {
  std::array<std::uint8_t, Sha256::kDigestSize> inner_digest{};
  inner.finalize(inner_digest);
  Sha256 outer = outer_;
  outer.update(inner_digest);
  secure_wipe(inner_digest.data(), inner_digest.size());
  outer.finalize(tag);
}

std::array<std::uint8_t, Sha256::kDigestSize> HmacKey::mac(
    std::span<const std::uint8_t> message) const {
  Sha256 inner = start();
  inner.update(message);
  std::array<std::uint8_t, Sha256::kDigestSize> tag{};
  finish(inner, tag);
  return tag;
}

}  // namespace vkey::crypto
