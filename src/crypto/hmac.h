// HMAC-SHA256 (RFC 2104 / FIPS 198-1).
//
// The reconciliation exchange appends MAC(K'_Bob, y_Bob) so Alice can detect
// man-in-the-middle modification (paper Sec. IV-C). Also provides the
// constant-time tag comparison used at verification.
//
// Keys are secrets: the primary entry points take the key as a
// SecretBuffer or a borrowed span, and the derived ipad/opad blocks are
// zeroized before return (secure_wipe). A key that signs more than one
// message is absorbed once into an HmacKey. The vector overloads remain as
// shims for non-secret-typed callers.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "crypto/secret_buffer.h"
#include "crypto/sha256.h"

namespace vkey::crypto {

/// An HMAC-SHA256 key absorbed once: the key ^ ipad and key ^ opad blocks
/// are compressed into two Sha256 midstates at construction, so each tag
/// afterwards costs the message's own compressions plus one outer block
/// instead of re-deriving the pads. The midstates are key-equivalent; the
/// Sha256 destructor wipes both.
class HmacKey {
 public:
  explicit HmacKey(std::span<const std::uint8_t> key);
  explicit HmacKey(const SecretBuffer& key) : HmacKey(key.expose()) {}

  /// HMAC(key, message).
  std::array<std::uint8_t, Sha256::kDigestSize> mac(
      std::span<const std::uint8_t> message) const;

  /// Multi-part messages: absorb the parts into the hasher start() returns,
  /// then finish() writes the tag.
  Sha256 start() const { return inner_; }
  void finish(Sha256& inner,
              std::span<std::uint8_t, Sha256::kDigestSize> tag) const;

 private:
  Sha256 inner_;  ///< midstate after the key ^ ipad block
  Sha256 outer_;  ///< midstate after the key ^ opad block
};

/// Compute HMAC-SHA256 over `message` with `key` (borrowed views; the
/// key-derived midstates are wiped before returning).
inline std::array<std::uint8_t, Sha256::kDigestSize> hmac_sha256(
    std::span<const std::uint8_t> key, std::span<const std::uint8_t> message) {
  return HmacKey(key).mac(message);
}

/// HMAC under a managed secret key without exposing it at the call site.
inline std::array<std::uint8_t, Sha256::kDigestSize> hmac_sha256(
    const SecretBuffer& key, std::span<const std::uint8_t> message) {
  return hmac_sha256(key.expose(), message);
}

/// Shim for std::vector callers (both arguments convert to spans).
inline std::array<std::uint8_t, Sha256::kDigestSize> hmac_sha256(
    const std::vector<std::uint8_t>& key,
    const std::vector<std::uint8_t>& message) {
  return hmac_sha256(std::span<const std::uint8_t>(key),
                     std::span<const std::uint8_t>(message));
}

/// Constant-time equality of two byte strings (length leak only). Thin
/// shim over the span overload in secret_buffer.h, kept for existing
/// vector callers.
inline bool constant_time_equal(const std::vector<std::uint8_t>& a,
                                const std::vector<std::uint8_t>& b) {
  return constant_time_equal(std::span<const std::uint8_t>(a),
                             std::span<const std::uint8_t>(b));
}

/// Constant-time check of a computed tag (array) against a received one.
inline bool constant_time_equal(
    const std::vector<std::uint8_t>& received,
    const std::array<std::uint8_t, Sha256::kDigestSize>& computed) {
  return constant_time_equal(std::span<const std::uint8_t>(received),
                             std::span<const std::uint8_t>(computed));
}

}  // namespace vkey::crypto
