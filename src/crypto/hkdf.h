// HKDF (RFC 5869) — HMAC-based key derivation.
//
// The privacy-amplified session key is a single 128-bit secret; protecting
// traffic needs *independent* keys for encryption and authentication (and,
// with group keys, per-purpose subkeys). HKDF's extract-then-expand
// construction derives any number of cryptographically separated subkeys
// from the session secret with domain-separating info labels.
//
// Everything HKDF touches or returns is key material, so the API speaks
// SecretBuffer: PRKs and output key material come back zeroizing, and
// input secrets are taken as SecretBuffer (or a borrowed span for callers
// that hold the bytes in other wiped storage). Salt and info are public
// protocol constants and stay plain spans.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "crypto/hmac.h"
#include "crypto/secret_buffer.h"

namespace vkey::crypto {

/// A string literal as constant HKDF info bytes (without the terminating
/// NUL), so call sites derive keys without building strings.
template <std::size_t N>
constexpr std::array<std::uint8_t, N - 1> info_label(const char (&text)[N]) {
  std::array<std::uint8_t, N - 1> out{};
  for (std::size_t i = 0; i + 1 < N; ++i) {
    out[i] = static_cast<std::uint8_t>(text[i]);
  }
  return out;
}

/// HKDF-Extract: PRK = HMAC(salt, ikm), written into `prk`. An empty salt
/// is replaced by a zero-filled hash-length block per the RFC.
void hkdf_extract(std::span<const std::uint8_t> salt,
                  std::span<const std::uint8_t> ikm,
                  std::span<std::uint8_t, Sha256::kDigestSize> prk);
SecretBuffer hkdf_extract(std::span<const std::uint8_t> salt,
                          std::span<const std::uint8_t> ikm);
inline SecretBuffer hkdf_extract(std::span<const std::uint8_t> salt,
                                 const SecretBuffer& ikm) {
  return hkdf_extract(salt, ikm.expose());
}

/// HKDF-Expand: fill `out` (1 .. 255 * 32 bytes) from a pseudorandom key
/// already absorbed into an HmacKey, with the given context/label. Every
/// expansion under one HmacKey shares its midstates, and nothing is
/// allocated; the running block T(i) is wiped before return.
void hkdf_expand(const HmacKey& prk, std::span<const std::uint8_t> info,
                 std::span<std::uint8_t> out);

/// HKDF-Expand: derive `length` bytes (<= 255 * 32) from a pseudorandom key
/// with the given context/label.
SecretBuffer hkdf_expand(const SecretBuffer& prk,
                         std::span<const std::uint8_t> info,
                         std::size_t length);

/// One-shot extract+expand.
SecretBuffer hkdf(std::span<const std::uint8_t> salt,
                  std::span<const std::uint8_t> ikm,
                  std::span<const std::uint8_t> info, std::size_t length);

/// Convenience: derive a subkey from a session secret with a string label.
SecretBuffer derive_subkey(std::span<const std::uint8_t> session_secret,
                           const std::string& label, std::size_t length);
inline SecretBuffer derive_subkey(const SecretBuffer& session_secret,
                                  const std::string& label,
                                  std::size_t length) {
  return derive_subkey(session_secret.expose(), label, length);
}

}  // namespace vkey::crypto
