#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "crypto/secret_buffer.h"

namespace vkey::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

// One round with the working variables passed in rotated order, so eight
// consecutive calls cycle a..h back to their own roles without the seven
// register moves per round of the textbook loop.
inline void sha_round(std::uint32_t a, std::uint32_t b, std::uint32_t c,
                      std::uint32_t& d, std::uint32_t e, std::uint32_t f,
                      std::uint32_t g, std::uint32_t& h, std::uint32_t kw) {
  const std::uint32_t t1 = h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                           ((e & f) ^ (~e & g)) + kw;
  const std::uint32_t t2 =
      (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) + ((a & b) ^ (a & c) ^ (b & c));
  d += t1;
  h = t1 + t2;
}

}  // namespace

Sha256::Sha256() { reset(); }

Sha256::~Sha256() {
  secure_wipe(state_.data(), state_.size() * sizeof(state_[0]));
  secure_wipe(buffer_.data(), buffer_.size());
}

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffer_len_ = 0;
  total_len_ = 0;
  finalized_ = false;
}

void Sha256::process_block(const std::uint8_t* block) {
  // The message schedule lives in a 16-word ring: w[i & 15] is replaced by
  // W(i) once W(i - 16) has been consumed.
  std::uint32_t w[16];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
           (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<std::uint32_t>(block[i * 4 + 3]);
  }
  const auto schedule = [&w](int i) {
    if (i >= 16) {
      const std::uint32_t w15 = w[(i - 15) & 15];
      const std::uint32_t w2 = w[(i - 2) & 15];
      w[i & 15] += (rotr(w15, 7) ^ rotr(w15, 18) ^ (w15 >> 3)) +
                   w[(i - 7) & 15] +
                   (rotr(w2, 17) ^ rotr(w2, 19) ^ (w2 >> 10));
    }
    return kK[i] + w[i & 15];
  };
  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
  for (int i = 0; i < 64; i += 8) {
    sha_round(a, b, c, d, e, f, g, h, schedule(i));
    sha_round(h, a, b, c, d, e, f, g, schedule(i + 1));
    sha_round(g, h, a, b, c, d, e, f, schedule(i + 2));
    sha_round(f, g, h, a, b, c, d, e, schedule(i + 3));
    sha_round(e, f, g, h, a, b, c, d, schedule(i + 4));
    sha_round(d, e, f, g, h, a, b, c, schedule(i + 5));
    sha_round(c, d, e, f, g, h, a, b, schedule(i + 6));
    sha_round(b, c, d, e, f, g, h, a, schedule(i + 7));
  }
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
  // The message schedule holds an expansion of the input block — key
  // material when hashing ipad/opad or the amplified secret.
  secure_wipe(w, sizeof(w));
}

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  VKEY_REQUIRE(!finalized_, "Sha256 used after finalize");
  if (len == 0) return;
  total_len_ += len;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(len, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < buffer_.size()) return;
    process_block(buffer_.data());
    buffer_len_ = 0;
  }
  // Whole blocks are compressed straight from the input.
  for (; len >= buffer_.size(); data += buffer_.size(), len -= buffer_.size()) {
    process_block(data);
  }
  std::memcpy(buffer_.data(), data, len);
  buffer_len_ = len;
}

void Sha256::finalize(std::span<std::uint8_t, kDigestSize> out) {
  VKEY_REQUIRE(!finalized_, "Sha256 finalized twice");
  finalized_ = true;
  // Padding: 0x80, zeros up to byte 56 of a block, then the 64-bit
  // big-endian bit length. A tail longer than 55 bytes spills the length
  // into one more block.
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::fill(buffer_.begin() + buffer_len_, buffer_.end(), 0);
    process_block(buffer_.data());
    buffer_len_ = 0;
  }
  std::fill(buffer_.begin() + buffer_len_, buffer_.begin() + 56, 0);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  process_block(buffer_.data());
  buffer_len_ = 0;

  for (std::size_t i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
}

std::array<std::uint8_t, Sha256::kDigestSize> Sha256::finalize() {
  std::array<std::uint8_t, kDigestSize> out{};
  finalize(out);
  return out;
}

std::array<std::uint8_t, Sha256::kDigestSize> Sha256::digest(
    const std::vector<std::uint8_t>& data) {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

std::array<std::uint8_t, Sha256::kDigestSize> Sha256::digest(
    const std::string& s) {
  Sha256 h;
  h.update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  return h.finalize();
}

std::string to_hex(const std::uint8_t* data, std::size_t len) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(len * 2);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(kHex[data[i] >> 4]);
    out.push_back(kHex[data[i] & 0x0f]);
  }
  return out;
}

}  // namespace vkey::crypto
