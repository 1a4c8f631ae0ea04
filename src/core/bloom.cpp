#include "core/bloom.h"

#include <numeric>

#include "common/error.h"
#include "common/rng.h"

namespace vkey::core {

PositionPreservingBloom::PositionPreservingBloom(std::size_t n_bits,
                                                 std::uint64_t session_seed)
    : n_(n_bits), perm_(n_bits), inv_perm_(n_bits), pad_(n_bits) {
  VKEY_REQUIRE(n_bits >= 2, "bloom width must be >= 2");
  vkey::Rng rng(vkey::hash_combine64(session_seed, 0xb100f17e));
  std::iota(perm_.begin(), perm_.end(), 0);
  // Fisher-Yates with the session-seeded RNG.
  for (std::size_t i = n_ - 1; i > 0; --i) {
    const std::size_t j =
        static_cast<std::size_t>(rng.uniform_int(i + 1));
    std::swap(perm_[i], perm_[j]);
  }
  for (std::size_t i = 0; i < n_; ++i) inv_perm_[perm_[i]] = i;
  for (auto& p : pad_) p = rng.bernoulli(0.5) ? 1 : 0;
}

BitVec PositionPreservingBloom::apply(const BitVec& key) const {
  VKEY_REQUIRE(key.size() == n_, "bloom input size mismatch");
  BitVec out(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    out.set(perm_[i], (key.get(i) ^ pad_[i]) != 0);
  }
  return out;
}

void PositionPreservingBloom::apply(std::span<const std::uint8_t> key,
                                    std::span<double> out) const {
  VKEY_REQUIRE(key.size() == n_ && out.size() == n_,
               "bloom input size mismatch");
  for (std::size_t i = 0; i < n_; ++i)
    out[perm_[i]] = (key[i] ^ pad_[i]) != 0 ? 1.0 : 0.0;
}

BitVec PositionPreservingBloom::invert(const BitVec& mapped) const {
  VKEY_REQUIRE(mapped.size() == n_, "bloom input size mismatch");
  BitVec out(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    out.set(i, (mapped.get(perm_[i]) ^ pad_[i]) != 0);
  }
  return out;
}

BitVec PositionPreservingBloom::map_mismatch_back(
    const BitVec& delta_mapped) const {
  VKEY_REQUIRE(delta_mapped.size() == n_, "bloom input size mismatch");
  BitVec out(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    out.set(i, delta_mapped.get(perm_[i]) != 0);
  }
  return out;
}

}  // namespace vkey::core
