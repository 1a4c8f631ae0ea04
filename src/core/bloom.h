// Position-preserving Bloom mapping (the paper's "adapted Bloom filter").
//
// The reconciliation autoencoder must not operate on raw keys: if Bob's code
// vector y_Bob were a compression of K_Bob itself, an attacker with the
// public decoder could attempt reconstruction. The paper routes both keys
// through an adapted Bloom filter [14] that "retains position information,
// which means that its output can retain the same number of mismatched bits
// as the input key". We realize that contract exactly: a session-seeded
// pseudorandom permutation of bit positions combined with a pseudorandom
// mask pad:
//
//      K'[perm(i)] = K[i] XOR pad(i)
//
// Properties (all verified by tests):
//  * Hamming distance is preserved exactly: |K'_A xor K'_B| = |K_A xor K_B|
//    (the pads cancel, the permutation only relabels positions).
//  * Legitimate parties (who share the public session parameters) can invert
//    the map after correction.
//  * The mismatch vector learned in K'-space maps back through the inverse
//    permutation; the pad cancels in the XOR domain.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvec.h"

namespace vkey::core {

class PositionPreservingBloom {
 public:
  /// `n_bits` input/output width, `session_seed` the public per-session
  /// parameter (both parties derive it from the session id).
  PositionPreservingBloom(std::size_t n_bits, std::uint64_t session_seed);

  std::size_t size() const { return n_; }

  /// Forward map K -> K'.
  BitVec apply(const BitVec& key) const;

  /// Allocation-free forward map of a key held as 0/1 bytes, written as
  /// 0.0/1.0 doubles: the bits apply() produces.
  void apply(std::span<const std::uint8_t> key, std::span<double> out) const;

  /// Inverse map K' -> K.
  BitVec invert(const BitVec& mapped) const;

  /// Map a mismatch (XOR-difference) vector from K'-space back to K-space.
  /// Pads cancel under XOR, so this is the inverse permutation alone.
  BitVec map_mismatch_back(const BitVec& delta_mapped) const;

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> perm_;      // i -> perm_[i]
  std::vector<std::size_t> inv_perm_;
  std::vector<std::uint8_t> pad_;
};

}  // namespace vkey::core
