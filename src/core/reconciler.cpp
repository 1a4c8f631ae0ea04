#include "core/reconciler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <utility>

#include "common/error.h"
#include "common/parallel.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace vkey::core {

AutoencoderReconciler::AutoencoderReconciler(const ReconcilerConfig& config)
    : cfg_(config),
      rng_(config.seed),
      bloom_(config.key_bits, config.session_seed),
      f1_(config.key_bits, config.code_dim, rng_),
      f2_(config.key_bits, config.code_dim, rng_) {
  VKEY_REQUIRE(config.key_bits >= 8, "key too short");
  VKEY_REQUIRE(config.code_dim >= 2, "code dimension too small");
  VKEY_REQUIRE(config.decoder_layers >= 1, "need at least one decoder layer");
  VKEY_REQUIRE(config.train_ber_lo >= 0.0 &&
                   config.train_ber_hi <= 0.5 &&
                   config.train_ber_lo <= config.train_ber_hi,
               "bad training BER range");

  std::size_t in = cfg_.code_dim;
  for (std::size_t l = 0; l < cfg_.decoder_layers; ++l) {
    decoder_.emplace_back(in, cfg_.decoder_units, rng_,
                          nn::Activation::kTanh);
    in = cfg_.decoder_units;
  }
  decoder_.emplace_back(in, cfg_.key_bits, rng_);  // logits
}

std::vector<nn::Parameter*> AutoencoderReconciler::parameters() {
  std::vector<nn::Parameter*> p;
  if (!cfg_.freeze_encoder) {
    if (cfg_.tie_encoders) {
      // Weights only: the encoder bias cancels in h = y_B - y_A, so it is
      // pinned at zero to keep training and inference consistent.
      p.push_back(f1_.parameters()[0]);
    } else {
      for (auto* q : f1_.parameters()) p.push_back(q);
      for (auto* q : f2_.parameters()) p.push_back(q);
    }
  }
  for (auto& layer : decoder_) {
    for (auto* q : layer.parameters()) p.push_back(q);
  }
  return p;
}

double AutoencoderReconciler::train(std::size_t num_samples,
                                    std::size_t epochs) {
  VKEY_REQUIRE(num_samples >= 1 && epochs >= 1, "nothing to train on");
  nn::Adam opt(parameters(), cfg_.learning_rate);
  const std::size_t n = num_samples;
  const std::size_t bits = cfg_.key_bits;
  const bool tied = cfg_.tie_encoders;
  const bool train_encoder = !cfg_.freeze_encoder;

  // Pre-generate the synthetic pair set (K_B, K_A as 0/1 bytes) so epochs
  // revisit the same data. Each pair draws from its own hash-derived
  // stream, making generation order-free: any lane can produce pair s and
  // the result is identical.
  std::vector<std::uint8_t> keys(2 * n * bits);
  const std::uint64_t pair_seed = hash_combine64(cfg_.seed, 0x70616972ULL);
  parallel::parallel_for(
      n,
      [&](std::size_t s) {
        vkey::Rng rng(hash_combine64(pair_seed, s));
        std::uint8_t* kb = &keys[2 * s * bits];
        std::uint8_t* ka = kb + bits;
        for (std::size_t i = 0; i < bits; ++i) kb[i] = rng.bernoulli(0.5);
        const double ber = rng.uniform(cfg_.train_ber_lo, cfg_.train_ber_hi);
        for (std::size_t i = 0; i < bits; ++i)
          ka[i] = kb[i] ^ static_cast<std::uint8_t>(rng.bernoulli(ber));
      },
      cfg_.threads);

  // Minibatch matrices, sized once; row b is minibatch member b. acts[l]
  // is the input of decoder layer l (acts[0] = h, the code difference),
  // grads[l] its gradient.
  const std::size_t cap = std::min(cfg_.batch_size, n);
  auto rows = [cap](std::size_t width) { return nn::Vec(cap * width); };
  nn::Vec xb = rows(bits), xa = rows(bits), target = rows(bits);
  nn::Vec yb = rows(cfg_.code_dim), ya = rows(cfg_.code_dim);
  nn::Vec neg = rows(cfg_.code_dim);
  std::vector<nn::Vec> acts{rows(cfg_.code_dim)};
  acts.reserve(decoder_.size() + 1);
  for (const nn::Dense& layer : decoder_)
    acts.push_back(rows(layer.out_size()));
  std::vector<nn::Vec> grads = acts;

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const std::size_t depth = decoder_.size();
  double last_epoch_loss = 0.0;
  for (std::size_t e = 0; e < epochs; ++e) {
    // Shuffle (sequential by design: the epoch permutation is part of the
    // deterministic training schedule, not per-index work).
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(rng_.uniform_int(i))]);
    }
    double epoch_loss = 0.0;
    for (std::size_t start = 0; start < n; start += cfg_.batch_size) {
      const std::size_t bs = std::min(cfg_.batch_size, n - start);
      // Bloom-map both keys; the target is the mapped mismatch e.
      for (std::size_t b = 0; b < bs; ++b) {
        const std::uint8_t* kb = &keys[2 * order[start + b] * bits];
        double* rb = &xb[b * bits];
        double* ra = &xa[b * bits];
        bloom_.apply({kb, bits}, {rb, bits});
        bloom_.apply({kb + bits, bits}, {ra, bits});
        for (std::size_t i = 0; i < bits; ++i)
          target[b * bits + i] = rb[i] != ra[i] ? 1.0 : 0.0;
        // Tied linear encoders: h = f(K'_B) - f(K'_A) = W (K'_B - K'_A);
        // the bias cancels, so the encoder sees the difference vector.
        if (tied)
          for (std::size_t i = 0; i < bits; ++i) rb[i] -= ra[i];
      }

      // Forward, layer by layer over the whole minibatch.
      if (tied) {
        f1_.forward_batch(xb.data(), bs, acts[0].data());
      } else {
        f1_.forward_batch(xb.data(), bs, yb.data());
        f2_.forward_batch(xa.data(), bs, ya.data());
        for (std::size_t i = 0; i < bs * cfg_.code_dim; ++i)
          acts[0][i] = yb[i] - ya[i];
      }
      for (std::size_t l = 0; l < depth; ++l)
        decoder_[l].forward_batch(acts[l].data(), bs, acts[l + 1].data());
      for (std::size_t b = 0; b < bs; ++b) {
        epoch_loss += nn::bce_with_logits(
            std::span<const double>(&acts[depth][b * bits], bits),
            std::span<const double>(&target[b * bits], bits),
            std::span<double>(&grads[depth][b * bits], bits));
      }

      // Backward: every gradient sum runs here, in sample order.
      for (std::size_t l = depth; l-- > 0;) {
        double* dx = l > 0 || train_encoder ? grads[l].data() : nullptr;
        decoder_[l].backward_batch(acts[l].data(), acts[l + 1].data(),
                                   grads[l + 1].data(), bs, dx);
      }
      if (train_encoder) {
        if (tied) {
          // The tied bias is pinned at zero (see parameters()): no gradient.
          f1_.backward_batch(xb.data(), acts[0].data(), grads[0].data(), bs,
                             nullptr, /*bias_grad=*/false);
        } else {
          // h = yb - ya: the gradient splits with opposite signs.
          for (std::size_t i = 0; i < bs * cfg_.code_dim; ++i)
            neg[i] = -grads[0][i];
          f1_.backward_batch(xb.data(), yb.data(), grads[0].data(), bs,
                             nullptr);
          f2_.backward_batch(xa.data(), ya.data(), neg.data(), bs, nullptr);
        }
      }
      opt.step(bs, cfg_.threads);
    }
    last_epoch_loss = epoch_loss / static_cast<double>(n);
  }
  return last_epoch_loss;
}

std::vector<double> AutoencoderReconciler::encode_bob(
    const BitVec& key_bob) const {
  VKEY_REQUIRE(key_bob.size() == cfg_.key_bits, "key width mismatch");
  return f1_.infer(bloom_.apply(key_bob).to_doubles());
}

AutoencoderReconciler::DecodeResult AutoencoderReconciler::decode_mismatch(
    const BitVec& key_alice, std::span<const double> y_bob) const {
  VKEY_REQUIRE(key_alice.size() == cfg_.key_bits, "key width mismatch");
  VKEY_REQUIRE(y_bob.size() == cfg_.code_dim, "syndrome width mismatch");
  const nn::Dense& alice_encoder = cfg_.tie_encoders ? f1_ : f2_;

  // Greedy decoding. The syndrome travels as data (not over a noisy analog
  // channel), so h = y_Bob - f(K'_work) vanishes exactly when the working
  // key matches Bob's. Each pass the decoder MLP scores candidate mismatch
  // positions; Alice — who holds the public encoder — verifies the
  // shortlisted flips algebraically (with a tied linear encoder a flip of
  // bit i changes h by -(1-2w_i) * W_col_i, so the post-flip residual costs
  // two dot products) and commits the flip that shrinks ||h|| the most.
  // A pass that cannot shrink the residual terminates the loop, so a wrong
  // greedy step can always be undone but never loops forever.
  const nn::Vec& w_flat = alice_encoder.weights().value;  // code_dim x key_bits
  BitVec work = bloom_.apply(key_alice);
  BitVec delta(cfg_.key_bits);
  std::size_t iters = 0;
  constexpr std::size_t kShortlist = 16;

  // Current residual h (maintained incrementally after the first pass).
  nn::Vec h(cfg_.code_dim);
  {
    const nn::Vec ya = alice_encoder.infer(work.to_doubles());
    for (std::size_t i = 0; i < h.size(); ++i) h[i] = y_bob[i] - ya[i];
  }
  double h_norm2 = 0.0;
  for (double v : h) h_norm2 += v * v;
  const double initial_norm2 = h_norm2;
  BitVec best_delta = delta;
  double best_norm2 = h_norm2;

  while (iters < cfg_.max_decode_iterations && h_norm2 > 1e-9) {
    ++iters;
    nn::Vec x = h;
    for (const auto& layer : decoder_) x = layer.infer(x);

    // Shortlist the decoder's top-scored positions.
    std::vector<std::size_t> order(cfg_.key_bits);
    std::iota(order.begin(), order.end(), 0);
    const std::size_t take = std::min(kShortlist, order.size());
    std::partial_sort(order.begin(),
                      order.begin() + static_cast<std::ptrdiff_t>(take),
                      order.end(),
                      [&x](std::size_t a, std::size_t b) { return x[a] > x[b]; });

    // Verify candidates: pick the flip that shrinks ||h|| the most.
    std::size_t best_pos = cfg_.key_bits;
    double pick_norm2 = h_norm2 - 1e-12;
    double best_sign = 0.0;
    for (std::size_t c = 0; c < take; ++c) {
      const std::size_t i = order[c];
      // Flipping work_i changes the encoder input by (1 - 2 w_i), so
      // h' = h - (1 - 2 w_i) * W_col_i.
      const double s = work.get(i) ? -1.0 : 1.0;
      double dot_hw = 0.0, w_norm2 = 0.0;
      for (std::size_t r = 0; r < cfg_.code_dim; ++r) {
        const double wv = w_flat[r * cfg_.key_bits + i];
        dot_hw += h[r] * wv;
        w_norm2 += wv * wv;
      }
      const double cand_norm2 = h_norm2 - 2.0 * s * dot_hw + w_norm2;
      if (cand_norm2 < pick_norm2) {
        pick_norm2 = cand_norm2;
        best_pos = i;
        best_sign = s;
      }
    }
    if (best_pos == cfg_.key_bits) break;  // no flip improves the residual

    for (std::size_t r = 0; r < cfg_.code_dim; ++r) {
      h[r] -= best_sign * w_flat[r * cfg_.key_bits + best_pos];
    }
    h_norm2 = pick_norm2;
    work.flip(best_pos);
    delta.flip(best_pos);
    // Track the best state reached (used if we fail to fully converge).
    if (h_norm2 < best_norm2) {
      best_norm2 = h_norm2;
      best_delta = delta;
    }
  }

  // Convergence gate: a mismatch inside the design radius drives the
  // residual to (near) zero — the syndrome is exact. If the residual never
  // collapsed, the mismatch was denser than the code can localize (e.g. an
  // eavesdropper misusing the public decoder with uncorrelated key
  // material): report reconciliation failure by applying no correction.
  if (best_norm2 > 0.25 * initial_norm2) {
    return DecodeResult{BitVec(cfg_.key_bits), iters};
  }
  return DecodeResult{bloom_.map_mismatch_back(best_delta), iters};
}

BitVec AutoencoderReconciler::reconcile(const BitVec& key_alice,
                                        std::span<const double> y_bob) const {
  return key_alice ^ decode_mismatch(key_alice, y_bob).mismatch;
}

BitVec AutoencoderReconciler::reconcile_one_shot(
    const BitVec& key_alice, std::span<const double> y_bob) const {
  VKEY_REQUIRE(key_alice.size() == cfg_.key_bits, "key width mismatch");
  VKEY_REQUIRE(y_bob.size() == cfg_.code_dim, "syndrome width mismatch");
  const nn::Dense& alice_encoder = cfg_.tie_encoders ? f1_ : f2_;
  const nn::Vec ya =
      alice_encoder.infer(bloom_.apply(key_alice).to_doubles());
  nn::Vec h(cfg_.code_dim);
  for (std::size_t i = 0; i < h.size(); ++i) h[i] = y_bob[i] - ya[i];
  nn::Vec x = h;
  for (const auto& layer : decoder_) x = layer.infer(x);
  BitVec delta(cfg_.key_bits);
  for (std::size_t i = 0; i < cfg_.key_bits; ++i) delta.set(i, x[i] > 0.0);
  return key_alice ^ bloom_.map_mismatch_back(delta);
}

std::size_t AutoencoderReconciler::decode_flops() const {
  // Alice: f2 (N x M) + decoder stack.
  std::size_t flops = cfg_.key_bits * cfg_.code_dim;
  std::size_t in = cfg_.code_dim;
  for (std::size_t l = 0; l < cfg_.decoder_layers; ++l) {
    flops += in * cfg_.decoder_units;
    in = cfg_.decoder_units;
  }
  flops += in * cfg_.key_bits;
  return flops;
}

std::size_t AutoencoderReconciler::encode_flops() const {
  return cfg_.key_bits * cfg_.code_dim;
}

}  // namespace vkey::core
