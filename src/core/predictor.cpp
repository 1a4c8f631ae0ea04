#include "core/predictor.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/vmath.h"

namespace vkey::core {

namespace {
/// Per-step input: [value, phase within the mirror pairing, progress],
/// written as v.size() rows of 3 doubles.
void write_features(const nn::Vec& v, std::size_t phase_period, double* out) {
  const double n = static_cast<double>(v.size());
  const double period = static_cast<double>(std::max<std::size_t>(1, phase_period));
  for (std::size_t t = 0; t < v.size(); ++t) {
    out[3 * t] = v[t];
    out[3 * t + 1] = static_cast<double>(t % phase_period) / period;
    out[3 * t + 2] = static_cast<double>(t) / n;
  }
}

}  // namespace

PredictorQuantizer::PredictorQuantizer(const PredictorConfig& config)
    : cfg_(config),
      rng_(config.seed),
      bilstm_(3, config.hidden, rng_),
      pred_head_(config.seq_len * 2 * config.hidden, config.seq_len, rng_),
      quant_head_(config.seq_len, config.key_bits, rng_) {
  VKEY_REQUIRE(config.seq_len >= 4, "sequence too short");
  VKEY_REQUIRE(config.hidden >= 2, "hidden size too small");
  VKEY_REQUIRE(config.theta >= 0.0 && config.theta <= 1.0,
               "theta must be in [0,1]");
}

std::vector<nn::Parameter*> PredictorQuantizer::parameters() {
  auto p = bilstm_.parameters();
  for (auto* q : pred_head_.parameters()) p.push_back(q);
  for (auto* q : quant_head_.parameters()) p.push_back(q);
  return p;
}

TrainReport PredictorQuantizer::train(std::span<const TrainingSample> samples,
                                      std::size_t epochs) {
  VKEY_REQUIRE(!samples.empty(), "no training samples");
  VKEY_REQUIRE(cfg_.batch_size >= 1, "batch size must be >= 1");
  const std::size_t n = samples.size();
  const std::size_t t_len = cfg_.seq_len;
  const std::size_t bits = cfg_.key_bits;
  const std::size_t flat_len = t_len * bilstm_.output_size();
  const std::size_t per_seq = t_len * 3;  // write_features per sequence
  for (const TrainingSample& s : samples) {
    VKEY_REQUIRE(s.alice_seq.size() == t_len, "sample seq_len mismatch");
    VKEY_REQUIRE(s.bob_seq.size() == t_len, "sample target mismatch");
    VKEY_REQUIRE(s.bob_bits.size() == bits, "sample bits width mismatch");
  }
  nn::Adam opt(parameters(), cfg_.learning_rate);

  // Every buffer the minibatches use, sized once: row b of each matrix is
  // minibatch member b. `flat` holds the BiLSTM output, then (in place)
  // its gradient.
  const std::size_t cap = std::min(cfg_.batch_size, n);
  nn::BiLstm::Tapes tapes = bilstm_.make_tapes(cap, t_len);
  nn::Vec x(cap * per_seq), flat(cap * flat_len), targets(cap * bits);
  nn::Vec y_hat(cap * t_len), dy(cap * t_len), mse_grad(cap * t_len);
  nn::Vec logits(cap * bits), dlogits(cap * bits);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  TrainReport report;
  for (std::size_t e = 0; e < epochs; ++e) {
    // Shuffle sample order each epoch.
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(rng_.uniform_int(i))]);
    }
    double epoch_loss = 0.0;
    for (std::size_t start = 0; start < n; start += cfg_.batch_size) {
      const std::size_t bs = std::min(cfg_.batch_size, n - start);
      for (std::size_t b = 0; b < bs; ++b) {
        const TrainingSample& s = samples[order[start + b]];
        write_features(s.alice_seq, cfg_.phase_period, &x[b * per_seq]);
        for (std::size_t k = 0; k < bits; ++k)
          targets[b * bits + k] = s.bob_bits.get(k);
      }
      bilstm_.forward_batch(x.data(), bs, tapes, flat.data(), 0);
      pred_head_.forward_batch(flat.data(), bs, y_hat.data());
      quant_head_.forward_batch(y_hat.data(), bs, logits.data());

      // Joint loss per sample, in sample order. The BCE gradient flows back
      // through the quantization head into y_hat, where the MSE gradient
      // joins it.
      for (std::size_t b = 0; b < bs; ++b) {
        const std::size_t idx = order[start + b];
        const std::span<double> dl(&dlogits[b * bits], bits);
        const double mse = nn::mse_loss(
            std::span<const double>(&y_hat[b * t_len], t_len),
            samples[idx].bob_seq,
            std::span<double>(&mse_grad[b * t_len], t_len));
        const double bce = nn::bce_with_logits(
            std::span<const double>(&logits[b * bits], bits),
            std::span<const double>(&targets[b * bits], bits), dl);
        epoch_loss += cfg_.theta * mse + (1.0 - cfg_.theta) * bce;
        for (double& g : dl) g = (1.0 - cfg_.theta) * g;
      }
      quant_head_.backward_batch(y_hat.data(), logits.data(), dlogits.data(),
                                 bs, dy.data());
      for (std::size_t i = 0; i < bs * t_len; ++i)
        dy[i] += cfg_.theta * mse_grad[i];
      pred_head_.backward_batch(flat.data(), y_hat.data(), dy.data(), bs,
                                flat.data());
      bilstm_.backward_batch(flat.data(), bs, tapes, 0);
      opt.step(bs, 0);
    }
    report.epoch_loss.push_back(epoch_loss / static_cast<double>(n));
  }
  report.final_loss = report.epoch_loss.back();
  return report;
}

PredictorQuantizer::Output PredictorQuantizer::infer(
    const nn::Vec& alice_seq) const {
  return std::move(infer_batch(std::span<const nn::Vec>(&alice_seq, 1))[0]);
}

std::vector<PredictorQuantizer::Output> PredictorQuantizer::infer_batch(
    std::span<const nn::Vec> windows) const {
  for (const auto& w : windows) {
    VKEY_REQUIRE(w.size() == cfg_.seq_len, "input seq_len mismatch");
  }
  const std::size_t batch = windows.size();
  std::vector<Output> outs(batch);
  if (batch == 0) return outs;
  const std::size_t t_len = cfg_.seq_len;
  const std::size_t bits = cfg_.key_bits;
  const std::size_t flat_len = t_len * bilstm_.output_size();

  // One scratch block holds every intermediate as row-major matrices, row m
  // being window m: features (T x 3 per window), the BiLSTM output rows
  // (T x 2H, already the flattened head input), y_hat and the logits.
  nn::Vec scratch(batch * (3 * t_len + flat_len + t_len + bits));
  double* x = scratch.data();
  double* flat = x + batch * 3 * t_len;
  double* y_hat = flat + batch * flat_len;
  double* logits = y_hat + batch * t_len;
  for (std::size_t m = 0; m < batch; ++m)
    write_features(windows[m], cfg_.phase_period, x + m * 3 * t_len);
  bilstm_.infer_batch(x, batch, t_len, flat);
  // One blocked pass per Dense head over the whole batch: the prediction
  // head's weight panels stream through cache once per batch instead of
  // once per window.
  pred_head_.forward_batch(flat, batch, y_hat);
  quant_head_.forward_batch(y_hat, batch, logits);

  for (std::size_t m = 0; m < batch; ++m) {
    Output& o = outs[m];
    o.predicted_seq.assign(y_hat + m * t_len, y_hat + (m + 1) * t_len);
    o.probabilities.resize(bits);
    nn::vsigmoid(std::span<const double>(logits + m * bits, bits),
                 o.probabilities);
    o.bits = BitVec::from_doubles_threshold(o.probabilities);
  }
  return outs;
}

double PredictorQuantizer::evaluate_loss(
    std::span<const TrainingSample> samples) const {
  VKEY_REQUIRE(!samples.empty(), "no samples");
  double total = 0.0;
  for (const auto& s : samples) {
    const Output o = infer(s.alice_seq);
    const auto mse = nn::mse_loss(o.predicted_seq, s.bob_seq);
    // Recompute BCE from probabilities (logits not retained): use the
    // numerically-safe clipped form.
    double bce = 0.0;
    const auto z = s.bob_bits.to_doubles();
    for (std::size_t i = 0; i < z.size(); ++i) {
      const double p = std::clamp(o.probabilities[i], 1e-12, 1.0 - 1e-12);
      bce += -(z[i] * std::log(p) + (1.0 - z[i]) * std::log(1.0 - p));
    }
    total += cfg_.theta * mse.loss + (1.0 - cfg_.theta) * bce;
  }
  return total / static_cast<double>(samples.size());
}

}  // namespace vkey::core
