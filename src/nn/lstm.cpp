#include "nn/lstm.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "nn/activations.h"
#include "nn/vmath.h"

namespace vkey::nn {

namespace {

metrics::Counter& lstm_flops() {
  static metrics::Counter& c =
      metrics::Registry::global().counter("nn.lstm.flops");
  return c;
}
metrics::Counter& lstm_steps() {
  static metrics::Counter& c =
      metrics::Registry::global().counter("nn.lstm.cell_steps");
  return c;
}
metrics::Histogram& lstm_infer_ms() {
  static metrics::Histogram& h =
      metrics::Registry::global().histogram("nn.lstm.infer_ms");
  return h;
}

// One cell step: the 4H x (input + hidden) affine dominates; the gate
// nonlinearities and elementwise updates add ~10H.
std::uint64_t step_flops(std::size_t input, std::size_t hidden) {
  return 2 * 4 * static_cast<std::uint64_t>(hidden) * (input + hidden) +
         10 * static_cast<std::uint64_t>(hidden);
}

}  // namespace

Lstm::Lstm(std::size_t input, std::size_t hidden, vkey::Rng& rng,
           bool reverse)
    : input_(input),
      hidden_(hidden),
      reverse_(reverse),
      wx_(4 * hidden * input),
      wh_(4 * hidden * hidden),
      b_(4 * hidden) {
  VKEY_REQUIRE(input > 0 && hidden > 0, "Lstm sizes must be positive");
  const double bx = std::sqrt(6.0 / static_cast<double>(input + hidden));
  const double bh = std::sqrt(6.0 / static_cast<double>(2 * hidden));
  for (auto& v : wx_.value) v = rng.uniform(-bx, bx);
  for (auto& v : wh_.value) v = rng.uniform(-bh, bh);
  // Standard trick: bias the forget gate open so gradients flow early on.
  for (std::size_t j = hidden; j < 2 * hidden; ++j) b_.value[j] = 1.0;
}

const PackedMatrix& Lstm::packed() const {
  // Key on the revision sum: bump() only increments, so the sum changes
  // whenever either matrix does.
  pack_guard_.ensure(wx_.revision + wh_.revision, [this] {
    packed_w_.pack_pair(wx_.value.data(), input_, wh_.value.data(), hidden_,
                        4 * hidden_);
  });
  return packed_w_;
}

namespace {

// Gate nonlinearities in place over a fused 4H block (i | f | g | o).
void gate_activations(double* z, std::size_t h) {
  const std::span<double> if_gates(z, 2 * h);
  const std::span<double> g_gate(z + 2 * h, h);
  const std::span<double> o_gate(z + 3 * h, h);
  vsigmoid(if_gates, if_gates);
  vtanh(g_gate, g_gate);
  vsigmoid(o_gate, o_gate);
}

// c = f * c_prev + i * g, tc = tanh(c), h = o * tc over activated gates z.
// c_prev may alias c; null is the zero initial state.
void cell_update(const double* z, std::size_t h, const double* c_prev,
                 double* c, double* tc, double* h_out) {
  for (std::size_t k = 0; k < h; ++k) {
    const double cp = c_prev != nullptr ? c_prev[k] : 0.0;
    c[k] = z[h + k] * cp + z[k] * z[2 * h + k];
  }
  vtanh(std::span<const double>(c, h), std::span<double>(tc, h));
  for (std::size_t k = 0; k < h; ++k) h_out[k] = z[3 * h + k] * tc[k];
}

}  // namespace

void Lstm::count_steps(std::size_t steps) const {
  lstm_steps().add(steps);
  lstm_flops().add(steps * step_flops(input_, hidden_));
}

void Lstm::cell_step(const PackedMatrix& pm, double* row,
                     const double* c_prev, double* h_out) const {
  const std::size_t in = input_;
  const std::size_t hd = hidden_;
  double* z = row + in + hd;
  pm.matvec(row, b_.value.data(), z);
  gate_activations(z, hd);
  cell_update(z, hd, c_prev, row + in + 5 * hd, row + in + 6 * hd, h_out);
}

void Lstm::infer_begin(double* row) const {
  std::fill(row + input_, row + input_ + hidden_, 0.0);
  std::fill(row + input_ + 5 * hidden_, row + input_ + 6 * hidden_, 0.0);
}

void Lstm::infer_step(const PackedMatrix& pm, const double* x_t, double* row,
                      double* h_out) const {
  const std::size_t in = input_;
  const std::size_t hd = hidden_;
  std::copy(x_t, x_t + in, row);
  cell_step(pm, row, row + in + 5 * hd, h_out);
  std::copy(h_out, h_out + hd, row + in);
}

// Tape row of processing step `step`: rows run in BPTT order, so the last
// processed step is row 0.
//   [0, I)            x_t
//   [I, I+H)          h_prev
//   [I+H, I+5H)       gates i f g o (activated), dz after backward_tape
//   [I+5H, I+6H)      c
//   [I+6H, I+7H)      tanh(c)
void Lstm::forward_tape(const double* x, std::size_t steps, double* tape,
                        double* h, std::size_t ldh) const {
  const std::size_t in = input_;
  const std::size_t hd = hidden_;
  const std::size_t w = tape_width();
  const PackedMatrix& pm = packed();
  for (std::size_t step = 0; step < steps; ++step) {
    const std::size_t t = reverse_ ? steps - 1 - step : step;
    double* row = tape + (steps - 1 - step) * w;
    std::copy(x + t * in, x + (t + 1) * in, row);
    if (step == 0) std::fill(row + in, row + in + hd, 0.0);
    const double* c_prev = step == 0 ? nullptr : row + w + in + 5 * hd;
    double* ht = h + t * ldh;
    cell_step(pm, row, c_prev, ht);
    // The next step's h_prev is the row above.
    if (step + 1 < steps) std::copy(ht, ht + hd, row - w + in);
  }
}

Seq Lstm::forward(const Seq& x) {
  const std::size_t t_len = x.size();
  // Validate the whole sequence BEFORE touching the step/FLOP counters: a
  // rejected pass must not account for work that never ran.
  VKEY_REQUIRE(t_len > 0, "Lstm forward on empty sequence");
  for (const Vec& xt : x)
    VKEY_REQUIRE(xt.size() == input_, "Lstm input width mismatch");
  count_steps(t_len);
  Vec xs(t_len * input_);
  for (std::size_t t = 0; t < t_len; ++t)
    std::copy(x[t].begin(), x[t].end(), xs.begin() + t * input_);
  tape_.resize(t_len * tape_width());
  steps_ = t_len;
  Vec hs(t_len * hidden_);
  forward_tape(xs.data(), t_len, tape_.data(), hs.data(), hidden_);
  Seq out(t_len);
  for (std::size_t t = 0; t < t_len; ++t)
    out[t].assign(hs.begin() + t * hidden_, hs.begin() + (t + 1) * hidden_);
  return out;
}

Seq Lstm::infer(const Seq& x) const {
  const std::size_t t_len = x.size();
  VKEY_REQUIRE(t_len > 0, "Lstm infer on empty sequence");
  for (const Vec& xt : x)
    VKEY_REQUIRE(xt.size() == input_, "Lstm input width mismatch");
  count_steps(t_len);
  trace::ScopedTimer timer(lstm_infer_ms());
  const PackedMatrix& pm = packed();
  Vec row(tape_width());
  infer_begin(row.data());
  Seq out(t_len, Vec(hidden_));
  for (std::size_t step = 0; step < t_len; ++step) {
    const std::size_t t = reverse_ ? t_len - 1 - step : step;
    infer_step(pm, x[t].data(), row.data(), out[t].data());
  }
  return out;
}

Seq Lstm::infer_reference(const Seq& x) const {
  const std::size_t t_len = x.size();
  VKEY_REQUIRE(t_len > 0, "Lstm infer on empty sequence");
  const std::size_t h = hidden_;
  Seq out(t_len);
  Vec hv(h, 0.0), cv(h, 0.0);
  for (std::size_t step_idx = 0; step_idx < t_len; ++step_idx) {
    const std::size_t t = reverse_ ? t_len - 1 - step_idx : step_idx;
    VKEY_REQUIRE(x[t].size() == input_, "Lstm input width mismatch");
    Vec z(4 * h);
    for (std::size_t j = 0; j < 4 * h; ++j) {
      double sum = b_.value[j];
      const double* wx_row = &wx_.value[j * input_];
      for (std::size_t k = 0; k < input_; ++k) sum += wx_row[k] * x[t][k];
      const double* wh_row = &wh_.value[j * h];
      for (std::size_t k = 0; k < h; ++k) sum += wh_row[k] * hv[k];
      z[j] = sum;
    }
    // The scalar element path of the owned transcendentals, so the fused
    // cell's AVX2 gates are held to it bit for bit.
    Vec gi(h), gf(h), gg(h), go(h), c(h), tc(h);
    const std::span<const double> zs(z);
    vmath_scalar::vsigmoid(zs.subspan(0, h), gi);
    vmath_scalar::vsigmoid(zs.subspan(h, h), gf);
    vmath_scalar::vtanh(zs.subspan(2 * h, h), gg);
    vmath_scalar::vsigmoid(zs.subspan(3 * h, h), go);
    for (std::size_t k = 0; k < h; ++k) c[k] = gf[k] * cv[k] + gi[k] * gg[k];
    vmath_scalar::vtanh(c, tc);
    cv = c;
    hv.resize(h);
    for (std::size_t k = 0; k < h; ++k) hv[k] = go[k] * tc[k];
    out[t] = hv;
  }
  return out;
}

void Lstm::backward_tape(double* tape, std::size_t steps, const double* dh,
                         std::size_t ldh, double* carry, double* dx) const {
  const std::size_t in = input_;
  const std::size_t h = hidden_;
  const std::size_t w = tape_width();
  double* dh_rec = carry;
  double* dc_rec = carry + h;
  std::fill(carry, carry + 2 * h, 0.0);
  // Row r is processing step steps - 1 - r: BPTT walks the rows forward.
  for (std::size_t r = 0; r < steps; ++r) {
    const std::size_t step = steps - 1 - r;
    const std::size_t t = reverse_ ? steps - 1 - step : step;
    double* row = tape + r * w;
    double* z = row + in + h;
    const double* tc = row + in + 6 * h;
    const double* c_prev = r + 1 < steps ? row + w + in + 5 * h : nullptr;
    const double* dht = dh + t * ldh;
    for (std::size_t k = 0; k < h; ++k) {
      const double gi = z[k];
      const double gf = z[h + k];
      const double gg = z[2 * h + k];
      const double go = z[3 * h + k];
      const double dhk = dht[k] + dh_rec[k];
      const double d_o = dhk * tc[k];
      const double dc = dhk * go * dtanh_from_y(tc[k]) + dc_rec[k];
      const double d_f = dc * (c_prev != nullptr ? c_prev[k] : 0.0);
      const double d_i = dc * gg;
      const double d_g = dc * gi;
      dc_rec[k] = dc * gf;
      z[k] = d_i * dsigmoid_from_y(gi);
      z[h + k] = d_f * dsigmoid_from_y(gf);
      z[2 * h + k] = d_g * dtanh_from_y(gg);
      z[3 * h + k] = d_o * dsigmoid_from_y(go);
    }
    // Upstream gradients, each element summing over the 4H gates in
    // ascending order: dh_rec = dz Wh, dx_t = dz Wx.
    std::fill(dh_rec, dh_rec + h, 0.0);
    gemm_ordered(1, h, 4 * h, z, 0, 1, wh_.value.data(), h, dh_rec, h);
    if (dx != nullptr) {
      double* dxt = dx + t * in;
      std::fill(dxt, dxt + in, 0.0);
      gemm_ordered(1, in, 4 * h, z, 0, 1, wx_.value.data(), in, dxt, in);
    }
  }
}

void Lstm::accumulate_tape(const double* tape, std::size_t rows) {
  // No data-dependent skipping: every row contributes to every element in
  // row order, which is what keeps the sum independent of the lane count.
  const std::size_t in = input_;
  const std::size_t h = hidden_;
  const std::size_t w = tape_width();
  const double* dz = tape + in + h;  // A = dZ^T: a_row 1, a_col w
  gemm_ordered(4 * h, in, rows, dz, 1, w, tape, w, wx_.grad.data(), in);
  gemm_ordered(4 * h, h, rows, dz, 1, w, tape + in, w, wh_.grad.data(), h);
  const double one = 1.0;  // db += 1 * dz row, row by row
  gemm_ordered(1, 4 * h, rows, &one, 0, 0, dz, w, b_.grad.data(), 4 * h);
}

Seq Lstm::backward(const Seq& grad_out) {
  const std::size_t t_len = steps_;
  VKEY_REQUIRE(t_len > 0, "Lstm backward before forward");
  VKEY_REQUIRE(grad_out.size() == t_len, "Lstm grad length mismatch");
  for (const Vec& g : grad_out)
    VKEY_REQUIRE(g.size() == hidden_, "Lstm grad width mismatch");
  Vec dh(t_len * hidden_);
  for (std::size_t t = 0; t < t_len; ++t)
    std::copy(grad_out[t].begin(), grad_out[t].end(),
              dh.begin() + t * hidden_);
  Vec carry(2 * hidden_);
  Vec dxs(t_len * input_);
  backward_tape(tape_.data(), t_len, dh.data(), hidden_, carry.data(),
                dxs.data());
  accumulate_tape(tape_.data(), t_len);
  steps_ = 0;
  Seq dx(t_len);
  for (std::size_t t = 0; t < t_len; ++t)
    dx[t].assign(dxs.begin() + t * input_, dxs.begin() + (t + 1) * input_);
  return dx;
}

BiLstm::BiLstm(std::size_t input, std::size_t hidden, vkey::Rng& rng)
    : hidden_(hidden),
      fwd_(input, hidden, rng, /*reverse=*/false),
      bwd_(input, hidden, rng, /*reverse=*/true) {}

Seq BiLstm::forward(const Seq& x) {
  const Seq hf = fwd_.forward(x);
  const Seq hb = bwd_.forward(x);
  Seq out(x.size(), Vec(2 * hidden_));
  for (std::size_t t = 0; t < x.size(); ++t) {
    std::copy(hf[t].begin(), hf[t].end(), out[t].begin());
    std::copy(hb[t].begin(), hb[t].end(),
              out[t].begin() + static_cast<std::ptrdiff_t>(hidden_));
  }
  return out;
}

Seq BiLstm::infer(const Seq& x) const {
  const std::size_t t_len = x.size();
  const std::size_t in = fwd_.input_size();
  VKEY_REQUIRE(t_len > 0, "Lstm infer on empty sequence");
  for (const Vec& xt : x)
    VKEY_REQUIRE(xt.size() == in, "Lstm input width mismatch");
  Vec xs(t_len * in);
  for (std::size_t t = 0; t < t_len; ++t)
    std::copy(x[t].begin(), x[t].end(), xs.begin() + t * in);
  Vec hs(t_len * output_size());
  infer_batch(xs.data(), 1, t_len, hs.data());
  Seq out(t_len);
  for (std::size_t t = 0; t < t_len; ++t)
    out[t].assign(hs.begin() + t * output_size(),
                  hs.begin() + (t + 1) * output_size());
  return out;
}

void BiLstm::infer_batch(const double* x, std::size_t batch,
                         std::size_t steps, double* out) const {
  VKEY_REQUIRE(steps > 0, "Lstm infer on empty sequence");
  const std::size_t in = fwd_.input_size();
  const std::size_t width = output_size();
  fwd_.count_steps(batch * steps);
  bwd_.count_steps(batch * steps);
  const PackedMatrix& pf = fwd_.packed();
  const PackedMatrix& pb = bwd_.packed();
  // Each direction's whole state is one tape-layout row (see Lstm); both
  // rows share one allocation.
  const std::size_t w = fwd_.tape_width();
  Vec rows(2 * w);
  double* rf = rows.data();
  double* rb = rows.data() + w;
  for (std::size_t b = 0; b < batch; ++b) {
    trace::ScopedTimer timer(lstm_infer_ms());
    const double* xb = x + b * steps * in;
    double* ob = out + b * steps * width;
    fwd_.infer_begin(rf);
    bwd_.infer_begin(rb);
    for (std::size_t step = 0; step < steps; ++step) {
      const std::size_t tb = steps - 1 - step;
      fwd_.infer_step(pf, xb + step * in, rf, ob + step * width);
      bwd_.infer_step(pb, xb + tb * in, rb, ob + tb * width + hidden_);
    }
  }
}

Seq BiLstm::infer_reference(const Seq& x) const {
  const Seq hf = fwd_.infer_reference(x);
  const Seq hb = bwd_.infer_reference(x);
  Seq out(x.size(), Vec(2 * hidden_));
  for (std::size_t t = 0; t < x.size(); ++t) {
    std::copy(hf[t].begin(), hf[t].end(), out[t].begin());
    std::copy(hb[t].begin(), hb[t].end(),
              out[t].begin() + static_cast<std::ptrdiff_t>(hidden_));
  }
  return out;
}

Seq BiLstm::backward(const Seq& grad_out) {
  const std::size_t t_len = grad_out.size();
  // Guard like Lstm::backward does: reject an empty gradient and a
  // gradient whose length disagrees with the cached forward pass before
  // any indexing happens.
  VKEY_REQUIRE(t_len > 0, "BiLstm backward on empty gradient");
  VKEY_REQUIRE(
      fwd_.cached_steps() == t_len && bwd_.cached_steps() == t_len,
      "BiLstm backward/forward length mismatch");
  Seq gf(t_len, Vec(hidden_)), gb(t_len, Vec(hidden_));
  for (std::size_t t = 0; t < t_len; ++t) {
    VKEY_REQUIRE(grad_out[t].size() == 2 * hidden_,
                 "BiLstm grad width mismatch");
    std::copy(grad_out[t].begin(),
              grad_out[t].begin() + static_cast<std::ptrdiff_t>(hidden_),
              gf[t].begin());
    std::copy(grad_out[t].begin() + static_cast<std::ptrdiff_t>(hidden_),
              grad_out[t].end(), gb[t].begin());
  }
  const Seq dxf = fwd_.backward(gf);
  const Seq dxb = bwd_.backward(gb);
  Seq dx(t_len, Vec(fwd_.input_size(), 0.0));
  for (std::size_t t = 0; t < t_len; ++t) {
    for (std::size_t k = 0; k < dx[t].size(); ++k) {
      dx[t][k] = dxf[t][k] + dxb[t][k];
    }
  }
  return dx;
}

BiLstm::Tapes BiLstm::make_tapes(std::size_t capacity,
                                 std::size_t steps) const {
  Tapes t;
  t.capacity = capacity;
  t.steps = steps;
  t.fwd.resize(capacity * steps * fwd_.tape_width());
  t.bwd.resize(capacity * steps * bwd_.tape_width());
  t.carry.resize(capacity * 4 * hidden_);
  return t;
}

void BiLstm::forward_batch(const double* x, std::size_t batch, Tapes& tapes,
                           double* out, std::size_t threads) const {
  VKEY_REQUIRE(batch <= tapes.capacity && tapes.steps > 0,
               "BiLstm forward_batch exceeds its tapes");
  const std::size_t steps = tapes.steps;
  const std::size_t in = fwd_.input_size();
  const std::size_t width = output_size();
  const std::size_t seq_tape = steps * fwd_.tape_width();
  fwd_.count_steps(batch * steps);
  bwd_.count_steps(batch * steps);
  // Pack on the caller so the lanes only ever read the packed weights.
  (void)fwd_.packed();
  (void)bwd_.packed();
  parallel::parallel_for(
      batch,
      [&](std::size_t b) {
        const double* xb = x + b * steps * in;
        double* ob = out + b * steps * width;
        fwd_.forward_tape(xb, steps, tapes.fwd.data() + b * seq_tape, ob,
                          width);
        bwd_.forward_tape(xb, steps, tapes.bwd.data() + b * seq_tape,
                          ob + hidden_, width);
      },
      threads);
}

void BiLstm::backward_batch(const double* dout, std::size_t batch,
                            Tapes& tapes, std::size_t threads) {
  VKEY_REQUIRE(batch <= tapes.capacity && tapes.steps > 0,
               "BiLstm backward_batch exceeds its tapes");
  const std::size_t steps = tapes.steps;
  const std::size_t width = output_size();
  const std::size_t seq_tape = steps * fwd_.tape_width();
  parallel::parallel_for(
      batch,
      [&](std::size_t b) {
        const double* db = dout + b * steps * width;
        double* carry = tapes.carry.data() + b * 4 * hidden_;
        fwd_.backward_tape(tapes.fwd.data() + b * seq_tape, steps, db, width,
                           carry, nullptr);
        bwd_.backward_tape(tapes.bwd.data() + b * seq_tape, steps,
                           db + hidden_, width, carry + 2 * hidden_, nullptr);
      },
      threads);
  fwd_.accumulate_tape(tapes.fwd.data(), batch * steps);
  bwd_.accumulate_tape(tapes.bwd.data(), batch * steps);
}

std::vector<Parameter*> BiLstm::parameters() {
  auto p = fwd_.parameters();
  const auto pb = bwd_.parameters();
  p.insert(p.end(), pb.begin(), pb.end());
  return p;
}

}  // namespace vkey::nn
