#include "core/pipeline.h"

#include <cmath>
#include <optional>
#include <utility>

#include "common/error.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/trace.h"

namespace vkey::core {

KeyGenPipeline::KeyGenPipeline(const PipelineConfig& config) : cfg_(config) {
  VKEY_REQUIRE(cfg_.reconciler.key_bits % cfg_.predictor.key_bits == 0,
               "reconciler block must be a multiple of the fragment width");
  VKEY_REQUIRE(cfg_.dataset.seq_len == cfg_.predictor.seq_len,
               "dataset and predictor sequence lengths must match");
  // The reconciler trains inside run(); unless the caller pinned its lane
  // count explicitly it inherits the pipeline-wide setting.
  if (cfg_.reconciler.threads == 0) cfg_.reconciler.threads = cfg_.threads;
}

PredictorQuantizer& KeyGenPipeline::predictor() {
  VKEY_REQUIRE(predictor_.has_value(), "run() has not trained a predictor");
  return *predictor_;
}

AutoencoderReconciler& KeyGenPipeline::reconciler() {
  VKEY_REQUIRE(reconciler_.has_value(), "run() has not trained a reconciler");
  return *reconciler_;
}

PipelineMetrics KeyGenPipeline::run(std::size_t train_rounds,
                                    std::size_t test_rounds) {
  VKEY_REQUIRE(test_rounds >= 1, "need test rounds");
  // One function-local static per instrument: the registry is searched
  // once per process, and each event afterwards is a relaxed atomic.
  static metrics::Registry& reg = metrics::Registry::global();
  static metrics::Histogram& run_ms = reg.histogram("pipeline.stage.run_ms");
  static metrics::Histogram& probe_ms =
      reg.histogram("pipeline.stage.probe_ms");
  static metrics::Histogram& extract_ms =
      reg.histogram("pipeline.stage.extract_ms");
  static metrics::Histogram& train_pred_ms =
      reg.histogram("pipeline.stage.train_predictor_ms");
  static metrics::Histogram& train_rec_ms =
      reg.histogram("pipeline.stage.train_reconciler_ms");
  static metrics::Histogram& predict_ms =
      reg.histogram("pipeline.stage.predict_ms");
  static metrics::Histogram& quantize_ms =
      reg.histogram("pipeline.stage.quantize_ms");
  static metrics::Histogram& reconcile_ms =
      reg.histogram("pipeline.stage.reconcile_ms");
  static metrics::Histogram& eval_ms = reg.histogram("pipeline.stage.eval_ms");
  static metrics::Counter& runs = reg.counter("pipeline.runs");
  static metrics::Counter& quantized_bits =
      reg.counter("pipeline.bits.quantized");
  static metrics::Counter& blocks_total = reg.counter("pipeline.blocks.total");
  static metrics::Counter& blocks_success =
      reg.counter("pipeline.blocks.success");
  static metrics::Counter& reconciled_bits =
      reg.counter("pipeline.bits.reconciled");
  static metrics::Counter& agreed_bits = reg.counter("pipeline.bits.agreed");
  runs.add(1);

  channel::TraceGenerator gen(cfg_.trace);

  // Root of the run's span tree: every stage timer below (and, through the
  // pool's lane annotation, every span opened inside parallel fan-out)
  // parents under it.
  trace::ScopedTimer run_timer(run_ms, "pipeline.run");
  run_timer.attr("train_rounds", train_rounds)
      .attr("test_rounds", test_rounds)
      .attr("threads", cfg_.threads);

  // --- data collection ---
  trace::ScopedTimer probe_timer(probe_ms, "pipeline.probe");
  const auto train_trace = gen.generate(train_rounds);
  const auto test_trace = gen.generate(test_rounds);
  probe_timer.stop();

  trace::ScopedTimer extract_timer(extract_ms, "pipeline.extract");
  const auto train_streams = extract_streams(
      train_trace, cfg_.dataset.extractor, cfg_.dataset.reciprocal_windows);
  const auto test_streams = extract_streams(
      test_trace, cfg_.dataset.extractor, cfg_.dataset.reciprocal_windows);
  DatasetConfig train_ds = cfg_.dataset;
  train_ds.stride = cfg_.train_stride;
  DatasetConfig test_ds = cfg_.dataset;
  test_ds.stride = 0;  // non-overlapping evaluation windows
  const auto train_samples = make_samples(train_streams, train_ds);
  test_samples_ = make_samples(test_streams, test_ds);
  const auto& test_samples = test_samples_;
  extract_timer.stop();
  VKEY_REQUIRE(!test_samples.empty(), "test segment produced no samples");

  // --- training ---
  if (cfg_.use_prediction) {
    VKEY_REQUIRE(!train_samples.empty(), "train segment produced no samples");
    trace::ScopedTimer t(train_pred_ms, "pipeline.train_predictor");
    predictor_.emplace(cfg_.predictor);
    predictor_->train(train_samples, cfg_.predictor_epochs);
  }
  {
    trace::ScopedTimer t(train_rec_ms, "pipeline.train_reconciler");
    reconciler_.emplace(cfg_.reconciler);
    reconciler_->train(cfg_.reconciler_samples, cfg_.reconciler_epochs);
  }

  // --- evaluation ---
  // Every per-sample and per-block step below is a pure function of the
  // trained (now immutable) models, so the stage fans out through the
  // deterministic pool: results land in index-addressed slots and every
  // order-sensitive reduction runs on this thread in index order, which
  // keeps the output bit-identical for any thread count.
  trace::ScopedTimer eval_timer(eval_ms, "pipeline.eval");
  const std::size_t frag_bits = cfg_.predictor.key_bits;
  const std::size_t block_bits = cfg_.reconciler.key_bits;

  // The multi-bit fallback is only needed for the Fig. 10 ablation branch;
  // the normal prediction path never constructs it.
  std::optional<MultiBitQuantizer> fallback_quant;
  if (!cfg_.use_prediction) {
    QuantizerConfig qc = cfg_.dataset.quantizer;
    qc.guard_band_ratio = 0.0;
    qc.block_size = std::min(qc.block_size, cfg_.dataset.seq_len);
    fallback_quant.emplace(qc);
  }

  struct Fragment {
    BitVec alice, eve;
  };
  std::vector<Fragment> fragments;
  if (cfg_.use_prediction) {
    // Chunked, batched prediction: windows are grouped into fixed-size
    // chunks and each chunk runs through PredictorQuantizer::infer_batch
    // so the Dense heads make one blocked pass per chunk. The chunk
    // geometry depends only on the sample count — never on the lane
    // count — and the batched path is bit-identical per member to
    // sequential infer(), so the output stays byte-stable for any
    // `threads` value (see DESIGN.md "Parallel execution & determinism
    // contract").
    constexpr std::size_t kPredictChunk = 16;
    const std::size_t n = test_samples.size();
    const std::size_t n_chunks = (n + kPredictChunk - 1) / kPredictChunk;
    fragments.assign(n, Fragment{});
    parallel::parallel_for(
        n_chunks,
        [&](std::size_t c) {
          const std::size_t lo = c * kPredictChunk;
          const std::size_t hi = std::min(n, lo + kPredictChunk);
          trace::ScopedTimer t(predict_ms, "pipeline.predict_chunk");
          t.attr("chunk", c).attr("windows", 2 * (hi - lo));
          std::vector<nn::Vec> windows;
          windows.reserve(2 * (hi - lo));
          for (std::size_t i = lo; i < hi; ++i) {
            windows.push_back(test_samples[i].alice_seq);
            windows.push_back(test_samples[i].eve_seq);
          }
          const auto outs = predictor_->infer_batch(windows);
          for (std::size_t i = lo; i < hi; ++i) {
            fragments[i].alice = outs[2 * (i - lo)].bits;
            fragments[i].eve = outs[2 * (i - lo) + 1].bits;
            quantized_bits.add(fragments[i].alice.size());
          }
        },
        cfg_.threads);
  } else {
    fragments = parallel::parallel_map(
        test_samples,
        [&](const TrainingSample& s, std::size_t) {
          // Ablation: Alice quantizes her own window directly.
          Fragment f;
          trace::ScopedTimer t(quantize_ms);
          std::vector<double> a(s.alice_seq.begin(), s.alice_seq.end());
          std::vector<double> e(s.eve_seq.begin(), s.eve_seq.end());
          f.alice = fallback_quant->quantize(a).bits;
          f.eve = fallback_quant->quantize(e).bits;
          // Pad/trim to the fragment width (guard bands disabled, so sizes
          // normally already match).
          while (f.alice.size() < frag_bits) f.alice.push_back(false);
          f.alice = f.alice.slice(0, frag_bits);
          while (f.eve.size() < frag_bits) f.eve.push_back(false);
          f.eve = f.eve.slice(0, frag_bits);
          quantized_bits.add(f.alice.size());
          return f;
        },
        cfg_.threads);
  }

  // Concatenate the fixed-width fragments once; blocks then read at bit
  // offsets instead of repeatedly re-slicing shrinking accumulators.
  BitVec alice_bits, bob_bits, eve_bits;
  for (std::size_t i = 0; i < fragments.size(); ++i) {
    VKEY_REQUIRE(fragments[i].alice.size() == frag_bits &&
                     test_samples[i].bob_bits.size() == frag_bits,
                 "fragment width mismatch");
    alice_bits.append(fragments[i].alice);
    eve_bits.append(fragments[i].eve);
    bob_bits.append(test_samples[i].bob_bits);
  }

  const std::size_t n_blocks = alice_bits.size() / block_bits;
  VKEY_REQUIRE(n_blocks >= 1, "not enough test data for one key block");
  blocks_.assign(n_blocks, KeyBlockResult{});
  parallel::parallel_for(
      n_blocks,
      [&](std::size_t b) {
        const std::size_t off = b * block_bits;
        KeyBlockResult blk;
        blk.bob_key = bob_bits.slice(off, block_bits);
        const BitVec ka = alice_bits.slice(off, block_bits);
        const BitVec ke = eve_bits.slice(off, block_bits);
        blk.alice_raw = ka;
        blk.kar_pre = ka.agreement(blk.bob_key);
        {
          trace::ScopedTimer t(reconcile_ms, "pipeline.reconcile_block");
          t.attr("block", b);
          const auto y_bob = reconciler_->encode_bob(blk.bob_key);
          blk.alice_corrected = reconciler_->reconcile(ka, y_bob);
          blk.kar_post = blk.alice_corrected.agreement(blk.bob_key);
          blk.success = blk.alice_corrected == blk.bob_key;
          // Eve eavesdrops y_Bob and runs the public decoder with her key:
          // one-shot (the paper's Fig. 15 attack) and iterative (stronger).
          blk.eve_kar_post =
              reconciler_->reconcile_one_shot(ke, y_bob).agreement(
                  blk.bob_key);
          blk.eve_kar_iterative =
              reconciler_->reconcile(ke, y_bob).agreement(blk.bob_key);
        }
        blocks_[b] = std::move(blk);
      },
      cfg_.threads);

  // Ordered reduction over the finished blocks.
  std::vector<double> kar_pre_list, kar_post_list, eve_list, eve_iter_list;
  std::size_t success = 0;
  kar_pre_list.reserve(n_blocks);
  kar_post_list.reserve(n_blocks);
  eve_list.reserve(n_blocks);
  eve_iter_list.reserve(n_blocks);
  for (const auto& blk : blocks_) {
    blocks_total.add(1);
    reconciled_bits.add(block_bits);
    if (blk.success) {
      blocks_success.add(1);
      agreed_bits.add(block_bits);
      ++success;
    }
    kar_pre_list.push_back(blk.kar_pre);
    kar_post_list.push_back(blk.kar_post);
    eve_list.push_back(blk.eve_kar_post);
    eve_iter_list.push_back(blk.eve_kar_iterative);
  }
  eval_timer.stop();

  PipelineMetrics m;
  m.blocks = blocks_.size();
  m.mean_kar_pre = vkey::stats::mean(kar_pre_list);
  m.mean_kar_post = vkey::stats::mean(kar_post_list);
  m.std_kar_post = kar_post_list.size() >= 2
                       ? vkey::stats::sample_stddev(kar_post_list)
                       : 0.0;
  m.key_success_rate =
      static_cast<double>(success) / static_cast<double>(blocks_.size());
  m.mean_eve_kar = vkey::stats::mean(eve_list);
  m.mean_eve_kar_iterative = vkey::stats::mean(eve_iter_list);
  m.test_duration_s = static_cast<double>(test_rounds) * gen.round_duration();
  // Key generation rate (the convention of the LoRa key-generation
  // literature): net secret bits produced per second of channel use —
  // matched post-reconciliation bits, minus the public-syndrome leakage
  // (code_dim values leak at most code_dim bits; privacy amplification
  // discounts them). The same accounting is applied to every baseline.
  const double net_bits_per_block =
      std::max(0.0, static_cast<double>(cfg_.reconciler.key_bits) -
                        static_cast<double>(cfg_.reconciler.code_dim));
  // Guard the division: a zero-duration trace (degenerate PHY/interval
  // configuration) must not push inf/nan into the JSON exporters.
  m.kgr_bits_per_s = m.test_duration_s > 0.0
                         ? static_cast<double>(blocks_.size()) *
                               net_bits_per_block * m.mean_kar_post /
                               m.test_duration_s
                         : 0.0;
  return m;
}

BitVec KeyGenPipeline::amplified_key_stream() const {
  VKEY_REQUIRE(!blocks_.empty(), "run() produced no blocks");
  static metrics::Registry& reg = metrics::Registry::global();
  static metrics::Histogram& amplify_ms =
      reg.histogram("pipeline.stage.amplify_ms");
  static metrics::Counter& amplified_bits =
      reg.counter("pipeline.bits.amplified");
  trace::ScopedTimer t(amplify_ms, "pipeline.amplify");
  BitVec stream;
  std::uint64_t salt = 0;
  for (const auto& blk : blocks_) {
    if (!blk.success) continue;
    stream.append(amplifier_.amplify(blk.alice_corrected, salt++));
  }
  amplified_bits.add(stream.size());
  return stream;
}

}  // namespace vkey::core
