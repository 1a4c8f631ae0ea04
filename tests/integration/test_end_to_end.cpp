// Full-stack integration: channel simulation -> key material -> protocol
// session -> AES-protected payload exchange, exactly the workflow the
// quickstart example demonstrates.
#include <gtest/gtest.h>

#include "core/dataset.h"
#include "core/pipeline.h"
#include "protocol/attacks.h"
#include "protocol/session.h"

namespace vkey {
namespace {

class EndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::PipelineConfig cfg;
    cfg.trace.scenario =
        channel::make_scenario(channel::ScenarioKind::kV2IRural, 50.0);
    cfg.trace.seed = 31337;
    cfg.predictor.hidden = 8;
    cfg.predictor_epochs = 4;
    cfg.reconciler.decoder_units = 64;
    cfg.reconciler_epochs = 20;
    cfg.reconciler_samples = 2000;
    cfg.use_prediction = false;  // keep the suite fast
    pipeline_ = new core::KeyGenPipeline(cfg);
    metrics_ = pipeline_->run(120, 250);
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }

  static core::KeyGenPipeline* pipeline_;
  static core::PipelineMetrics metrics_;
};

core::KeyGenPipeline* EndToEnd::pipeline_ = nullptr;
core::PipelineMetrics EndToEnd::metrics_;

TEST_F(EndToEnd, ChannelMaterialReachesProtocolGrade) {
  EXPECT_GT(metrics_.mean_kar_post, 0.90);
}

TEST_F(EndToEnd, SessionOverRealKeyMaterial) {
  // Pick a reconcilable block from the pipeline and run the full message
  // protocol over it.
  const core::KeyBlockResult* block = nullptr;
  for (const auto& blk : pipeline_->blocks()) {
    if (blk.success) {
      block = &blk;
      break;
    }
  }
  ASSERT_NE(block, nullptr) << "no reconcilable block in the test trace";

  protocol::SessionConfig cfg;
  cfg.session_id = 7;
  // Alice holds her raw (pre-reconciliation) key; Bob holds his.
  const BitVec ka = block->alice_corrected ^
                    (block->alice_corrected ^ block->bob_key);  // == bob_key
  protocol::AliceSession alice(cfg, pipeline_->reconciler(),
                               block->alice_corrected);
  protocol::BobSession bob(cfg, pipeline_->reconciler(), block->bob_key);
  protocol::PublicChannel ch;
  EXPECT_TRUE(run_key_agreement_detailed(ch, alice, bob));
  (void)ka;

  // And the established key protects traffic end to end.
  protocol::SecureLink alice_link(alice.final_key());
  protocol::SecureLink bob_link(bob.final_key());
  const std::vector<std::uint8_t> v2v_msg{'b', 'r', 'a', 'k', 'e', '!'};
  const auto sealed = alice_link.seal(cfg.session_id, 100, v2v_msg);
  const auto opened = bob_link.open(sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, v2v_msg);
}

TEST_F(EndToEnd, EveCannotDecryptTraffic) {
  const core::KeyBlockResult* block = nullptr;
  for (const auto& blk : pipeline_->blocks()) {
    if (blk.success) {
      block = &blk;
      break;
    }
  }
  ASSERT_NE(block, nullptr);

  protocol::SessionConfig cfg;
  protocol::AliceSession alice(cfg, pipeline_->reconciler(),
                               block->alice_corrected);
  protocol::BobSession bob(cfg, pipeline_->reconciler(), block->bob_key);
  protocol::PublicChannel ch;
  ASSERT_TRUE(run_key_agreement_detailed(ch, alice, bob));

  protocol::SecureLink alice_link(alice.final_key());
  const auto sealed = alice_link.seal(cfg.session_id, 5, {1, 2, 3});

  // Eve guesses a key from the syndrome + her own material.
  const auto syndrome = protocol::find_syndrome(ch);
  ASSERT_TRUE(syndrome.has_value());
  vkey::Rng rng(123);
  BitVec ke(64);
  for (std::size_t i = 0; i < 64; ++i) ke.set(i, rng.bernoulli(0.5));
  const BitVec eve_raw =
      protocol::eavesdrop_attack(pipeline_->reconciler(), ke, *syndrome);
  const core::PrivacyAmplifier amp(128);
  protocol::SecureLink eve_link(amp.amplify(eve_raw, cfg.session_id));
  EXPECT_FALSE(eve_link.open(sealed).has_value());
}

TEST_F(EndToEnd, AmplifiedKeysLookRandomEnoughForNist) {
  // Not the full Table II battery (the bench covers that) — a smoke check
  // that amplified material is at least balanced.
  const BitVec stream = pipeline_->amplified_key_stream();
  if (stream.size() >= 256) {
    const double ones = static_cast<double>(stream.weight()) /
                        static_cast<double>(stream.size());
    EXPECT_NEAR(ones, 0.5, 0.15);
  }
}

}  // namespace
}  // namespace vkey
