// Quickstart: establish a shared 128-bit key between two simulated
// LoRa-equipped vehicles and use it to protect a payload.
//
// The five-minute tour of the public API:
//   1. KeyGenPipeline simulates channel probing, trains the BiLSTM
//      prediction/quantization model and the autoencoder reconciler, and
//      produces reconciled key blocks.
//   2. AliceSession/BobSession run the authenticated agreement protocol
//      (syndrome + MAC, key confirmation, replay protection).
//   3. SecureLink protects traffic with AES-128-CTR + HMAC.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/pipeline.h"
#include "protocol/session.h"

int main() {
  using namespace vkey;

  // --- 1. channel probing + key generation -------------------------------
  core::PipelineConfig cfg;
  cfg.trace.scenario =
      channel::make_scenario(channel::ScenarioKind::kV2IRural, /*speed=*/50.0);
  cfg.trace.seed = 2025;
  cfg.predictor.hidden = 16;   // small model: quickstart favours speed
  cfg.predictor_epochs = 10;
  cfg.reconciler_epochs = 15;
  cfg.reconciler_samples = 1500;

  std::printf("Probing the channel and training Vehicle-Key models...\n");
  core::KeyGenPipeline pipeline(cfg);
  const auto metrics = pipeline.run(/*train_rounds=*/300, /*test_rounds=*/200);

  std::printf("  key agreement rate: %.2f%% (pre-reconciliation %.2f%%)\n",
              100.0 * metrics.mean_kar_post, 100.0 * metrics.mean_kar_pre);
  std::printf("  key generation rate: %.2f bit/s over %.0f s of probing\n",
              metrics.kgr_bits_per_s, metrics.test_duration_s);
  std::printf("  eavesdropper agreement: %.2f%% (chance = 50%%)\n",
              100.0 * metrics.mean_eve_kar);

  // --- 2. authenticated key agreement over the public channel ------------
  const core::KeyBlockResult* block = nullptr;
  for (const auto& blk : pipeline.blocks()) {
    if (blk.success) {
      block = &blk;
      break;
    }
  }
  if (block == nullptr) {
    std::printf("no reconcilable block in this short demo trace; rerun\n");
    return 1;
  }

  protocol::SessionConfig session_cfg;
  session_cfg.session_id = 1;
  protocol::AliceSession alice(session_cfg, pipeline.reconciler(),
                               block->alice_corrected);
  protocol::BobSession bob(session_cfg, pipeline.reconciler(),
                           block->bob_key);
  protocol::PublicChannel channel;
  if (!run_key_agreement_detailed(channel, alice, bob)) {
    std::printf("key agreement failed\n");
    return 1;
  }
  std::printf("Protocol complete: both sides confirmed the same key "
              "(%zu protocol messages on the air).\n",
              channel.transcript().size());

  // --- 3. protected V2V traffic ------------------------------------------
  protocol::SecureLink alice_link(alice.final_key());
  protocol::SecureLink bob_link(bob.final_key());
  const std::vector<std::uint8_t> warning{'I', 'C', 'Y', ' ', 'R', 'O',
                                          'A', 'D', ' ', 'A', 'H', 'E',
                                          'A', 'D'};
  const auto sealed = alice_link.seal(session_cfg.session_id, 100, warning);
  const auto opened = bob_link.open(sealed);
  if (!opened || *opened != warning) {
    std::printf("payload protection failed\n");
    return 1;
  }
  std::printf("Bob decrypted Alice's warning: \"%.*s\"\n",
              static_cast<int>(opened->size()),
              reinterpret_cast<const char*>(opened->data()));
  std::printf("Quickstart OK.\n");
  return 0;
}
