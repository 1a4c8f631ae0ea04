#include "protocol/attacks.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "protocol/session.h"

namespace vkey::protocol {
namespace {

class AttackTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::ReconcilerConfig cfg;
    cfg.key_bits = 64;
    cfg.decoder_units = 64;
    reconciler_ = new core::AutoencoderReconciler(cfg);
    reconciler_->train(2500, 25);
  }
  static void TearDownTestSuite() {
    delete reconciler_;
    reconciler_ = nullptr;
  }

  static BitVec random_key(std::uint64_t seed) {
    vkey::Rng rng(seed);
    BitVec k(64);
    for (std::size_t i = 0; i < 64; ++i) k.set(i, rng.bernoulli(0.5));
    return k;
  }

  static core::AutoencoderReconciler* reconciler_;
};

core::AutoencoderReconciler* AttackTest::reconciler_ = nullptr;

TEST_F(AttackTest, EavesdropperSeesSyndromeButGainsNoKey) {
  const BitVec kb = random_key(1);
  BitVec ka = kb;
  ka.flip(5);
  SessionConfig cfg;
  AliceSession alice(cfg, *reconciler_, ka);
  BobSession bob(cfg, *reconciler_, kb);
  PublicChannel ch;
  ASSERT_TRUE(run_key_agreement_detailed(ch, alice, bob));

  // Eve pulls the syndrome from the transcript.
  const auto syndrome = find_syndrome(ch);
  ASSERT_TRUE(syndrome.has_value());

  // Her key material is uncorrelated: decoding gets her nowhere near K_Bob.
  const BitVec ke = random_key(99);
  const BitVec guess = eavesdrop_attack(*reconciler_, ke, *syndrome);
  EXPECT_LT(guess.agreement(kb), 0.75);
  EXPECT_GT(guess.agreement(kb), 0.25);
}

TEST_F(AttackTest, NoSyndromeInEmptyTranscript) {
  PublicChannel ch;
  EXPECT_FALSE(find_syndrome(ch).has_value());
}

TEST_F(AttackTest, EavesdropAttackValidatesMessageType) {
  Message not_syndrome;
  not_syndrome.type = MessageType::kKeyGenRequest;
  EXPECT_THROW(eavesdrop_attack(*reconciler_, random_key(2), not_syndrome),
               vkey::Error);
}

TEST_F(AttackTest, MitmTamperIsDetectedByMac) {
  const BitVec kb = random_key(3);
  BitVec ka = kb;
  ka.flip(7);
  SessionConfig cfg;
  AliceSession alice(cfg, *reconciler_, ka);
  BobSession bob(cfg, *reconciler_, kb);
  PublicChannel ch;
  install_syndrome_tamper(ch);
  EXPECT_FALSE(run_key_agreement_detailed(ch, alice, bob));
  EXPECT_EQ(alice.state(), SessionState::kFailed);
  EXPECT_EQ(alice.last_reject(), RejectReason::kMacMismatch);
}

TEST_F(AttackTest, ReplayedSyndromeCannotDisturbTheSession) {
  const BitVec kb = random_key(4);
  BitVec ka = kb;
  ka.flip(11);
  SessionConfig cfg;
  AliceSession alice(cfg, *reconciler_, ka);
  BobSession bob(cfg, *reconciler_, kb);
  PublicChannel ch;
  ASSERT_TRUE(run_key_agreement_detailed(ch, alice, bob));

  const auto syndrome = find_syndrome(ch);
  ASSERT_TRUE(syndrome.has_value());
  // Replaying the captured syndrome bit-identically is indistinguishable
  // from an ARQ retransmission: it is suppressed as a duplicate (the cached
  // response is re-elicited) and the established state is untouched.
  alice.handle(make_replay(*syndrome));
  EXPECT_EQ(alice.last_reject(), RejectReason::kDuplicate);
  EXPECT_EQ(alice.state(), SessionState::kEstablished);

  // A *modified* replay under the old nonce is an attack: rejected outright.
  Message forged = make_replay(*syndrome);
  forged.payload[0] ^= 0xff;
  EXPECT_FALSE(alice.handle(forged).has_value());
  EXPECT_EQ(alice.last_reject(), RejectReason::kReplayedNonce);
  EXPECT_EQ(alice.state(), SessionState::kEstablished);
}

TEST_F(AttackTest, TamperInterceptorPassesOtherTraffic) {
  PublicChannel ch;
  install_syndrome_tamper(ch);
  Message req;
  req.type = MessageType::kKeyGenRequest;
  req.session_id = 1;
  req.nonce = 1;
  ch.send(req);
  const auto got = ch.receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, req);  // untouched
}

}  // namespace
}  // namespace vkey::protocol
