#include "protocol/session.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "core/reconciler.h"
#include "crypto/sha256.h"

namespace vkey::protocol {
namespace {

// One shared trained reconciler for all session tests (training is the
// expensive part).
class SessionTest : public ::testing::Test {
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

  static BitVec with_flips(const BitVec& k, int flips, std::uint64_t seed) {
    vkey::Rng rng(seed);
    BitVec out = k;
    for (int f = 0; f < flips; ++f) {
      out.flip(static_cast<std::size_t>(rng.uniform_int(out.size())));
    }
    return out;
  }

  static core::AutoencoderReconciler* reconciler_;
};

core::AutoencoderReconciler* SessionTest::reconciler_ = nullptr;

TEST_F(SessionTest, HappyPathEstablishesSameKey) {
  const BitVec kb = random_key(1);
  const BitVec ka = with_flips(kb, 3, 2);
  SessionConfig cfg;
  AliceSession alice(cfg, *reconciler_, ka);
  BobSession bob(cfg, *reconciler_, kb);
  PublicChannel ch;
  EXPECT_TRUE(run_key_agreement_detailed(ch, alice, bob));
  EXPECT_EQ(alice.state(), SessionState::kEstablished);
  EXPECT_EQ(bob.state(), SessionState::kEstablished);
  EXPECT_EQ(alice.final_key(), bob.final_key());
  EXPECT_EQ(alice.final_key().size(), 128u);
}

TEST_F(SessionTest, IdenticalKeysAlsoWork) {
  const BitVec k = random_key(3);
  SessionConfig cfg;
  AliceSession alice(cfg, *reconciler_, k);
  BobSession bob(cfg, *reconciler_, k);
  PublicChannel ch;
  EXPECT_TRUE(run_key_agreement_detailed(ch, alice, bob));
}

TEST_F(SessionTest, HopelessMismatchFailsCleanly) {
  // Totally uncorrelated keys: reconciliation cannot fix them; the MAC
  // check must catch it and fail the session rather than "succeed" with
  // different keys.
  const BitVec kb = random_key(4);
  const BitVec ka = random_key(5);
  SessionConfig cfg;
  AliceSession alice(cfg, *reconciler_, ka);
  BobSession bob(cfg, *reconciler_, kb);
  PublicChannel ch;
  EXPECT_FALSE(run_key_agreement_detailed(ch, alice, bob));
  EXPECT_NE(alice.state(), SessionState::kEstablished);
}

TEST_F(SessionTest, SessionIdMismatchRejected) {
  const BitVec k = random_key(6);
  SessionConfig cfg;
  BobSession bob(cfg, *reconciler_, k);
  Message req;
  req.type = MessageType::kKeyGenRequest;
  req.session_id = 999;  // wrong session
  req.nonce = 1;
  EXPECT_FALSE(bob.handle(req).has_value());
  EXPECT_EQ(bob.last_reject(), RejectReason::kBadSession);
}

TEST_F(SessionTest, DuplicateRetransmissionDistinctFromReplay) {
  const BitVec k = random_key(7);
  SessionConfig cfg;
  BobSession bob(cfg, *reconciler_, k);
  Message req;
  req.type = MessageType::kKeyGenRequest;
  req.session_id = cfg.session_id;
  req.nonce = 5;
  const auto first = bob.handle(req);
  ASSERT_TRUE(first.has_value());

  // A bit-identical retransmission is benign ARQ behaviour: it re-elicits
  // the original response and is surfaced as kDuplicate, not an attack.
  const auto again = bob.handle(req);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, *first);
  EXPECT_EQ(bob.last_reject(), RejectReason::kDuplicate);
  EXPECT_EQ(bob.duplicates_suppressed(), 1u);

  // Same nonce with different content is a forged replay: rejected.
  Message forged = req;
  forged.payload = {0xde, 0xad};
  EXPECT_FALSE(bob.handle(forged).has_value());
  EXPECT_EQ(bob.last_reject(), RejectReason::kReplayedNonce);
  EXPECT_GE(bob.rejected_count(), 1u);

  // An old, never-accepted nonce is also a replay.
  Message stale = req;
  stale.nonce = 4;
  EXPECT_FALSE(bob.handle(stale).has_value());
  EXPECT_EQ(bob.last_reject(), RejectReason::kReplayedNonce);
}

TEST_F(SessionTest, SyndromeRequiresAcceptedSession) {
  const BitVec k = random_key(8);
  SessionConfig cfg;
  BobSession bob(cfg, *reconciler_, k);
  EXPECT_THROW(bob.make_syndrome(), vkey::Error);
}

TEST_F(SessionTest, FinalKeyBeforeEstablishmentThrows) {
  const BitVec k = random_key(9);
  SessionConfig cfg;
  AliceSession alice(cfg, *reconciler_, k);
  EXPECT_THROW(alice.final_key(), vkey::Error);
}

TEST_F(SessionTest, KeyWidthValidated) {
  SessionConfig cfg;
  EXPECT_THROW(BobSession(cfg, *reconciler_, BitVec(32)), vkey::Error);
  EXPECT_THROW(AliceSession(cfg, *reconciler_, BitVec(32)), vkey::Error);
}

TEST_F(SessionTest, StateStringsAreHumanReadable) {
  EXPECT_EQ(to_string(SessionState::kEstablished), "established");
  EXPECT_EQ(to_string(RejectReason::kMacMismatch), "mac-mismatch");
}

TEST(SecureLink, SealOpenRoundTrip) {
  vkey::Rng rng(10);
  BitVec key(128);
  for (std::size_t i = 0; i < 128; ++i) key.set(i, rng.bernoulli(0.5));
  SecureLink link(key);
  const std::vector<std::uint8_t> payload{'h', 'e', 'l', 'l', 'o'};
  const Message sealed = link.seal(1, 7, payload);
  EXPECT_NE(sealed.payload, payload);  // actually encrypted
  const auto opened = link.open(sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, payload);
}

TEST(SecureLink, TamperDetected) {
  vkey::Rng rng(11);
  BitVec key(128);
  for (std::size_t i = 0; i < 128; ++i) key.set(i, rng.bernoulli(0.5));
  SecureLink link(key);
  Message sealed = link.seal(1, 7, {1, 2, 3, 4});
  sealed.payload[0] ^= 0x01;
  EXPECT_FALSE(link.open(sealed).has_value());
}

TEST(SecureLink, WrongKeyCannotOpen) {
  vkey::Rng rng(12);
  BitVec k1(128), k2(128);
  for (std::size_t i = 0; i < 128; ++i) {
    k1.set(i, rng.bernoulli(0.5));
    k2.set(i, rng.bernoulli(0.5));
  }
  const Message sealed = SecureLink(k1).seal(1, 7, {1, 2, 3});
  EXPECT_FALSE(SecureLink(k2).open(sealed).has_value());
}

TEST(SecureLink, RequiresFullWidthKey) {
  EXPECT_THROW(SecureLink(BitVec(64)), vkey::Error);
}

TEST(SecureLink, DistinctNoncesDistinctCiphertexts) {
  vkey::Rng rng(13);
  BitVec key(128);
  for (std::size_t i = 0; i < 128; ++i) key.set(i, rng.bernoulli(0.5));
  SecureLink link(key);
  const std::vector<std::uint8_t> payload(24, 0x55);
  EXPECT_NE(link.seal(1, 1, payload).payload,
            link.seal(1, 2, payload).payload);
}

TEST(SecureLink, CrossSessionIdRejected) {
  vkey::Rng rng(14);
  BitVec key(128);
  for (std::size_t i = 0; i < 128; ++i) key.set(i, rng.bernoulli(0.5));
  SecureLink link(key);
  Message sealed = link.seal(1, 1, {9, 9, 9});
  sealed.session_id = 2;  // spliced into another session
  EXPECT_FALSE(link.open(sealed).has_value());  // MAC covers the header
}

TEST(SecureLink, SubkeysArePinned) {
  // Ciphertext pins the AES subkey and the tag pins the MAC subkey
  // ("vkey-v1 encryption" / "vkey-v1 mac" under one HKDF-Extract of the
  // key 00 01 .. 0f), so a change in how the subkeys are derived shows.
  std::vector<std::uint8_t> bytes(16);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i);
  }
  const SecureLink link(BitVec::from_bytes(bytes, 128));
  const Message sealed = link.seal(3, 9, {'p', 'i', 'n', 'n', 'e', 'd'});
  EXPECT_EQ(crypto::to_hex(sealed.payload.data(), sealed.payload.size()),
            "5662f4662b32");
  EXPECT_EQ(crypto::to_hex(sealed.mac.data(), sealed.mac.size()),
            "206925749a2408b1d078c2ee32d678aeca2b9f4dd13e377905ff4699d1fd4fc6");
}

}  // namespace
}  // namespace vkey::protocol
