#include "protocol/key_schedule.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/sha256.h"
#include "protocol/channel.h"
#include "protocol/sim_clock.h"
#include "protocol/unreliable_channel.h"

namespace vkey::protocol {
namespace {

BitVec test_secret(std::uint64_t seed = 0x5ec0de) {
  vkey::Rng rng(seed);
  BitVec key(128);
  for (std::size_t i = 0; i < key.size(); ++i) key.set(i, rng.bernoulli(0.5));
  return key;
}

constexpr std::uint64_t kSession = 0xABCDEF01;

KeySchedule::Policy fast_policy() {
  KeySchedule::Policy p;
  p.rekey_interval_ms = 1000.0;
  p.grace_ms = 200.0;
  return p;
}

channel::LoRaParams fast_radio() {
  channel::LoRaParams p;
  p.spreading_factor = 7;  // keep virtual airtimes small in tests
  return p;
}

// ------------------------------------------------------------- derivation

// SecretBuffer deletes operator== (timing side channel); key equality in
// these tests goes through the sanctioned constant_time_equal.
bool same(const crypto::SecretBuffer& a, const crypto::SecretBuffer& b) {
  return crypto::constant_time_equal(a, b);
}

TEST(KeyScheduleDerive, BothPartiesDeriveIdenticalEpochKeys) {
  const auto secret = test_secret().to_bytes();
  const EpochKeys a = derive_epoch_keys(secret, kSession, 0);
  const EpochKeys b = derive_epoch_keys(secret, kSession, 0);
  EXPECT_TRUE(same(a.a2b.enc, b.a2b.enc));
  EXPECT_TRUE(same(a.a2b.mac, b.a2b.mac));
  EXPECT_EQ(a.a2b.nonce_base, b.a2b.nonce_base);
  EXPECT_TRUE(same(a.b2a.enc, b.b2a.enc));
  EXPECT_TRUE(same(a.confirm, b.confirm));
}

TEST(KeyScheduleDerive, DirectionsAndPurposesAreIndependent) {
  const auto secret = test_secret().to_bytes();
  const EpochKeys keys = derive_epoch_keys(secret, kSession, 0);
  EXPECT_FALSE(same(keys.a2b.enc, keys.b2a.enc));
  EXPECT_FALSE(same(keys.a2b.mac, keys.b2a.mac));
  EXPECT_NE(keys.a2b.nonce_base, keys.b2a.nonce_base);
  EXPECT_FALSE(same(keys.a2b.mac, keys.confirm));
  // The 16-byte enc key must not be a prefix of the 32-byte mac key.
  EXPECT_FALSE(crypto::constant_time_equal(
      keys.a2b.mac.expose().subspan(0, 16), keys.a2b.enc.expose()));
}

TEST(KeyScheduleDerive, EpochsSessionsAndSecretsSeparateKeys) {
  const auto secret = test_secret().to_bytes();
  const EpochKeys e0 = derive_epoch_keys(secret, kSession, 0);
  EXPECT_FALSE(same(e0.a2b.enc, derive_epoch_keys(secret, kSession, 1).a2b.enc));
  EXPECT_FALSE(
      same(e0.a2b.enc, derive_epoch_keys(secret, kSession + 1, 0).a2b.enc));
  const auto other = test_secret(0x0ddba11).to_bytes();
  EXPECT_FALSE(same(e0.a2b.enc, derive_epoch_keys(other, kSession, 0).a2b.enc));
}

TEST(KeyScheduleDerive, RatchetIsDeterministicAndOneWayLooking) {
  const auto secret = test_secret().to_bytes();
  const auto next = ratchet_secret(secret, kSession, 1);
  EXPECT_TRUE(same(next, ratchet_secret(secret, kSession, 1)));
  EXPECT_EQ(next.size(), 32u);
  EXPECT_FALSE(crypto::constant_time_equal(next.expose(),
                                           std::span<const std::uint8_t>(secret)));
  EXPECT_FALSE(same(ratchet_secret(secret, kSession, 2), next));
}

// ---------------------------------------------------------- golden vectors
// Pinned outputs of the HKDF label schedule (DESIGN.md §11) for the fixed
// 16-byte secret 00 01 .. 0f, computed independently with Python's
// hmac/hashlib. The relational tests above would still pass if two labels
// were swapped or the epoch left the salt; these would not.

std::vector<std::uint8_t> golden_secret() {
  std::vector<std::uint8_t> s(16);
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i] = static_cast<std::uint8_t>(i);
  }
  return s;
}

// Test-only rendering of derived keys for comparison with the pins.
std::string hex_of(const crypto::SecretBuffer& s) {
  const auto view = s.expose();
  return crypto::to_hex(view.data(), view.size());
}

struct GoldenEpoch {
  const char* a2b_enc;
  const char* a2b_mac;
  std::uint64_t a2b_nonce;
  const char* b2a_enc;
  const char* b2a_mac;
  std::uint64_t b2a_nonce;
  const char* confirm;
};

// Epoch e of session kSession, secret_0 = golden_secret() and
// secret_e = ratchet_secret(secret_{e-1}, kSession, e).
constexpr GoldenEpoch kGoldenEpochs[4] = {
    {"19e49f281a0315183e76e01867c58c32",
     "0188dc8a4123c938e08d2c4d4d55da2b253b44b44ebe94f3363301640746a258",
     0xce9dde6d368509f8ULL, "0a8f920b155f3800ad326632f10db6f4",
     "84b89b0c3cf7d16a6c503915972eb0768a96cb26bb714045fc6da758df2d364a",
     0x7d61e759d7e7da47ULL,
     "43f9625d1f7d91d81e48a204c2c1329e7e136ef585aca9f388469c7cdda54c4e"},
    {"a47d8251e8230cb15abc8f63f038245b",
     "062a705ac45bacae37d0606fa1ebd94108b8f39095cd962efbc3520cd82ef6cf",
     0xed99f1fab03e826aULL, "177ba83f697fa04e74309ab03d573f7a",
     "6a408ac49181e7eb5b22765cb2c4df1576ed4b00d33d8278d9d7fe2e756681e5",
     0x3666730d01a900ffULL,
     "7bde0f1b93af3e8812b4d59e0cad8435952dcec10c8159d5df69f31b3c7db4cd"},
    {"853ea8ec075eb0efdc7e486d9b622181",
     "7b28328d765efe55251645788d22f55f4dc615f44457389f46ab8802e0f46a1c",
     0x7ed5ed02bf1874d7ULL, "e41a27c28a8bb48d32d032e1f2035e08",
     "fa0ac477eb69ca14d604be417399f7b3277f2eb877d9364cb17dcc77982f52fb",
     0x3e57a1f99eb6298fULL,
     "ab274357f317046e972b90a203b006d84cd30a60260388d4719611612004a702"},
    {"dd62b1568eaef699ead4ff22c82f7d43",
     "a778a8308640b85372f44043abfd9fea5af6b3413864f4b1979e56fa593eb4cb",
     0x77eefd26b20af383ULL, "1ed7827f1fe1eebb0263c54dfa40291d",
     "e3db98f1acdae4b1012165caf968bd1c92c4e9e648bfed3c7971627a9aa4bcdd",
     0xdb9688a72dbda790ULL,
     "ec9dbbd57bd78b2f1026859e5abd994b5ee76d35b6552d3175614eedb399a91e"},
};

void expect_golden(const EpochKeys& keys, std::uint32_t epoch) {
  const GoldenEpoch& g = kGoldenEpochs[epoch];
  EXPECT_EQ(keys.epoch, epoch);
  EXPECT_EQ(hex_of(keys.a2b.enc), g.a2b_enc) << "epoch " << epoch;
  EXPECT_EQ(hex_of(keys.a2b.mac), g.a2b_mac) << "epoch " << epoch;
  EXPECT_EQ(keys.a2b.nonce_base, g.a2b_nonce) << "epoch " << epoch;
  EXPECT_EQ(hex_of(keys.b2a.enc), g.b2a_enc) << "epoch " << epoch;
  EXPECT_EQ(hex_of(keys.b2a.mac), g.b2a_mac) << "epoch " << epoch;
  EXPECT_EQ(keys.b2a.nonce_base, g.b2a_nonce) << "epoch " << epoch;
  EXPECT_EQ(hex_of(keys.confirm), g.confirm) << "epoch " << epoch;
}

// The ratchet chain secret_0 .. secret_3 the pins are defined over.
std::vector<crypto::SecretBuffer> golden_chain() {
  std::vector<crypto::SecretBuffer> chain;
  chain.push_back(crypto::SecretBuffer::copy_of(golden_secret()));
  for (std::uint32_t e = 1; e < 4; ++e) {
    chain.push_back(ratchet_secret(chain.back(), kSession, e));
  }
  return chain;
}

TEST(KeyScheduleGolden, EpochKeysMatchPinnedVectors) {
  const auto chain = golden_chain();
  for (std::uint32_t e = 0; e < 4; ++e) {
    expect_golden(derive_epoch_keys(chain[e], kSession, e), e);
  }
}

TEST(KeyScheduleGolden, RatchetMatchesPinnedVectors) {
  const auto secret = golden_secret();
  EXPECT_EQ(hex_of(ratchet_secret(secret, kSession, 1)),
            "1ff9620e235fa53142e56414fe4abc77"
            "53277e0e664984fb29b46a4b54e8009f");
  EXPECT_EQ(hex_of(ratchet_secret(secret, kSession, 3)),
            "5ea2703550c886dbadc7df647bed6ca8"
            "f03b19a6818a00e9650ff4baad5ee3ee");
  EXPECT_EQ(hex_of(ratchet_secret(secret, 7, 1)),
            "6c797b7b201b872e2a933b48164f1a1a"
            "d21580b7824aeae46d3f59f6b03e3313");
  EXPECT_EQ(hex_of(ratchet_secret(secret, 7, 3)),
            "8793ec599a4e84c9580e295fdd516967"
            "0af4fd26a90fb1b46415cf6d4af5e28a");
}

TEST(KeyScheduleGolden, RekeyedScheduleEqualsTheRatchetChain) {
  const BitVec secret = BitVec::from_bytes(golden_secret(), 128);
  for (std::uint32_t n = 0; n < 4; ++n) {
    KeySchedule s(secret, kSession, KeySchedule::Role::kInitiator,
                  fast_policy());
    for (std::uint32_t i = 0; i < n; ++i) s.rekey(1000.0 * (i + 1));
    ASSERT_EQ(s.epoch(), n);
    expect_golden(s.keys(), n);
  }
}

TEST(KeyScheduleGolden, FastForwardThroughOpenEqualsTheRatchetChain) {
  const BitVec secret = BitVec::from_bytes(golden_secret(), 128);
  KeySchedule alice(secret, kSession, KeySchedule::Role::kInitiator,
                    fast_policy());
  KeySchedule bob(secret, kSession, KeySchedule::Role::kResponder,
                  fast_policy());
  for (std::uint32_t e = 1; e < 4; ++e) {
    const double now = 1000.0 * e;
    alice.rekey(now);
    ASSERT_TRUE(bob.open(alice.seal(e, {0x5a}), now).has_value());
    ASSERT_EQ(bob.epoch(), e);
    expect_golden(bob.keys(), e);
  }
  EXPECT_EQ(bob.stats().fast_forwards, 3u);
}

// ------------------------------------------------------------- seal / open

TEST(KeySchedule, SealOpenRoundTripsAcrossRoles) {
  KeySchedule alice(test_secret(), kSession, KeySchedule::Role::kInitiator);
  KeySchedule bob(test_secret(), kSession, KeySchedule::Role::kResponder);
  const std::vector<std::uint8_t> plain{'h', 'e', 'l', 'l', 'o'};

  const Message a2b = alice.seal(1, plain);
  EXPECT_EQ(a2b.type, MessageType::kData);
  const auto at_bob = bob.open(a2b, 0.0);
  ASSERT_TRUE(at_bob.has_value());
  EXPECT_EQ(*at_bob, plain);

  const Message b2a = bob.seal(2, plain);
  const auto at_alice = alice.open(b2a, 0.0);
  ASSERT_TRUE(at_alice.has_value());
  EXPECT_EQ(*at_alice, plain);
  EXPECT_EQ(alice.stats().opened, 1u);
  EXPECT_EQ(bob.stats().opened, 1u);
}

TEST(KeySchedule, ReflectedFramesDoNotAuthenticate) {
  KeySchedule alice(test_secret(), kSession, KeySchedule::Role::kInitiator);
  const Message sealed = alice.seal(1, {1, 2, 3});
  // Alice's own frame bounced back at her: wrong direction keys.
  EXPECT_FALSE(alice.open(sealed, 0.0).has_value());
  EXPECT_EQ(alice.stats().mac_rejects, 1u);
}

TEST(KeySchedule, TamperedCiphertextEpochOrNonceIsRejected) {
  KeySchedule alice(test_secret(), kSession, KeySchedule::Role::kInitiator);
  KeySchedule bob(test_secret(), kSession, KeySchedule::Role::kResponder);

  Message tampered = alice.seal(1, {1, 2, 3, 4});
  tampered.payload.back() ^= 0x01;
  EXPECT_FALSE(bob.open(tampered, 0.0).has_value());

  tampered = alice.seal(2, {1, 2, 3, 4});
  tampered.payload[3] ^= 0x01;  // epoch prefix
  EXPECT_FALSE(bob.open(tampered, 0.0).has_value());

  tampered = alice.seal(3, {1, 2, 3, 4});
  tampered.nonce ^= 1;  // the MAC binds the header too
  EXPECT_FALSE(bob.open(tampered, 0.0).has_value());

  Message short_frame = alice.seal(4, {});
  short_frame.payload.resize(2);  // shorter than the epoch prefix
  EXPECT_FALSE(bob.open(short_frame, 0.0).has_value());
  EXPECT_EQ(bob.stats().malformed, 1u);
  EXPECT_EQ(bob.stats().mac_rejects, 3u);
}

// ------------------------------------------------------------------ rekey

TEST(KeySchedule, RekeyAdvancesEpochAndChangesKeys) {
  KeySchedule alice(test_secret(), kSession, KeySchedule::Role::kInitiator,
                    fast_policy());
  const auto before = alice.keys().a2b.enc;
  EXPECT_FALSE(alice.rekey_due(999.0));
  EXPECT_TRUE(alice.rekey_due(1000.0));
  alice.rekey(1000.0);
  EXPECT_EQ(alice.epoch(), 1u);
  EXPECT_FALSE(same(alice.keys().a2b.enc, before));
  EXPECT_EQ(alice.stats().rekeys, 1u);
}

TEST(KeySchedule, GraceWindowKeepsTheOldEpochOpenableThenExpires) {
  KeySchedule alice(test_secret(), kSession, KeySchedule::Role::kInitiator,
                    fast_policy());
  KeySchedule bob(test_secret(), kSession, KeySchedule::Role::kResponder,
                  fast_policy());
  // Frame sealed under epoch 0, delivered after Bob rekeyed to epoch 1.
  const Message in_flight = alice.seal(1, {0xaa});
  bob.rekey(1000.0);
  const auto within_grace = bob.open(in_flight, 1100.0);
  ASSERT_TRUE(within_grace.has_value());
  EXPECT_EQ(bob.stats().grace_opens, 1u);

  const Message too_late = alice.seal(2, {0xbb});
  EXPECT_FALSE(bob.open(too_late, 1300.0).has_value());  // grace 200 ms over
  EXPECT_EQ(bob.stats().epoch_rejects, 1u);
}

TEST(KeySchedule, PeerThatRekeyedFirstIsAdoptedAfterAuthentication) {
  KeySchedule alice(test_secret(), kSession, KeySchedule::Role::kInitiator,
                    fast_policy());
  KeySchedule bob(test_secret(), kSession, KeySchedule::Role::kResponder,
                  fast_policy());
  alice.rekey(1000.0);  // Alice is at epoch 1, Bob still at 0
  const Message from_next = alice.seal(5, {1, 2, 3});
  const auto plain = bob.open(from_next, 1050.0);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(bob.epoch(), 1u);  // fast-forwarded
  EXPECT_EQ(bob.stats().fast_forwards, 1u);
  // And the direction back now works under the shared epoch 1.
  EXPECT_TRUE(alice.open(bob.seal(6, {4, 5}), 1060.0).has_value());
}

TEST(KeySchedule, ForgedEpochNumberCannotWedgeTheSchedule) {
  KeySchedule bob(test_secret(), kSession, KeySchedule::Role::kResponder,
                  fast_policy());
  // Attacker claims epoch 1 without the keys: MAC fails under the candidate
  // and Bob must NOT move off epoch 0.
  Message forged;
  forged.type = MessageType::kData;
  forged.session_id = kSession;
  forged.nonce = 1;
  forged.payload = {0, 0, 0, 1, 0xde, 0xad};
  forged.mac.assign(32, 0x42);
  EXPECT_FALSE(bob.open(forged, 0.0).has_value());
  EXPECT_EQ(bob.epoch(), 0u);
  EXPECT_EQ(bob.stats().mac_rejects, 1u);

  // Epochs further than one ahead are rejected outright.
  forged.payload = {0, 0, 0, 5, 0xde, 0xad};
  EXPECT_FALSE(bob.open(forged, 0.0).has_value());
  EXPECT_EQ(bob.stats().epoch_rejects, 1u);
}

// ----------------------------------------------------------- confirmation

TEST(KeySchedule, ConfirmRoundTripVerifiesAndRejectsReflection) {
  KeySchedule alice(test_secret(), kSession, KeySchedule::Role::kInitiator);
  KeySchedule bob(test_secret(), kSession, KeySchedule::Role::kResponder);

  const Message confirm = alice.make_confirm(1);
  EXPECT_EQ(confirm.type, MessageType::kKeyConfirm);
  EXPECT_TRUE(bob.verify_confirm(confirm));
  // Reflection: Alice must not accept her own confirm as the peer's.
  EXPECT_FALSE(alice.verify_confirm(confirm));

  const Message ack = bob.make_confirm(2);
  EXPECT_EQ(ack.type, MessageType::kKeyConfirmAck);
  EXPECT_TRUE(alice.verify_confirm(ack));
  EXPECT_FALSE(bob.verify_confirm(ack));
}

TEST(KeySchedule, ConfirmBindsEpochSessionAndTag) {
  KeySchedule alice(test_secret(), kSession, KeySchedule::Role::kInitiator);
  KeySchedule bob(test_secret(), kSession, KeySchedule::Role::kResponder);

  Message tampered = alice.make_confirm(1);
  tampered.mac[5] ^= 0x01;
  EXPECT_FALSE(bob.verify_confirm(tampered));

  tampered = alice.make_confirm(2);
  tampered.payload[3] = 9;  // claim a different epoch
  EXPECT_FALSE(bob.verify_confirm(tampered));

  // A confirm from a different secret never verifies.
  KeySchedule mallory(test_secret(0xbad), kSession,
                      KeySchedule::Role::kInitiator);
  EXPECT_FALSE(bob.verify_confirm(mallory.make_confirm(3)));

  // After Bob rekeys, an old-epoch confirm is stale.
  bob.rekey(1000.0);
  EXPECT_FALSE(bob.verify_confirm(alice.make_confirm(4)));
}

// ------------------------------------------------------------- rekey timer

TEST(RekeyTimerTest, FiresOnScheduleAndAnnouncesEpochs) {
  SimClock clock;
  KeySchedule alice(test_secret(), kSession, KeySchedule::Role::kInitiator,
                    fast_policy());
  std::vector<std::uint32_t> announced;
  RekeyTimer timer(clock, alice,
                   [&](std::uint32_t epoch) { announced.push_back(epoch); });
  timer.start();
  clock.run_until(3500.0);
  EXPECT_EQ(alice.epoch(), 3u);
  EXPECT_EQ(announced, (std::vector<std::uint32_t>{1, 2, 3}));
  timer.stop();
  clock.run_until(10'000.0);
  EXPECT_EQ(alice.epoch(), 3u);  // stopped timers stay stopped
}

TEST(RekeyTimerTest, PeerFastForwardDefersTheNextScheduledRekey) {
  SimClock clock;
  KeySchedule alice(test_secret(), kSession, KeySchedule::Role::kInitiator,
                    fast_policy());
  KeySchedule bob(test_secret(), kSession, KeySchedule::Role::kResponder,
                  fast_policy());
  RekeyTimer timer(clock, bob, {});
  timer.start();

  // At t=600 Alice rekeys (e.g. her own timer elsewhere) and her epoch-1
  // frame fast-forwards Bob. Bob's timer fires at t=1000, sees the rekey is
  // not due, and re-arms for t=1600 instead of double-advancing.
  clock.run_until(600.0);
  alice.rekey(600.0);
  ASSERT_TRUE(bob.open(alice.seal(1, {1}), clock.now_ms()).has_value());
  EXPECT_EQ(bob.epoch(), 1u);

  clock.run_until(1100.0);
  EXPECT_EQ(bob.epoch(), 1u);  // the t=1000 firing did not rekey
  clock.run_until(1700.0);
  EXPECT_EQ(bob.epoch(), 2u);  // the deferred firing did
}

// ------------------------------------- confirmation over the faulty link

TEST(KeyConfirmation, RoundTripSucceedsOnACleanLink) {
  SimClock clock;
  PublicChannel base;
  FaultConfig faults;  // fault-free
  UnreliableChannel link(clock, base, faults, fast_radio());
  KeySchedule alice(test_secret(), kSession, KeySchedule::Role::kInitiator);
  KeySchedule bob(test_secret(), kSession, KeySchedule::Role::kResponder);

  const auto report = run_key_confirmation(clock, link, alice, bob);
  EXPECT_TRUE(report.confirmed);
  EXPECT_EQ(report.transmissions, 1u);
  EXPECT_GT(report.duration_ms, 0.0);
}

TEST(KeyConfirmation, RetransmissionsSurviveALossyLink) {
  // 40% drop + 10% corruption: with 8 transmissions the round trip still
  // completes for every seed below (deterministic — fixed seeds).
  int confirmed = 0;
  std::size_t retransmissions = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SimClock clock;
    PublicChannel base;
    FaultConfig faults;
    faults.drop_prob = 0.4;
    faults.corrupt_prob = 0.1;
    faults.seed = seed;
    UnreliableChannel link(clock, base, faults, fast_radio());
    KeySchedule alice(test_secret(), kSession,
                      KeySchedule::Role::kInitiator);
    KeySchedule bob(test_secret(), kSession, KeySchedule::Role::kResponder);
    const auto report = run_key_confirmation(clock, link, alice, bob);
    if (report.confirmed) ++confirmed;
    retransmissions += report.transmissions - 1;
  }
  EXPECT_GE(confirmed, 18);      // a 0.4-drop link is survivable
  EXPECT_GT(retransmissions, 0u);  // and the retry path was exercised
}

TEST(KeyConfirmation, MismatchedSecretsNeverConfirm) {
  SimClock clock;
  PublicChannel base;
  FaultConfig faults;
  UnreliableChannel link(clock, base, faults, fast_radio());
  KeySchedule alice(test_secret(0xa), kSession,
                    KeySchedule::Role::kInitiator);
  KeySchedule bob(test_secret(0xb), kSession, KeySchedule::Role::kResponder);
  const auto report = run_key_confirmation(clock, link, alice, bob, 4);
  EXPECT_FALSE(report.confirmed);
  EXPECT_EQ(report.transmissions, 4u);  // exhausted the budget
}

}  // namespace
}  // namespace vkey::protocol
