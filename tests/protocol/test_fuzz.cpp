// Robustness fuzzing of the wire-facing surfaces: whatever bytes arrive
// from the public channel, the parser and the session state machines must
// never crash, hang or corrupt state — they reject and move on.
#include <gtest/gtest.h>

#include <deque>
#include <optional>

#include "common/rng.h"
#include "core/reconciler.h"
#include "protocol/flight_recorder.h"
#include "protocol/message.h"
#include "protocol/session.h"
#include "protocol/wire.h"

namespace vkey::protocol {
namespace {

TEST(Fuzz, DeserializeNeverCrashesOnRandomBytes) {
  // Random buffers; half of them sit behind a valid magic/version header
  // and carry a correct CRC, so the garbage reaches the length and type
  // gates instead of dying on the magic.
  vkey::Rng rng(0xf0220);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> body(rng.uniform_int(120));
    for (auto& b : body) b = static_cast<std::uint8_t>(rng.uniform_int(256));
    std::vector<std::uint8_t> bytes;
    if (rng.bernoulli(0.5)) {
      wire::FrameWriter w;
      w.put_u16(wire::kMagic);
      w.put_u8(wire::kWireVersion);
      w.put_bytes(body);
      bytes = std::move(w).finish();
    } else {
      bytes = std::move(body);
    }
    wire::WireError err = wire::WireError::kNone;
    const auto msg = wire::decode_frame(bytes, &err);
    if (msg.has_value()) {
      // Anything accepted must round-trip to the same bytes.
      EXPECT_EQ(wire::encode_frame(*msg), bytes) << "trial " << trial;
    } else {
      EXPECT_NE(err, wire::WireError::kNone) << "trial " << trial;
    }
  }
}

TEST(Fuzz, BitflippedValidMessagesParseOrRejectCleanly) {
  // CRC-32 catches every single-bit error and the structural gates run
  // first, so no one flipped bit anywhere in a valid frame may be accepted,
  // and every rejection is typed.
  Message m;
  m.type = MessageType::kSyndrome;
  m.session_id = 42;
  m.nonce = 7;
  m.payload.assign(32, 0xab);
  m.mac.assign(32, 0xcd);
  const auto bytes = wire::encode_frame(m);
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = bytes;
      mutated[pos] ^= static_cast<std::uint8_t>(1u << bit);
      wire::WireError err = wire::WireError::kNone;
      ASSERT_FALSE(wire::decode_frame(mutated, &err).has_value())
          << "byte " << pos << " bit " << bit;
      ASSERT_NE(err, wire::WireError::kNone)
          << "byte " << pos << " bit " << bit;
    }
  }
}

TEST(Fuzz, TruncatedAndExtendedFramesRejected) {
  // Any cut is truncation and any extension, whatever its bytes, is
  // trailing data: the length fields alone decide where a frame ends.
  Message m;
  m.type = MessageType::kData;
  m.session_id = 1;
  m.nonce = 2;
  m.payload = {1, 2, 3};
  m.mac = {4, 5};
  const auto bytes = wire::encode_frame(m);
  wire::WireError err = wire::WireError::kNone;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> shorter(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(wire::decode_frame(shorter, &err).has_value());
    EXPECT_EQ(err, wire::WireError::kTruncated) << "len " << len;
  }
  vkey::Rng rng(0x7a11);
  auto longer = bytes;
  for (int extra = 1; extra <= 16; ++extra) {
    longer.push_back(static_cast<std::uint8_t>(rng.uniform_int(256)));
    EXPECT_FALSE(wire::decode_frame(longer, &err).has_value());
    EXPECT_EQ(err, wire::WireError::kTrailingBytes) << "extra " << extra;
  }
}

// --------------------------------------------------------- frame codec fuzz
//
// 100k seeded mutations of valid wire frames (bit flips, truncations,
// length-field rewrites, version skew, pure garbage). Invariants, checked
// under the sanitizer presets in CI: the decoder never crashes or reads out
// of bounds, every rejection carries a typed WireError, and everything it
// accepts re-encodes byte-for-byte.

TEST(Fuzz, HundredThousandMutatedFramesRejectTypedOrRoundTrip) {
  // Corpus: one valid frame per message type, with varying payload shapes.
  std::vector<std::vector<std::uint8_t>> corpus;
  for (std::uint8_t t = 1; t <= kMaxMessageType; ++t) {
    Message m;
    m.type = static_cast<MessageType>(t);
    m.session_id = 0x1020304050607080ULL + t;
    m.nonce = t * 13u;
    m.payload.assign(static_cast<std::size_t>(t) * 7u, t);
    if (t % 2 == 0) m.mac.assign(32, static_cast<std::uint8_t>(0xc0 + t));
    corpus.push_back(wire::encode_frame(m));
  }

  constexpr int kCases = 100'000;
  vkey::Rng rng(0xf4a3e5);
  int accepted = 0;
  std::size_t reject_reasons[16] = {};
  for (int trial = 0; trial < kCases; ++trial) {
    auto bytes = corpus[rng.uniform_int(corpus.size())];
    switch (rng.uniform_int(5)) {
      case 0:  // 1..8 bit flips anywhere in the frame
        for (std::uint64_t f = 0, n = 1 + rng.uniform_int(8); f < n; ++f) {
          bytes[rng.uniform_int(bytes.size())] ^=
              static_cast<std::uint8_t>(1u << rng.uniform_int(8));
        }
        break;
      case 1:  // truncate (or keep whole, exercising the accept path)
        bytes.resize(rng.uniform_int(bytes.size() + 1));
        break;
      case 2:  // rewrite the length fields
        bytes[3] = static_cast<std::uint8_t>(rng.uniform_int(256));
        bytes[4] = static_cast<std::uint8_t>(rng.uniform_int(256));
        bytes[5] = static_cast<std::uint8_t>(rng.uniform_int(256));
        break;
      case 3:  // version skew (and occasionally magic damage)
        bytes[2] = static_cast<std::uint8_t>(rng.uniform_int(256));
        if (rng.bernoulli(0.3)) {
          bytes[rng.uniform_int(2)] =
              static_cast<std::uint8_t>(rng.uniform_int(256));
        }
        break;
      default:  // pure garbage of arbitrary small size
        bytes.resize(rng.uniform_int(96));
        for (auto& b : bytes) {
          b = static_cast<std::uint8_t>(rng.uniform_int(256));
        }
        break;
    }

    wire::WireError err = wire::WireError::kNone;
    const auto frame = wire::decode_frame(bytes, &err);
    if (frame.has_value()) {
      ++accepted;
      ASSERT_EQ(err, wire::WireError::kNone) << "trial " << trial;
      ASSERT_EQ(wire::encode_frame(*frame), bytes) << "trial " << trial;
    } else {
      // Every rejection must be typed — kNone on a failed decode would mean
      // an untracked reject path.
      ASSERT_NE(err, wire::WireError::kNone) << "trial " << trial;
      ++reject_reasons[static_cast<std::size_t>(err)];
    }
  }

  // The mutation mix must have exercised both outcomes and the full reject
  // taxonomy's structural core (truncated / magic / version / lengths / crc).
  EXPECT_GT(accepted, 0);
  EXPECT_GT(reject_reasons[size_t(wire::WireError::kTruncated)], 0u);
  EXPECT_GT(reject_reasons[size_t(wire::WireError::kBadMagic)], 0u);
  EXPECT_GT(reject_reasons[size_t(wire::WireError::kBadVersion)], 0u);
  EXPECT_GT(reject_reasons[size_t(wire::WireError::kOversizedPayload)], 0u);
  EXPECT_GT(reject_reasons[size_t(wire::WireError::kOversizedMac)], 0u);
  EXPECT_GT(reject_reasons[size_t(wire::WireError::kBadCrc)], 0u);
}

// ------------------------------------------------- session interleaving fuzz
//
// Drive the two state machines with seeded random interleavings of valid,
// duplicated, reordered and bit-flipped protocol messages. Invariants:
// no crash, state-machine monotonicity (states only move forward and
// terminal states are sticky), and if both parties reach kEstablished they
// hold the identical key.

// Line noise the CRC happened to miss: flip one bit of a frame's header or
// body and restamp the CRC, so whatever still parses reaches the state
// machines. nullopt when the codec rejects the damaged frame.
std::optional<Message> corrupt_past_crc(const Message& msg, vkey::Rng& rng) {
  auto bytes = wire::encode_frame(msg);
  bytes.resize(bytes.size() - wire::kCrcBytes);
  bytes[rng.uniform_int(bytes.size())] ^=
      static_cast<std::uint8_t>(1u << rng.uniform_int(8));
  const std::uint32_t crc = wire::crc32(bytes);
  for (int shift = 24; shift >= 0; shift -= 8) {
    bytes.push_back(static_cast<std::uint8_t>(crc >> shift));
  }
  return wire::decode_frame(bytes);
}

class SessionFuzz : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::ReconcilerConfig cfg;
    cfg.key_bits = 64;
    cfg.decoder_units = 48;
    reconciler_ = new core::AutoencoderReconciler(cfg);
    reconciler_->train(1500, 15);
  }
  static void TearDownTestSuite() {
    delete reconciler_;
    reconciler_ = nullptr;
  }

  static int rank(SessionState s) { return static_cast<int>(s); }
  static bool terminal(SessionState s) {
    return s == SessionState::kEstablished || s == SessionState::kFailed;
  }

  static core::AutoencoderReconciler* reconciler_;
};

core::AutoencoderReconciler* SessionFuzz::reconciler_ = nullptr;

TEST_F(SessionFuzz, RandomInterleavingsNeverCrashOrDisagree) {
  constexpr int kTrials = 2000;
  int established_both = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    vkey::Rng rng(
        hash_combine64(0xf0e555ULL, static_cast<std::uint64_t>(trial)));
    BitVec kb(64), ka;
    for (std::size_t i = 0; i < 64; ++i) kb.set(i, rng.bernoulli(0.5));
    ka = kb;
    const int flips = static_cast<int>(rng.uniform_int(9));  // 0..8
    for (int f = 0; f < flips; ++f) {
      ka.flip(static_cast<std::size_t>(rng.uniform_int(64)));
    }

    SessionConfig cfg;
    AliceSession alice(cfg, *reconciler_, ka);
    BobSession bob(cfg, *reconciler_, kb);

    std::deque<Message> wire;
    wire.push_back(alice.start());
    SessionState alice_prev = alice.state();
    SessionState bob_prev = bob.state();
    bool syndrome_queued = false;

    int steps = 0;
    while (!wire.empty() && steps++ < 64) {
      // Reordering: pull a random in-flight message, not the oldest.
      const std::size_t pick = rng.uniform_int(wire.size());
      Message msg = wire[pick];
      wire.erase(wire.begin() + static_cast<std::ptrdiff_t>(pick));

      // Duplication: occasionally leave a copy in flight.
      if (rng.bernoulli(0.2)) wire.push_back(msg);

      // Corruption: flip a random bit of the frame past the CRC; frames
      // that no longer parse are lost on the wire.
      if (rng.bernoulli(0.15)) {
        auto reparsed = corrupt_past_crc(msg, rng);
        if (!reparsed.has_value()) continue;
        msg = *reparsed;
      }

      // Route by direction, as run_key_agreement_detailed does.
      std::optional<Message> reply;
      if (msg.type == MessageType::kKeyGenRequest ||
          msg.type == MessageType::kKeyConfirm) {
        reply = bob.handle(msg);
      } else {
        reply = alice.handle(msg);
      }
      if (reply) wire.push_back(*reply);
      if (!syndrome_queued && bob.state() == SessionState::kAwaitConfirm) {
        syndrome_queued = true;
        wire.push_back(bob.make_syndrome());
      }

      // Monotonicity: states only move forward; terminal states are sticky.
      ASSERT_GE(rank(alice.state()), rank(alice_prev)) << "trial " << trial;
      ASSERT_GE(rank(bob.state()), rank(bob_prev)) << "trial " << trial;
      if (terminal(alice_prev)) {
        ASSERT_EQ(alice.state(), alice_prev) << "trial " << trial;
      }
      if (terminal(bob_prev)) {
        ASSERT_EQ(bob.state(), bob_prev) << "trial " << trial;
      }
      alice_prev = alice.state();
      bob_prev = bob.state();
    }

    if (alice.state() == SessionState::kEstablished &&
        bob.state() == SessionState::kEstablished) {
      ++established_both;
      ASSERT_EQ(alice.final_key(), bob.final_key()) << "trial " << trial;
    }
  }
  // Sanity: the fuzz must exercise the full handshake a meaningful number
  // of times, not just break it on the first message. Most trials lose a
  // frame to corruption (there is no ARQ at this layer), so full completion
  // is the minority outcome — but it must not be vanishingly rare.
  EXPECT_GT(established_both, kTrials / 40);
}

TEST_F(SessionFuzz, WireRejectedFramesLeaveNoPayloadResidueInSessionState) {
  // Secret-hygiene invariant (DESIGN.md "Secret hygiene & taint rules"): a
  // frame the codec rejects with a typed WireError materializes no Message,
  // so its payload bytes have nowhere to be copied — not into the state
  // machines, not into the flight-recorder timeline. This test bombards a
  // live session pair with rejected mutations between every genuine
  // delivery and asserts (a) every rejection is typed and yields no
  // Message, (b) all observable session state is untouched by the barrage,
  // and (c) the handshake still completes with matching keys, proving no
  // residue bent the outcome.
  vkey::Rng rng(0xd15ca4d);
  BitVec kb(64);
  for (std::size_t i = 0; i < 64; ++i) kb.set(i, rng.bernoulli(0.5));
  SessionConfig cfg;
  AliceSession alice(cfg, *reconciler_, kb);
  BobSession bob(cfg, *reconciler_, kb);
  FlightRecorder alice_rec(256), bob_rec(256);
  alice.set_recorder(&alice_rec, "alice");
  bob.set_recorder(&bob_rec, "bob");

  std::deque<Message> wire_q;
  wire_q.push_back(alice.start());
  bool syndrome_queued = false;
  int steps = 0;
  std::size_t rejected_mutations = 0;
  while (!wire_q.empty() && steps++ < 64) {
    Message msg = wire_q.front();
    wire_q.pop_front();

    const auto encoded = wire::encode_frame(msg);
    const auto a_state = alice.state();
    const auto b_state = bob.state();
    const auto a_rejects = alice.rejected_count();
    const auto b_rejects = bob.rejected_count();
    const auto a_events = alice_rec.size();
    const auto b_events = bob_rec.size();

    for (int k = 0; k < 32; ++k) {
      auto bad = encoded;
      switch (k % 4) {
        case 0:  // single bit flip anywhere (CRC covers the whole frame)
          bad[rng.uniform_int(bad.size())] ^=
              static_cast<std::uint8_t>(1u << rng.uniform_int(8));
          break;
        case 1:  // truncation
          bad.resize(rng.uniform_int(bad.size()));
          break;
        case 2:  // magic damage
          bad[0] ^= 0xff;
          break;
        default:  // version skew
          bad[2] ^= 0x55;
          break;
      }
      wire::WireError err = wire::WireError::kNone;
      const auto decoded = wire::decode_frame(bad, &err);
      if (decoded.has_value()) continue;  // mutation happened to stay valid
      ++rejected_mutations;
      // Typed rejection and no materialized Message: the mutated payload
      // bytes cannot have been copied into anything downstream.
      ASSERT_NE(err, wire::WireError::kNone) << "step " << steps;
    }

    // The barrage of rejected frames was a perfect no-op on both parties.
    ASSERT_EQ(alice.state(), a_state);
    ASSERT_EQ(bob.state(), b_state);
    ASSERT_EQ(alice.rejected_count(), a_rejects);
    ASSERT_EQ(bob.rejected_count(), b_rejects);
    ASSERT_EQ(alice_rec.size(), a_events);
    ASSERT_EQ(bob_rec.size(), b_events);

    // Now deliver the genuine frame and keep the handshake moving.
    std::optional<Message> reply;
    if (msg.type == MessageType::kKeyGenRequest ||
        msg.type == MessageType::kKeyConfirm) {
      reply = bob.handle(msg);
    } else {
      reply = alice.handle(msg);
    }
    if (reply) wire_q.push_back(*reply);
    if (!syndrome_queued && bob.state() == SessionState::kAwaitConfirm) {
      syndrome_queued = true;
      wire_q.push_back(bob.make_syndrome());
    }
  }

  EXPECT_GT(rejected_mutations, 100u);
  ASSERT_EQ(alice.state(), SessionState::kEstablished);
  ASSERT_EQ(bob.state(), SessionState::kEstablished);
  EXPECT_EQ(alice.final_key(), bob.final_key());
}

TEST_F(SessionFuzz, FailedFuzzedSessionDumpsTimelineNamingTheInjectedFault) {
  // Same interleaving harness, but with a flight recorder wired into both
  // sessions and fed a kInjected event for every harness-made fault. When a
  // fuzz trial kills a session, the recorder's dump must be a usable
  // post-mortem: it names the injected fault and the session's reaction
  // (reject + state change) in order, with no wall-clock in sight.
  bool saw_failed_session_with_fault = false;
  for (int trial = 0; trial < 400 && !saw_failed_session_with_fault;
       ++trial) {
    vkey::Rng rng(
        hash_combine64(0xf7169ULL, static_cast<std::uint64_t>(trial)));
    BitVec kb(64), ka;
    for (std::size_t i = 0; i < 64; ++i) kb.set(i, rng.bernoulli(0.5));
    ka = kb;
    for (int f = 0; f < 3; ++f) {
      ka.flip(static_cast<std::size_t>(rng.uniform_int(64)));
    }

    SessionConfig cfg;
    AliceSession alice(cfg, *reconciler_, ka);
    BobSession bob(cfg, *reconciler_, kb);
    FlightRecorder rec(256);  // no clock: ordinals order the timeline
    alice.set_recorder(&rec, "alice");
    bob.set_recorder(&rec, "bob");

    std::deque<Message> wire;
    wire.push_back(alice.start());
    bool syndrome_queued = false;
    bool injected = false;

    int steps = 0;
    while (!wire.empty() && steps++ < 64) {
      const std::size_t pick = rng.uniform_int(wire.size());
      Message msg = wire[pick];
      wire.erase(wire.begin() + static_cast<std::ptrdiff_t>(pick));

      if (rng.bernoulli(0.25)) {
        auto reparsed = corrupt_past_crc(msg, rng);
        rec.record(FlightEventKind::kInjected, "harness",
                   "bitflip on " + to_string(msg.type), msg.session_id,
                   msg.nonce);
        injected = true;
        if (!reparsed.has_value()) continue;  // rejected by the codec
        msg = *reparsed;
      }

      std::optional<Message> reply;
      if (msg.type == MessageType::kKeyGenRequest ||
          msg.type == MessageType::kKeyConfirm) {
        reply = bob.handle(msg);
      } else {
        reply = alice.handle(msg);
      }
      if (reply) wire.push_back(*reply);
      if (!syndrome_queued && bob.state() == SessionState::kAwaitConfirm) {
        syndrome_queued = true;
        wire.push_back(bob.make_syndrome());
      }
    }

    const bool failed = alice.state() == SessionState::kFailed ||
                        bob.state() == SessionState::kFailed;
    if (!failed || !injected) continue;
    saw_failed_session_with_fault = true;

    const std::string dump = rec.dump();
    EXPECT_NE(dump.find("injected"), std::string::npos) << dump;
    EXPECT_NE(dump.find("bitflip on "), std::string::npos) << dump;
    EXPECT_NE(dump.find("->failed"), std::string::npos) << dump;
    // The injected fault precedes the failure transition in the timeline.
    EXPECT_LT(dump.find("injected"), dump.find("->failed")) << dump;
  }
  EXPECT_TRUE(saw_failed_session_with_fault)
      << "fuzz never produced a failed session with an injected fault";
}

}  // namespace
}  // namespace vkey::protocol
