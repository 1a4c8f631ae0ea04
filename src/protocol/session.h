// Alice/Bob key-agreement session state machines.
//
// Sequence (after channel probing has produced each side's raw key bits):
//   Alice -> Bob : KeyGenRequest(session, nonce)
//   Bob   -> Alice: KeyGenAccept(session, nonce+1)
//   Bob   -> Alice: Syndrome { y_Bob, MAC(K_Bob, header||y_Bob) }
//   Alice        : reconcile; MAC verifies only if her corrected key equals
//                  Bob's (MITM modification or a failed correction aborts)
//   Alice -> Bob : KeyConfirm { H(final || session || "A") }
//   Bob   -> Alice: KeyConfirmAck { H(final || session || "B") }
// Replay defense: both sides track the highest nonce seen per session and
// reject non-increasing nonces or mismatched session ids (Sec. IV-C).
//
// After confirmation both sides hold the privacy-amplified 128-bit session
// key; SecureLink wraps it for AES-128-CTR + HMAC payload protection.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "common/bitvec.h"
#include "crypto/secret_buffer.h"
#include "core/privacy.h"
#include "core/reconciler.h"
#include "protocol/channel.h"

namespace vkey::protocol {

class FlightRecorder;

enum class SessionState : std::uint8_t {
  kIdle,
  kAwaitAccept,
  kAwaitSyndrome,
  kAwaitConfirm,
  kAwaitConfirmAck,
  kEstablished,
  kFailed,
};

/// Why a message was rejected (for diagnostics and the attack benches).
enum class RejectReason : std::uint8_t {
  kNone,
  kBadSession,
  kReplayedNonce,
  kMacMismatch,
  kBadState,
  kMalformed,
  kConfirmMismatch,
  /// Bit-identical retransmission of an already-accepted frame. Benign ARQ
  /// behaviour (the prior response is re-elicited), kept distinct from
  /// kReplayedNonce so retransmit suppression is distinguishable from attack.
  kDuplicate,
};

std::string to_string(SessionState s);
std::string to_string(RejectReason r);

struct SessionConfig {
  std::uint64_t session_id = 1;
  std::size_t final_key_bits = 128;
};

/// Shared inbound-envelope bookkeeping for both session roles: the replay
/// window (Sec. IV-C), the duplicate cache that makes retransmission
/// idempotent, and the per-session robustness counters.
class InboundGuard {
 public:
  enum class Verdict : std::uint8_t {
    kFresh,      ///< never-seen nonce: process normally
    kDuplicate,  ///< bit-identical retransmission of an accepted frame
    kReplay,     ///< old or reused nonce with different content (attack)
  };

  Verdict classify(const Message& msg) const;

  /// Remember an accepted frame and the response it elicited, and advance
  /// the replay window. Rejected frames are deliberately *not* recorded so
  /// an out-of-order frame can still be accepted when retransmitted later.
  void accept(const Message& msg, const std::optional<Message>& response);

  /// The response originally elicited by the frame with this nonce
  /// (nullopt when it produced none, or the nonce was never accepted).
  std::optional<Message> response_for(std::uint64_t nonce) const;

  void count_duplicate() { ++duplicates_suppressed_; }
  void count_reject() { ++rejects_; }

  std::size_t duplicates_suppressed() const { return duplicates_suppressed_; }
  std::size_t rejects() const { return rejects_; }

 private:
  struct Entry {
    Message inbound;
    std::optional<Message> response;
  };
  std::map<std::uint64_t, Entry> processed_;
  std::uint64_t highest_nonce_ = 0;
  bool saw_any_nonce_ = false;
  std::size_t duplicates_suppressed_ = 0;
  std::size_t rejects_ = 0;
};

class BobSession {
 public:
  /// `raw_key` is Bob's quantized key material (reconciler.key_bits wide).
  BobSession(const SessionConfig& config,
             const core::AutoencoderReconciler& reconciler, BitVec raw_key);

  /// Feed an inbound message; returns the response to transmit, if any.
  std::optional<Message> handle(const Message& msg);

  /// Attach a flight recorder; state transitions and InboundGuard
  /// rejections are logged under `actor`. Pass nullptr to detach.
  void set_recorder(FlightRecorder* recorder, std::string actor);

  /// Build the syndrome message { y_Bob, MAC(K_Bob, header||y_Bob) }.
  /// Valid once the session has been accepted (state kAwaitConfirm).
  Message make_syndrome();

  SessionState state() const { return state_; }
  RejectReason last_reject() const { return last_reject_; }
  const SessionConfig& config() const { return cfg_; }

  /// Robustness counters (suppressed retransmissions / rejected frames).
  std::size_t duplicates_suppressed() const {
    return guard_.duplicates_suppressed();
  }
  std::size_t rejected_count() const { return guard_.rejects(); }

  /// Final 128-bit key; valid once state() == kEstablished.
  const BitVec& final_key() const;

 private:
  std::optional<Message> dispatch(const Message& msg);

  SessionConfig cfg_;
  const core::AutoencoderReconciler& reconciler_;
  BitVec raw_key_;
  BitVec final_key_;  ///< amplified once, when Alice's confirm arrives
  core::PrivacyAmplifier amplifier_;
  SessionState state_ = SessionState::kIdle;
  RejectReason last_reject_ = RejectReason::kNone;
  std::uint64_t next_nonce_ = 0;
  InboundGuard guard_;
  FlightRecorder* recorder_ = nullptr;
  std::string actor_;
};

class AliceSession {
 public:
  AliceSession(const SessionConfig& config,
               const core::AutoencoderReconciler& reconciler, BitVec raw_key);

  /// Kick off the exchange.
  Message start();

  std::optional<Message> handle(const Message& msg);

  /// Attach a flight recorder; state transitions and InboundGuard
  /// rejections are logged under `actor`. Pass nullptr to detach.
  void set_recorder(FlightRecorder* recorder, std::string actor);

  SessionState state() const { return state_; }
  RejectReason last_reject() const { return last_reject_; }
  const SessionConfig& config() const { return cfg_; }

  std::size_t duplicates_suppressed() const {
    return guard_.duplicates_suppressed();
  }
  std::size_t rejected_count() const { return guard_.rejects(); }

  const BitVec& final_key() const;

 private:
  std::optional<Message> dispatch(const Message& msg);

  SessionConfig cfg_;
  const core::AutoencoderReconciler& reconciler_;
  BitVec raw_key_;
  BitVec corrected_key_;
  BitVec final_key_;  ///< amplified once, when the syndrome MAC verifies
  core::PrivacyAmplifier amplifier_;
  SessionState state_ = SessionState::kIdle;
  RejectReason last_reject_ = RejectReason::kNone;
  std::uint64_t next_nonce_ = 0;
  InboundGuard guard_;
  FlightRecorder* recorder_ = nullptr;
  std::string actor_;
};

/// Structured outcome of driving a key agreement to termination.
struct AgreementResult {
  bool established = false;  ///< both parties established the *same* key
  SessionState alice_state = SessionState::kIdle;
  SessionState bob_state = SessionState::kIdle;
  RejectReason alice_reject = RejectReason::kNone;
  RejectReason bob_reject = RejectReason::kNone;
  std::size_t delivered = 0;      ///< frames pulled off the channel
  bool hit_delivery_cap = false;  ///< stopped by the safety cap, not quiescence

  explicit operator bool() const { return established; }
};

/// Drive both parties over a channel until explicit termination: either
/// party reaching kFailed, both established, the queue draining, or the
/// delivery cap (a runaway guard against interceptors that forge unbounded
/// traffic). Returns the terminal state and reject reason of both parties.
AgreementResult run_key_agreement_detailed(PublicChannel& channel,
                                           AliceSession& alice,
                                           BobSession& bob,
                                           std::size_t max_deliveries = 256);

/// Boolean shim over run_key_agreement_detailed for existing callers.
bool run_key_agreement(PublicChannel& channel, AliceSession& alice,
                       BobSession& bob);

/// AES-128-CTR + HMAC-SHA256 payload protection under an established key.
class SecureLink {
 public:
  explicit SecureLink(const BitVec& key128);

  /// Encrypt and authenticate a payload into a kData message.
  Message seal(std::uint64_t session_id, std::uint64_t nonce,
               const std::vector<std::uint8_t>& plaintext) const;

  /// Verify and decrypt; nullopt when authentication fails.
  std::optional<std::vector<std::uint8_t>> open(const Message& msg) const;

 private:
  crypto::SecretBuffer aes_key_;  ///< 16-byte AES key (zeroizing)
  crypto::SecretBuffer mac_key_;  ///< 32-byte HMAC key (zeroizing)
};

}  // namespace vkey::protocol
