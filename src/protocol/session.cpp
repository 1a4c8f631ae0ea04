#include "protocol/session.h"

#include <array>

#include "common/error.h"
#include "common/metrics.h"
#include "crypto/aes128.h"
#include "protocol/flight_recorder.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace vkey::protocol {

namespace {

constexpr auto kEncLabel = crypto::info_label("vkey-v1 encryption");
constexpr auto kMacLabel = crypto::info_label("vkey-v1 mac");

std::vector<std::uint8_t> hmac_of(const BitVec& key, const Message& msg) {
  // The serialized key bytes are a transient secret; wipe them as soon as
  // the compression function has absorbed them. The tag itself is public
  // (it rides the frame).
  auto key_bytes = key.to_bytes();
  auto tag = crypto::hmac_sha256(std::span<const std::uint8_t>(key_bytes),
                                 mac_input(msg));
  crypto::secure_wipe(key_bytes);
  return {tag.begin(), tag.end()};
}

std::vector<std::uint8_t> confirm_digest(const BitVec& final_key,
                                         std::uint64_t session_id,
                                         const char* role) {
  crypto::Sha256 h;
  auto kb = final_key.to_bytes();
  h.update(kb);
  crypto::secure_wipe(kb);
  std::uint8_t sid[8];
  for (int i = 0; i < 8; ++i) {
    sid[i] = static_cast<std::uint8_t>(session_id >> (56 - 8 * i));
  }
  h.update(sid, sizeof(sid));
  const std::uint8_t role_byte = static_cast<std::uint8_t>(role[0]);
  h.update(&role_byte, 1);
  const auto d = h.finalize();
  return {d.begin(), d.end()};
}

// Shared flight-recorder bookkeeping for both session roles: one kReject
// per rejected frame (reason + offending message type) and one
// kStateChange per transition, e.g. "await-syndrome->failed".
void note_outcome(FlightRecorder* recorder, const std::string& actor,
                  SessionState before, SessionState after, RejectReason reject,
                  const Message& msg) {
  if (recorder == nullptr) return;
  if (reject != RejectReason::kNone) {
    recorder->record(FlightEventKind::kReject, actor,
                     to_string(reject) + " on " + to_string(msg.type),
                     msg.session_id, msg.nonce);
  }
  if (after != before) {
    recorder->record(FlightEventKind::kStateChange, actor,
                     to_string(before) + "->" + to_string(after),
                     msg.session_id, msg.nonce);
  }
}

}  // namespace

std::string to_string(SessionState s) {
  switch (s) {
    case SessionState::kIdle: return "idle";
    case SessionState::kAwaitAccept: return "await-accept";
    case SessionState::kAwaitSyndrome: return "await-syndrome";
    case SessionState::kAwaitConfirm: return "await-confirm";
    case SessionState::kAwaitConfirmAck: return "await-confirm-ack";
    case SessionState::kEstablished: return "established";
    case SessionState::kFailed: return "failed";
  }
  return "?";
}

std::string to_string(RejectReason r) {
  switch (r) {
    case RejectReason::kNone: return "none";
    case RejectReason::kBadSession: return "bad-session";
    case RejectReason::kReplayedNonce: return "replayed-nonce";
    case RejectReason::kMacMismatch: return "mac-mismatch";
    case RejectReason::kBadState: return "bad-state";
    case RejectReason::kMalformed: return "malformed";
    case RejectReason::kConfirmMismatch: return "confirm-mismatch";
    case RejectReason::kDuplicate: return "duplicate";
  }
  return "?";
}

// --------------------------------------------------------------- InboundGuard

InboundGuard::Verdict InboundGuard::classify(const Message& msg) const {
  const auto it = processed_.find(msg.nonce);
  if (it != processed_.end()) {
    return it->second.inbound == msg ? Verdict::kDuplicate : Verdict::kReplay;
  }
  if (saw_any_nonce_ && msg.nonce <= highest_nonce_) return Verdict::kReplay;
  return Verdict::kFresh;
}

void InboundGuard::accept(const Message& msg,
                          const std::optional<Message>& response) {
  highest_nonce_ = saw_any_nonce_ ? std::max(highest_nonce_, msg.nonce)
                                  : msg.nonce;
  saw_any_nonce_ = true;
  processed_[msg.nonce] = Entry{msg, response};
}

std::optional<Message> InboundGuard::response_for(std::uint64_t nonce) const {
  const auto it = processed_.find(nonce);
  if (it == processed_.end()) return std::nullopt;
  return it->second.response;
}

// ---------------------------------------------------------------- BobSession

BobSession::BobSession(const SessionConfig& config,
                       const core::AutoencoderReconciler& reconciler,
                       BitVec raw_key)
    : cfg_(config),
      reconciler_(reconciler),
      raw_key_(std::move(raw_key)),
      amplifier_(config.final_key_bits) {
  VKEY_REQUIRE(raw_key_.size() == reconciler.config().key_bits,
               "Bob key width must match the reconciler");
}

const BitVec& BobSession::final_key() const {
  VKEY_REQUIRE(state_ == SessionState::kEstablished,
               "session not established");
  return final_key_;
}

std::optional<Message> BobSession::handle(const Message& msg) {
  const SessionState before = state_;
  last_reject_ = RejectReason::kNone;
  if (msg.session_id != cfg_.session_id) {
    last_reject_ = RejectReason::kBadSession;
    guard_.count_reject();
    note_outcome(recorder_, actor_, before, state_, last_reject_, msg);
    return std::nullopt;
  }
  switch (guard_.classify(msg)) {
    case InboundGuard::Verdict::kDuplicate:
      // ARQ retransmission: the peer did not see our response, so re-elicit
      // the original one instead of tripping the replay defense.
      last_reject_ = RejectReason::kDuplicate;
      guard_.count_duplicate();
      note_outcome(recorder_, actor_, before, state_, last_reject_, msg);
      return guard_.response_for(msg.nonce);
    case InboundGuard::Verdict::kReplay:
      last_reject_ = RejectReason::kReplayedNonce;
      guard_.count_reject();
      note_outcome(recorder_, actor_, before, state_, last_reject_, msg);
      return std::nullopt;
    case InboundGuard::Verdict::kFresh:
      break;
  }
  next_nonce_ = std::max(next_nonce_, msg.nonce + 1);
  auto response = dispatch(msg);
  if (last_reject_ == RejectReason::kNone) {
    guard_.accept(msg, response);
  } else {
    guard_.count_reject();
  }
  note_outcome(recorder_, actor_, before, state_, last_reject_, msg);
  return response;
}

void BobSession::set_recorder(FlightRecorder* recorder, std::string actor) {
  recorder_ = recorder;
  actor_ = std::move(actor);
}

std::optional<Message> BobSession::dispatch(const Message& msg) {
  switch (msg.type) {
    case MessageType::kKeyGenRequest: {
      if (state_ != SessionState::kIdle) {
        last_reject_ = RejectReason::kBadState;
        return std::nullopt;
      }
      // Accept, then immediately publish the syndrome.
      Message accept;
      accept.type = MessageType::kKeyGenAccept;
      accept.session_id = cfg_.session_id;
      accept.nonce = next_nonce_++;

      state_ = SessionState::kAwaitConfirm;
      return accept;
    }
    case MessageType::kKeyConfirm: {
      if (state_ != SessionState::kAwaitConfirm) {
        last_reject_ = RejectReason::kBadState;
        return std::nullopt;
      }
      final_key_ = amplifier_.amplify(raw_key_, cfg_.session_id);
      const auto expected = confirm_digest(final_key_, cfg_.session_id, "A");
      if (!crypto::constant_time_equal(msg.payload, expected)) {
        last_reject_ = RejectReason::kConfirmMismatch;
        state_ = SessionState::kFailed;
        return std::nullopt;
      }
      state_ = SessionState::kEstablished;
      Message ack;
      ack.type = MessageType::kKeyConfirmAck;
      ack.session_id = cfg_.session_id;
      ack.nonce = next_nonce_++;
      ack.payload = confirm_digest(final_key_, cfg_.session_id, "B");
      return ack;
    }
    default:
      last_reject_ = RejectReason::kBadState;
      return std::nullopt;
  }
}

Message BobSession::make_syndrome() {
  VKEY_REQUIRE(state_ == SessionState::kAwaitConfirm,
               "syndrome requested before the session was accepted");
  Message msg;
  msg.type = MessageType::kSyndrome;
  msg.session_id = cfg_.session_id;
  msg.nonce = next_nonce_++;
  msg.payload = pack_doubles(reconciler_.encode_bob(raw_key_));
  msg.mac = hmac_of(raw_key_, msg);
  return msg;
}

// -------------------------------------------------------------- AliceSession

AliceSession::AliceSession(const SessionConfig& config,
                           const core::AutoencoderReconciler& reconciler,
                           BitVec raw_key)
    : cfg_(config),
      reconciler_(reconciler),
      raw_key_(std::move(raw_key)),
      amplifier_(config.final_key_bits) {
  VKEY_REQUIRE(raw_key_.size() == reconciler.config().key_bits,
               "Alice key width must match the reconciler");
}

Message AliceSession::start() {
  VKEY_REQUIRE(state_ == SessionState::kIdle, "session already started");
  Message req;
  req.type = MessageType::kKeyGenRequest;
  req.session_id = cfg_.session_id;
  req.nonce = next_nonce_++;
  state_ = SessionState::kAwaitAccept;
  note_outcome(recorder_, actor_, SessionState::kIdle, state_,
               RejectReason::kNone, req);
  return req;
}

void AliceSession::set_recorder(FlightRecorder* recorder, std::string actor) {
  recorder_ = recorder;
  actor_ = std::move(actor);
}

const BitVec& AliceSession::final_key() const {
  VKEY_REQUIRE(state_ == SessionState::kEstablished,
               "session not established");
  return final_key_;
}

std::optional<Message> AliceSession::handle(const Message& msg) {
  const SessionState before = state_;
  last_reject_ = RejectReason::kNone;
  if (msg.session_id != cfg_.session_id) {
    last_reject_ = RejectReason::kBadSession;
    guard_.count_reject();
    note_outcome(recorder_, actor_, before, state_, last_reject_, msg);
    return std::nullopt;
  }
  switch (guard_.classify(msg)) {
    case InboundGuard::Verdict::kDuplicate:
      last_reject_ = RejectReason::kDuplicate;
      guard_.count_duplicate();
      note_outcome(recorder_, actor_, before, state_, last_reject_, msg);
      return guard_.response_for(msg.nonce);
    case InboundGuard::Verdict::kReplay:
      last_reject_ = RejectReason::kReplayedNonce;
      guard_.count_reject();
      note_outcome(recorder_, actor_, before, state_, last_reject_, msg);
      return std::nullopt;
    case InboundGuard::Verdict::kFresh:
      break;
  }
  next_nonce_ = std::max(next_nonce_, msg.nonce + 1);
  auto response = dispatch(msg);
  if (last_reject_ == RejectReason::kNone) {
    guard_.accept(msg, response);
  } else {
    guard_.count_reject();
  }
  note_outcome(recorder_, actor_, before, state_, last_reject_, msg);
  return response;
}

std::optional<Message> AliceSession::dispatch(const Message& msg) {
  switch (msg.type) {
    case MessageType::kKeyGenAccept: {
      if (state_ != SessionState::kAwaitAccept) {
        last_reject_ = RejectReason::kBadState;
        return std::nullopt;
      }
      state_ = SessionState::kAwaitSyndrome;
      return std::nullopt;  // Bob sends the syndrome unprompted
    }
    case MessageType::kSyndrome: {
      if (state_ != SessionState::kAwaitSyndrome) {
        last_reject_ = RejectReason::kBadState;
        return std::nullopt;
      }
      std::vector<double> y_bob;
      try {
        y_bob = unpack_doubles(msg.payload);
      } catch (const vkey::Error&) {
        last_reject_ = RejectReason::kMalformed;
        return std::nullopt;
      }
      if (y_bob.size() != reconciler_.config().code_dim) {
        last_reject_ = RejectReason::kMalformed;
        return std::nullopt;
      }
      corrected_key_ = reconciler_.reconcile(raw_key_, y_bob);
      // MAC check: verifies only when the corrected key equals K_Bob, so an
      // in-flight modification (MITM) or a failed correction aborts here.
      if (!crypto::constant_time_equal(msg.mac, hmac_of(corrected_key_, msg))) {
        last_reject_ = RejectReason::kMacMismatch;
        state_ = SessionState::kFailed;
        return std::nullopt;
      }
      state_ = SessionState::kAwaitConfirmAck;
      final_key_ = amplifier_.amplify(corrected_key_, cfg_.session_id);
      Message confirm;
      confirm.type = MessageType::kKeyConfirm;
      confirm.session_id = cfg_.session_id;
      confirm.nonce = next_nonce_++;
      confirm.payload = confirm_digest(final_key_, cfg_.session_id, "A");
      return confirm;
    }
    case MessageType::kKeyConfirmAck: {
      if (state_ != SessionState::kAwaitConfirmAck) {
        last_reject_ = RejectReason::kBadState;
        return std::nullopt;
      }
      const auto expected = confirm_digest(final_key_, cfg_.session_id, "B");
      if (!crypto::constant_time_equal(msg.payload, expected)) {
        last_reject_ = RejectReason::kConfirmMismatch;
        state_ = SessionState::kFailed;
        return std::nullopt;
      }
      state_ = SessionState::kEstablished;
      return std::nullopt;
    }
    default:
      last_reject_ = RejectReason::kBadState;
      return std::nullopt;
  }
}

// ----------------------------------------------------------------- plumbing

AgreementResult run_key_agreement_detailed(PublicChannel& channel,
                                           AliceSession& alice,
                                           BobSession& bob,
                                           std::size_t max_deliveries) {
  AgreementResult result;
  channel.send(alice.start());

  // Bob publishes the syndrome right after accepting; model that by letting
  // the loop below ask Bob for his pending syndrome when he reaches
  // kAwaitConfirm. We synthesize it here from his session state.
  bool syndrome_sent = false;
  while (channel.pending() > 0) {
    // Explicit termination: a failed party cannot recover within a session,
    // so draining the rest of the queue is pointless.
    if (alice.state() == SessionState::kFailed ||
        bob.state() == SessionState::kFailed) {
      break;
    }
    if (result.delivered >= max_deliveries) {
      result.hit_delivery_cap = true;
      break;
    }
    auto msg = channel.receive();
    if (!msg) break;
    ++result.delivered;
    // Route by expected direction: requests/confirms go to Bob, the rest to
    // Alice. (The simulated wire is a single broadcast medium.)
    std::optional<Message> reply;
    if (msg->type == MessageType::kKeyGenRequest ||
        msg->type == MessageType::kKeyConfirm) {
      reply = bob.handle(*msg);
    } else {
      reply = alice.handle(*msg);
    }
    if (reply) channel.send(*reply);

    if (!syndrome_sent && bob.state() == SessionState::kAwaitConfirm) {
      // Bob publishes y_Bob + MAC once the session is accepted.
      syndrome_sent = true;
      channel.send(bob.make_syndrome());
    }
  }
  result.alice_state = alice.state();
  result.bob_state = bob.state();
  result.alice_reject = alice.last_reject();
  result.bob_reject = bob.last_reject();
  result.established = alice.state() == SessionState::kEstablished &&
                       bob.state() == SessionState::kEstablished &&
                       alice.final_key() == bob.final_key();
  auto& reg = metrics::Registry::global();
  reg.counter("session.runs").add(1);
  reg.counter("session.frames_delivered").add(result.delivered);
  if (result.established) reg.counter("session.established").add(1);
  return result;
}

bool run_key_agreement(PublicChannel& channel, AliceSession& alice,
                       BobSession& bob) {
  return run_key_agreement_detailed(channel, alice, bob).established;
}

SecureLink::SecureLink(const BitVec& key128) {
  VKEY_REQUIRE(key128.size() == 128, "SecureLink needs a 128-bit key");
  const crypto::SecretBuffer secret(key128.to_bytes());
  // Cryptographically separated subkeys via HKDF (RFC 5869): one extract
  // (empty salt), then one expansion per label under the keyed PRK.
  std::array<std::uint8_t, crypto::Sha256::kDigestSize> prk{};
  crypto::hkdf_extract({}, secret.expose(), prk);
  const crypto::HmacKey keyed(prk);
  crypto::secure_wipe(prk.data(), prk.size());
  aes_key_ = crypto::SecretBuffer::zeros(16);
  crypto::hkdf_expand(keyed, kEncLabel, aes_key_.expose_mut());
  mac_key_ = crypto::SecretBuffer::zeros(32);
  crypto::hkdf_expand(keyed, kMacLabel, mac_key_.expose_mut());
}

Message SecureLink::seal(std::uint64_t session_id, std::uint64_t nonce,
                         const std::vector<std::uint8_t>& plaintext) const {
  crypto::Aes128 aes(aes_key_);
  Message msg;
  msg.type = MessageType::kData;
  msg.session_id = session_id;
  msg.nonce = nonce;
  msg.payload = aes.ctr_crypt(plaintext, nonce);
  const auto tag = crypto::hmac_sha256(mac_key_, mac_input(msg));
  msg.mac.assign(tag.begin(), tag.end());
  return msg;
}

std::optional<std::vector<std::uint8_t>> SecureLink::open(
    const Message& msg) const {
  if (msg.type != MessageType::kData) return std::nullopt;
  const auto tag = crypto::hmac_sha256(mac_key_, mac_input(msg));
  if (!crypto::constant_time_equal(msg.mac, tag)) {
    return std::nullopt;
  }
  crypto::Aes128 aes(aes_key_);
  return aes.ctr_crypt(msg.payload, msg.nonce);
}

}  // namespace vkey::protocol
