#include "protocol/key_schedule.h"

#include <algorithm>
#include <array>
#include <utility>

#include "common/error.h"
#include "crypto/aes128.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "protocol/unreliable_channel.h"

namespace vkey::protocol {

namespace {

constexpr std::size_t kPrkSize = KeySchedule::kPrkSize;
static_assert(kPrkSize == crypto::Sha256::kDigestSize);
using Prk = std::array<std::uint8_t, kPrkSize>;

void append_be32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

struct DirectionLabels {
  std::array<std::uint8_t, 15> enc;
  std::array<std::uint8_t, 15> mac;
  std::array<std::uint8_t, 17> nonce;
};

constexpr auto kSaltPrefix = crypto::info_label("vkey/wire/v1");
constexpr DirectionLabels kA2b{crypto::info_label("vkey v1 a2b enc"),
                               crypto::info_label("vkey v1 a2b mac"),
                               crypto::info_label("vkey v1 a2b nonce")};
constexpr DirectionLabels kB2a{crypto::info_label("vkey v1 b2a enc"),
                               crypto::info_label("vkey v1 b2a mac"),
                               crypto::info_label("vkey v1 b2a nonce")};
constexpr auto kConfirmLabel = crypto::info_label("vkey v1 confirm");
constexpr auto kRatchetLabel = crypto::info_label("vkey v1 ratchet");

// Extraction salt: protocol string || be64(session) || be32(epoch). Putting
// the epoch in the salt (not just the expand labels) separates epochs at
// the extract step, so even identical input secrets yield unrelated PRKs
// per epoch.
std::array<std::uint8_t, kSaltPrefix.size() + 12> epoch_salt(
    std::uint64_t session_id, std::uint32_t epoch) {
  std::array<std::uint8_t, kSaltPrefix.size() + 12> salt{};
  auto out = std::copy(kSaltPrefix.begin(), kSaltPrefix.end(), salt.begin());
  for (int shift = 56; shift >= 0; shift -= 8) {
    *out++ = static_cast<std::uint8_t>(session_id >> shift);
  }
  for (int shift = 24; shift >= 0; shift -= 8) {
    *out++ = static_cast<std::uint8_t>(epoch >> shift);
  }
  return salt;
}

// PRK_e = HKDF-Extract(epoch_salt(session, e), secret_e), absorbed into an
// HmacKey; the PRK bytes are wiped.
crypto::HmacKey keyed_epoch_prk(std::span<const std::uint8_t> secret,
                                std::uint64_t session_id,
                                std::uint32_t epoch) {
  Prk prk{};
  crypto::hkdf_extract(epoch_salt(session_id, epoch), secret, prk);
  crypto::HmacKey keyed(prk);
  crypto::secure_wipe(prk.data(), prk.size());
  return keyed;
}

crypto::SecretBuffer expand_label(const crypto::HmacKey& prk,
                                  std::span<const std::uint8_t> info,
                                  std::size_t length) {
  auto okm = crypto::SecretBuffer::zeros(length);
  crypto::hkdf_expand(prk, info, okm.expose_mut());
  return okm;
}

std::uint32_t read_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

DirectionKeys derive_direction(const crypto::HmacKey& prk,
                               const DirectionLabels& labels) {
  DirectionKeys keys;
  keys.enc = expand_label(prk, labels.enc, 16);
  keys.mac = expand_label(prk, labels.mac, 32);
  // The nonce base leaves the secret domain by design: it is XORed into
  // the CTR counter block, never exposed on the wire, and 8 bytes of OKM
  // are not key-equivalent for either direction key.
  std::array<std::uint8_t, 8> nonce{};
  crypto::hkdf_expand(prk, labels.nonce, nonce);
  for (const std::uint8_t b : nonce) keys.nonce_base = keys.nonce_base << 8 | b;
  return keys;
}

// The seven expansions of one epoch, all under the epoch's keyed PRK.
EpochKeys derive_from_prk(const crypto::HmacKey& prk, std::uint32_t epoch) {
  EpochKeys keys;
  keys.epoch = epoch;
  keys.a2b = derive_direction(prk, kA2b);
  keys.b2a = derive_direction(prk, kB2a);
  keys.confirm = expand_label(prk, kConfirmLabel, 32);
  return keys;
}

/// Tag = HMAC(confirm_key, mac_input(frame) || role byte). mac_input covers
/// type|session|nonce|payload, so the tag binds the whole confirm frame; the
/// role byte rules out reflection even if the types were ever unified. The
/// tag itself is public (it rides the frame); only the key is secret.
std::vector<std::uint8_t> confirm_tag(const EpochKeys& keys,
                                      const Message& msg,
                                      KeySchedule::Role role) {
  const crypto::HmacKey key(keys.confirm);
  crypto::Sha256 inner = key.start();
  inner.update(mac_input(msg));
  const auto role_byte = static_cast<std::uint8_t>(role);
  inner.update(&role_byte, 1);
  std::vector<std::uint8_t> tag(crypto::Sha256::kDigestSize);
  key.finish(inner, std::span<std::uint8_t, crypto::Sha256::kDigestSize>(tag));
  return tag;
}

}  // namespace

EpochKeys derive_epoch_keys(std::span<const std::uint8_t> secret,
                            std::uint64_t session_id, std::uint32_t epoch) {
  return derive_from_prk(keyed_epoch_prk(secret, session_id, epoch), epoch);
}

crypto::SecretBuffer ratchet_secret(std::span<const std::uint8_t> secret,
                                    std::uint64_t session_id,
                                    std::uint32_t next_epoch) {
  VKEY_REQUIRE(next_epoch >= 1, "epoch 0 has no predecessor to ratchet from");
  // Epoch e's PRK (salt carries e = next_epoch - 1) produces epoch e+1's
  // secret, matching the label schedule in the header diagram.
  return expand_label(keyed_epoch_prk(secret, session_id, next_epoch - 1),
                      kRatchetLabel, 32);
}

KeySchedule::KeySchedule(const BitVec& amplified_secret,
                         std::uint64_t session_id, Role role)
    : KeySchedule(amplified_secret, session_id, role, Policy()) {}

KeySchedule::KeySchedule(const BitVec& amplified_secret,
                         std::uint64_t session_id, Role role, Policy policy)
    : session_id_(session_id),
      role_(role),
      policy_(policy),
      prk_(crypto::SecretBuffer::zeros(kPrkSize)) {
  const crypto::SecretBuffer secret(amplified_secret.to_bytes());
  VKEY_REQUIRE(!secret.empty(), "amplified secret must be non-empty");
  VKEY_REQUIRE(policy_.rekey_interval_ms > 0.0 && policy_.grace_ms >= 0.0,
               "rekey interval must be positive, grace non-negative");
  crypto::hkdf_extract(epoch_salt(session_id_, 0), secret.expose(),
                       prk_.expose_mut().first<kPrkSize>());
  current_ = derive_from_prk(crypto::HmacKey(prk_), 0);
}

bool KeySchedule::rekey_due(double now_ms) const noexcept {
  return now_ms - last_rekey_ms_ >= policy_.rekey_interval_ms;
}

EpochKeys KeySchedule::derive_next(
    std::span<std::uint8_t, kPrkSize> next_prk) const {
  // secret_{e+1} = HKDF-Expand(PRK_e, "vkey v1 ratchet", 32), then the
  // extract of epoch e+1. The intermediate secret is wiped at once.
  const std::uint32_t next = current_.epoch + 1;
  std::array<std::uint8_t, 32> next_secret{};
  crypto::hkdf_expand(crypto::HmacKey(prk_), kRatchetLabel, next_secret);
  crypto::hkdf_extract(epoch_salt(session_id_, next), next_secret, next_prk);
  crypto::secure_wipe(next_secret.data(), next_secret.size());
  return derive_from_prk(crypto::HmacKey(next_prk), next);
}

void KeySchedule::advance(EpochKeys next,
                          std::span<const std::uint8_t, kPrkSize> next_prk,
                          double now_ms) {
  previous_ = std::move(current_);
  previous_expires_ms_ = now_ms + policy_.grace_ms;
  std::copy(next_prk.begin(), next_prk.end(), prk_.expose_mut().begin());
  current_ = std::move(next);
  last_rekey_ms_ = now_ms;
  ++stats_.rekeys;
}

void KeySchedule::rekey(double now_ms) {
  Prk next_prk{};
  EpochKeys next = derive_next(next_prk);
  advance(std::move(next), next_prk, now_ms);
  crypto::secure_wipe(next_prk.data(), next_prk.size());
}

Message KeySchedule::make_confirm(std::uint64_t nonce) const {
  Message msg;
  msg.type = role_ == Role::kInitiator ? MessageType::kKeyConfirm
                                       : MessageType::kKeyConfirmAck;
  msg.session_id = session_id_;
  msg.nonce = nonce;
  append_be32(msg.payload, current_.epoch);
  msg.mac = confirm_tag(current_, msg, role_);
  return msg;
}

bool KeySchedule::verify_confirm(const Message& msg) const {
  const Role peer =
      role_ == Role::kInitiator ? Role::kResponder : Role::kInitiator;
  const MessageType expected_type = peer == Role::kInitiator
                                        ? MessageType::kKeyConfirm
                                        : MessageType::kKeyConfirmAck;
  if (msg.type != expected_type || msg.session_id != session_id_) return false;
  if (msg.payload.size() != 4 ||
      read_be32(msg.payload.data()) != current_.epoch) {
    return false;
  }
  return crypto::constant_time_equal(msg.mac, confirm_tag(current_, msg, peer));
}

Message KeySchedule::seal(std::uint64_t nonce,
                          const std::vector<std::uint8_t>& plain) {
  const DirectionKeys& tx = send_keys(current_);
  Message msg;
  msg.type = MessageType::kData;
  msg.session_id = session_id_;
  msg.nonce = nonce;
  append_be32(msg.payload, current_.epoch);
  const auto cipher =
      crypto::Aes128(tx.enc).ctr_crypt(plain, tx.nonce_base ^ nonce);
  msg.payload.insert(msg.payload.end(), cipher.begin(), cipher.end());
  const auto tag = crypto::hmac_sha256(tx.mac, mac_input(msg));
  msg.mac.assign(tag.begin(), tag.end());
  ++stats_.sealed;
  return msg;
}

std::optional<std::vector<std::uint8_t>> KeySchedule::open(const Message& msg,
                                                           double now_ms) {
  if (msg.type != MessageType::kData || msg.session_id != session_id_ ||
      msg.payload.size() < 4) {
    ++stats_.malformed;
    return std::nullopt;
  }
  const std::uint32_t epoch = read_be32(msg.payload.data());

  const EpochKeys* keys = nullptr;
  bool grace = false;
  if (epoch == current_.epoch) {
    keys = &current_;
  } else if (previous_.has_value() && epoch == previous_->epoch &&
             now_ms <= previous_expires_ms_) {
    keys = &*previous_;
    grace = true;
  } else if (epoch == current_.epoch + 1) {
    // The peer rekeyed first. Derive the candidate epoch and require the
    // frame to authenticate under it *before* adopting anything — a forged
    // epoch number alone must not move the schedule.
    Prk next_prk{};
    EpochKeys candidate = derive_next(next_prk);
    const auto tag =
        crypto::hmac_sha256(recv_keys(candidate).mac, mac_input(msg));
    if (!crypto::constant_time_equal(msg.mac, tag)) {
      crypto::secure_wipe(next_prk.data(), next_prk.size());
      ++stats_.mac_rejects;
      return std::nullopt;
    }
    advance(std::move(candidate), next_prk, now_ms);
    crypto::secure_wipe(next_prk.data(), next_prk.size());
    ++stats_.fast_forwards;
    keys = &current_;
  } else {
    ++stats_.epoch_rejects;
    return std::nullopt;
  }

  // The fast-forward path verified once already; verifying again here keeps
  // a single authenticate-then-decrypt sequence for every route.
  const DirectionKeys& rx = recv_keys(*keys);
  const auto tag = crypto::hmac_sha256(rx.mac, mac_input(msg));
  if (!crypto::constant_time_equal(msg.mac, tag)) {
    ++stats_.mac_rejects;
    return std::nullopt;
  }

  std::vector<std::uint8_t> cipher(msg.payload.begin() + 4,
                                   msg.payload.end());
  auto plain = crypto::Aes128(rx.enc).ctr_crypt(cipher, rx.nonce_base ^
                                                            msg.nonce);
  ++stats_.opened;
  if (grace) ++stats_.grace_opens;
  return plain;
}

RekeyTimer::RekeyTimer(SimClock& clock, KeySchedule& schedule,
                       std::function<void(std::uint32_t)> on_rekey)
    : clock_(clock), schedule_(schedule), on_rekey_(std::move(on_rekey)) {}

RekeyTimer::~RekeyTimer() { stop(); }

void RekeyTimer::start() {
  if (running_) return;
  running_ = true;
  arm(schedule_.policy().rekey_interval_ms);
}

void RekeyTimer::stop() {
  running_ = false;
  clock_.cancel(pending_);
}

void RekeyTimer::arm(double delay_ms) {
  pending_ = clock_.schedule(delay_ms, [this] {
    if (!running_) return;
    ++fired_;
    const double now = clock_.now_ms();
    if (schedule_.rekey_due(now)) {
      schedule_.rekey(now);
      if (on_rekey_) on_rekey_(schedule_.epoch());
      arm(schedule_.policy().rekey_interval_ms);
    } else {
      // The peer fast-forwarded us since the last firing; re-arm for the
      // remainder of the current epoch's interval instead of rekeying
      // early (which would race the peer one epoch ahead).
      arm(schedule_.last_rekey_ms() + schedule_.policy().rekey_interval_ms -
          now);
    }
  });
}

ConfirmReport run_key_confirmation(SimClock& clock, UnreliableChannel& link,
                                   KeySchedule& initiator,
                                   KeySchedule& responder,
                                   std::size_t max_transmissions,
                                   std::uint64_t nonce_base) {
  using Endpoint = UnreliableChannel::Endpoint;
  VKEY_REQUIRE(max_transmissions >= 1, "need at least one transmission");

  ConfirmReport report;
  const double t0 = clock.now_ms();
  double done_at = t0;
  bool done = false;
  std::uint64_t ack_nonce = nonce_base + 500'000;

  // The responder is stateless: every authentic confirm earns a fresh ack,
  // so a lost ack heals on the initiator's next retransmission.
  link.set_handler(Endpoint::kBob, [&](const Message& msg) {
    if (msg.type == MessageType::kKeyConfirm &&
        responder.verify_confirm(msg)) {
      link.send(Endpoint::kBob, responder.make_confirm(ack_nonce++));
    }
  });
  link.set_handler(Endpoint::kAlice, [&](const Message& msg) {
    if (!done && msg.type == MessageType::kKeyConfirmAck &&
        initiator.verify_confirm(msg)) {
      done = true;
      done_at = clock.now_ms();
    }
  });

  // Retransmit on a flat timeout of ~2 RTT plus slack for reordering and
  // duplicate echoes. All virtual time, so the choice only affects how much
  // simulated air the retries consume.
  const Message probe = initiator.make_confirm(nonce_base);
  const double timeout_ms =
      4.0 * link.nominal_latency_ms(probe) +
      link.faults().reorder_window_ms + 100.0;

  std::function<void()> attempt = [&] {
    if (done || report.transmissions >= max_transmissions) return;
    ++report.transmissions;
    link.send(Endpoint::kAlice,
              initiator.make_confirm(nonce_base + report.transmissions));
    clock.schedule(timeout_ms, attempt);
  };
  attempt();
  clock.run_until_idle();

  // The handlers capture locals of this frame; leave inert ones behind so a
  // stale delivery scheduled by the caller later cannot touch dead stack.
  link.set_handler(Endpoint::kAlice, [](const Message&) {});
  link.set_handler(Endpoint::kBob, [](const Message&) {});

  report.confirmed = done;
  report.duration_ms = (done ? done_at : clock.now_ms()) - t0;
  return report;
}

}  // namespace vkey::protocol
