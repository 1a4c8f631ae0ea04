// Known-bad fixture: keyed HMAC midstates attached to trace spans. An
// HmacKey holds the compressions of key ^ ipad and key ^ opad, which are
// key-equivalent (whoever holds them can MAC under the key), so HmacKey
// declarations, constructions and returns are taint sources, and a hasher
// started from one inherits the taint.
// Not compiled — consumed by `vkey_secretflow.py --self-test` only.
#include <cstdint>
#include <span>

namespace fixture {

crypto::HmacKey keyed_confirm(const EpochKeys& keys) {
  return crypto::HmacKey(keys.confirm);
}

void leak_declared(trace::ScopedTimer& t, std::span<const std::uint8_t> k) {
  const crypto::HmacKey keyed(k);
  t.attr("midstate", keyed);  // expect: secret-to-trace
  crypto::Sha256 inner = keyed.start();
  t.attr("inner_state", inner);  // expect: secret-to-trace
}

void leak_constructed(trace::ScopedTimer& t, std::span<const std::uint8_t> k,
                      const EpochKeys& keys) {
  auto mid = crypto::HmacKey(k);
  t.attr("mid", mid);  // expect: secret-to-trace
  t.attr("inline", crypto::HmacKey(k).start());  // expect: secret-to-trace
  const auto returned = keyed_confirm(keys);
  t.attr("returned", returned);  // expect: secret-to-trace
  t.attr("tag_len", 32);  // length literal only: must stay silent
}

}  // namespace fixture
