// Known-bad fixture: key material attached to trace spans and events.
// Not compiled — consumed by `vkey_secretflow.py --self-test` only. Each
// `// expect:` annotation names the rule the analyzer must fire on that
// exact line; the self-test fails on misses AND on extra findings.
#include <cstdint>
#include <span>

namespace fixture {

void leak_span_attr(trace::ScopedTimer& t, const SecretBuffer& session_key) {
  const auto okm = hkdf(salt, ikm, info, 32);
  t.attr("okm0", okm.expose()[0]);  // expect: secret-to-trace
  auto head = session_key.expose()[0];
  t.attr("head", head);  // expect: secret-to-trace
  t.attr("okm_len", 32);  // length literal only: must stay silent
}

void leak_event(trace::TraceLog& log, double t_ms) {
  const auto confirm_key = derive_subkey(prk, "confirm", 16);
  const auto ev = event_of("confirm", t_ms, confirm_key);
  log.record(ev);  // expect: secret-to-trace
}

}  // namespace fixture
