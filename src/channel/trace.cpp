#include "channel/trace.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/stats.h"

namespace vkey::channel {

namespace {
constexpr double kSpeedOfLight = 299792458.0;

/// Quantize an RSSI reading to the register step and clamp to the SX127x
/// reporting range.
double quantize_rssi(double rssi_dbm, double step_db) {
  const double q = std::round(rssi_dbm / step_db) * step_db;
  return std::clamp(q, -137.0, 0.0);
}
}  // namespace

double PacketObservation::prssi() const {
  return vkey::stats::mean(rrssi);
}

struct TraceGenerator::Impl {
  TraceConfig cfg;
  LoRaPhy phy;

  SpeedProcess speed_a;
  SpeedProcess speed_b;
  DistanceProcess distance;

  SmallScaleFading fade_ab;   // the reciprocal Alice-Bob channel
  SmallScaleFading fade_ea;   // Eve-Alice channel
  SmallScaleFading fade_eb;   // Eve-Bob channel
  ShadowingProcess shadow_ab;
  CorrelatedShadowing shadow_ea;
  CorrelatedShadowing shadow_eb;

  // Per-receiver slowly-varying interference offsets (asymmetric between
  // directions: Sec. II-A cause 4).
  double interf_alice = 0.0;
  double interf_bob = 0.0;
  double interf_eve = 0.0;

  // Fixed per-unit hardware gain offsets (cause 2).
  double hw_alice;
  double hw_bob;
  double hw_eve;

  vkey::Rng rng_noise;
  vkey::Rng rng_interf;

  double now = 0.0;
  double last_fade_t_ab = 0.0;
  double last_fade_t_ea = 0.0;
  double last_fade_t_eb = 0.0;
  double last_shadow_pos = 0.0;

  explicit Impl(const TraceConfig& c)
      : cfg(c),
        phy(c.phy),
        speed_a(c.scenario.speed_a_kmh, c.scenario.speed_jitter_kmh, 30.0,
                vkey::Rng(vkey::hash_combine64(c.seed, 0x01))),
        speed_b(c.scenario.speed_b_kmh,
                c.scenario.speed_b_kmh > 0 ? c.scenario.speed_jitter_kmh : 0.0,
                30.0, vkey::Rng(vkey::hash_combine64(c.seed, 0x02))),
        distance(c.scenario, vkey::Rng(vkey::hash_combine64(c.seed, 0x03))),
        fade_ab(SmallScaleConfig{c.scenario.sos_rays, c.scenario.rician_k_db,
                                 c.scenario.slow_doppler_scale,
                                 c.scenario.fast_fading_weight},
                vkey::Rng(vkey::hash_combine64(c.seed, 0x04))),
        fade_ea(SmallScaleConfig{c.scenario.sos_rays, c.scenario.rician_k_db,
                                 c.scenario.slow_doppler_scale,
                                 c.scenario.fast_fading_weight},
                vkey::Rng(vkey::hash_combine64(c.seed, 0x05))),
        fade_eb(SmallScaleConfig{c.scenario.sos_rays, c.scenario.rician_k_db,
                                 c.scenario.slow_doppler_scale,
                                 c.scenario.fast_fading_weight},
                vkey::Rng(vkey::hash_combine64(c.seed, 0x06))),
        shadow_ab(c.scenario.shadow_sigma_db, c.scenario.shadow_decorr_m,
                  vkey::Rng(vkey::hash_combine64(c.seed, 0x07))),
        shadow_ea(std::exp(-c.eve_offset_m / c.scenario.shadow_decorr_m),
                  c.scenario.shadow_sigma_db, c.scenario.shadow_decorr_m,
                  vkey::Rng(vkey::hash_combine64(c.seed, 0x08))),
        shadow_eb(std::exp(-c.eve_offset_m / c.scenario.shadow_decorr_m),
                  c.scenario.shadow_sigma_db, c.scenario.shadow_decorr_m,
                  vkey::Rng(vkey::hash_combine64(c.seed, 0x09))),
        rng_noise(vkey::hash_combine64(c.seed, 0x0a)),
        rng_interf(vkey::hash_combine64(c.seed, 0x0b)) {
    vkey::Rng hw_rng(vkey::hash_combine64(c.seed, 0x0c));
    hw_alice = hw_rng.gaussian(0.0, c.device_alice.gain_offset_sigma_db);
    hw_bob = hw_rng.gaussian(0.0, c.device_bob.gain_offset_sigma_db);
    hw_eve = hw_rng.gaussian(0.0, c.device_eve.gain_offset_sigma_db);
  }

  double doppler_hz(double speed_mps) const {
    return speed_mps / kSpeedOfLight * cfg.phy.carrier_hz;
  }

  /// Advance the slowly varying interference offsets once per round.
  void advance_interference() {
    const double s = cfg.scenario.interference_asym_sigma_db;
    if (s <= 0.0) return;
    constexpr double kRho = 0.9;  // round-to-round correlation
    const double w = std::sqrt(1.0 - kRho * kRho) * s;
    interf_alice = kRho * interf_alice + w * rng_interf.gaussian();
    interf_bob = kRho * interf_bob + w * rng_interf.gaussian();
    interf_eve = kRho * interf_eve + w * rng_interf.gaussian();
  }

  enum class Link { kAliceBob, kEveAlice, kEveBob };

  /// One receiver of a transmission window.
  struct Listener {
    Link link;
    const DeviceModel* rx_dev;
    double offset_db;  ///< rx hardware gain offset + current interference
    PacketObservation* out;
  };

  /// Sample one transmission window of `n_sym` symbols starting at `t0` for
  /// all listeners simultaneously. Geometry (speeds, separation, shadowing
  /// position) advances exactly once per symbol instant; each link's fading
  /// process advances by its own elapsed time, so the same window can be
  /// observed through several statistically distinct links.
  void transmit_phase(double t0, double tx_power_dbm,
                      std::initializer_list<Listener> listeners) {
    const int n_sym = phy.rssi_samples_per_packet();
    const double tsym = phy.symbol_time();
    // Per-packet receiver gain drift (see DeviceModel::gain_drift...).
    std::vector<double> drift;
    drift.reserve(listeners.size());
    for (const Listener& l : listeners) {
      l.out->t_start = t0;
      l.out->t_end = t0 + phy.airtime();
      l.out->rrssi.clear();
      l.out->rrssi.reserve(static_cast<std::size_t>(n_sym));
      drift.push_back(rng_noise.gaussian(
          0.0, l.rx_dev->gain_drift_db_per_s15 *
                   std::pow(phy.airtime(), 1.5)));
    }

    for (int i = 0; i < n_sym; ++i) {
      const double t = t0 + (i + 0.5) * tsym;
      const double va = speed_a.at(t);
      const double vb = speed_b.at(t);
      const double d_ab = distance.at(t);
      const double pos = distance.travelled();
      const double dpos = std::max(0.0, pos - last_shadow_pos);
      last_shadow_pos = pos;

      const double fd_a = doppler_hz(va);
      const double fd_b = doppler_hz(vb);
      // The LOS beat against the diffuse field drifts with the dominant
      // (slow) aspect-angle dynamics, like the slow scatter rings.
      const double fd_los = doppler_hz(std::fabs(distance.radial_speed())) *
                            cfg.scenario.slow_doppler_scale * 10.0;

      // The legitimate link's shadowing advances at every sample instant;
      // Eve's processes blend their own component with it.
      const double s_ab = shadow_ab.advance(dpos);
      const double s_ea = shadow_ea.advance(dpos, s_ab);
      const double s_eb = shadow_eb.advance(dpos, s_ab);

      std::size_t listener_idx = 0;
      for (const Listener& l : listeners) {
        double gain_db = drift[listener_idx++];
        switch (l.link) {
          case Link::kAliceBob: {
            const double dt = std::max(0.0, t - last_fade_t_ab);
            last_fade_t_ab = t;
            gain_db += -path_loss_db(d_ab, cfg.scenario.path_loss_exponent,
                                     cfg.scenario.ref_path_loss_db) +
                       s_ab + fade_ab.advance_db(dt, fd_a, fd_b, fd_los);
            break;
          }
          case Link::kEveAlice: {
            // Eve trails Alice at a fixed small offset: short, stable link.
            const double dt = std::max(0.0, t - last_fade_t_ea);
            last_fade_t_ea = t;
            gain_db += -path_loss_db(cfg.eve_offset_m,
                                     cfg.scenario.path_loss_exponent,
                                    cfg.scenario.ref_path_loss_db) +
                      s_ea + fade_ea.advance_db(dt, fd_a, 0.0, 0.0);
            break;
          }
          case Link::kEveBob: {
            // Eve-Bob separation tracks the Alice-Bob separation (she
            // follows Alice's route), offset laterally.
            const double dt = std::max(0.0, t - last_fade_t_eb);
            last_fade_t_eb = t;
            const double d_eb = std::hypot(d_ab, cfg.eve_offset_m);
            gain_db += -path_loss_db(d_eb, cfg.scenario.path_loss_exponent,
                                     cfg.scenario.ref_path_loss_db) +
                       s_eb + fade_eb.advance_db(dt, fd_a, fd_b, fd_los);
            break;
          }
        }
        const double noise =
            rng_noise.gaussian(0.0, l.rx_dev->rssi_noise_sigma_db);
        const double rssi_signal = tx_power_dbm + gain_db + noise + l.offset_db;
        // The register reports signal + thermal floor power: deep fades are
        // soft-clamped at the receiver noise floor.
        const double rssi = 10.0 * std::log10(
            std::pow(10.0, rssi_signal / 10.0) +
            std::pow(10.0, l.rx_dev->noise_floor_dbm / 10.0));
        l.out->rrssi.push_back(
            quantize_rssi(rssi, l.rx_dev->rssi_quant_step_db));
      }
    }
  }

  ProbeRound next_round() {
    advance_interference();
    ProbeRound round;
    round.t_round_start = now;
    round.distance_m = distance.at(now);

    const double airtime = phy.airtime();

    // Phase 1: Alice transmits; Bob and Eve listen.
    const double t1 = now;
    transmit_phase(
        t1, cfg.device_alice.tx_power_dbm,
        {Listener{Link::kAliceBob, &cfg.device_bob, hw_bob + interf_bob,
                  &round.bob_rx},
         Listener{Link::kEveAlice, &cfg.device_eve, hw_eve + interf_eve,
                  &round.eve_rx_alice_tx}});

    // Phase 2: Bob turns around and responds; Alice and Eve listen.
    const double t2 = t1 + airtime + cfg.device_bob.turnaround_delay_s;
    transmit_phase(
        t2, cfg.device_bob.tx_power_dbm,
        {Listener{Link::kAliceBob, &cfg.device_alice,
                  hw_alice + interf_alice, &round.alice_rx},
         Listener{Link::kEveBob, &cfg.device_eve, hw_eve + interf_eve,
                  &round.eve_rx_bob_tx}});

    now = t2 + airtime + cfg.probe_interval_s;
    // One probe exchange = two packets on the air (probe + response).
    phy.account_airtime(AirtimeUse::kProbe, 2);
    return round;
  }
};

TraceGenerator::TraceGenerator(const TraceConfig& config)
    : impl_(std::make_unique<Impl>(config)) {
  VKEY_REQUIRE(config.probe_interval_s >= 0.0,
               "probe interval must be non-negative");
  VKEY_REQUIRE(config.eve_offset_m > 0.0, "Eve offset must be positive");
}

TraceGenerator::~TraceGenerator() = default;
TraceGenerator::TraceGenerator(TraceGenerator&&) noexcept = default;
TraceGenerator& TraceGenerator::operator=(TraceGenerator&&) noexcept =
    default;

ProbeRound TraceGenerator::next_round() { return impl_->next_round(); }

std::vector<ProbeRound> TraceGenerator::generate(std::size_t n) {
  std::vector<ProbeRound> rounds;
  rounds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) rounds.push_back(impl_->next_round());
  return rounds;
}

double TraceGenerator::round_duration() const {
  return 2.0 * impl_->phy.airtime() +
         impl_->cfg.device_bob.turnaround_delay_s +
         impl_->cfg.probe_interval_s;
}

const LoRaPhy& TraceGenerator::phy() const { return impl_->phy; }

double TraceGenerator::coherence_time_s() const {
  const double va = impl_->cfg.scenario.speed_a_kmh / 3.6;
  const double vb = impl_->cfg.scenario.speed_b_kmh / 3.6;
  const double v = std::max(std::fabs(va - vb), std::max(va, vb) * 0.5);
  const double fd = impl_->doppler_hz(std::max(v, 0.1));
  return 0.423 / fd;
}

}  // namespace vkey::channel
