#include "channel/lora_phy.h"

#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/metrics.h"

namespace vkey::channel {

LoRaPhy::LoRaPhy(const LoRaParams& p) : params_(p) {
  VKEY_REQUIRE(p.spreading_factor >= 6 && p.spreading_factor <= 12,
               "SF must be in 6..12");
  VKEY_REQUIRE(p.bandwidth_hz > 0, "bandwidth must be positive");
  VKEY_REQUIRE(p.coding_rate_denom >= 5 && p.coding_rate_denom <= 8,
               "CR denominator must be in 5..8");
  VKEY_REQUIRE(p.payload_bytes > 0, "payload must be non-empty");
  VKEY_REQUIRE(p.preamble_symbols >= 6, "preamble too short");

  const double sf = p.spreading_factor;
  const double two_sf = std::pow(2.0, sf);
  symbol_time_ = two_sf / p.bandwidth_hz;
  bit_rate_ = sf * (p.bandwidth_hz / two_sf) * (4.0 / p.coding_rate_denom);

  // Semtech AN1200.13 payload symbol count. Low-data-rate optimization (DE)
  // is mandatory for symbol times > 16 ms (SF11/SF12 at 125 kHz).
  const bool de = symbol_time_ > 16e-3;
  const int ih = p.explicit_header ? 0 : 1;
  const int crc = p.crc_on ? 1 : 0;
  const double numer = 8.0 * p.payload_bytes - 4.0 * sf + 28 + 16.0 * crc -
                       20.0 * ih;
  const double denom = 4.0 * (sf - (de ? 2.0 : 0.0));
  const double ceil_term = std::ceil(std::max(numer, 0.0) / denom);
  payload_symbols_ =
      8 + static_cast<int>(ceil_term * (p.coding_rate_denom - 4 + 4));
  total_symbols_ = payload_symbols_ + p.preamble_symbols + 4.25;
  airtime_ = total_symbols_ * symbol_time_;
  rssi_samples_ = static_cast<int>(std::floor(total_symbols_));
}

void LoRaPhy::account_airtime(AirtimeUse use, std::size_t packets) const {
  if (!metrics::enabled() || packets == 0) return;
  static metrics::Registry& reg = metrics::Registry::global();
  static metrics::Counter& total_packets = reg.counter("phy.packets");
  static metrics::Gauge& total_ms = reg.gauge("phy.airtime_ms");
  const double ms = airtime_ * 1000.0 * static_cast<double>(packets);
  total_packets.add(packets);
  total_ms.add(ms);
  // Each use registers at its first packet: a run that never probes (or
  // never frames) carries no zero-valued entry for it.
  if (use == AirtimeUse::kProbe) {
    static metrics::Gauge& probe_ms = reg.gauge("phy.airtime_ms.probe");
    probe_ms.add(ms);
  } else {
    static metrics::Gauge& wire_ms = reg.gauge("phy.airtime_ms.wire");
    wire_ms.add(ms);
  }
}

double LoRaPhy::wavelength() const {
  constexpr double kC = 299792458.0;
  return kC / params_.carrier_hz;
}

LoRaParams LoRaPhy::params_for_bitrate(double target_bps) {
  VKEY_REQUIRE(target_bps > 0, "target bit rate must be positive");
  static const double kBandwidths[] = {15.6e3, 31.25e3, 62.5e3, 125e3};
  LoRaParams best;
  double best_err = std::numeric_limits<double>::infinity();
  for (int sf = 7; sf <= 12; ++sf) {
    for (double bw : kBandwidths) {
      for (int cr = 5; cr <= 8; ++cr) {
        LoRaParams p;
        p.spreading_factor = sf;
        p.bandwidth_hz = bw;
        p.coding_rate_denom = cr;
        const double rb =
            sf * (bw / std::pow(2.0, sf)) * (4.0 / cr);
        const double err = std::fabs(std::log(rb / target_bps));
        if (err < best_err) {
          best_err = err;
          best = p;
        }
      }
    }
  }
  return best;
}

}  // namespace vkey::channel
