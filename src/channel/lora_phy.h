// LoRa physical-layer timing model (SX127x-style).
//
// The paper's core difficulty is that LoRa's airtime is long relative to the
// channel coherence time: Rb = SF * (BW / 2^SF) * CR, so at SF12/BW125/CR4-8
// the bit rate is 183 bps and a 16-byte packet stays on air for ~1.5 s.
// This module computes symbol time, bit rate, payload symbol count and total
// airtime from the standard Semtech formulas; the trace generator uses it to
// place every rRSSI register sample on the time axis.
#pragma once

#include <cstddef>
#include <cstdint>

namespace vkey::channel {

/// Radio/packet configuration. Defaults are the paper's evaluation settings
/// (BW = 125 kHz, SF = 12, CR = 4/8, f0 = 434 MHz, 16-byte payload).
struct LoRaParams {
  int spreading_factor = 12;   ///< SF, 6..12
  double bandwidth_hz = 125e3;  ///< BW: 7.8k .. 500k
  int coding_rate_denom = 8;   ///< CR = 4/denom, denom in 5..8
  double carrier_hz = 434e6;   ///< f0
  int preamble_symbols = 8;    ///< programmed preamble length
  int payload_bytes = 16;      ///< MAC payload length
  bool explicit_header = true;
  bool crc_on = true;
};

/// What the packets passed to LoRaPhy::account_airtime() carried: channel
/// probes or protocol wire frames ("phy.airtime_ms.probe" / ".wire").
enum class AirtimeUse : std::uint8_t { kProbe, kWire };

/// Derived timing quantities for one LoRaParams configuration.
class LoRaPhy {
 public:
  explicit LoRaPhy(const LoRaParams& params);

  const LoRaParams& params() const { return params_; }

  /// Chirp symbol duration: 2^SF / BW [s].
  double symbol_time() const { return symbol_time_; }

  /// Effective bit rate: SF * BW / 2^SF * (4/CR_denom) [bit/s]. Matches the
  /// paper's Rb formula (183 bps for the default configuration).
  double bit_rate() const { return bit_rate_; }

  /// Number of payload symbols (Semtech AN1200.13 formula, including header
  /// and CRC overhead and low-data-rate optimization for SF >= 11).
  int payload_symbols() const { return payload_symbols_; }

  /// Total symbols on air including preamble (+4.25 sync/SFD symbols).
  double total_symbols() const { return total_symbols_; }

  /// Packet time-on-air [s].
  double airtime() const { return airtime_; }

  /// Number of rRSSI register samples a receiver can latch during one packet
  /// (one per symbol, preamble included — the radio's RSSI register updates
  /// continuously while the packet is being received).
  int rssi_samples_per_packet() const { return rssi_samples_; }

  /// Carrier wavelength [m] (69.12 cm at 434 MHz).
  double wavelength() const;

  /// Pick an SF/BW/CR configuration whose bit rate is closest to
  /// `target_bps`, searching SF 7..12, BW {15.6k, 31.25k, 62.5k, 125k} and
  /// CR denominators 5..8. Used by the Fig. 2(a) data-rate sweep.
  static LoRaParams params_for_bitrate(double target_bps);

  /// Observability hook: account `packets` transmissions of this
  /// configuration in the global metrics registry — total packet count and
  /// accumulated on-air milliseconds, plus a per-use breakdown that
  /// separates probe traffic from protocol wire frames.
  void account_airtime(AirtimeUse use, std::size_t packets = 1) const;

 private:
  LoRaParams params_;
  double symbol_time_ = 0.0;
  double bit_rate_ = 0.0;
  int payload_symbols_ = 0;
  double total_symbols_ = 0.0;
  double airtime_ = 0.0;
  int rssi_samples_ = 0;
};

}  // namespace vkey::channel
