// The MEE-cache covert channel (paper §5.3, Algorithm 2).
//
// Roles are REVERSED relative to LLC Prime+Probe: the trojan owns the
// eviction set; the spy probes a single cache way (its monitor address), so
// one probe costs one protected access and the ~300-cycle versions hit/miss
// gap stays decodable (§5.2 explains why probing all 8 ways drowns it).
//
// Protocol per timing window Tsync:
//   trojan:  bit 0 → busy loop; bit 1 → two-phase (fwd+bwd) eviction pass
//   spy:     probe the monitor address near the window's end, flush it;
//            versions hit (~480 cyc) → 0, versions miss (~750 cyc) → 1.
//            The probe doubles as the re-prime for the next window.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "channel/classify.h"
#include "channel/eviction_set.h"
#include "channel/testbed.h"
#include "common/types.h"

namespace meecc::channel {

struct ChannelConfig {
  Cycles window = 15000;              ///< Tsync
  std::uint32_t offset_unit = 1;      ///< agreed 512 B index within a page
  EvictionSetConfig eviction;         ///< Algorithm-1 parameters
  double classifier_margin = 90.0;
  /// Spy probes at (window end − probe_phase_back), clamped to ≥ window/2.
  Cycles probe_phase_back = 1500;
  /// Trojan/spy window-boundary jitter bound (shared-clock sync slop).
  Cycles sync_jitter = 40;
  /// Monitor-discovery parameters.
  Cycles beacon_period = 25000;
  int discovery_rounds = 8;
  /// Extra Algorithm 1 + discovery rounds when discovery finds no monitor.
  /// On about 1 in 3,000 seeds Algorithm 1 validates a set whose beacon the
  /// spy never sees, and one more round recovers it. 0 keeps setup a single
  /// attempt, so a setup that a mitigation blocks fails exactly once.
  int setup_retries = 0;

  ChannelConfig() { eviction.offset_unit = offset_unit; }
};

struct ChannelResult {
  std::vector<std::uint8_t> sent;
  std::vector<std::uint8_t> received;
  std::vector<double> probe_times;  ///< per bit — the Fig. 6(b) trace
  std::size_t bit_errors = 0;
  double error_rate = 0.0;
  double kilobytes_per_second = 0.0;  ///< payload rate at the system clock
  EvictionSetResult eviction;
  VirtAddr monitor{};
  bool monitor_found = false;
  Cycles transfer_cycles = 0;
};

/// Channel endpoints after setup: the trojan's eviction set and the spy's
/// monitor address.
struct ChannelSetup {
  EvictionSetResult eviction;
  VirtAddr monitor{};
  bool monitor_found = false;
};

/// Setup only: Algorithm 1 on the trojan plus beacon-driven monitor
/// discovery on the spy. `precomputed` skips Algorithm 1 when sweeping many
/// configurations over one test bed.
ChannelSetup setup_covert_channel(TestBed& bed, const ChannelConfig& config,
                                  const EvictionSetResult* precomputed = nullptr);

/// Transfers `payload` over an established channel (Algorithm 2).
ChannelResult transfer_covert_channel(TestBed& bed, const ChannelConfig& config,
                                      const std::vector<std::uint8_t>& payload,
                                      const ChannelSetup& setup);

/// Setup + transfer. Deferred noise (TestBedConfig::noise_autostart = false)
/// starts between the two, matching Fig. 8's "co-tenant load during
/// communication" scenario.
ChannelResult run_covert_channel(TestBed& bed, const ChannelConfig& config,
                                 const std::vector<std::uint8_t>& payload,
                                 const EvictionSetResult* precomputed = nullptr);

/// Convenience payload generators.
std::vector<std::uint8_t> alternating_bits(std::size_t n);      // 0101…
std::vector<std::uint8_t> pattern_100100(std::size_t n);        // Fig. 8
std::vector<std::uint8_t> random_bits(std::size_t n, std::uint64_t seed);

}  // namespace meecc::channel
