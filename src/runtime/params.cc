#include "runtime/params.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>

#include "cache/hierarchy.h"
#include "cache/policy.h"
#include "cache/replacement.h"
#include "mem/frame_allocator.h"

namespace meecc::runtime {

namespace {

[[noreturn]] void bad_value(std::string_view key, std::string_view value,
                            std::string_view expected) {
  std::ostringstream os;
  os << "bad value '" << value << "' for parameter '" << key << "' (expected "
     << expected << ")";
  throw ParamError(os.str());
}

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

std::uint32_t parse_u32(std::string_view key, std::string_view value) {
  const std::uint64_t v = parse_u64(key, value);
  if (v > UINT32_MAX) bad_value(key, value, "a 32-bit unsigned integer");
  return static_cast<std::uint32_t>(v);
}

mem::EpcPlacement parse_placement(std::string_view key,
                                  std::string_view value) {
  const std::string v = lower(value);
  if (v == "contiguous") return mem::EpcPlacement::kContiguous;
  if (v == "randomized" || v == "fragmented")
    return mem::EpcPlacement::kRandomized;
  bad_value(key, value, "contiguous|randomized");
}

channel::NoiseEnv parse_noise(std::string_view key, std::string_view value) {
  const auto env = channel::noise_env_from_string(lower(value));
  if (!env) bad_value(key, value, "none|stress|mee512|mee4k");
  return *env;
}

/// Validates a policy name against its registry at parse time, so a typo in
/// --set/--sweep fails before any trial runs, naming the alternatives.
/// `names` lists the registered policies; it is only called for the error
/// message, so accepting a known name builds no list.
std::string parse_policy_name(std::string_view key, std::string_view value,
                              bool known,
                              std::vector<std::string> (*names)()) {
  if (known) return std::string(value);
  std::string expected;
  for (const auto& name : names()) {
    if (!expected.empty()) expected += '|';
    expected += name;
  }
  bad_value(key, value, expected);
}

/// Count-like values that users spell in scientific notation ("1e6").
std::uint64_t parse_count(std::string_view key, std::string_view value) {
  const double v = parse_double(key, value);
  if (!(v >= 0.0) || v != std::floor(v) || v > 1e18)
    bad_value(key, value, "a non-negative integer count (1e6 ok)");
  return static_cast<std::uint64_t>(v);
}

double parse_probability(std::string_view key, std::string_view value) {
  const double v = parse_double(key, value);
  if (!(v >= 0.0 && v <= 1.0)) bad_value(key, value, "a probability in [0,1]");
  return v;
}

using SystemApply = void (*)(sim::SystemConfig&, std::string_view,
                             std::string_view);
using BedApply = void (*)(channel::TestBedConfig&, std::string_view,
                          std::string_view);

struct SystemParam {
  std::string_view key;
  std::string_view doc;
  SystemApply apply;
};

struct BedParam {
  std::string_view key;
  std::string_view doc;
  BedApply apply;
};

// The machine-level half of the table: everything reachable from
// sim::SystemConfig.
constexpr SystemParam kSystemParams[] = {
    {"cores", "physical core count, 1-8 (one LLC core-valid bit each)",
     [](sim::SystemConfig& c, std::string_view k, std::string_view v) {
       c.cores = parse_u32(k, v);
       if (c.cores == 0 || c.cores > cache::Hierarchy::kMaxCores)
         bad_value(k, v, "a core count from 1 to 8");
     }},
    {"clock_ghz", "core clock for cycles<->seconds conversion",
     [](sim::SystemConfig& c, std::string_view k, std::string_view v) {
       c.clock_ghz = parse_double(k, v);
     }},
    {"epc_size", "protected-data region bytes (K/M/G suffixes)",
     [](sim::SystemConfig& c, std::string_view k, std::string_view v) {
       c.address_map.epc_size = parse_size(k, v);
     }},
    {"general_size", "general DRAM region bytes (K/M/G suffixes)",
     [](sim::SystemConfig& c, std::string_view k, std::string_view v) {
       c.address_map.general_size = parse_size(k, v);
     }},
    {"epc_placement", "EPC frame handout order: contiguous|randomized",
     [](sim::SystemConfig& c, std::string_view k, std::string_view v) {
       c.epc_placement = parse_placement(k, v);
     }},
    {"functional_crypto", "real AES/MAC per line vs timing-only model",
     [](sim::SystemConfig& c, std::string_view k, std::string_view v) {
       c.mee.functional_crypto = parse_bool(k, v);
     }},
    {"mee.cache_bytes", "MEE cache capacity (paper: 64K)",
     [](sim::SystemConfig& c, std::string_view k, std::string_view v) {
       c.mee.cache_geometry.size_bytes = parse_size(k, v);
     }},
    {"mee.ways", "MEE cache associativity (paper: 8)",
     [](sim::SystemConfig& c, std::string_view k, std::string_view v) {
       c.mee.cache_geometry.ways = parse_u32(k, v);
     }},
    {"mee.versions_hit_extra", "cycles added on a versions hit",
     [](sim::SystemConfig& c, std::string_view k, std::string_view v) {
       c.mee.latency.versions_hit_extra = parse_u64(k, v);
     }},
    {"mee.versions_miss_serialization", "extra cycles on any versions miss",
     [](sim::SystemConfig& c, std::string_view k, std::string_view v) {
       c.mee.latency.versions_miss_serialization = parse_u64(k, v);
     }},
    {"mee.per_level_step", "cycles per extra tree level fetched",
     [](sim::SystemConfig& c, std::string_view k, std::string_view v) {
       c.mee.latency.per_level_step = parse_u64(k, v);
     }},
    {"mee.write_update_extra", "counter bump + re-MAC cycles on writes",
     [](sim::SystemConfig& c, std::string_view k, std::string_view v) {
       c.mee.latency.write_update_extra = parse_u64(k, v);
     }},
    {"mee.service_base", "engine occupancy per access",
     [](sim::SystemConfig& c, std::string_view k, std::string_view v) {
       c.mee.latency.service_base = parse_u64(k, v);
     }},
    {"mee.service_per_node", "engine occupancy per fetched node",
     [](sim::SystemConfig& c, std::string_view k, std::string_view v) {
       c.mee.latency.service_per_node = parse_u64(k, v);
     }},
    {"mee.cache.indexing", "MEE set-index policy: modulo|keyed|skewed",
     [](sim::SystemConfig& c, std::string_view k, std::string_view v) {
       c.mee.cache_policy.indexing =
           parse_policy_name(k, v, cache::is_indexing_policy(v),
                             cache::indexing_policy_names);
     }},
    {"mee.cache.replacement",
     "MEE replacement policy: lru|nru|random|tree-plru",
     [](sim::SystemConfig& c, std::string_view k, std::string_view v) {
       c.mee.cache_policy.replacement =
           parse_policy_name(k, v, cache::is_replacement_policy(v),
                             cache::replacement_names);
     }},
    {"mee.cache.fill", "MEE fill policy: all|partition|random",
     [](sim::SystemConfig& c, std::string_view k, std::string_view v) {
       c.mee.cache_policy.fill = parse_policy_name(
           k, v, cache::is_fill_policy(v), cache::fill_policy_names);
     }},
    {"mee.cache.index_key", "keyed/skewed index permutation key",
     [](sim::SystemConfig& c, std::string_view k, std::string_view v) {
       c.mee.cache_policy.index_key = parse_u64(k, v);
     }},
    {"mee.cache.skew_partitions", "way groups with independent index keys",
     [](sim::SystemConfig& c, std::string_view k, std::string_view v) {
       c.mee.cache_policy.skew_partitions = parse_u32(k, v);
     }},
    {"mee.cache.fill_probability", "random-fill admission probability",
     [](sim::SystemConfig& c, std::string_view k, std::string_view v) {
       c.mee.cache_policy.fill_probability = parse_probability(k, v);
     }},
    {"mee.cache.rekey_period", "walks between MEE flush+rekey, 0=off (1e6 ok)",
     [](sim::SystemConfig& c, std::string_view k, std::string_view v) {
       c.mee.cache_policy.rekey_period = parse_count(k, v);
     }},
    {"llc.indexing", "LLC set-index policy: modulo|keyed|skewed",
     [](sim::SystemConfig& c, std::string_view k, std::string_view v) {
       c.hierarchy.llc_policy.indexing =
           parse_policy_name(k, v, cache::is_indexing_policy(v),
                             cache::indexing_policy_names);
     }},
    {"llc.replacement", "LLC replacement policy: lru|nru|random|tree-plru",
     [](sim::SystemConfig& c, std::string_view k, std::string_view v) {
       c.hierarchy.llc_policy.replacement =
           parse_policy_name(k, v, cache::is_replacement_policy(v),
                             cache::replacement_names);
     }},
};

// The rig-level half: TestBedConfig fields outside SystemConfig.
constexpr BedParam kBedParams[] = {
    {"noise", "Fig. 8 co-tenant environment: none|stress|mee512|mee4k",
     [](channel::TestBedConfig& c, std::string_view k, std::string_view v) {
       c.noise = parse_noise(k, v);
     }},
    {"noise_autostart", "spawn the noise agent at construction vs deferred",
     [](channel::TestBedConfig& c, std::string_view k, std::string_view v) {
       c.noise_autostart = parse_bool(k, v);
     }},
    {"trojan_bytes", "trojan enclave size (K/M/G suffixes)",
     [](channel::TestBedConfig& c, std::string_view k, std::string_view v) {
       c.trojan_enclave_bytes = parse_size(k, v);
     }},
    {"spy_bytes", "spy enclave size",
     [](channel::TestBedConfig& c, std::string_view k, std::string_view v) {
       c.spy_enclave_bytes = parse_size(k, v);
     }},
    {"noise_bytes", "noise enclave size",
     [](channel::TestBedConfig& c, std::string_view k, std::string_view v) {
       c.noise_enclave_bytes = parse_size(k, v);
     }},
    {"background_bytes", "background enclave size",
     [](channel::TestBedConfig& c, std::string_view k, std::string_view v) {
       c.background_enclave_bytes = parse_size(k, v);
     }},
    {"background_gap", "mean cycles between ambient protected accesses",
     [](channel::TestBedConfig& c, std::string_view k, std::string_view v) {
       c.background_mean_gap = parse_u64(k, v);
     }},
};

}  // namespace

std::uint64_t parse_u64(std::string_view key, std::string_view value) {
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size())
    bad_value(key, value, "an unsigned integer");
  return out;
}

std::uint64_t parse_size(std::string_view key, std::string_view value) {
  std::uint64_t multiplier = 1;
  std::string_view digits = value;
  if (!value.empty()) {
    switch (value.back()) {
      case 'k': case 'K': multiplier = 1ull << 10; break;
      case 'm': case 'M': multiplier = 1ull << 20; break;
      case 'g': case 'G': multiplier = 1ull << 30; break;
      default: break;
    }
    if (multiplier != 1) digits.remove_suffix(1);
  }
  if (digits.empty()) bad_value(key, value, "a byte count like 512, 64K, 32M");
  return parse_u64(key, digits) * multiplier;
}

double parse_double(std::string_view key, std::string_view value) {
  const std::string s(value);
  std::size_t used = 0;
  double out = 0.0;
  try {
    out = std::stod(s, &used);
  } catch (const std::exception&) {
    bad_value(key, value, "a number");
  }
  if (used != s.size()) bad_value(key, value, "a number");
  return out;
}

bool parse_bool(std::string_view key, std::string_view value) {
  const std::string v = lower(value);
  if (v == "true" || v == "on" || v == "yes" || v == "1") return true;
  if (v == "false" || v == "off" || v == "no" || v == "0") return false;
  bad_value(key, value, "true|false");
}

bool is_config_key(std::string_view key) {
  for (const auto& p : kSystemParams)
    if (p.key == key) return true;
  for (const auto& p : kBedParams)
    if (p.key == key) return true;
  return false;
}

const std::vector<ConfigKeyDoc>& config_key_docs() {
  static const std::vector<ConfigKeyDoc> docs = [] {
    std::vector<ConfigKeyDoc> out;
    for (const auto& p : kSystemParams) out.push_back({p.key, p.doc});
    for (const auto& p : kBedParams) out.push_back({p.key, p.doc});
    return out;
  }();
  return docs;
}

bool apply_override(sim::SystemConfig& config, std::string_view key,
                    std::string_view value) {
  for (const auto& p : kSystemParams) {
    if (p.key == key) {
      p.apply(config, key, value);
      return true;
    }
  }
  return false;
}

bool apply_override(channel::TestBedConfig& config, std::string_view key,
                    std::string_view value) {
  if (apply_override(config.system, key, value)) return true;
  for (const auto& p : kBedParams) {
    if (p.key == key) {
      p.apply(config, key, value);
      return true;
    }
  }
  return false;
}

channel::TestBedConfig make_testbed_config(const TrialSpec& spec) {
  channel::TestBedConfig config = channel::default_testbed_config(spec.seed);
  for (const auto& [key, value] : spec.params)
    apply_override(config, key, value);
  return config;
}

std::uint64_t param_u64(const TrialSpec& spec, std::string_view key,
                        std::uint64_t fallback) {
  const auto v = find_param(spec.params, key);
  return v ? parse_u64(key, *v) : fallback;
}

double param_double(const TrialSpec& spec, std::string_view key,
                    double fallback) {
  const auto v = find_param(spec.params, key);
  return v ? parse_double(key, *v) : fallback;
}

bool param_bool(const TrialSpec& spec, std::string_view key, bool fallback) {
  const auto v = find_param(spec.params, key);
  return v ? parse_bool(key, *v) : fallback;
}

std::string param_str(const TrialSpec& spec, std::string_view key,
                      std::string_view fallback) {
  const auto v = find_param(spec.params, key);
  return std::string(v ? *v : fallback);
}

}  // namespace meecc::runtime
