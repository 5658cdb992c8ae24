// enclave_rw: direct mee::MeeEngine::read_line / write_line calls with
// functional crypto and the default MEE config — the one workload with
// writes beside reads, and the one where crypto dominates. DES, the cache
// hierarchy and the runtime are bypassed.
//
// A request touches one 4 KiB page (64 lines): 70% read it, 30% rewrite it.
// Pages come from a 32-page hot set (80% of requests, drawn afresh each
// round) and from the whole working set: 2048 contiguous EPC pages (8 MiB)
// at a seed-chosen offset, preloaded at set-up, far beyond what the MEE
// cache covers. A shadow copy of every line checks that each read returns
// the last plaintext written there.
//
// The traced run repeats the identical request stream on a timing-only
// engine (functional_crypto=false); the difference is crypto's own time.
#include <array>
#include <memory>
#include <string>

#include "common/rng.h"
#include "mee/engine.h"
#include "mem/address_map.h"
#include "mem/physical_memory.h"
#include "obs/hub.h"
#include "report.h"

namespace meecc::perfbench {
namespace {

/// Deterministic input generator owned by the benchmark (splitmix64), so
/// workload inputs never depend on the simulator's own RNG.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

struct Shape {
  std::uint64_t pages;
  std::uint64_t hot_pages;
  std::size_t requests;  ///< per round
};
constexpr Shape kFull{2048, 32, 10240};
constexpr Shape kTiny{64, 8, 256};
constexpr double kHotShare = 0.8;
constexpr double kReadShare = 0.7;
constexpr std::size_t kLinesPerPage = kPageSize / kLineSize;
constexpr int kSetupReps = 3;

struct Request {
  std::uint32_t page;  ///< index into the working set
  bool write;
};

/// The run's working set, drawn from the seed: which EPC frames it holds.
struct Inputs {
  Shape shape;
  std::vector<std::uint64_t> frames;  ///< EPC frame of each working-set page
  std::uint64_t seed = 0;
};

/// `n` distinct values below `bound`, in draw order.
std::vector<std::uint64_t> distinct(InputRng& rng, std::uint64_t n,
                                    std::uint64_t bound) {
  std::vector<std::uint64_t> all(bound);
  for (std::uint64_t i = 0; i < bound; ++i) all[i] = i;
  for (std::uint64_t i = 0; i < n; ++i)
    std::swap(all[i], all[i + rng.below(bound - i)]);
  all.resize(n);
  return all;
}

Inputs make_inputs(const Options& options, std::uint64_t epc_frames) {
  Inputs in;
  in.shape = options.tiny ? kTiny : kFull;
  in.seed = options.seed;
  // A contiguous run of frames at a seed-chosen offset: every seed covers
  // the MEE cache's sets alike, so the work per request does not hinge on
  // how one random frame draw happens to collide.
  InputRng rng(round_seed(options.seed, 0) * 0x9E3779B97F4A7C15ULL);
  const std::uint64_t first = rng.below(epc_frames - in.shape.pages + 1);
  for (std::uint64_t i = 0; i < in.shape.pages; ++i)
    in.frames.push_back(first + i);
  return in;
}

/// Round `round`'s request stream: a fresh hot set and fresh draws.
std::vector<Request> make_requests(const Inputs& in, int round) {
  InputRng rng(round_seed(in.seed, round) * 0xD1B54A32D192ED03ULL);
  const std::vector<std::uint64_t> hot =
      distinct(rng, in.shape.hot_pages, in.shape.pages);
  std::vector<Request> requests(in.shape.requests);
  for (auto& request : requests) {
    request.page = static_cast<std::uint32_t>(
        rng.unit() < kHotShare ? hot[rng.below(hot.size())]
                               : rng.below(in.shape.pages));
    request.write = rng.unit() >= kReadShare;
  }
  return requests;
}

/// Deterministic line contents for (seed, tag, line).
mem::Line fill_line(std::uint64_t seed, std::uint64_t tag, std::uint64_t line) {
  InputRng rng(seed ^ (tag * 0xD6E8FEB86659FD93ULL) ^ (line << 20));
  mem::Line out;
  for (std::size_t w = 0; w < out.size(); w += 8) {
    const std::uint64_t word = rng.next();
    for (std::size_t b = 0; b < 8; ++b)
      out[w + b] = static_cast<std::uint8_t>(word >> (8 * b));
  }
  return out;
}

/// One simulated memory: the engine with the memory and map it borrows.
/// Not copyable or movable: the engine keeps references to its members.
struct Machine {
  explicit Machine(bool functional_crypto) {
    mee::MeeConfig config;
    config.functional_crypto = functional_crypto;
    engine = std::make_unique<mee::MeeEngine>(map, memory, config, Rng(42),
                                              &hub);
  }
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;
  PhysAddr line_addr(const Inputs& in, std::uint32_t page,
                     std::size_t line) const {
    return map.epc_frame_base(in.frames[page]) + line * kLineSize;
  }
  mem::AddressMap map{mem::AddressMapConfig{}};
  mem::PhysicalMemory memory;
  obs::Hub hub;
  std::unique_ptr<mee::MeeEngine> engine;
};

/// Writes the initial contents of every working-set line (into the shadow
/// too): the preload half of set-up.
void preload(Machine& machine, const Inputs& in,
             std::vector<mem::Line>& shadow) {
  shadow.resize(in.frames.size() * kLinesPerPage);
  for (std::uint32_t page = 0; page < in.frames.size(); ++page)
    for (std::size_t line = 0; line < kLinesPerPage; ++line) {
      const std::size_t slot = page * kLinesPerPage + line;
      shadow[slot] = fill_line(in.seed, 0, slot);
      machine.engine->write_line(CoreId{0}, machine.line_addr(in, page, line),
                                 shadow[slot]);
    }
}

/// Counter deltas between two snapshots of one registry.
obs::CounterSnapshot delta(const obs::CounterSnapshot& before,
                           const obs::CounterSnapshot& after) {
  obs::CounterSnapshot out = after;
  for (auto& sample : out)
    sample.value -= obs::snapshot_value(before, sample.name);
  return out;
}

struct Phase {
  RoundCosts costs;
  LatencyLog latency;
  std::uint64_t attempted = 0, passed = 0;
  /// Engine counters over the first kDigestRounds rounds, and the digest
  /// of those counters plus every line those rounds read.
  obs::CounterSnapshot counters;
  Digest digest;
  std::size_t digest_requests = 0;
  SpanLog spans;
};

/// Runs the request stream in rounds on `machine` (already preloaded, with
/// `shadow` holding what it must read back).
Phase run_phase(Machine& machine, const Inputs& in,
                std::vector<mem::Line>& shadow, double seconds, bool traced) {
  Phase phase;
  std::array<mem::Line, kLinesPerPage> buffer;
  mee::MeeEngine& engine = *machine.engine;
  const obs::CounterSnapshot start = machine.hub.registry().snapshot();
  std::uint64_t item = 0;
  run_rounds(seconds, kDigestRounds, [&](int round) {
    const std::vector<Request> requests = make_requests(in, round);
    const std::size_t n = requests.size();
    const bool digest_round = round < kDigestRounds;
    std::vector<double> latency_ms;
    latency_ms.reserve(n);
    const double wall = phase.costs.measure(n, [&] {
      for (std::size_t r = 0; r < n; ++r) {
        const Request& request = requests[r];
        const std::size_t first = request.page * kLinesPerPage;
        const std::uint64_t tag =
            (static_cast<std::uint64_t>(round) + 1) * n + r;
        if (request.write)
          for (std::size_t line = 0; line < kLinesPerPage; ++line)
            buffer[line] = fill_line(in.seed, tag, first + line);
        bool ok = true;
        const auto t0 = Clock::now();
        try {
          for (std::size_t line = 0; line < kLinesPerPage; ++line) {
            const PhysAddr addr = machine.line_addr(in, request.page, line);
            if (request.write)
              engine.write_line(CoreId{0}, addr, buffer[line]);
            else
              engine.read_line(CoreId{0}, addr, &buffer[line]);
          }
        } catch (const mee::TamperDetected&) {
          ok = false;
        }
        const auto t1 = Clock::now();
        for (std::size_t line = 0; ok && line < kLinesPerPage; ++line) {
          if (request.write) {
            shadow[first + line] = buffer[line];
          } else {
            ok = buffer[line] == shadow[first + line];
            if (digest_round)
              phase.digest.add(
                  {reinterpret_cast<const char*>(buffer[line].data()),
                   buffer[line].size()});
          }
        }
        latency_ms.push_back(1e3 * seconds_between(t0, t1));
        if (traced)
          phase.spans.add(
              request.write ? "mee.write_page" : "mee.read_page", t0, t1,
              SpanLog::kNoParent, item);
        ++item;
        ++phase.attempted;
        if (ok) ++phase.passed;
      }
    });
    phase.latency.add_round(latency_ms);
    if (digest_round) phase.digest_requests += n;
    if (round + 1 == kDigestRounds) {
      phase.counters = delta(start, machine.hub.registry().snapshot());
      for (const auto& sample : phase.counters) {
        phase.digest.add(sample.name);
        phase.digest.add_u64(sample.value);
      }
    }
    return wall;
  });
  return phase;
}

void add_layers(Outcome& out, const Phase& untraced, const Phase& functional,
                const Phase& timing_only) {
  // Counts per request over the digest rounds.
  const obs::CounterSnapshot& c = functional.counters;
  const auto value = [&c](std::string_view name) {
    return static_cast<double>(obs::snapshot_value(c, name));
  };
  const double n = static_cast<double>(functional.digest_requests);
  const double walks = value("mee.read_walks") + value("mee.write_walks");
  out.layer("mee.read_walks", value("mee.read_walks") / n);
  out.layer("mee.write_walks", value("mee.write_walks") / n);
  out.layer("mee.versions_stop_ratio",
            ratio(value("mee.stop.versions"), walks));
  out.layer("mee.nodes_fetched_per_walk",
            ratio(value("mee.nodes_fetched"), walks));
  out.layer("mee.host_ns_per_walk",
            ratio(1e9 * median(functional.costs.wall_s),
                  walks / static_cast<double>(kDigestRounds)));
  out.layer("mee.read_us_p50",
            1e3 * median(functional.spans.durations_ms("mee.read_page")));
  out.layer("mee.write_us_p50",
            1e3 * median(functional.spans.durations_ms("mee.write_page")));
  out.layer("crypto.self_s",
            median(functional.costs.wall_s) - median(timing_only.costs.wall_s));
  out.layer("crypto.pad_hit_ratio",
            ratio(value("crypto.pad.hit"),
                  value("crypto.pad.hit") + value("crypto.pad.miss")));
  out.layer("crypto.mac_verifies",
            (value("mee.mac.node_verifies") + value("mee.mac.tag_verifies")) /
                n);
  // No DRAM model runs here, so the memory figures are the lines the
  // engine reads from memory: every data line a read walk decrypts (the
  // event fig7's dram.protected_reads counts) plus every tree node a read
  // or write walk fetches.
  out.layer("mem.dram_reads",
            (value("mee.read_walks") + value("mee.nodes_fetched")) / n);
  out.layer("mem.dram_protected_reads", value("mee.read_walks") / n);
  out.layer("trace.overhead_ratio",
            ratio(median(untraced.costs.rates),
                  median(functional.costs.rates)));
}

}  // namespace

Outcome run_enclave_rw(const Options& options) {
  Outcome out;
  const Inputs in =
      make_inputs(options,
                  mem::AddressMap(mem::AddressMapConfig{}).epc_frame_count());
  out.note("requests_per_round", std::to_string(in.shape.requests));
  out.note("working_set_pages", std::to_string(in.frames.size()));

  // Set-up: engine construction plus the preload writes, repeated; the
  // median. The last machine built is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Machine> machine;
  std::vector<mem::Line> shadow;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    machine.reset();
    const auto t0 = Clock::now();
    machine = std::make_unique<Machine>(true);
    preload(*machine, in, shadow);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  const double phase_seconds =
      options.trace ? options.seconds / 3 : options.seconds;
  const Phase untraced =
      run_phase(*machine, in, shadow, phase_seconds, false);
  machine.reset();
  out.note("digest", untraced.digest.hex());

  out.attempted = untraced.attempted;
  std::uint64_t passed = untraced.passed;
  if (!options.trace) {
    add_end_to_end(out, options, setup_s, untraced.costs, untraced.latency,
                   untraced.passed, untraced.attempted);
  } else {
    const auto traced_phase = [&](bool functional_crypto) {
      Machine fresh(functional_crypto);
      std::vector<mem::Line> fresh_shadow;
      preload(fresh, in, fresh_shadow);
      return run_phase(fresh, in, fresh_shadow, phase_seconds, true);
    };
    const Phase functional = traced_phase(true);
    const Phase timing_only = traced_phase(false);
    if (functional.digest.value() != untraced.digest.value() ||
        functional.counters != untraced.counters)
      out.fail("enclave_rw: traced counts differ from untraced");
    add_layers(out, untraced, functional, timing_only);
    functional.spans.write_csv(work_dir() + "/spans-enclave_rw.csv");
    out.note("items_per_s_untraced", fmt(median(untraced.costs.rates)));
    out.note("items_per_s_traced", fmt(median(functional.costs.rates)));
    out.note("items_per_s_timing_only", fmt(median(timing_only.costs.rates)));
    out.attempted += functional.attempted + timing_only.attempted;
    passed += functional.passed + timing_only.passed;
  }
  out.failed = out.attempted - passed;
  if (out.failed != 0)
    out.fail("enclave_rw: " + std::to_string(out.failed) +
             " page requests read back wrong data or hit TamperDetected");
  return out;
}

}  // namespace meecc::perfbench
