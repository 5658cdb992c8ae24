// Result sinks: JSON-lines for the machine-readable trajectory, and the
// human-readable summary table built on common/table.h.
//
// JSONL output is deliberately deterministic — no timestamps, doubles
// printed with round-trip precision — so `--jobs N` runs diff clean against
// `--jobs 1` and downstream tooling can hash result files.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/table.h"
#include "runtime/runner.h"

namespace meecc::runtime {

/// Append-only JSON assembler over a caller-owned buffer. The result path
/// formats every trial through one of these into a recycled per-worker
/// buffer, so emitting a record allocates nothing once the buffer has
/// grown to steady state (numerics go through std::to_chars, escaping
/// writes directly into the buffer). Byte-compatible with the previous
/// ostringstream path: doubles use %.17g-equivalent round-trip formatting.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}

  void raw(char c) { out_.push_back(c); }
  void raw(std::string_view s) { out_.append(s); }
  /// Quoted, escaped JSON string.
  void string(std::string_view s);
  /// `"key":` — the escaped key of an object member.
  void key(std::string_view k);
  void number(std::uint64_t value);
  void number(double value);
  void boolean(bool value) { raw(value ? "true" : "false"); }

 private:
  std::string& out_;
};

/// One JSON object per record:
///   {"experiment":"fig7_window_sweep","trial":3,"seed":45,
///    "params":{"window":"15000",...},"ok":true,
///    "metrics":{"error_rate":0.017,...},"series":{"probe_times":[...]}}
/// Failed trials carry "ok":false and "error" instead of metrics.
/// Appends to `out` without clearing it (the zero-allocation path: callers
/// clear() and reuse one buffer per worker).
void append_json_line(std::string& out, const TrialRecord& record);

/// Convenience wrapper returning a fresh string.
std::string to_json_line(const TrialRecord& record);

/// Writes to_json_line + '\n' for every record.
void write_jsonl(std::ostream& out, const std::vector<TrialRecord>& records);

/// ResultStream appending committed lines to an ostream: the bounded-memory
/// `--json --streaming` path. Output is byte-identical to write_jsonl over
/// the same records — lines arrive from the runner already in trial
/// order.
class JsonlResultStream final : public ResultStream {
 public:
  explicit JsonlResultStream(std::ostream& out) : out_(out) {}
  void commit(std::size_t first, const std::string* lines,
              std::size_t count) override;

 private:
  std::ostream& out_;
};

/// Round-trip double formatting ("15000", "0.017000000000000001").
std::string format_double(double value);

/// JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(std::string_view s);

/// Summary table: one row per trial with trial index, seed, the given
/// param columns, and every metric of the first successful record (failed
/// trials show the error). `param_columns` is typically swept_keys().
Table summary_table(const std::vector<TrialRecord>& records,
                    const std::vector<std::string>& param_columns);

/// Every record's counters merged (values summed), one row per counter
/// name. Backs `meecc_bench run --counters`.
obs::CounterSnapshot merge_counters(const std::vector<TrialRecord>& records);

/// Renders a merged snapshot as a two-column name/value table.
Table counters_table(const obs::CounterSnapshot& counters);

}  // namespace meecc::runtime
