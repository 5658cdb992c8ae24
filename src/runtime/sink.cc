#include "runtime/sink.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "runtime/experiment.h"

namespace meecc::runtime {

void JsonWriter::string(std::string_view s) {
  out_.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out_.append("\\\""); break;
      case '\\': out_.append("\\\\"); break;
      case '\n': out_.append("\\n"); break;
      case '\r': out_.append("\\r"); break;
      case '\t': out_.append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out_.append(buf);
        } else {
          out_.push_back(c);
        }
    }
  }
  out_.push_back('"');
}

void JsonWriter::key(std::string_view k) {
  string(k);
  out_.push_back(':');
}

void JsonWriter::number(std::uint64_t value) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  out_.append(buf, end);
}

void JsonWriter::number(double value) {
  if (std::isnan(value)) {
    out_.append("null");  // JSON has no NaN
    return;
  }
  if (std::isinf(value)) {
    out_.append(value > 0 ? "1e999" : "-1e999");
    return;
  }
  // precision-17 general format round-trips every double and is specified
  // to match printf %.17g — byte-compatible with the pre-JsonWriter
  // ostringstream path ("15000" stays bare, 0.017 round-trips).
  char buf[40];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value,
                                       std::chars_format::general, 17);
  out_.append(buf, end);
}

std::string format_double(double value) {
  std::string out;
  JsonWriter(out).number(value);
  return out;
}

std::string json_escape(std::string_view s) {
  std::string quoted;
  JsonWriter(quoted).string(s);
  return quoted.substr(1, quoted.size() - 2);  // drop the surrounding quotes
}

void append_json_line(std::string& out, const TrialRecord& record) {
  JsonWriter w(out);
  w.raw("{\"experiment\":");
  w.string(record.spec.experiment);
  w.raw(",\"trial\":");
  w.number(static_cast<std::uint64_t>(record.spec.trial_index));
  w.raw(",\"seed\":");
  w.number(record.spec.seed);
  w.raw(",\"params\":{");
  for (std::size_t i = 0; i < record.spec.params.size(); ++i) {
    const auto& [key, value] = record.spec.params[i];
    if (i) w.raw(',');
    w.key(key);
    w.string(value);
  }
  w.raw("},\"ok\":");
  w.boolean(record.ok);
  if (!record.ok) {
    w.raw(",\"error\":");
    w.string(record.error);
    w.raw('}');
    return;
  }
  w.raw(",\"metrics\":{");
  for (std::size_t i = 0; i < record.result.metrics.size(); ++i) {
    const auto& [key, value] = record.result.metrics[i];
    if (i) w.raw(',');
    w.key(key);
    w.number(value);
  }
  w.raw('}');
  if (!record.result.series.empty()) {
    w.raw(",\"series\":{");
    for (std::size_t i = 0; i < record.result.series.size(); ++i) {
      const auto& series = record.result.series[i];
      if (i) w.raw(',');
      w.key(series.name);
      w.raw('[');
      for (std::size_t j = 0; j < series.values.size(); ++j) {
        if (j) w.raw(',');
        w.number(series.values[j]);
      }
      w.raw(']');
    }
    w.raw('}');
  }
  // Counters ride along only when present, keeping pre-observability
  // consumers (and byte-exact golden JSONL) unchanged for counter-less
  // records. Snapshot order is sorted-by-name, hence deterministic.
  if (!record.counters.empty()) {
    w.raw(",\"counters\":{");
    for (std::size_t i = 0; i < record.counters.size(); ++i) {
      if (i) w.raw(',');
      w.key(record.counters[i].name);
      w.number(record.counters[i].value);
    }
    w.raw('}');
  }
  w.raw('}');
}

std::string to_json_line(const TrialRecord& record) {
  std::string out;
  append_json_line(out, record);
  return out;
}

void write_jsonl(std::ostream& out, const std::vector<TrialRecord>& records) {
  // One buffer for the whole stream: formatting stops allocating once it
  // reaches the longest line's capacity.
  std::string line;
  for (const TrialRecord& record : records) {
    line.clear();
    append_json_line(line, record);
    line.push_back('\n');
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
  }
}

void JsonlResultStream::commit(std::size_t /*first*/, const std::string* lines,
                               std::size_t count) {
  for (std::size_t i = 0; i < count; ++i)
    out_.write(lines[i].data(), static_cast<std::streamsize>(lines[i].size()));
  if (!out_) throw std::runtime_error("streaming JSONL write failed");
}

Table summary_table(const std::vector<TrialRecord>& records,
                    const std::vector<std::string>& param_columns) {
  // Metric columns come from the first successful record; experiments emit
  // a stable metric set, so this is the whole sweep's schema.
  std::vector<std::string> metric_names;
  for (const TrialRecord& record : records) {
    if (!record.ok) continue;
    for (const auto& [name, value] : record.result.metrics)
      metric_names.push_back(name);
    break;
  }

  std::vector<std::string> header = {"trial", "seed"};
  header.insert(header.end(), param_columns.begin(), param_columns.end());
  header.insert(header.end(), metric_names.begin(), metric_names.end());
  // A sweep in which every trial failed has no metric columns; give the
  // failure messages one.
  if (metric_names.empty()) header.push_back("result");
  Table table(header);

  for (const TrialRecord& record : records) {
    std::vector<std::string> row = {std::to_string(record.spec.trial_index),
                                    std::to_string(record.spec.seed)};
    for (const std::string& key : param_columns) {
      const auto v = find_param(record.spec.params, key);
      row.push_back(std::string(v.value_or("-")));
    }
    if (!record.ok) {
      // The message takes the first metric cell; the rest are padded.
      row.push_back("FAILED: " + record.error);
      row.resize(header.size(), "-");
      table.add_row(std::move(row));
      continue;
    }
    for (const std::string& name : metric_names) {
      const auto v = record.result.find_metric(name);
      char buf[40];
      if (v)
        std::snprintf(buf, sizeof buf, "%.6g", *v);
      row.push_back(v ? buf : "-");
    }
    if (metric_names.empty()) row.push_back("ok");
    table.add_row(std::move(row));
  }
  return table;
}

obs::CounterSnapshot merge_counters(const std::vector<TrialRecord>& records) {
  obs::CounterSnapshot merged;
  for (const TrialRecord& record : records)
    obs::merge_into(merged, record.counters);
  return merged;
}

Table counters_table(const obs::CounterSnapshot& counters) {
  Table table({"counter", "value"});
  for (const obs::CounterSample& sample : counters)
    table.add_row({sample.name.str(), std::to_string(sample.value)});
  return table;
}

}  // namespace meecc::runtime
