// The unified bench schema "lmc-bench/1" (observability layer, DESIGN.md
// §10). Every bench_* binary, lmc_fuzz, lmc_ckpt and lmc_report emit their
// machine-readable summaries as one-line JSON objects of this shape:
//
//   {"schema":"lmc-bench/1","bench":"<binary>","case":"<case label>",
//    "params":{...numbers/strings...},"metrics":{...numbers...}}
//
// so BENCH_*.json accumulates a comparable trajectory across PRs instead of
// one ad-hoc schema per tool. A record prints to stdout and, when the
// LMC_BENCH_JSON environment variable names a file, appends there too — CI
// sets it to collect every record a job produces into one artifact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lmc::obs {

struct JsonValue;

/// Builder for one "lmc-bench/1" record. Params are the inputs that define
/// the case (depth, threads, seed...); metrics are the measured outputs and
/// must be numeric.
class BenchRecord {
 public:
  BenchRecord(std::string bench, std::string case_label);

  BenchRecord& param(const std::string& key, const std::string& value);
  BenchRecord& param(const std::string& key, std::uint64_t value);
  BenchRecord& param(const std::string& key, double value);

  BenchRecord& metric(const std::string& key, std::uint64_t value);
  BenchRecord& metric(const std::string& key, double value);

  std::string to_json() const;

  /// Print to stdout and append to the $LMC_BENCH_JSON file when set.
  void emit() const;

 private:
  std::string bench_;
  std::string case_;
  std::vector<std::pair<std::string, std::string>> params_;   ///< key → encoded value
  std::vector<std::pair<std::string, std::string>> metrics_;  ///< key → encoded number
};

/// Validate one parsed JSON document against "lmc-bench/1". On failure
/// returns false and describes the first problem in *err.
bool validate_bench_record(const JsonValue& v, std::string* err);

/// Validate one JSONL line against whichever obs schema it declares
/// ("lmc-bench/1", "lmc-trace/1" or "lmc-prof/2"). Lines
/// without a "schema" key are rejected.
bool validate_obs_line(const std::string& line, std::string* err);

}  // namespace lmc::obs
