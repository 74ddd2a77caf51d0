#include "obs/bench_schema.hpp"

#include <cstdio>
#include <cstdlib>

#include "obs/json.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"

namespace lmc::obs {

BenchRecord::BenchRecord(std::string bench, std::string case_label)
    : bench_(std::move(bench)), case_(std::move(case_label)) {}

BenchRecord& BenchRecord::param(const std::string& key, const std::string& value) {
  params_.emplace_back(key, json_quote(value));
  return *this;
}

BenchRecord& BenchRecord::param(const std::string& key, std::uint64_t value) {
  params_.emplace_back(key, std::to_string(value));
  return *this;
}

BenchRecord& BenchRecord::param(const std::string& key, double value) {
  params_.emplace_back(key, json_double(value));
  return *this;
}

BenchRecord& BenchRecord::metric(const std::string& key, std::uint64_t value) {
  metrics_.emplace_back(key, std::to_string(value));
  return *this;
}

BenchRecord& BenchRecord::metric(const std::string& key, double value) {
  metrics_.emplace_back(key, json_double(value));
  return *this;
}

std::string BenchRecord::to_json() const {
  std::string out = "{\"schema\":\"lmc-bench/1\",\"bench\":" + json_quote(bench_);
  out += ",\"case\":" + json_quote(case_);
  out += ",\"params\":{";
  bool first = true;
  for (const auto& [k, v] : params_) {
    if (!first) out += ',';
    first = false;
    out += json_quote(k) + ":" + v;
  }
  out += "},\"metrics\":{";
  first = true;
  for (const auto& [k, v] : metrics_) {
    if (!first) out += ',';
    first = false;
    out += json_quote(k) + ":" + v;
  }
  out += "}}";
  return out;
}

void BenchRecord::emit() const {
  const std::string line = to_json();
  std::printf("%s\n", line.c_str());
  if (const char* path = std::getenv("LMC_BENCH_JSON"); path != nullptr && path[0] != '\0') {
    if (std::FILE* f = std::fopen(path, "ab"); f != nullptr) {
      std::fwrite(line.data(), 1, line.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
    }
  }
}

bool validate_bench_record(const JsonValue& v, std::string* err) {
  auto fail = [&](const std::string& what) {
    if (err != nullptr) *err = what;
    return false;
  };
  if (!v.is_object()) return fail("record is not an object");
  const JsonValue* schema = v.get("schema");
  if (schema == nullptr || !schema->is_string() || schema->str != "lmc-bench/1")
    return fail("missing or wrong \"schema\" (want lmc-bench/1)");
  const JsonValue* bench = v.get("bench");
  if (bench == nullptr || !bench->is_string() || bench->str.empty())
    return fail("missing \"bench\" string");
  const JsonValue* case_label = v.get("case");
  if (case_label == nullptr || !case_label->is_string() || case_label->str.empty())
    return fail("missing \"case\" string");
  const JsonValue* params = v.get("params");
  if (params == nullptr || !params->is_object()) return fail("missing \"params\" object");
  for (const auto& [k, pv] : params->fields)
    if (!pv.is_number() && !pv.is_string() && !pv.is_bool())
      return fail("param \"" + k + "\" is not a number/string/bool");
  const JsonValue* metrics = v.get("metrics");
  if (metrics == nullptr || !metrics->is_object()) return fail("missing \"metrics\" object");
  if (metrics->fields.empty()) return fail("\"metrics\" is empty");
  for (const auto& [k, mv] : metrics->fields)
    if (!mv.is_number()) return fail("metric \"" + k + "\" is not a number");
  return true;
}

bool validate_obs_line(const std::string& line, std::string* err) {
  auto fail = [&](const std::string& what) {
    if (err != nullptr) *err = what;
    return false;
  };
  JsonValue v;
  std::string perr;
  if (!json_parse(line, v, &perr)) return fail("not valid JSON: " + perr);
  if (!v.is_object()) return fail("line is not a JSON object");
  const JsonValue* schema = v.get("schema");
  if (schema == nullptr || !schema->is_string()) return fail("missing \"schema\" key");
  if (schema->str == "lmc-bench/1") return validate_bench_record(v, err);
  if (schema->str == "lmc-trace/1") {
    TraceEvent ev;
    if (!parse_jsonl_line(line, ev)) return fail("malformed lmc-trace/1 event");
    return true;
  }
  if (schema->str == "lmc-prof/2") return validate_prof_value(v, err);
  return fail("unknown schema \"" + schema->str + "\"");
}

}  // namespace lmc::obs
