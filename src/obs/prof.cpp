#include "obs/prof.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <type_traits>

#include "obs/json.hpp"

namespace lmc::obs {

namespace {

constexpr const char* kSchema = "lmc-prof/2";

/// Read a stat line's value into `out`; false when it is not a number or
/// does not fit the field's type.
template <class T>
bool stat_value(const JsonValue& v, T& out) {
  if (!v.is_number()) return false;
  if constexpr (std::is_floating_point_v<T>) {
    out = v.as_double();
  } else {
    const std::uint64_t u = v.as_u64();
    if (u > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) return false;
    out = static_cast<T>(u);
  }
  return true;
}

/// Apply f(field) to the stat named `name`; false when no field has it.
template <class F>
bool with_stat(LocalMcStats& s, const std::string& name, F&& f) {
  bool found = false;
  for_each_stat(s, [&](const char* n, auto& field) {
    if (!found && name == n) {
      found = true;
      f(field);
    }
  });
  return found;
}

}  // namespace

void TimeHist::add(double secs) {
  const double ns = secs * 1e9;
  std::size_t bucket = 0;
  if (ns >= 1.0) {
    // floor(log2) + 1: [2^(i-1), 2^i) ns lands in bucket i, [1,2) in 1.
    bucket = static_cast<std::size_t>(std::floor(std::log2(ns))) + 1;
    if (bucket >= kBuckets) bucket = kBuckets - 1;
  }
  ++count[bucket];
  total_s += secs;
}

void TimeHist::merge(const TimeHist& o) {
  for (std::size_t i = 0; i < kBuckets; ++i) count[i] += o.count[i];
  total_s += o.total_s;
}

std::uint64_t TimeHist::samples() const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) n += count[i];
  return n;
}

std::vector<std::pair<std::string, std::string>> stat_json_fields(const LocalMcStats& s) {
  std::vector<std::pair<std::string, std::string>> out;
  for_each_stat(s, [&](const char* name, const auto& v) {
    if constexpr (std::is_floating_point_v<std::remove_cvref_t<decltype(v)>>)
      out.emplace_back(name, json_double(v));
    else
      out.emplace_back(name, std::to_string(static_cast<std::uint64_t>(v)));
  });
  return out;
}

bool RuleKey::operator<(const RuleKey& o) const {
  return std::tie(node, is_message, kind) < std::tie(o.node, o.is_message, o.kind);
}

void ProfileSink::rule(const RuleKey& key, bool cached, std::uint64_t ser_bytes,
                       std::uint64_t hash_bytes, double exec_s) {
  RuleProf& r = rules_[key];
  if (cached) {
    ++r.cached;
  } else {
    ++r.runs;
    // Only real executions feed the histogram: a cached replay has no
    // handler wall time, and a zero-duration sample would distort bucket 0.
    r.time.add(exec_s);
  }
  r.ser_bytes += ser_bytes;
  r.hash_bytes += hash_bytes;
}

void ProfileSink::add_run(const LocalMcStats& stats, unsigned threads) {
  merge_stats(stats_, stats);
  ++runs_;
  threads_ = std::max(threads_, threads);
}

std::string ProfileSink::identity_text() const {
  // Canonical identity rendering: fixed field order, decimal numbers only.
  // Threads, histograms and the attribution stats are left out — they
  // differ between machines and thread counts.
  std::string out = "lmc-prof-identity/2\nruns " + std::to_string(runs_) + '\n';
  LocalMcStats s = stats_;
  clear_attribution(s);
  for (const auto& [name, value] : stat_json_fields(s)) out += "stat " + name + ' ' + value + '\n';
  for (const auto& [key, r] : rules_) {
    out += "rule " + std::to_string(key.node) + ' ' +
           (key.is_message != 0 ? std::string("msg") : std::string("int")) + ' ' +
           std::to_string(key.kind) + " runs=" + std::to_string(r.runs) +
           " cached=" + std::to_string(r.cached) +
           " ser=" + std::to_string(r.ser_bytes) +
           " hash=" + std::to_string(r.hash_bytes) + '\n';
  }
  return out;
}

std::string ProfileSink::to_jsonl() const {
  const std::string head = std::string("{\"schema\":\"") + kSchema + "\",\"kind\":";
  std::string out = head + "\"meta\",\"version\":2";
  out += ",\"threads\":" + std::to_string(threads_);
  out += ",\"runs\":" + std::to_string(runs_);
  out += "}\n";
  for (const auto& [name, value] : stat_json_fields(stats_))
    out += head + "\"stat\",\"name\":" + json_quote(name) + ",\"value\":" + value + "}\n";
  for (const auto& [key, r] : rules_) {
    out += head + "\"rule\",\"node\":" + std::to_string(key.node);
    out += ",\"rule\":";
    out += key.is_message != 0 ? "\"message\"" : "\"internal\"";
    out += ",\"event\":" + std::to_string(key.kind);
    out += ",\"runs\":" + std::to_string(r.runs);
    out += ",\"cached\":" + std::to_string(r.cached);
    out += ",\"ser_bytes\":" + std::to_string(r.ser_bytes);
    out += ",\"hash_bytes\":" + std::to_string(r.hash_bytes);
    out += ",\"exec_s\":" + json_double(r.time.total_s);
    out += ",\"hist\":[";
    bool first = true;
    for (std::size_t b = 0; b < TimeHist::kBuckets; ++b) {
      if (r.time.count[b] == 0) continue;
      if (!first) out += ',';
      first = false;
      out += '[' + std::to_string(b) + ',' + std::to_string(r.time.count[b]) + ']';
    }
    out += "]}\n";
  }
  return out;
}

void ProfileSink::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot write profile file " + path);
  const std::string text = to_jsonl();
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

namespace {

bool prof_object(const std::string& line, JsonValue& v, std::string& kind) {
  if (!json_parse(line, v) || !v.is_object()) return false;
  const JsonValue* schema = v.get("schema");
  if (schema == nullptr || !schema->is_string() || schema->str != kSchema) return false;
  const JsonValue* k = v.get("kind");
  if (k == nullptr || !k->is_string()) return false;
  kind = k->str;
  return true;
}

std::uint64_t get_u64(const JsonValue& v, const char* key) {
  const JsonValue* f = v.get(key);
  return f != nullptr && f->is_number() ? f->as_u64() : 0;
}

double get_dbl(const JsonValue& v, const char* key) {
  const JsonValue* f = v.get(key);
  return f != nullptr && f->is_number() ? f->as_double() : 0.0;
}

}  // namespace

bool merge_prof_line(const std::string& line, ProfileData& data) {
  JsonValue v;
  std::string kind;
  if (!prof_object(line, v, kind)) return false;

  if (kind == "meta") {
    data.threads = std::max(data.threads, static_cast<unsigned>(get_u64(v, "threads")));
    data.runs += get_u64(v, "runs");
  } else if (kind == "stat") {
    const JsonValue* name = v.get("name");
    const JsonValue* value = v.get("value");
    if (name == nullptr || !name->is_string() || value == nullptr) return false;
    bool ok = false;
    with_stat(data.stats, name->str, [&](auto& field) {
      std::remove_reference_t<decltype(field)> x{};
      ok = stat_value(*value, x);
      if (ok) merge_stat(field, x);
    });
    if (!ok) return false;
  } else if (kind == "rule") {
    RuleKey key;
    key.node = static_cast<std::uint32_t>(get_u64(v, "node"));
    const JsonValue* rk = v.get("rule");
    key.is_message = (rk != nullptr && rk->is_string() && rk->str == "message") ? 1 : 0;
    key.kind = static_cast<std::uint32_t>(get_u64(v, "event"));
    ProfileData::Rule& r = data.rules[key];
    r.key = key;
    r.runs += get_u64(v, "runs");
    r.cached += get_u64(v, "cached");
    r.ser_bytes += get_u64(v, "ser_bytes");
    r.hash_bytes += get_u64(v, "hash_bytes");
    r.exec_s += get_dbl(v, "exec_s");
    if (const JsonValue* hist = v.get("hist");
        hist != nullptr && hist->kind == JsonValue::Kind::kArray) {
      for (const JsonValue& pair : hist->items) {
        if (pair.kind != JsonValue::Kind::kArray || pair.items.size() != 2) continue;
        const auto bucket = static_cast<std::uint32_t>(pair.items[0].as_u64());
        const std::uint64_t n = pair.items[1].as_u64();
        r.samples += n;
        bool merged = false;
        for (auto& [b, c] : r.hist) {
          if (b == bucket) {
            c += n;
            merged = true;
            break;
          }
        }
        if (!merged) r.hist.emplace_back(bucket, n);
      }
      std::sort(r.hist.begin(), r.hist.end());
    }
  } else {
    return false;
  }
  ++data.lines;
  return true;
}

bool validate_prof_value(const JsonValue& v, std::string* err) {
  auto fail = [&](const std::string& why) {
    if (err != nullptr) *err = why;
    return false;
  };
  const JsonValue* k = v.get("kind");
  if (k == nullptr || !k->is_string()) return fail("lmc-prof/2 line missing \"kind\"");
  auto need_num = [&](const char* key) {
    const JsonValue* f = v.get(key);
    return f != nullptr && f->is_number();
  };
  if (k->str == "meta") {
    for (const char* key : {"version", "threads", "runs"})
      if (!need_num(key)) return fail(std::string("prof meta line missing \"") + key + "\"");
    return true;
  }
  if (k->str == "stat") {
    const JsonValue* name = v.get("name");
    if (name == nullptr || !name->is_string()) return fail("prof stat line missing \"name\"");
    const JsonValue* value = v.get("value");
    if (value == nullptr) return fail("prof stat line missing \"value\"");
    LocalMcStats probe;
    bool ok = false;
    if (!with_stat(probe, name->str, [&](auto& field) { ok = stat_value(*value, field); }))
      return fail("prof stat line has unknown name " + name->str);
    if (!ok) return fail("prof stat " + name->str + " has a value outside its type");
    return true;
  }
  if (k->str == "rule") {
    const JsonValue* rk = v.get("rule");
    if (rk == nullptr || !rk->is_string() ||
        (rk->str != "message" && rk->str != "internal")) {
      return fail("prof rule line needs \"rule\":\"message\"|\"internal\"");
    }
    for (const char* key : {"node", "event", "runs", "cached", "ser_bytes",
                            "hash_bytes", "exec_s"}) {
      if (!need_num(key)) {
        return fail(std::string("prof rule line missing \"") + key + "\"");
      }
    }
    const JsonValue* hist = v.get("hist");
    if (hist == nullptr || hist->kind != JsonValue::Kind::kArray) {
      return fail("prof rule line missing \"hist\" array");
    }
    for (const JsonValue& pair : hist->items) {
      if (pair.kind != JsonValue::Kind::kArray || pair.items.size() != 2 ||
          !pair.items[0].is_number() || !pair.items[1].is_number()) {
        return fail("prof rule hist entries must be [bucket,count] pairs");
      }
      if (pair.items[0].as_u64() >= TimeHist::kBuckets) {
        return fail("prof rule hist bucket out of range");
      }
    }
    return true;
  }
  return fail("lmc-prof/2 line has unknown kind " + k->str);
}

}  // namespace lmc::obs
