// lmc_report: where-did-time-go analysis over obs files.
//
//   lmc_report [--json] [--case LABEL] FILE...     analyze trace JSONL
//   lmc_report --validate FILE...                  schema-check obs JSONL
//   lmc_report --profile [--top K] FILE...         rank lmc-prof/2 rule costs
//
// Analysis mode ingests every "lmc-trace/1" line from the given files (in
// order; other obs lines are skipped so mixed files work), prints the
// per-phase / per-rule / per-worker breakdown, and with --json also emits a
// machine-readable "lmc-bench/1" summary (stdout + $LMC_BENCH_JSON).
//
// Validation mode checks every non-empty line of each file against the obs
// schemas ("lmc-trace/1", "lmc-bench/1", "lmc-prof/2") — CI runs it over
// all artifacts a job produced. Exit: 0 ok, 1 invalid lines, 2 usage/IO.
//
// Profile mode merges every "lmc-prof/2" line from the given files and
// prints the phase rows of the summed run stats, every stat, the rule
// ledger's byte totals and the top-K hottest rules (by handler wall seconds,
// as a share of the derived explore wall, with per-transition
// serialize/hash byte costs).
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/bench_schema.hpp"
#include "obs/prof.hpp"
#include "obs/report.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: lmc_report [--json] [--case LABEL] FILE...\n"
               "       lmc_report --validate FILE...\n"
               "       lmc_report --profile [--top K] FILE...\n");
  return 2;
}

bool read_lines(const std::string& path, std::vector<std::string>& lines) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (!line.empty()) lines.push_back(std::move(line));
  }
  return true;
}

int run_validate(const std::vector<std::string>& files) {
  std::uint64_t total = 0, bad = 0;
  for (const std::string& path : files) {
    std::vector<std::string> lines;
    if (!read_lines(path, lines)) {
      std::fprintf(stderr, "lmc_report: cannot open %s\n", path.c_str());
      return 2;
    }
    for (std::size_t i = 0; i < lines.size(); ++i) {
      ++total;
      std::string err;
      if (!lmc::obs::validate_obs_line(lines[i], &err)) {
        ++bad;
        std::fprintf(stderr, "%s:%zu: %s\n", path.c_str(), i + 1, err.c_str());
      }
    }
  }
  std::printf("lmc_report --validate: %" PRIu64 " line(s), %" PRIu64 " invalid\n", total, bad);
  return bad > 0 ? 1 : 0;
}

int run_profile(const std::vector<std::string>& files, std::size_t top_k) {
  lmc::obs::ProfileData prof;
  for (const std::string& path : files) {
    std::vector<std::string> lines;
    if (!read_lines(path, lines)) {
      std::fprintf(stderr, "lmc_report: cannot open %s\n", path.c_str());
      return 2;
    }
    for (const std::string& line : lines) lmc::obs::merge_prof_line(line, prof);
  }
  if (prof.lines == 0) {
    std::fprintf(stderr, "lmc_report: no lmc-prof/2 lines found\n");
    return 1;
  }
  lmc::obs::print_profile_report(prof, top_k, stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool validate = false, json = false, profile = false;
  std::string case_label = "trace";
  std::vector<std::string> files;
  std::size_t top_k = 20;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--validate") {
      validate = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--top" && i + 1 < argc) {
      top_k = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--case" && i + 1 < argc) {
      case_label = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) return usage();
  if (validate) return run_validate(files);
  if (profile) return run_profile(files, top_k);

  try {
    std::vector<lmc::obs::TraceEvent> events;
    for (const std::string& path : files) {
      std::vector<lmc::obs::TraceEvent> part = lmc::obs::load_trace_file(path);
      events.insert(events.end(), part.begin(), part.end());
    }
    if (events.empty()) {
      std::fprintf(stderr, "lmc_report: no lmc-trace/1 events found\n");
      return 1;
    }
    const lmc::obs::ReportSummary summary = lmc::obs::summarize(events);
    lmc::obs::print_report(summary, stdout);
    if (json) std::printf("%s\n", lmc::obs::report_bench_json(summary, case_label).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lmc_report: %s\n", e.what());
    return 2;
  }
}
