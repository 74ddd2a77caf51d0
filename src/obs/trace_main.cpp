// lmc_trace — trace tooling CLI (DESIGN.md §15).
//
//   lmc_trace export --chrome [-o OUT.json] [--profile PROF.jsonl] FILE...
//       Render trace JSONL (plus an optional lmc-prof/2 profile) as a
//       Chrome trace_event document for Perfetto / chrome://tracing.
//       Mixed files are fine: every line is dispatched by its schema, and
//       --profile files may simply be listed with the others.
//   lmc_trace validate --chrome FILE.json
//       Structural validation of an exported document (JSON parses, has a
//       traceEvents array, every event carries ph/ts/pid). Exit 0/1.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "obs/chrome.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: lmc_trace export --chrome [-o OUT.json] [--profile PROF.jsonl] FILE...\n"
               "       lmc_trace validate --chrome FILE.json\n");
  return 2;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return true;
}

struct Streams {
  std::vector<lmc::obs::TraceEvent> events;
  lmc::obs::ProfileData prof;
};

bool ingest(const std::string& path, Streams& s) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "lmc_trace: cannot read %s\n", path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    lmc::obs::TraceEvent ev;
    if (lmc::obs::parse_jsonl_line(line, ev)) {
      s.events.push_back(ev);
      continue;
    }
    lmc::obs::merge_prof_line(line, s.prof);  // other schemas: ignored
  }
  return true;
}

int run_export(int argc, char** argv) {
  bool chrome = false;
  std::string out_path;
  std::vector<std::string> inputs;
  Streams s;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--chrome") {
      chrome = true;
    } else if (a == "-o" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (a == "--profile" && i + 1 < argc) {
      inputs.push_back(argv[++i]);
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "lmc_trace: unknown export option %s\n", a.c_str());
      return usage();
    } else {
      inputs.push_back(a);
    }
  }
  if (!chrome || inputs.empty()) return usage();
  for (const std::string& path : inputs)
    if (!ingest(path, s)) return 1;
  if (s.events.empty()) {
    std::fprintf(stderr, "lmc_trace: no lmc-trace/1 lines found\n");
    return 1;
  }
  const std::string doc =
      lmc::obs::chrome_trace_json(s.events, s.prof.lines > 0 ? &s.prof : nullptr);
  if (out_path.empty()) {
    std::fwrite(doc.data(), 1, doc.size(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "lmc_trace: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "lmc_trace: wrote %s (%zu events)\n", out_path.c_str(),
                 s.events.size());
  }
  return 0;
}

int run_validate(int argc, char** argv) {
  bool chrome = false;
  std::vector<std::string> inputs;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--chrome")
      chrome = true;
    else if (!a.empty() && a[0] == '-')
      return usage();
    else
      inputs.push_back(a);
  }
  if (!chrome || inputs.empty()) return usage();
  int rc = 0;
  for (const std::string& path : inputs) {
    std::string text;
    if (!read_file(path, text)) {
      std::fprintf(stderr, "lmc_trace: cannot read %s\n", path.c_str());
      rc = 1;
      continue;
    }
    std::string err;
    if (!lmc::obs::validate_chrome_trace(text, &err)) {
      std::fprintf(stderr, "lmc_trace: %s: INVALID: %s\n", path.c_str(), err.c_str());
      rc = 1;
    } else {
      std::fprintf(stdout, "lmc_trace: %s: ok\n", path.c_str());
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "export") return run_export(argc - 2, argv + 2);
  if (cmd == "validate") return run_validate(argc - 2, argv + 2);
  return usage();
}
