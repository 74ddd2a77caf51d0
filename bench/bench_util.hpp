// Shared helpers for the figure-regeneration harnesses.
//
// Every bench binary prints the rows/series of one table or figure from the
// paper's evaluation (§5). Absolute numbers differ from the paper's 2004-era
// Pentium 4 testbed; EXPERIMENTS.md records the shape comparison. Knobs:
//   LMC_BENCH_BUDGET_S   per-run wall-clock budget (default varies)
//   LMC_BENCH_MAX_DEPTH  cap on the depth sweep
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "mc/global_mc.hpp"
#include "mc/local_mc.hpp"
#include "obs/bench_schema.hpp"
#include "obs/prof.hpp"
#include "protocols/paxos.hpp"

namespace lmc::bench {

inline double env_f(const char* name, double dflt) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) : dflt;
}

inline std::uint32_t env_u(const char* name, std::uint32_t dflt) {
  const char* v = std::getenv(name);
  return v != nullptr ? static_cast<std::uint32_t>(std::atoi(v)) : dflt;
}

/// The §5.1 benchmark system: Paxos among three nodes, one node proposes
/// one value ("the example state space").
inline SystemConfig one_proposal_paxos(bool bug = false) {
  paxos::DriverConfig d;
  d.proposers = {0};
  d.max_proposals = 1;
  return paxos::make_config(3, paxos::CoreOptions{0, bug}, d);
}

/// The §5.2 scalability workload: two separate nodes propose.
inline SystemConfig two_proposal_paxos() {
  paxos::DriverConfig d;
  d.proposers = {0, 1};
  d.max_proposals = 1;
  return paxos::make_config(3, paxos::CoreOptions{}, d);
}

struct Row {
  std::uint32_t depth = 0;
  double bdfs = -1, gen = -1, opt = -1;  ///< -1: not run / budget exceeded
};

inline void print_header(const char* title, const char* metric) {
  std::printf("# %s\n", title);
  std::printf("# metric: %s ('-' = budget exceeded before completing the bounded space)\n",
              metric);
  std::printf("%8s %14s %14s %14s\n", "depth", "B-DFS", "LMC-GEN", "LMC-OPT");
}

inline void print_cell(double v, const char* fmt) {
  if (v < 0)
    std::printf(" %13s", "-");
  else
    std::printf(fmt, v);
}

inline void print_row(const Row& r, const char* fmt) {
  std::printf("%8u", r.depth);
  print_cell(r.bdfs, fmt);
  print_cell(r.gen, fmt);
  print_cell(r.opt, fmt);
  std::printf("\n");
}

/// Run B-DFS to `depth` with a budget; stats valid only if completed.
inline GlobalMcStats run_bdfs(const SystemConfig& cfg, const Invariant* inv,
                              std::uint32_t depth, double budget_s) {
  GlobalMcOptions opt;
  opt.max_depth = depth;
  opt.time_budget_s = budget_s;
  GlobalModelChecker mc(cfg, inv, opt);
  mc.run_from_initial();
  return mc.stats();
}

/// Run LMC (GEN or OPT) to total depth `depth` with a budget.
inline LocalMcStats run_lmc(const SystemConfig& cfg, const Invariant* inv, std::uint32_t depth,
                            double budget_s, bool use_projection,
                            bool enable_system_states = true, bool enable_soundness = true,
                            obs::ProfileSink* profile = nullptr) {
  LocalMcOptions opt;
  opt.max_total_depth = depth;
  opt.time_budget_s = budget_s;
  opt.use_projection = use_projection;
  opt.enable_system_states = enable_system_states;
  opt.enable_soundness = enable_soundness;
  opt.profile = profile;
  LocalModelChecker mc(cfg, inv, opt);
  mc.run_from_initial();
  return mc.stats();
}

/// Opt-in profiling for bench binaries: `--profile FILE` or
/// `--profile-dir DIR` on the command line (or LMC_BENCH_PROFILE=FILE in the
/// environment, for harnesses that cannot pass flags). One sink accumulates
/// every checker run the binary performs and the "lmc-prof/2" JSONL is
/// written at scope exit. sink() stays null when profiling was not
/// requested, so the default bench run is exactly the pre-profiling binary.
class BenchProfile {
 public:
  BenchProfile(int argc, char** argv, const char* bench_name) {
    if (const char* env = std::getenv("LMC_BENCH_PROFILE"); env != nullptr && env[0] != '\0')
      path_ = env;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--profile" && i + 1 < argc)
        path_ = argv[++i];
      else if (a == "--profile-dir" && i + 1 < argc)
        path_ = std::string(argv[++i]) + "/" + bench_name + "_prof.jsonl";
    }
    if (!path_.empty()) sink_ = std::make_unique<obs::ProfileSink>();
  }
  ~BenchProfile() {
    if (sink_ == nullptr) return;
    try {
      sink_->write_jsonl(path_);
      std::fprintf(stderr, "# profile written: %s\n", path_.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "# profile write failed: %s\n", e.what());
    }
  }
  obs::ProfileSink* sink() const { return sink_.get(); }

 private:
  std::string path_;
  std::unique_ptr<obs::ProfileSink> sink_;
};

/// The LocalMcStats core every unified bench record shares. Callers add
/// their case-specific params/metrics on top and call rec.emit().
inline void add_lmc_metrics(obs::BenchRecord& rec, const LocalMcStats& s) {
  rec.metric("transitions", s.transitions);
  rec.metric("node_states", s.node_states);
  rec.metric("system_states", s.system_states);
  rec.metric("prelim_violations", s.prelim_violations);
  rec.metric("confirmed_violations", s.confirmed_violations);
  rec.metric("soundness_calls", s.soundness_calls);
  rec.metric("deferred_dropped", s.deferred_dropped);
  rec.metric("stored_bytes", static_cast<std::uint64_t>(s.stored_bytes));
  rec.metric("elapsed_s", s.elapsed_s);
  rec.metric("soundness_s", s.soundness_s);
  rec.metric("soundness_wall_s", s.soundness_wall_s);
  rec.metric("deferred_s", s.deferred_s);
  rec.metric("completed", static_cast<std::uint64_t>(s.completed ? 1 : 0));
}

/// Same for the global checker baseline.
inline void add_gmc_metrics(obs::BenchRecord& rec, const GlobalMcStats& s) {
  rec.metric("transitions", s.transitions);
  rec.metric("unique_states", s.unique_states);
  rec.metric("violations", s.violations);
  rec.metric("peak_bytes", static_cast<std::uint64_t>(s.peak_bytes));
  rec.metric("elapsed_s", s.elapsed_s);
  rec.metric("completed", static_cast<std::uint64_t>(s.completed ? 1 : 0));
}

/// One flat JSON object emitted as a single line ("JSON lines" output, one
/// record per checker run/period), so bench results can be piped straight
/// into jq or a plotting script without a parser in the repo.
class JsonLine {
 public:
  JsonLine& kv(const char* k, std::uint64_t v) {
    sep();
    buf_ += '"';
    buf_ += k;
    buf_ += "\":";
    buf_ += std::to_string(v);
    return *this;
  }
  JsonLine& kv(const char* k, int v) { return kv(k, static_cast<std::uint64_t>(v)); }
  JsonLine& kv(const char* k, double v) {
    sep();
    char num[64];
    std::snprintf(num, sizeof num, "%.6g", v);
    buf_ += '"';
    buf_ += k;
    buf_ += "\":";
    buf_ += num;
    return *this;
  }
  JsonLine& kv(const char* k, bool v) {
    sep();
    buf_ += '"';
    buf_ += k;
    buf_ += "\":";
    buf_ += v ? "true" : "false";
    return *this;
  }
  JsonLine& kv(const char* k, const char* v) {
    sep();
    buf_ += '"';
    buf_ += k;
    buf_ += "\":\"";
    for (const char* p = v; *p != '\0'; ++p) {
      if (*p == '"' || *p == '\\') buf_ += '\\';
      buf_ += *p;
    }
    buf_ += '"';
    return *this;
  }
  JsonLine& kv(const char* k, const std::string& v) { return kv(k, v.c_str()); }

  /// The LocalMcStats fields every bench record cares about.
  JsonLine& stats(const LocalMcStats& s) {
    kv("transitions", s.transitions);
    kv("node_states", s.node_states);
    kv("messages_in_iplus", s.messages_in_iplus);
    kv("confirmed_violations", s.confirmed_violations);
    kv("soundness_calls", s.soundness_calls);
    kv("elapsed_s", s.elapsed_s);
    return *this;
  }

  void print() const { std::printf("{%s}\n", buf_.c_str()); }

 private:
  void sep() {
    if (!buf_.empty()) buf_ += ',';
  }
  std::string buf_;
};

}  // namespace lmc::bench
