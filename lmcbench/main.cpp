// lmcbench — the LMC end-to-end benchmark (README.md in this directory).
//
//   lmcbench --workload NAME --seed N --seconds S --trace 0|1
//            [--reduced] [--git-sha SHA] [--spans-out FILE]
//
// Untraced (--trace 0): builds the workload's inputs in timed batches
// (setup_s is the median batch), then repeats fixed-work passes for about S
// seconds, each in child processes forked from the set-up, and reports the
// sum of each checker unit's fastest run. Traced (--trace 1): one untraced
// pass as the baseline, then one traced pass that reports every per-layer
// metric. Each pass is also emitted as an "lmc-bench/1" record stamped with
// the run metadata. The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; exit code 0 iff every
// checker run matched the workload's pinned verdicts, 1 on a mismatch, 2 on
// a usage or set-up error (no result printed).
#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hpp"
#include "obs/bench_schema.hpp"

namespace lmcbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool reduced = false;
  std::string git_sha = "unknown";
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "lmcbench: %s\nusage: lmcbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--reduced] [--git-sha SHA] [--spans-out FILE]\nworkloads:",
               why.c_str());
  for (const WorkloadDef& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--reduced") {
      a.reduced = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || v[0] == '-') usage("bad --seed " + v);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0)) usage("bad --seconds " + v);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace " + v);
      a.trace = v == "1" ? 1 : 0;
    } else if (k == "--git-sha") {
      a.git_sha = v;
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else {
      usage("unknown argument " + k);
    }
  }
  if (a.workload.empty() || a.seconds <= 0 || a.trace < 0) usage("missing argument");
  return a;
}

/// Peak resident set of this process in MB (VmHWM; ru_maxrss as fallback).
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string num(double v) {
  char b[64];
  std::snprintf(b, sizeof b, "%.10g", v);
  return b;
}

/// Seconds one timed batch of set-ups aims for.
constexpr double kSetupBatchS = 0.02;
/// The traced run warns when explore + sweep + soundness misses the full
/// runs' wall time by more than this share of it.
constexpr double kSplitTolerance = 0.25;

/// The run metadata every record carries.
struct Meta {
  unsigned nproc = 1;
  unsigned par = 1;
  std::string build_type = LMCBENCH_BUILD_TYPE;
  std::string compiler = LMCBENCH_COMPILER;
  bool release() const { return build_type == "Release" || build_type == "RelWithDebInfo"; }
};

/// Validate and emit one "lmc-bench/1" record.
void emit(const Args& a, const Meta& meta, const std::string& kind, std::uint64_t pass,
          const std::vector<Metric>& metrics) {
  lmc::obs::BenchRecord rec("lmcbench", a.workload + "/" + kind);
  rec.param("workload", a.workload);
  rec.param("seed", a.seed);
  rec.param("nproc", static_cast<std::uint64_t>(meta.nproc));
  rec.param("threads", static_cast<std::uint64_t>(meta.par));
  rec.param("build_type", meta.build_type);
  rec.param("release_build", static_cast<std::uint64_t>(meta.release() ? 1 : 0));
  rec.param("compiler", meta.compiler);
  rec.param("git_sha", a.git_sha);
  rec.param("reduced", static_cast<std::uint64_t>(a.reduced ? 1 : 0));
  rec.param("pass", pass);
  for (const Metric& m : metrics) rec.metric(m.name, m.value);
  std::string err;
  if (!lmc::obs::validate_obs_line(rec.to_json(), &err))
    throw std::runtime_error("lmc-bench/1 record failed validation: " + err);
  rec.emit();
}

/// What a pass run in a child process hands back to the parent.
struct ChildPass {
  double check_s = 0.0;
  double check_s_par = 0.0;
  double time_to_bug_s = 0.0;
  std::uint64_t transitions = 0;
  /// Per unit: the 1-thread full search, the par full search and the
  /// time-to-bug search (the full search on a clean unit).
  std::array<double, Gate::kMaxUnits> full_s{}, par_s{}, bug_s{};
  double peak_rss_mb = 0.0;
  Gate gate;  ///< the parent's gate with this pass's runs recorded
};
static_assert(std::is_trivially_copyable_v<ChildPass>);

/// Make `runs` of one gated pass in a child forked from this process, so
/// that every pass starts from the heap the set-up left. In one long-lived
/// process a zoo-buggy pass ran up to 40% slower than the first (README.md,
/// "How a run works"). With `replay` every witness is replayed too. The
/// parent runs no checker threads when it forks.
ChildPass pass_in_child(const Inputs& in, unsigned par, const Gate& gate, Runs runs,
                        bool replay) {
  int fd[2];
  if (pipe(fd) != 0) throw std::runtime_error("pipe: " + std::string(std::strerror(errno)));
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork: " + std::string(std::strerror(errno)));
  if (pid == 0) {
    close(fd[0]);
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    if (getppid() == 1) _exit(2);
    int rc = 0;
    try {
      ChildPass r;
      r.gate = gate;
      ReplayTally tally;
      const PassTimes t = run_pass(in, par, r.gate, nullptr, replay ? &tally : nullptr, {}, runs);
      r.check_s = t.check_s;
      r.check_s_par = t.check_s_par;
      r.time_to_bug_s = t.time_to_bug_s;
      r.transitions = t.transitions;
      std::copy(t.unit_s.begin(), t.unit_s.end(), r.full_s.begin());
      std::copy(t.unit_par_s.begin(), t.unit_par_s.end(), r.par_s.begin());
      std::copy(t.unit_bug_s.begin(), t.unit_bug_s.end(), r.bug_s.begin());
      r.peak_rss_mb = peak_rss_mb();
      if (write(fd[1], &r, sizeof r) != static_cast<ssize_t>(sizeof r)) rc = 2;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "lmcbench: pass: %s\n", e.what());
      rc = 2;
    }
    std::fflush(stderr);
    _exit(rc);
  }
  close(fd[1]);
  ChildPass r;
  std::size_t got = 0;
  while (got < sizeof r) {
    const ssize_t n = read(fd[0], reinterpret_cast<char*>(&r) + got, sizeof r - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fd[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof r || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("the pass process failed");
  return r;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int run(const Args& a) {
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : workloads())
    if (a.workload == w.name) def = &w;
  if (def == nullptr) usage("unknown workload " + a.workload);

  Meta meta;
  meta.nproc = std::max(1u, std::thread::hardware_concurrency());
  // One core stays free: with every core busy, any other process stalls the
  // in-order phase-1 pipeline, and the par runs spread far more than the
  // 1-thread ones (README.md, "Threads").
  meta.par = std::min(4u, std::max(1u, meta.nproc - 1));
  if (!meta.release())
    std::fprintf(stderr,
                 "WARNING: lmcbench built as '%s', not Release: timings are not comparable\n",
                 meta.build_type.c_str());
  const double t_start = now_s();

  if (a.trace == 1) {
    // The traced run: set-up and the layer passes carry spans; the first
    // pass runs untraced in a child and is the overhead baseline.
    Spans spans;
    Inputs in = def->make(a.reduced, &spans);
    if (in.units.size() > Gate::kMaxUnits) throw std::runtime_error("too many checker units");
    const ChildPass base = pass_in_child(in, meta.par, Gate{}, Runs::kAll, false);
    Gate gate = base.gate;
    spans.set_pass(1);
    double traced_check_s = 0.0;
    std::vector<Metric> m = traced_pass(in, meta.par, gate, spans, &traced_check_s);

    // The split check: explore.wall_s and sweep.wall_s come from separate
    // explore-only and no-soundness runs, soundness.wall_s from the full
    // runs' own timer. Their sum must account for the full runs' wall time.
    auto value = [&](const char* name) {
      for (const Metric& x : m)
        if (x.name == name) return x.value;
      return 0.0;
    };
    const double split =
        value("explore.wall_s") + value("sweep.wall_s") + value("soundness.wall_s");
    const double residual = (split - traced_check_s) / traced_check_s;
    m.push_back({"trace.overhead_frac", "ratio", (traced_check_s - base.check_s) / base.check_s});
    m.push_back({"trace.split_residual_frac", "ratio", residual});

    std::fprintf(stderr, "# %s traced: check_s untraced %.4f traced %.4f; "
                         "explore+sweep+soundness = %.4f (%+.1f%% of traced check_s)\n",
                 a.workload.c_str(), base.check_s, traced_check_s, split, 100.0 * residual);
    if (std::fabs(residual) > kSplitTolerance)
      std::fprintf(stderr,
                   "WARNING: the explore + sweep + soundness split misses check_s by %+.1f%% "
                   "(tolerance %.0f%%): a layer the split does not time costs that much\n",
                   100.0 * residual, 100.0 * kSplitTolerance);
    std::fprintf(stderr, "# per-layer self time (s):\n");
    for (const auto& [name, self] : spans.self_times())
      std::fprintf(stderr, "#   %-28s %10.4f\n", name.c_str(), self);
    if (!a.spans_out.empty()) spans.write_jsonl(a.spans_out);

    emit(a, meta, "traced", 1, m);
    const bool ok = gate.failed() == 0;
    print_result(ok, gate.attempted(), gate.failed(), m);
    return ok ? 0 : 1;
  }

  // Set-up: the inputs are built in batches sized so that one batch takes
  // about kSetupBatchS. Batches run before the first pass and between
  // passes, so that they sample the whole run. Each build is timed, a batch
  // reads as its fastest build (as with the passes, interference only adds
  // time), and setup_s is the median over batches.
  Inputs in;
  double one = 1e9;  // the fastest of three warm-up builds sizes the batches
  for (int i = 0; i < 3; ++i) {
    const double t0 = now_s();
    in = def->make(a.reduced, nullptr);
    one = std::min(one, now_s() - t0);
  }
  if (in.units.size() > Gate::kMaxUnits) throw std::runtime_error("too many checker units");
  const auto batch = static_cast<int>(std::clamp(std::ceil(kSetupBatchS / one), 1.0, 1e5));
  std::vector<double> setup;
  auto time_setups = [&](int batches) {
    for (int b = 0; b < batches; ++b) {
      double fastest = 1e300;
      for (int i = 0; i < batch; ++i) {
        const double t0 = now_s();
        in = def->make(a.reduced, nullptr);
        fastest = std::min(fastest, now_s() - t0);
      }
      setup.push_back(fastest);
    }
    malloc_trim(0);  // every pass forks from the same resident footprint
  };
  time_setups(5);

  // Passes: the 1-thread runs and the par runs of a pass each get their own
  // child. The first pass replays every witness, and later ones must
  // reproduce its fingerprints exactly. Interference from other processes
  // only ever adds time, so each end-to-end time sums the units' fastest
  // runs over all passes.
  Gate gate;
  const std::size_t n = in.units.size();
  std::vector<double> check, best_full(n, 1e300), best_par(n, 1e300), best_bug(n, 1e300), rss;
  std::uint64_t transitions = 0;
  const double t_passes = now_s();
  while (check.empty() ||
         (now_s() - t_passes) + (now_s() - t_passes) / static_cast<double>(check.size()) <=
             a.seconds) {
    if (!check.empty()) time_setups(2);
    const ChildPass p = pass_in_child(in, meta.par, gate, Runs::kSerial, check.empty());
    const ChildPass q = pass_in_child(in, meta.par, p.gate, Runs::kParallel, false);
    gate = q.gate;
    for (std::size_t i = 0; i < n; ++i) {
      best_full[i] = std::min(best_full[i], p.full_s[i]);
      best_par[i] = std::min(best_par[i], q.par_s[i]);
      best_bug[i] = std::min(best_bug[i], p.bug_s[i]);
    }
    transitions = p.transitions;
    check.push_back(p.check_s);
    rss.push_back(p.peak_rss_mb);
    emit(a, meta, "pass", check.size(),
         {{"check_s", "s", p.check_s},
          {"check_s_par", "s", q.check_s_par},
          {"time_to_bug_s", "s", p.time_to_bug_s},
          {"transitions", "count", static_cast<double>(p.transitions)},
          {"peak_rss_mb", "MB", p.peak_rss_mb},
          {"peak_rss_mb_par", "MB", q.peak_rss_mb}});
  }

  auto sum = [](const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); };
  const double check_s = sum(best_full);
  const std::vector<Metric> m = {
      {"check_s", "s", check_s},
      {"check_s_par", "s", sum(best_par)},
      {"transitions_per_s", "1/s", static_cast<double>(transitions) / check_s},
      {"time_to_bug_s", "s", sum(best_bug)},
      {"peak_rss_mb", "MB", median(rss)},
      {"setup_s", "s", median(setup)},
  };
  std::fprintf(stderr,
               "# %s: %zu pass(es), %zu set-up batch(es) of %d, %.1f s total, %llu/%llu runs "
               "failed\n",
               a.workload.c_str(), check.size(), setup.size(), batch, now_s() - t_start,
               static_cast<unsigned long long>(gate.failed()),
               static_cast<unsigned long long>(gate.attempted()));
  emit(a, meta, "summary", check.size(), m);
  const bool ok = gate.failed() == 0;
  print_result(ok, gate.attempted(), gate.failed(), m);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace lmcbench

int main(int argc, char** argv) {
  try {
    return lmcbench::run(lmcbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lmcbench: %s\n", e.what());
    return 2;
  }
}
