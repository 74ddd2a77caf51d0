// lmc_fuzz: differential fuzzing driver.
//
//   lmc_fuzz [--seed S] [--runs N] [--max-nodes K] [--threads T]
//            [--lmc-threads L] [--time-budget SEC] [--audit-every K]
//            [--audit-validity] [--symmetry] [--symmetric-specs] [--por]
//            [--out-dir DIR] [--trace-dir DIR] [--profile-dir DIR] [--verbose]
//
// --symmetry adds a per-seed reduced-vs-unreduced differential: LMC re-runs
// with SymmetryMode::kAuto and the confirmed-violation sets must agree up to
// within-class permutation (witnesses replayed). --symmetric-specs swaps the
// generator for generate_symmetric_spec (driver nodes + one replicated role
// class) so the reduction actually activates on most seeds. --por adds the
// partial-order-reduction differential: LMC re-runs with PorMode::kOn (the
// runtime commutation auditor checking every prune decision) and the
// confirmed sets must be exactly equal, with a 1-vs-8-thread checkpoint
// byte-identity check on top.
//
// Seeds S..S+N-1 each generate one random protocol as a DSL spec, run it
// through the .lmc interpreter (dsl::instantiate) and push it through the
// DiffOracle (global baseline vs LMC, witness replay, resume round-trip,
// OPT path). --threads fans the seeds out over a WorkerPool; results are
// merged in seed order, and each in-oracle LMC runs with --lmc-threads
// under the deterministic merge protocol — so the run's output is
// byte-identical for any --threads/--lmc-threads combination.
//
// A disagreement is greedily shrunk while the same divergence class
// persists, and the minimal protocol is written as
//   <out-dir>/dfuzz_repro_seed<seed>.lmc
// whose `#` header names the failure, the command that regenerates the
// unshrunk spec, and the `lmc_run FILE --oracle ...` command that replays
// it with the sweep's oracle options. --out-dir is created if missing and
// defaults to ".".
// Exit status: 0 = no disagreement, 1 = disagreement(s), 2 = usage.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dfuzz/artifacts.hpp"
#include "dfuzz/oracle.hpp"
#include "dfuzz/protogen.hpp"
#include "dfuzz/shrink.hpp"
#include "dsl/interp.hpp"
#include "mc/parallel_local_mc.hpp"
#include "obs/bench_schema.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"

namespace {

using namespace lmc;
using namespace lmc::dfuzz;

struct Args {
  std::uint64_t seed = 1;
  std::uint64_t runs = 100;
  std::uint32_t max_nodes = 4;
  unsigned threads = 1;
  unsigned lmc_threads = 1;
  double time_budget_s = 20.0;
  std::uint32_t audit_every = 0;
  bool audit_validity = false;
  bool check_symmetry = false;   ///< per-seed reduced-vs-unreduced differential
  bool check_por = false;        ///< per-seed POR-reduced-vs-unreduced differential
  bool symmetric_specs = false;  ///< generate via generate_symmetric_spec
  std::string out_dir = ".";
  std::string trace_dir;    ///< when set, per-seed "lmc-trace/1" JSONL files land here
  std::string profile_dir;  ///< when set, per-seed "lmc-prof/2" JSONL files land here
  bool verbose = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: lmc_fuzz [--seed S] [--runs N] [--max-nodes K] [--threads T]\n"
               "                [--lmc-threads L] [--time-budget SEC] [--audit-every K]\n"
               "                [--audit-validity] [--symmetry] [--symmetric-specs] [--por]\n"
               "                [--out-dir DIR] [--trace-dir DIR] [--profile-dir DIR]\n"
               "                [--verbose]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--verbose") {
      a.verbose = true;
    } else if (arg == "--seed" && (v = next())) {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--runs" && (v = next())) {
      a.runs = std::strtoull(v, nullptr, 10);
    } else if (arg == "--max-nodes" && (v = next())) {
      a.max_nodes = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--threads" && (v = next())) {
      a.threads = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--lmc-threads" && (v = next())) {
      a.lmc_threads = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--time-budget" && (v = next())) {
      a.time_budget_s = std::strtod(v, nullptr);
    } else if (arg == "--audit-every" && (v = next())) {
      a.audit_every = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--audit-validity") {
      a.audit_validity = true;
    } else if (arg == "--symmetry") {
      a.check_symmetry = true;
    } else if (arg == "--por") {
      a.check_por = true;
    } else if (arg == "--symmetric-specs") {
      a.symmetric_specs = true;
    } else if (arg == "--out-dir" && (v = next())) {
      a.out_dir = v;
    } else if (arg == "--trace-dir" && (v = next())) {
      a.trace_dir = v;
    } else if (arg == "--profile-dir" && (v = next())) {
      a.profile_dir = v;
    } else {
      return false;
    }
  }
  return a.runs > 0 && a.max_nodes >= 2;
}

OracleOptions oracle_options(const Args& a) {
  OracleOptions opt;
  opt.num_threads = a.lmc_threads;
  opt.gmc_time_budget_s = a.time_budget_s;
  opt.lmc_time_budget_s = a.time_budget_s;
  opt.audit_every = a.audit_every;
  opt.audit_validity = a.audit_validity;
  opt.check_symmetry = a.check_symmetry;
  opt.check_por = a.check_por;
  return opt;
}

struct SeedResult {
  OracleReport report;
  std::string error;  ///< non-empty when the oracle itself threw
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  try {
    GenLimits lim;
    lim.max_nodes = args.max_nodes;
    const OracleOptions oopt = oracle_options(args);
    auto gen = [&](std::uint64_t s) {
      return args.symmetric_specs ? generate_symmetric_spec(s, lim) : generate_spec(s, lim);
    };

    std::vector<SeedResult> results(args.runs);
    WorkerPool pool(args.threads);
    pool.run(args.runs, [&](std::size_t i) {
      const std::uint64_t seed = args.seed + i;
      try {
        dsl::CompiledProtocol p = dsl::instantiate(gen(seed));
        if (args.trace_dir.empty() && args.profile_dir.empty()) {
          results[i].report = DiffOracle(oopt).check(p.cfg, p.invariant.get());
        } else {
          // Per-seed sinks and files: seeds fan out over workers, so a sink
          // must not be shared across them.
          obs::TraceSink sink;
          obs::ProfileSink prof;
          OracleOptions topt = oopt;
          if (!args.trace_dir.empty()) topt.trace = &sink;
          if (!args.profile_dir.empty()) topt.profile = &prof;
          results[i].report = DiffOracle(topt).check(p.cfg, p.invariant.get());
          if (!args.trace_dir.empty())
            sink.write_jsonl(args.trace_dir + "/dfuzz_trace_seed" + std::to_string(seed) +
                             ".jsonl");
          if (!args.profile_dir.empty())
            prof.write_jsonl(args.profile_dir + "/dfuzz_prof_seed" + std::to_string(seed) +
                             ".jsonl");
        }
      } catch (const std::exception& e) {
        results[i].error = e.what();
      }
    });

    // Merge in seed order: the printed stream is deterministic per --seed.
    std::uint64_t ok = 0, inconclusive = 0, failed = 0, errored = 0, with_bugs = 0;
    std::uint64_t gmc_states = 0, gmc_transitions = 0, lmc_transitions = 0, confirmed = 0,
                  replayed = 0, resumes = 0, opts = 0, audited = 0, handler_audits = 0,
                  model_invalid = 0, syms = 0, sym_orbits = 0, pors = 0, por_pruned = 0,
                  por_audits = 0;
    std::vector<std::uint64_t> failed_seeds;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const std::uint64_t seed = args.seed + i;
      const SeedResult& r = results[i];
      if (!r.error.empty()) {
        ++errored;
        std::printf("seed %" PRIu64 ": ERROR %s\n", seed, r.error.c_str());
        continue;
      }
      const OracleReport& rep = r.report;
      gmc_states += rep.gmc_states;
      gmc_transitions += rep.gmc_transitions;
      lmc_transitions += rep.lmc_transitions;
      confirmed += rep.lmc_confirmed;
      replayed += rep.witnesses_replayed;
      audited += rep.tuples_audited;
      handler_audits += rep.handler_audits;
      resumes += rep.resume_checked ? 1 : 0;
      opts += rep.opt_checked ? 1 : 0;
      syms += rep.sym_checked ? 1 : 0;
      sym_orbits += rep.sym_orbits;
      pors += rep.por_checked ? 1 : 0;
      por_pruned += rep.por_pruned;
      por_audits += rep.por_audits;
      if (rep.gmc_violation_tuples > 0) ++with_bugs;
      if (!rep.conclusive) {
        ++inconclusive;
        if (args.verbose) std::printf("seed %" PRIu64 ": inconclusive (%s)\n", seed,
                                      rep.detail.c_str());
      } else if (rep.ok) {
        ++ok;
        if (args.verbose)
          std::printf("seed %" PRIu64 ": ok (%" PRIu64 " global states, %" PRIu64
                      " confirmed)\n",
                      seed, rep.gmc_states, rep.lmc_confirmed);
      } else {
        ++failed;
        if (rep.failure == OracleFailure::ModelInvalid) ++model_invalid;
        failed_seeds.push_back(seed);
        std::printf("seed %" PRIu64 ": DISAGREEMENT [%s] %s\n", seed, to_string(rep.failure),
                    rep.detail.c_str());
      }
    }

    // Shrink serially after the sweep: failures are rare and a stable
    // artifact should not depend on worker scheduling.
    for (std::uint64_t seed : failed_seeds) {
      const OracleFailure kind = results[seed - args.seed].report.failure;
      std::printf("shrinking seed %" PRIu64 " [%s]...\n", seed, to_string(kind));
      ShrinkResult shrunk = shrink_spec(gen(seed), kind, oopt);
      const std::string path =
          write_repro_artifact(args.out_dir, seed, shrunk, oopt, lim, args.symmetric_specs);
      std::printf("  repro written: %s\n", path.c_str());
    }

    std::printf("lmc_fuzz: %" PRIu64 " run(s): %" PRIu64 " ok, %" PRIu64 " inconclusive, %" PRIu64
                " disagreement(s), %" PRIu64 " error(s)\n",
                static_cast<std::uint64_t>(args.runs), ok, inconclusive, failed, errored);
    std::printf("  protocols with real violations: %" PRIu64 "\n", with_bugs);
    std::printf("  global: %" PRIu64 " states / %" PRIu64 " transitions; lmc: %" PRIu64
                " transitions, %" PRIu64 " confirmed violations\n",
                gmc_states, gmc_transitions, lmc_transitions, confirmed);
    std::printf("  witnesses replayed: %" PRIu64 "; resume round-trips: %" PRIu64
                "; OPT runs: %" PRIu64 "; tuples audited: %" PRIu64 "\n",
                replayed, resumes, opts, audited);
    if (args.check_symmetry)
      std::printf("  symmetry-reduced runs: %" PRIu64 " (%" PRIu64 " orbits materialized)\n",
                  syms, sym_orbits);
    if (args.check_por)
      std::printf("  POR-reduced runs: %" PRIu64 " (%" PRIu64 " deliveries pruned, %" PRIu64
                  " commutation audits)\n",
                  pors, por_pruned, por_audits);
    if (args.audit_validity)
      std::printf("  handler executions audited: %" PRIu64 " (%" PRIu64 " validity failure(s))\n",
                  handler_audits, model_invalid);

    obs::BenchRecord rec("lmc_fuzz", "sweep");
    rec.param("seed", args.seed);
    rec.param("runs", args.runs);
    rec.param("max_nodes", static_cast<std::uint64_t>(args.max_nodes));
    rec.param("lmc_threads", static_cast<std::uint64_t>(args.lmc_threads));
    rec.metric("ok", ok);
    rec.metric("inconclusive", inconclusive);
    rec.metric("disagreements", failed);
    rec.metric("errors", errored);
    rec.metric("protocols_with_bugs", with_bugs);
    rec.metric("gmc_states", gmc_states);
    rec.metric("gmc_transitions", gmc_transitions);
    rec.metric("lmc_transitions", lmc_transitions);
    rec.metric("confirmed_violations", confirmed);
    rec.metric("witnesses_replayed", replayed);
    rec.metric("resume_round_trips", resumes);
    rec.metric("opt_runs", opts);
    rec.metric("sym_runs", syms);
    rec.metric("sym_orbits", sym_orbits);
    rec.metric("por_runs", pors);
    rec.metric("por_pruned", por_pruned);
    rec.metric("por_audits", por_audits);
    rec.emit();
    return (failed > 0 || errored > 0) ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
