// Observability layer (DESIGN.md §10, §15): trace determinism +
// non-perturbation over the frozen fuzz corpus, counter-exact report
// reproduction, run totals summed over the segments of one stream, JSONL
// round-trips, schema validation, the LMC_TRACE / LMC_PROF cost contracts,
// the profiling identity contract (1-vs-8-thread byte identity, checkpoint
// non-perturbation), profile phase rows equal to the summed run stats, the
// Chrome trace_event export, and the checkpoint stats fields
// (deferred_dropped counter, soundness_wall_s) and version window.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dfuzz/oracle.hpp"
#include "dfuzz/protogen.hpp"
#include "dsl/interp.hpp"
#include "mc/local_mc.hpp"
#include "obs/bench_schema.hpp"
#include "obs/chrome.hpp"
#include "obs/prof.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "persist/checkpoint.hpp"
#include "protocols/tree.hpp"
#include "runtime/hash.hpp"

namespace lmc {
namespace {

using obs::EventType;
using obs::TraceEvent;

std::vector<std::uint64_t> corpus_seeds() {
  std::vector<std::uint64_t> s;
  for (std::uint64_t i = 1; i <= 50; ++i) s.push_back(i);
  s.push_back(97);
  s.push_back(171);
  s.push_back(664);
  return s;
}

LocalMcOptions corpus_options(unsigned threads, obs::TraceSink* trace) {
  LocalMcOptions opt;
  opt.stop_on_confirmed = false;
  opt.use_projection = false;
  opt.num_threads = threads;
  opt.time_budget_s = 120;
  opt.trace = trace;
  return opt;
}

/// The identity stream with the one deliberately thread-count-dependent
/// field (kRunBegin's c = configured threads) masked out.
std::vector<obs::EventIdentity> thread_invariant_identities(const std::vector<TraceEvent>& evs) {
  std::vector<obs::EventIdentity> ids = obs::identities(evs);
  for (std::size_t i = 0; i < evs.size(); ++i)
    if (evs[i].type == EventType::kRunBegin) ids[i].c = 0;
  return ids;
}

/// Pin the report's counter-exact contract: every aggregate `summarize`
/// rebuilds from a full-run trace must equal the checker's own stats —
/// bit-for-bit for the doubles, since durations are summed in the same
/// order the checker accumulated them.
void expect_counter_exact(const obs::ReportSummary& sum, const LocalMcStats& st) {
  EXPECT_EQ(sum.transitions, st.transitions);
  EXPECT_EQ(sum.final_transitions, st.transitions);
  EXPECT_EQ(sum.prelim_violations, st.prelim_violations);
  EXPECT_EQ(sum.confirmed, st.confirmed_violations);
  EXPECT_EQ(sum.completed, st.completed);
  EXPECT_EQ(sum.elapsed_s, st.elapsed_s);
  EXPECT_EQ(sum.sweep_s, st.system_state_s);
  EXPECT_EQ(sum.soundness_wall_s, st.soundness_wall_s);
  EXPECT_EQ(sum.soundness_agg_s, st.soundness_s);
  EXPECT_EQ(sum.deferred_s, st.deferred_s);
}

// --- trace primitives -------------------------------------------------------

TEST(ObsTrace, IdentityIgnoresAttributionOnly) {
  TraceEvent a;
  a.type = EventType::kHandlerApply;
  a.phase = obs::Phase::kExplore;
  a.round = 3;
  a.node = 1;
  a.seq = 42;
  a.a = 0;
  a.b = 0xdeadbeef;
  a.c = 1;
  TraceEvent b = a;
  b.t = 5.0;       // attribution, not identity
  b.dur = 0.25;
  b.lane = 7;
  EXPECT_EQ(obs::identity(a), obs::identity(b));
  b.b = 0xdeadbef0;  // payload IS identity
  EXPECT_FALSE(obs::identity(a) == obs::identity(b));
}

TEST(ObsTrace, LmcTraceMacroDoesNotEvaluateArgsWhenOff) {
  int evaluated = 0;
  auto make = [&evaluated] {
    ++evaluated;
    return TraceEvent{};
  };
  obs::TraceSink* off = nullptr;
  LMC_TRACE(off, record(make()));
  EXPECT_EQ(evaluated, 0);
  obs::TraceSink on;
  LMC_TRACE(&on, record(make()));
  EXPECT_EQ(evaluated, 1);
  EXPECT_EQ(on.events().size(), 1u);
}

TEST(ObsTrace, WorkerLanesDrainInSeqOrder) {
  obs::TraceSink sink;
  // Simulate out-of-order worker completion: seqs recorded 2, 0, 1.
  for (std::uint64_t seq : {2u, 0u, 1u}) {
    TraceEvent ev;
    ev.type = EventType::kHandlerRun;
    ev.seq = seq;
    sink.record_worker(ev);
  }
  EXPECT_EQ(sink.undrained(), 3u);
  sink.drain_workers();
  EXPECT_EQ(sink.undrained(), 0u);
  ASSERT_EQ(sink.events().size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) EXPECT_EQ(sink.events()[i].seq, i);
}

TEST(ObsTrace, JsonlRoundTripIsExact) {
  TraceEvent ev;
  ev.type = EventType::kComboSweep;
  ev.phase = obs::Phase::kSweep;
  ev.lane = 3;
  ev.round = 7;
  ev.node = TraceEvent::kNoNode;
  ev.seq = 0x1122334455667788ull;
  ev.a = 2;
  ev.b = ~0ull;  // u64 extremes must survive the JSON encoding
  ev.c = 1;
  ev.t = 0.1 + 0.2;          // not exactly representable — %.17g must round-trip
  ev.dur = 1.0 / 3.0;
  const std::string line = obs::to_jsonl_line(ev);
  std::string err;
  EXPECT_TRUE(obs::validate_obs_line(line, &err)) << err;
  TraceEvent back;
  ASSERT_TRUE(obs::parse_jsonl_line(line, back));
  EXPECT_EQ(obs::identity(ev), obs::identity(back));
  EXPECT_EQ(ev.lane, back.lane);
  EXPECT_EQ(ev.t, back.t);      // bitwise: %.17g is lossless for doubles
  EXPECT_EQ(ev.dur, back.dur);
}

TEST(ObsTrace, WorkerErrorRoundTripAndReportAggregation) {
  TraceEvent ev;
  ev.type = EventType::kWorkerError;
  ev.phase = obs::Phase::kExplore;
  ev.round = 3;
  ev.a = 2;  // secondary exceptions dropped
  ev.b = 0;  // source: a phase-1 handler chunk
  const std::string line = obs::to_jsonl_line(ev);
  std::string err;
  EXPECT_TRUE(obs::validate_obs_line(line, &err)) << err;
  TraceEvent back;
  ASSERT_TRUE(obs::parse_jsonl_line(line, back));
  EXPECT_EQ(back.type, EventType::kWorkerError);
  EXPECT_EQ(obs::identity(ev), obs::identity(back));

  // lmc_report surfaces both the event count and the summed drop count.
  TraceEvent pool_ev;
  pool_ev.type = EventType::kWorkerError;
  pool_ev.a = 1;
  pool_ev.b = 1;  // source: WorkerPool
  const obs::ReportSummary s = obs::summarize({ev, pool_ev});
  EXPECT_EQ(s.worker_errors, 2u);
  EXPECT_EQ(s.worker_exceptions_dropped, 3u);
}

// --- bench schema -----------------------------------------------------------

TEST(ObsBench, RecordValidatesAndBadLinesAreRejected) {
  obs::BenchRecord rec("bench_test", "case1");
  rec.param("threads", std::uint64_t{8});
  rec.param("proto", std::string("tree"));
  rec.metric("transitions", std::uint64_t{42});
  rec.metric("elapsed_s", 0.5);
  std::string err;
  EXPECT_TRUE(obs::validate_obs_line(rec.to_json(), &err)) << err;
  EXPECT_FALSE(obs::validate_obs_line("{\"bench\":\"x\"}", &err));        // no schema key
  EXPECT_FALSE(obs::validate_obs_line("{\"schema\":\"nope/9\"}", &err));  // unknown schema
  EXPECT_FALSE(obs::validate_obs_line("not json", &err));
}

// --- checker integration: non-perturbation, determinism, counter-exact ------

TEST(ObsChecker, TreeRunTracedVsUntracedAndReport) {
  tree::Topology topo = tree::fig2_topology();
  SystemConfig cfg = tree::make_config(topo);
  tree::CausalDeliveryInvariant inv(topo);

  LocalMcOptions plain_opt;
  LocalModelChecker plain(cfg, &inv, plain_opt);
  plain.run_from_initial();
  const Blob plain_bytes = dfuzz::normalized_checkpoint_bytes(plain.checkpoint_bytes());

  obs::TraceSink trace;
  LocalMcOptions traced_opt;
  traced_opt.trace = &trace;
  LocalModelChecker traced(cfg, &inv, traced_opt);
  traced.run_from_initial();

  // Non-perturbation: tracing on vs. off leaves identical checker output.
  EXPECT_EQ(plain_bytes, dfuzz::normalized_checkpoint_bytes(traced.checkpoint_bytes()));
  EXPECT_EQ(trace.undrained(), 0u);
  ASSERT_FALSE(trace.events().empty());

  const obs::ReportSummary sum = obs::summarize(trace.events());
  expect_counter_exact(sum, traced.stats());
  EXPECT_EQ(sum.run_begins, 1u);
  EXPECT_EQ(sum.run_ends, 1u);
  EXPECT_FALSE(sum.rules.empty());
  EXPECT_GE(sum.soundness_wall_s, 0.0);
  EXPECT_LE(sum.soundness_wall_s, sum.elapsed_s);

  // The file path reproduces the in-memory aggregates bit-for-bit: %.17g
  // JSONL is lossless, so lmc_report on the written trace agrees exactly.
  const std::string path = ::testing::TempDir() + "obs_tree_trace.jsonl";
  trace.write_jsonl(path);
  const std::vector<TraceEvent> loaded = obs::load_trace_file(path);
  ASSERT_EQ(loaded.size(), trace.events().size());
  EXPECT_EQ(obs::identities(loaded), obs::identities(trace.events()));
  const obs::ReportSummary from_file = obs::summarize(loaded);
  expect_counter_exact(from_file, traced.stats());
  EXPECT_EQ(from_file.handler_exec_s, sum.handler_exec_s);

  // Every line the sink wrote validates against "lmc-trace/1".
  std::string err;
  const std::string jsonl = trace.to_jsonl();
  std::size_t start = 0, lines = 0;
  while (start < jsonl.size()) {
    const std::size_t end = jsonl.find('\n', start);
    EXPECT_TRUE(obs::validate_obs_line(jsonl.substr(start, end - start), &err)) << err;
    ++lines;
    if (end == std::string::npos) break;
    start = end + 1;
  }
  EXPECT_EQ(lines, trace.events().size());
}

// The tentpole contract over the frozen fuzz corpus: for every seed, at 1
// and at 8 threads, (a) tracing does not perturb the checker — normalized
// checkpoint bytes are identical on vs. off — and (b) the trace's identity
// stream is a pure function of the exploration — permutation-stable across
// thread counts. The traced runs double as counter-exact report fixtures.
TEST(ObsCorpus, TracedByteIdenticalAndThreadPermutationStable) {
  std::uint64_t with_soundness = 0;
  for (std::uint64_t seed : corpus_seeds()) {
    dsl::CompiledProtocol p = dsl::instantiate(dfuzz::generate_spec(seed));
    std::vector<obs::EventIdentity> base_ids;
    for (unsigned threads : {1u, 8u}) {
      LocalModelChecker plain(p.cfg, p.invariant.get(), corpus_options(threads, nullptr));
      plain.run_from_initial();
      ASSERT_TRUE(plain.stats().completed) << "seed " << seed << " threads " << threads;
      const Blob plain_bytes = dfuzz::normalized_checkpoint_bytes(plain.checkpoint_bytes());

      obs::TraceSink sink;
      LocalModelChecker traced(p.cfg, p.invariant.get(), corpus_options(threads, &sink));
      traced.run_from_initial();
      ASSERT_EQ(plain_bytes, dfuzz::normalized_checkpoint_bytes(traced.checkpoint_bytes()))
          << "seed " << seed << ": tracing perturbed the run at " << threads << " threads";
      EXPECT_EQ(sink.undrained(), 0u) << "seed " << seed;

      expect_counter_exact(obs::summarize(sink.events()), traced.stats());
      if (traced.stats().soundness_calls > 0) ++with_soundness;

      std::vector<obs::EventIdentity> ids = thread_invariant_identities(sink.events());
      if (threads == 1) {
        base_ids = std::move(ids);
      } else {
        EXPECT_EQ(base_ids, ids)
            << "seed " << seed << ": trace identity diverged at " << threads << " threads";
      }
    }
  }
  // The corpus only pins the soundness/deferral event paths if some seeds
  // actually reach them.
  EXPECT_GT(with_soundness, 0u);
}

// One sink over several runs (CrystalBall periods, concatenated per-seed
// traces): the report sums the run totals over the run segments, so no
// phase can exceed the summed elapsed time.
TEST(ObsChecker, TwoRunsInOneSinkSumRunTotals) {
  dsl::CompiledProtocol p = dsl::instantiate(dfuzz::generate_spec(14));
  obs::TraceSink sink;
  LocalModelChecker a(p.cfg, p.invariant.get(), corpus_options(1, &sink));
  a.run_from_initial();
  LocalModelChecker b(p.cfg, p.invariant.get(), corpus_options(1, &sink));
  b.run_from_initial();
  ASSERT_GT(a.stats().confirmed_violations, 0u);

  const obs::ReportSummary sum = obs::summarize(sink.events());
  EXPECT_EQ(sum.run_begins, 2u);
  EXPECT_EQ(sum.elapsed_s, a.stats().elapsed_s + b.stats().elapsed_s);
  EXPECT_EQ(sum.transitions, a.stats().transitions + b.stats().transitions);
  EXPECT_EQ(sum.final_transitions, a.stats().transitions + b.stats().transitions);
  EXPECT_EQ(sum.confirmed, a.stats().confirmed_violations + b.stats().confirmed_violations);
  for (double phase : {sum.handler_exec_s, sum.sweep_s, sum.soundness_wall_s,
                       sum.soundness_agg_s, sum.deferred_s, sum.checkpoint_s})
    EXPECT_LE(phase, sum.elapsed_s);
}

// --- checkpoint stats fields -----------------------------------------------

Blob small_checkpoint() {
  dsl::CompiledProtocol p = dsl::instantiate(dfuzz::generate_spec(5));
  LocalModelChecker mc(p.cfg, p.invariant.get(), corpus_options(1, nullptr));
  mc.run_from_initial();
  return mc.checkpoint_bytes();
}

TEST(ObsCheckpoint, DeferredDroppedCounterAndWallSecondsRoundTrip) {
  CheckerImage img = decode_checkpoint(small_checkpoint());
  img.stats.deferred_dropped = 7;  // a counter now, not a latched bool
  img.stats.soundness_wall_s = 1.5;
  const Blob b = encode_checkpoint(img);
  const CheckerImage back = decode_checkpoint(b);
  EXPECT_EQ(back.stats.deferred_dropped, 7u);
  EXPECT_EQ(back.stats.soundness_wall_s, 1.5);
  // Canonical round-trip still holds for current-version files.
  EXPECT_EQ(encode_checkpoint(back), b);
}

// --- profiling (DESIGN.md §15) ---------------------------------------------

TEST(ObsProf, LmcProfMacroDoesNotEvaluateArgsWhenOff) {
  int evaluated = 0;
  auto delta = [&evaluated] {
    ++evaluated;
    return std::uint64_t{1};
  };
  const obs::RuleKey key{0, 1, 0};
  obs::ProfileSink* off = nullptr;
  LMC_PROF(off, rule(key, delta(), 0, 0.0));
  EXPECT_EQ(evaluated, 0);
  obs::ProfileSink on;
  LMC_PROF(&on, rule(key, delta(), 0, 0.0));
  EXPECT_EQ(evaluated, 1);
  ASSERT_EQ(on.rules().size(), 1u);
  EXPECT_EQ(on.rules().at(key).ser_bytes, 1u);
}

TEST(ObsProf, TimeHistBucketsAreLog2Nanoseconds) {
  obs::TimeHist h;
  h.add(0.0);       // < 1ns -> bucket 0
  h.add(1.5e-9);    // [1, 2) ns -> bucket 1
  h.add(3e-9);      // [2, 4) ns -> bucket 2
  h.add(1e-6);      // ~2^10 ns
  EXPECT_EQ(h.samples(), 4u);
  EXPECT_EQ(h.count[0], 1u);
  EXPECT_EQ(h.count[1], 1u);
  EXPECT_EQ(h.count[2], 1u);
  obs::TimeHist other;
  other.add(1.5e-9);
  h.merge(other);
  EXPECT_EQ(h.samples(), 5u);
  EXPECT_EQ(h.count[1], 2u);
}

TEST(ObsProf, JsonlRoundTripValidatesAndMergesExactly) {
  obs::ProfileSink sink;
  LocalMcStats run1;
  run1.transitions = 7;
  run1.elapsed_s = 1.5;
  run1.system_state_s = 0.1 + 0.2;  // not exactly representable — must round-trip
  run1.completed = true;
  run1.max_chain_depth_reached = 3;
  run1.sym.orbits = 11;
  LocalMcStats run2 = run1;
  run2.transitions = 5;
  run2.completed = false;
  run2.max_chain_depth_reached = 2;
  sink.add_run(run1, 4);
  sink.add_run(run2, 1);
  const obs::RuleKey key{2, 1, 9};
  sink.rule(key, /*ser_bytes=*/64, /*hash_bytes=*/32, /*exec_s=*/1e-6);
  sink.rule(key, /*ser_bytes=*/64, /*hash_bytes=*/0, /*exec_s=*/0.0);

  const std::string jsonl = sink.to_jsonl();
  obs::ProfileData data;
  std::size_t start = 0;
  std::string err;
  while (start < jsonl.size()) {
    const std::size_t end = jsonl.find('\n', start);
    const std::string line = jsonl.substr(start, end - start);
    EXPECT_TRUE(obs::validate_obs_line(line, &err)) << err;
    EXPECT_TRUE(obs::merge_prof_line(line, data)) << line;
    if (end == std::string::npos) break;
    start = end + 1;
  }
  EXPECT_EQ(data.threads, 4u);
  EXPECT_EQ(data.runs, 2u);
  // Counts and seconds add, the gauges keep the maximum, and completed
  // holds only while every run completed.
  EXPECT_EQ(data.stats.transitions, 12u);
  EXPECT_EQ(data.stats.elapsed_s, 3.0);
  EXPECT_EQ(data.stats.system_state_s, run1.system_state_s + run2.system_state_s);
  EXPECT_FALSE(data.stats.completed);
  EXPECT_EQ(data.stats.max_chain_depth_reached, 3u);
  EXPECT_EQ(data.stats.sym.orbits, 22u);
  ASSERT_EQ(data.rules.size(), 1u);
  const obs::ProfileData::Rule& r = data.rules.begin()->second;
  EXPECT_EQ(r.key, key);
  EXPECT_EQ(r.runs, 2u);
  EXPECT_EQ(r.ser_bytes, 128u);
  EXPECT_EQ(r.hash_bytes, 32u);
  EXPECT_EQ(r.samples, 2u);  // every execution is timed

  // Non-prof lines are tolerated (mixed files); malformed prof lines fail
  // schema validation.
  EXPECT_FALSE(obs::merge_prof_line("{\"schema\":\"lmc-trace/1\"}", data));
  EXPECT_FALSE(obs::validate_obs_line(
      "{\"schema\":\"lmc-prof/2\",\"kind\":\"bogus\"}", &err));
  EXPECT_FALSE(obs::validate_obs_line("{\"schema\":\"lmc-prof/2\"}", &err));
  EXPECT_FALSE(obs::validate_obs_line(
      "{\"schema\":\"lmc-prof/2\",\"kind\":\"stat\",\"name\":\"nope\",\"value\":1}", &err));
  EXPECT_FALSE(obs::validate_obs_line(
      "{\"schema\":\"lmc-prof/2\",\"kind\":\"stat\",\"name\":\"completed\",\"value\":2}",
      &err));
  // The reader accepts lmc-prof/2 only.
  EXPECT_FALSE(obs::merge_prof_line(
      "{\"schema\":\"lmc-prof/1\",\"kind\":\"meta\",\"version\":1,\"threads\":1}", data));
}

// The profile's phase rows are the checker's own stats summed over the runs
// it was attached to, so merging runs at different thread counts keeps every
// row a share of the summed run wall. Seed 171 drains 190 deferred
// combinations in phase 2, so every row is non-trivial.
TEST(ObsProf, MergedRunsPhaseRowsAreTheSummedStats) {
  dsl::CompiledProtocol p = dsl::instantiate(dfuzz::generate_spec(171));
  obs::ProfileSink prof;
  LocalMcStats sum = stats_fold_start();
  for (unsigned threads : {1u, 4u}) {
    LocalMcOptions opt = corpus_options(threads, nullptr);
    opt.profile = &prof;
    LocalModelChecker mc(p.cfg, p.invariant.get(), opt);
    mc.run_from_initial();
    ASSERT_GT(mc.stats().deferred_processed, 0u) << "the input must exercise the drain";
    merge_stats(sum, mc.stats());
  }

  obs::ProfileData data;
  const std::string jsonl = prof.to_jsonl();
  std::size_t start = 0;
  while (start < jsonl.size()) {
    const std::size_t end = jsonl.find('\n', start);
    EXPECT_TRUE(obs::merge_prof_line(jsonl.substr(start, end - start), data));
    if (end == std::string::npos) break;
    start = end + 1;
  }
  EXPECT_EQ(data.runs, 2u);
  EXPECT_EQ(data.threads, 4u);
  const obs::ProfilePhases ph = obs::profile_phases(data);
  EXPECT_EQ(ph.run_s, sum.elapsed_s);
  EXPECT_EQ(ph.sweep_s, sum.system_state_s);
  EXPECT_EQ(ph.soundness_s, sum.soundness_wall_s);
  EXPECT_EQ(ph.drain_s, sum.deferred_s);
  EXPECT_GT(ph.drain_s, 0.0);
  EXPECT_GE(ph.explore_s, 0.0);
  for (double row : {ph.explore_s, ph.sweep_s, ph.soundness_s, ph.drain_s})
    EXPECT_LE(row, ph.run_s);
}

// The tentpole contract over a frozen-corpus slice: the profile's identity
// aggregates are a pure function of the exploration — byte-identical at 1
// vs 8 threads — and attaching a sink does not perturb the checker
// (normalized checkpoint bytes identical profiling on vs off).
TEST(ObsProfCorpus, IdentityByteIdentical1v8AndCheckpointUnperturbed) {
  std::vector<std::uint64_t> slice;
  for (std::uint64_t i = 1; i <= 10; ++i) slice.push_back(i);
  slice.push_back(97);
  slice.push_back(171);
  slice.push_back(664);

  std::uint64_t with_handler_runs = 0;
  for (std::uint64_t seed : slice) {
    dsl::CompiledProtocol p = dsl::instantiate(dfuzz::generate_spec(seed));

    LocalModelChecker plain(p.cfg, p.invariant.get(), corpus_options(1, nullptr));
    plain.run_from_initial();
    ASSERT_TRUE(plain.stats().completed) << "seed " << seed;
    const Blob plain_bytes = dfuzz::normalized_checkpoint_bytes(plain.checkpoint_bytes());

    std::string base_identity;
    for (unsigned threads : {1u, 8u}) {
      obs::ProfileSink prof;
      LocalMcOptions opt = corpus_options(threads, nullptr);
      opt.profile = &prof;
      LocalModelChecker mc(p.cfg, p.invariant.get(), opt);
      mc.run_from_initial();
      ASSERT_TRUE(mc.stats().completed) << "seed " << seed << " threads " << threads;
      ASSERT_EQ(plain_bytes, dfuzz::normalized_checkpoint_bytes(mc.checkpoint_bytes()))
          << "seed " << seed << ": profiling perturbed the run at " << threads << " threads";
      if (prof.stats().transitions > 0) ++with_handler_runs;
      const std::string identity = prof.identity_text();
      if (threads == 1)
        base_identity = identity;
      else
        EXPECT_EQ(base_identity, identity)
            << "seed " << seed << ": profile identity diverged at " << threads << " threads";
    }
  }
  EXPECT_GT(with_handler_runs, 0u);
}

// --- Chrome trace_event export ----------------------------------------------

TEST(ObsChrome, ExportValidatesAndBadDocsRejected) {
  tree::Topology topo = tree::fig2_topology();
  SystemConfig cfg = tree::make_config(topo);
  tree::CausalDeliveryInvariant inv(topo);

  obs::TraceSink trace;
  obs::ProfileSink prof;
  LocalMcOptions opt;
  opt.trace = &trace;
  opt.profile = &prof;
  LocalModelChecker mc(cfg, &inv, opt);
  mc.run_from_initial();
  ASSERT_FALSE(trace.events().empty());

  obs::ProfileData pdata;
  {
    const std::string jsonl = prof.to_jsonl();
    std::size_t start = 0;
    while (start < jsonl.size()) {
      const std::size_t end = jsonl.find('\n', start);
      obs::merge_prof_line(jsonl.substr(start, end - start), pdata);
      if (end == std::string::npos) break;
      start = end + 1;
    }
    ASSERT_GT(pdata.lines, 0u);
  }

  std::string err;
  const std::string with_prof = obs::chrome_trace_json(trace.events(), &pdata);
  EXPECT_TRUE(obs::validate_chrome_trace(with_prof, &err)) << err;
  const std::string without = obs::chrome_trace_json(trace.events(), nullptr);
  EXPECT_TRUE(obs::validate_chrome_trace(without, &err)) << err;
  // The progress track comes from the round ends, the final sample from
  // the profile's stat lines.
  EXPECT_NE(without.find("\"name\":\"progress\""), std::string::npos);
  EXPECT_NE(with_prof.find("\"sym.orbits\":"), std::string::npos);

  EXPECT_FALSE(obs::validate_chrome_trace("not json", &err));
  EXPECT_FALSE(obs::validate_chrome_trace("{}", &err));                   // no traceEvents
  EXPECT_FALSE(obs::validate_chrome_trace("{\"traceEvents\":{}}", &err)); // not an array
  EXPECT_FALSE(obs::validate_chrome_trace(
      "{\"traceEvents\":[{\"name\":\"x\"}]}", &err));                     // entry missing ph/pid
  EXPECT_FALSE(obs::validate_chrome_trace(
      "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":1}]}", &err));             // non-meta missing ts
}

TEST(ObsCheckpoint, VersionsOutsideTheWindowAreRejected) {
  Blob b = small_checkpoint();
  auto put_u32 = [](Blob& blob, std::size_t off, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i) blob[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  auto put_u64 = [](Blob& blob, std::size_t off, std::uint64_t v) {
    for (std::size_t i = 0; i < 8; ++i) blob[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  for (std::uint32_t bad : {kCheckpointVersion - 1, kCheckpointVersion + 1}) {
    Blob m = b;
    put_u32(m, sizeof(kCheckpointMagic), bad);  // version field follows the magic
    put_u64(m, m.size() - 8, hash_bytes(m.data(), m.size() - 8));  // keep checksum valid
    EXPECT_THROW(decode_checkpoint(m), CheckpointError) << "version " << bad;
  }
}

}  // namespace
}  // namespace lmc
