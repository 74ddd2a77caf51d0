// Micro benchmarks (google-benchmark) for the substrate hot paths: state
// (de)serialization, hashing, handler execution, the monotonic network, and
// a single soundness verification — the per-unit costs behind Fig. 10/13.
#include <benchmark/benchmark.h>

#include "mc/local_mc.hpp"
#include "obs/bench_schema.hpp"
#include "mc/soundness.hpp"
#include "net/monotonic_network.hpp"
#include "protocols/paxos.hpp"
#include "runtime/hash.hpp"
#include "runtime/state_machine.hpp"

namespace {

using namespace lmc;

SystemConfig& cfg() {
  static SystemConfig c =
      paxos::make_config(3, paxos::CoreOptions{}, paxos::DriverConfig{{0}, 1});
  return c;
}

Blob busy_paxos_state() {
  auto nodes = initial_states(cfg());
  ExecResult r = exec_internal(cfg(), 0, nodes[0], {paxos::kEvInit, {}});
  auto evs = internal_events_of(cfg(), 0, r.state);
  ExecResult r2 = exec_internal(cfg(), 0, r.state, evs[0]);
  return r2.state;
}

void BM_SerializeRoundTrip(benchmark::State& state) {
  Blob blob = busy_paxos_state();
  for (auto _ : state) {
    auto m = machine_from_blob(cfg(), 0, blob);
    benchmark::DoNotOptimize(machine_to_blob(*m));
  }
}
BENCHMARK(BM_SerializeRoundTrip);

void BM_HashBlob(benchmark::State& state) {
  Blob blob = busy_paxos_state();
  for (auto _ : state) benchmark::DoNotOptimize(hash_blob(blob));
}
BENCHMARK(BM_HashBlob);

void BM_ExecMessageHandler(benchmark::State& state) {
  Blob blob = busy_paxos_state();
  Message prep;
  prep.dst = 0;
  prep.src = 0;
  prep.type = paxos::kPrepare;
  prep.payload = paxos::PrepareMsg{0, paxos::make_ballot(1, 0)}.encode();
  for (auto _ : state) benchmark::DoNotOptimize(exec_message(cfg(), 0, blob, prep));
}
BENCHMARK(BM_ExecMessageHandler);

void BM_MonotonicNetworkAdd(benchmark::State& state) {
  std::uint32_t n = 0;
  for (auto _ : state) {
    MonotonicNetwork net;
    for (int i = 0; i < 64; ++i) {
      Message m;
      m.dst = (n + i) % 3;
      m.src = 0;
      m.type = i;
      net.add(m, m.hash());
    }
    benchmark::DoNotOptimize(net.size());
    ++n;
  }
}
BENCHMARK(BM_MonotonicNetworkAdd);

void BM_MessageHash(benchmark::State& state) {
  Message m;
  m.dst = 1;
  m.src = 2;
  m.type = 3;
  m.payload = paxos::PrepareMsg{7, paxos::make_ballot(3, 1)}.encode();
  for (auto _ : state) benchmark::DoNotOptimize(m.hash());
}
BENCHMARK(BM_MessageHash);

void BM_SoundnessVerifyOneCombo(benchmark::State& state) {
  auto inv = paxos::make_agreement_invariant();
  LocalMcOptions opt;
  opt.enable_system_states = false;
  LocalModelChecker mc(cfg(), inv.get(), opt);
  mc.run_from_initial();
  std::vector<std::uint32_t> combo;
  for (NodeId n = 0; n < 3; ++n) combo.push_back(mc.store().size(n) - 1);
  for (auto _ : state) {
    SoundnessVerifier v(mc.store(), mc.initial_in_flight_hashes(), {});
    benchmark::DoNotOptimize(v.verify(combo));
  }
}
BENCHMARK(BM_SoundnessVerifyOneCombo);

void BM_FullLmcOneProposal(benchmark::State& state) {
  auto inv = paxos::make_agreement_invariant();
  for (auto _ : state) {
    LocalMcOptions opt;
    opt.use_projection = true;
    LocalModelChecker mc(cfg(), inv.get(), opt);
    mc.run_from_initial();
    benchmark::DoNotOptimize(mc.stats().node_states);
  }
}
BENCHMARK(BM_FullLmcOneProposal);

// Console output plus one "lmc-bench/1" record per benchmark, so the micro
// numbers land in the same $LMC_BENCH_JSON stream as every other harness.
class UnifiedReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      obs::BenchRecord rec("bench_micro", run.benchmark_name());
      rec.metric("real_time_ns", run.GetAdjustedRealTime());
      rec.metric("cpu_time_ns", run.GetAdjustedCPUTime());
      rec.metric("iterations", static_cast<std::uint64_t>(run.iterations));
      rec.emit();
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  UnifiedReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
