// Phase-1 scaling (DESIGN.md §12): handler execution fanned out in chunks
// over the checker's worker pool, on a synthetic ring protocol whose
// handlers burn a deterministic amount of CPU — the regime parallel phase 1
// exists for (real protocol handlers doing real work, not micro-handlers
// bounded by the applier).
//
// Runs LMC-explore (system-state creation off) so the measured wall time IS
// phase 1, at 1/2/4/8 threads. Prints, per thread count: wall time, handler
// throughput (transitions/s), speedup over the 1-thread run, and whether
// the checker's normalized checkpoint bytes are IDENTICAL to the 1-thread
// run — the determinism contract, enforced by the exit status. Speedup is
// hardware-bound (a 1-core container shows ~1x); byte identity must hold
// anywhere.
//
// Knobs: LMC_BENCH_BUDGET_S (default 300), LMC_BENCH_THREADS (max, def. 8),
// LMC_BENCH_WORK (mix iterations per handler, default 20000),
// LMC_BENCH_MAX_INC (ring increments per node, default 4).
#include <memory>

#include "bench_util.hpp"
#include "dfuzz/oracle.hpp"

using namespace lmc;
using namespace lmc::bench;

namespace {

constexpr std::uint32_t kEvInc = 1;
constexpr std::uint32_t kMsgPing = 7;

/// splitmix64 finalizer — the deterministic CPU burn.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Ring counter with heavy handlers: every handler folds `work` rounds of
/// mix() into an accumulator the state carries (so the work cannot be
/// optimized away and every execution is order-independent-deterministic).
class HeavyRingNode final : public StateMachine {
 public:
  HeavyRingNode(NodeId self, std::uint32_t n, std::uint32_t max_inc, std::uint32_t work)
      : self_(self), n_(n), max_inc_(max_inc), work_(work) {}

  void handle_message(const Message& m, Context& ctx) override {
    ctx.local_assert(m.type == kMsgPing, "heavy: unknown message");
    ++pings_;
    burn(m.payload.empty() ? 0 : m.payload[0]);
  }
  std::vector<InternalEvent> enabled_internal_events() const override {
    if (incs_ < max_inc_) {
      Writer w;
      w.u32(incs_);
      return {InternalEvent{kEvInc, std::move(w).take()}};
    }
    return {};
  }
  void handle_internal(const InternalEvent& ev, Context& ctx) override {
    ctx.local_assert(ev.kind == kEvInc, "heavy: unknown event");
    ++incs_;
    burn(incs_);
    Writer w;
    w.u32(self_);
    w.u32(incs_);
    ctx.send((self_ + 1) % n_, kMsgPing, std::move(w).take());
  }
  void serialize(Writer& w) const override {
    w.u32(incs_);
    w.u32(pings_);
    w.u64(acc_);
  }
  void deserialize(Reader& r) override {
    incs_ = r.u32();
    pings_ = r.u32();
    acc_ = r.u64();
  }

 private:
  void burn(std::uint64_t seed) {
    std::uint64_t x = acc_ ^ seed;
    for (std::uint32_t i = 0; i < work_; ++i) x = mix(x);
    acc_ = x;
  }

  NodeId self_;
  std::uint32_t n_;
  std::uint32_t max_inc_;
  std::uint32_t work_;
  std::uint32_t incs_ = 0;
  std::uint32_t pings_ = 0;
  std::uint64_t acc_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  BenchProfile prof(argc, argv, "bench_phase1_scaling");
  const double budget = env_f("LMC_BENCH_BUDGET_S", 300.0);
  const std::uint32_t max_threads = env_u("LMC_BENCH_THREADS", 8);
  const std::uint32_t work = env_u("LMC_BENCH_WORK", 20000);
  const std::uint32_t max_inc = env_u("LMC_BENCH_MAX_INC", 4);

  SystemConfig cfg;
  cfg.num_nodes = 3;
  cfg.factory = [max_inc, work](NodeId self, std::uint32_t n) {
    return std::make_unique<HeavyRingNode>(self, n, max_inc, work);
  };

  std::printf("# phase-1 worker-pool scaling — heavy-handler ring (LMC-explore)\n");
  std::printf("# handlers/s = transitions / wall; identical = normalized checkpoint bytes\n");
  std::printf("%8s %10s %12s %10s %12s %10s\n", "threads", "wall_s", "handlers/s", "speedup",
              "transitions", "identical");

  bool ok = true;
  bool all_match = true;
  double base_wall = -1.0;
  Blob base_bytes;
  for (std::uint32_t threads = 1; threads <= max_threads; threads *= 2) {
    LocalMcOptions opt;
    opt.enable_system_states = false;  // LMC-explore: the run IS phase 1
    opt.time_budget_s = budget;
    opt.num_threads = threads;
    opt.profile = prof.sink();
    LocalModelChecker mc(cfg, nullptr, opt);
    mc.run_from_initial();

    const double wall = mc.stats().elapsed_s;
    const double rate = wall > 0 ? static_cast<double>(mc.stats().transitions) / wall : 0.0;
    const Blob norm = dfuzz::normalized_checkpoint_bytes(mc.checkpoint_bytes());
    bool match = true;
    if (threads == 1) {
      base_bytes = norm;
      base_wall = wall;
      ok = mc.stats().completed && mc.stats().transitions > 0;
    } else {
      match = norm == base_bytes;
      all_match = all_match && match;
    }
    std::printf("%8u %10.3f %12.0f %9.2fx %12llu %10s\n", threads, wall, rate,
                wall > 0 ? base_wall / wall : 0.0,
                static_cast<unsigned long long>(mc.stats().transitions), match ? "yes" : "NO");
    obs::BenchRecord rec("bench_phase1_scaling", "threads");
    rec.param("threads", static_cast<std::uint64_t>(threads));
    rec.param("work", static_cast<std::uint64_t>(work));
    rec.param("max_inc", static_cast<std::uint64_t>(max_inc));
    add_lmc_metrics(rec, mc.stats());
    rec.metric("handlers_per_s", rate);
    rec.metric("phase1_speedup", wall > 0 ? base_wall / wall : 0.0);
    rec.metric("byte_identical", static_cast<std::uint64_t>(match ? 1 : 0));
    rec.emit();
  }
  std::printf("# determinism: checkpoints %s across thread counts\n",
              all_match ? "byte-identical" : "DIVERGED");
  if (!ok) std::printf("# UNEXPECTED: 1-thread run incomplete or empty\n");
  return (ok && all_match) ? 0 : 1;
}
