// Quickstart: the paper's §2 tree example, checked both ways.
//
// Shows the complete LMC workflow on the 5-node distributed tree of Fig. 2:
//  1. define a protocol (TreeNode) and an invariant;
//  2. run the classic global checker (B-DFS) — every network change is a new
//     global state;
//  3. run the local checker — node states only, one shared monotonic
//     network, system states materialized transiently (4 of them, as in
//     Fig. 4), and the invalid "----r" combination rejected a posteriori by
//     soundness verification.
//
// Build & run:   ./quickstart [--trace FILE]
//
// --trace FILE    write the LMC run's structured event trace ("lmc-trace/1"
//                 JSONL) to FILE; analyze with `lmc_report FILE`. The run's
//                 counts and phase seconds are its LocalMcStats, printed
//                 below.
#include <cstdio>
#include <cstring>

#include "mc/dot_export.hpp"
#include "mc/global_mc.hpp"
#include "mc/local_mc.hpp"
#include "obs/trace.hpp"
#include "protocols/tree.hpp"

using namespace lmc;

int main(int argc, char** argv) {
  const char* trace_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], "--trace") == 0) trace_path = argv[++i];

  tree::Topology topo = tree::fig2_topology();
  SystemConfig cfg = tree::make_config(topo);
  tree::CausalDeliveryInvariant invariant(topo);

  std::printf("=== Global model checking (B-DFS, the classic approach) ===\n");
  GlobalMcOptions gopt;
  gopt.collect_system_states = true;
  GlobalModelChecker global(cfg, &invariant, gopt);
  global.run_from_initial();
  std::printf("  global states visited : %llu\n",
              static_cast<unsigned long long>(global.stats().unique_states));
  std::printf("  transitions executed  : %llu\n",
              static_cast<unsigned long long>(global.stats().transitions));
  std::printf("  distinct system states: %zu\n", global.system_state_tuples().size());
  std::printf("  violations            : %llu\n",
              static_cast<unsigned long long>(global.stats().violations));

  std::printf("\n=== Local model checking (LMC, this paper) ===\n");
  obs::TraceSink trace;
  LocalMcOptions lopt;
  if (trace_path != nullptr) lopt.trace = &trace;
  LocalModelChecker local(cfg, &invariant, lopt);
  local.run_from_initial();
  if (trace_path != nullptr) {
    trace.write_jsonl(trace_path);
    std::printf("  trace written         : %s (%zu events; try: lmc_report %s)\n", trace_path,
                trace.events().size(), trace_path);
  }
  const LocalMcStats& st = local.stats();
  std::printf("  node states traversed : %llu  (vs %llu global states)\n",
              static_cast<unsigned long long>(st.node_states),
              static_cast<unsigned long long>(global.stats().unique_states));
  std::printf("  transitions executed  : %llu  (vs %llu)\n",
              static_cast<unsigned long long>(st.transitions),
              static_cast<unsigned long long>(global.stats().transitions));
  std::printf("  system states created : %llu  (Fig. 4 shows 4)\n",
              static_cast<unsigned long long>(st.system_states));
  std::printf("  preliminary violations: %llu  (the invalid \"----r\")\n",
              static_cast<unsigned long long>(st.prelim_violations));
  std::printf("  rejected by soundness : %llu\n",
              static_cast<unsigned long long>(st.unsound_violations));
  std::printf("  confirmed violations  : %llu  (none: the protocol is correct)\n",
              static_cast<unsigned long long>(st.confirmed_violations));

  std::printf("\n=== Traversed node-state graph (Graphviz) ===\n%s",
              to_dot(local.store(), local.iplus()).c_str());
  return 0;
}
