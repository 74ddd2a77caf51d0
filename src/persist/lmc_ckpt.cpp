// Checkpoint tooling:
//   lmc_ckpt inspect  <file>      header, section list, every stat
//   lmc_ckpt inspect --json <file>  one "lmc-bench/1" record of the header
//                                 and stats counters
//   lmc_ckpt validate <file>      full structural decode; exit 0 iff valid
//   lmc_ckpt diff     <a> <b>     what exploration happened between two
//                                 checkpoints of the same run
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <unordered_set>

#include "obs/bench_schema.hpp"
#include "persist/checkpoint.hpp"

namespace {

using namespace lmc;

const char* section_name(std::uint32_t id) {
  switch (id) {
    case kSecMeta: return "meta";
    case kSecSnapshot: return "snapshot";
    case kSecStore: return "store";
    case kSecNetwork: return "network";
    case kSecEvents: return "events";
    case kSecFeasibility: return "feasibility";
    case kSecCursors: return "cursors";
    case kSecStats: return "stats";
    case kSecDeferred: return "deferred";
    case kSecViolations: return "violations";
    case kSecPending: return "pending";
    case kSecSegment: return "segment";
    case kSecSymmetry: return "symmetry";
    case kSecPor: return "por";
    default: return nullptr;  // unknown (future) section — caller warns
  }
}

int cmd_inspect_json(const std::string& path) {
  const Blob data = read_checkpoint_file(path);
  const CheckpointInfo info = inspect_checkpoint(data);
  const LocalMcStats& st = info.stats;
  obs::BenchRecord rec("lmc_ckpt", path);
  rec.param("version", static_cast<std::uint64_t>(info.version));
  rec.param("nodes", static_cast<std::uint64_t>(info.num_nodes));
  rec.metric("file_bytes", static_cast<std::uint64_t>(data.size()));
  rec.metric("node_states", info.total_states);
  rec.metric("iplus_messages", info.net_size);
  rec.metric("events", info.event_count);
  rec.metric("pending_tasks", info.pending_tasks);
  rec.metric("segment_id", info.segment_id);
  rec.metric("base_round", static_cast<std::uint64_t>(info.base_round));
  rec.metric("transitions", st.transitions);
  rec.metric("system_states", st.system_states);
  rec.metric("prelim_violations", st.prelim_violations);
  rec.metric("confirmed_violations", st.confirmed_violations);
  rec.metric("soundness_calls", st.soundness_calls);
  rec.metric("soundness_deferred", st.soundness_deferred);
  rec.metric("deferred_processed", st.deferred_processed);
  rec.metric("deferred_dropped", st.deferred_dropped);
  rec.metric("checkpoints_written", st.checkpoints_written);
  rec.metric("elapsed_s", st.elapsed_s);
  rec.metric("soundness_s", st.soundness_s);
  rec.metric("soundness_wall_s", st.soundness_wall_s);
  rec.metric("deferred_s", st.deferred_s);
  rec.metric("completed", static_cast<std::uint64_t>(st.completed ? 1 : 0));
  if (info.has_symmetry) {
    rec.metric("sym_orbits", st.sym.orbits);
    rec.metric("sym_classes", static_cast<std::uint64_t>(st.sym.classes));
    rec.metric("sym_represented", st.sym.represented);
  }
  if (info.has_por) {
    rec.metric("por_relation_pairs", st.por.relation_pairs);
    rec.metric("por_pruned", st.por.pairs_pruned);
    rec.metric("por_conservative", st.por.conservative_skips);
    rec.metric("por_audits", st.por.audits);
    rec.metric("por_entries", info.por_entries);
    rec.metric("por_deferred", info.por_deferred);
  }
  rec.emit();
  return 0;
}

int cmd_inspect(const std::string& path) {
  const Blob data = read_checkpoint_file(path);
  const CheckpointInfo info = inspect_checkpoint(data);
  std::printf("%s: LMC checkpoint v%u, %zu bytes\n", path.c_str(), info.version, data.size());
  std::printf("  nodes:       %u\n", info.num_nodes);
  std::printf("  node states: %" PRIu64 " (", info.total_states);
  for (std::size_t n = 0; n < info.states_per_node.size(); ++n)
    std::printf("%s%" PRIu64, n == 0 ? "" : " ", info.states_per_node[n]);
  std::printf(")\n");
  std::printf("  I+ messages: %" PRIu64 "\n", info.net_size);
  std::printf("  events:      %" PRIu64 "\n", info.event_count);
  std::printf("  transitions: %" PRIu64 "\n", info.stats.transitions);
  std::printf("  confirmed:   %" PRIu64 "\n", info.stats.confirmed_violations);
  std::printf("  pending:     %" PRIu64 " task(s) of an interrupted round\n", info.pending_tasks);
  std::printf("  segment:     %" PRIu64 " (rounds continue from %u on resume)\n", info.segment_id,
              info.base_round);
  const SymmetryStats& sym = info.stats.sym;
  if (info.has_symmetry)
    std::printf("  symmetry:    %" PRIu64 " orbit(s) over %u class(es), %" PRIu64
                " ordered combination(s) represented, %" PRIu64 " seen-set entries\n",
                sym.orbits, sym.classes, sym.represented, info.sym_seen);
  const PorStats& por = info.stats.por;
  if (info.has_por)
    std::printf("  por:         relation %" PRIu64 " pair(s) (digest %016" PRIx64 "), %" PRIu64
                " pruned, %" PRIu64 " conservative, %" PRIu64 " audit(s), %" PRIu64
                " persisted forward record(s), %" PRIu64 " deferred pair(s)\n",
                por.relation_pairs, info.por_digest, por.pairs_pruned, por.conservative_skips,
                por.audits, info.por_entries, info.por_deferred);
  std::printf("  stats:\n");
  for_each_stat(info.stats, [](const char* name, const auto& v) {
    if constexpr (std::is_floating_point_v<std::remove_cvref_t<decltype(v)>>)
      std::printf("    %-24s %.6f\n", name, v);
    else
      std::printf("    %-24s %" PRIu64 "\n", name, static_cast<std::uint64_t>(v));
  });
  std::printf("  sections:\n");
  for (const auto& s : info.sections) {
    const char* name = section_name(s.id);
    std::printf("    %-12s id=%-3u %10zu bytes\n", name != nullptr ? name : "?", s.id, s.len);
    if (name == nullptr)
      std::fprintf(stderr,
                   "warning: %s: unknown section id=%u (%zu bytes) — written by a newer "
                   "lmc version; its contents are ignored here\n",
                   path.c_str(), s.id, s.len);
  }
  return 0;
}

int cmd_validate(const std::string& path) {
  const Blob data = read_checkpoint_file(path);
  const CheckerImage img = decode_checkpoint(data);  // throws on any defect
  // Canonical-form check: re-encoding a valid image must reproduce the file.
  const Blob again = encode_checkpoint(img);
  if (again != data) {
    std::fprintf(stderr, "%s: decodes but is not in canonical form\n", path.c_str());
    return 1;
  }
  std::printf("%s: valid (v%u, %u nodes, %" PRIu64 " states)\n", path.c_str(), kCheckpointVersion,
              img.num_nodes, img.store.total_states());
  return 0;
}

int cmd_diff(const std::string& a_path, const std::string& b_path) {
  const CheckerImage a = decode_checkpoint(read_checkpoint_file(a_path));
  const CheckerImage b = decode_checkpoint(read_checkpoint_file(b_path));
  if (a.num_nodes != b.num_nodes) {
    std::printf("node count differs: %u vs %u — not checkpoints of the same system\n",
                a.num_nodes, b.num_nodes);
    return 1;
  }
  std::printf("%s -> %s\n", a_path.c_str(), b_path.c_str());
  auto delta = [](const char* what, std::uint64_t x, std::uint64_t y) {
    std::printf("  %-22s %10" PRIu64 " -> %-10" PRIu64 " (%+" PRId64 ")\n", what, x, y,
                static_cast<std::int64_t>(y) - static_cast<std::int64_t>(x));
  };
  delta("transitions", a.stats.transitions, b.stats.transitions);
  delta("node states", a.store.total_states(), b.store.total_states());
  delta("I+ messages", a.net_entries.size(), b.net_entries.size());
  delta("events", a.events.size(), b.events.size());
  delta("confirmed violations", a.stats.confirmed_violations, b.stats.confirmed_violations);
  delta("pending tasks", a.pending.size(), b.pending.size());
  for (NodeId n = 0; n < a.num_nodes; ++n) {
    // Per-node LS delta by state-hash sets, not just counts — detects
    // divergent exploration even when sizes happen to match.
    std::unordered_set<Hash64> ha, hb;
    for (std::uint32_t i = 0; i < a.store.size(n); ++i) ha.insert(a.store.rec(n, i).hash);
    for (std::uint32_t i = 0; i < b.store.size(n); ++i) hb.insert(b.store.rec(n, i).hash);
    std::uint64_t only_a = 0, only_b = 0;
    for (Hash64 h : ha)
      if (!hb.count(h)) ++only_a;
    for (Hash64 h : hb)
      if (!ha.count(h)) ++only_b;
    std::printf("  LS_%-3u %6u -> %-6u states; %" PRIu64 " only in a, %" PRIu64 " only in b\n", n,
                a.store.size(n), b.store.size(n), only_a, only_b);
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: lmc_ckpt inspect [--json] <file>\n"
               "       lmc_ckpt validate <file>\n"
               "       lmc_ckpt diff <a> <b>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "inspect") {
      if (std::strcmp(argv[2], "--json") == 0)
        return argc >= 4 ? cmd_inspect_json(argv[3]) : usage();
      return cmd_inspect(argv[2]);
    }
    if (cmd == "validate") return cmd_validate(argv[2]);
    if (cmd == "diff" && argc >= 4) return cmd_diff(argv[2], argv[3]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
