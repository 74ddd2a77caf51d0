#include "obs/report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <type_traits>

#include "obs/bench_schema.hpp"

namespace lmc::obs {

std::vector<TraceEvent> load_trace_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("cannot open " + path);
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);

  std::vector<TraceEvent> events;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    TraceEvent ev;
    if (parse_jsonl_line(line, ev)) events.push_back(ev);
  }
  return events;
}

ReportSummary summarize(const std::vector<TraceEvent>& events) {
  ReportSummary s;
  s.events = events.size();
  // Run segments in stream order. kRunEnd reports the run's cumulative
  // totals, which for a resumed segment (kRunBegin mode 2) include the
  // segments before it: when the segment it continues precedes it in the
  // stream, only the part beyond that segment's end is added.
  struct Segment {
    std::uint64_t id = 0;
    bool resumed = false;
    bool ended = false;
    std::uint64_t transitions = 0, confirmed = 0;
    double elapsed_s = 0.0;
  };
  std::vector<Segment> segs;
  auto beyond = [](std::uint64_t now, std::uint64_t before) {
    return now > before ? now - before : 0;
  };
  for (const TraceEvent& ev : events) {
    if (ev.round > s.rounds) s.rounds = ev.round;
    switch (ev.type) {
      case EventType::kRunBegin:
        if (s.run_begins == 0) s.base_transitions = ev.b;
        ++s.run_begins;
        segs.push_back(Segment{ev.seq, ev.a == 2});
        break;
      case EventType::kRunEnd: {
        ++s.run_ends;
        if (segs.empty() || segs.back().ended) segs.emplace_back();  // end without a begin
        Segment& seg = segs.back();
        seg.ended = true;
        seg.transitions = ev.a;
        seg.confirmed = ev.b;
        seg.elapsed_s = ev.dur;
        const Segment* prev = nullptr;
        if (seg.resumed)
          for (std::size_t i = segs.size() - 1; i-- > 0;)
            if (segs[i].ended && segs[i].id + 1 == seg.id) {
              prev = &segs[i];
              break;
            }
        if (prev != nullptr) {
          s.final_transitions += beyond(ev.a, prev->transitions);
          s.confirmed += beyond(ev.b, prev->confirmed);
          s.elapsed_s += std::max(0.0, ev.dur - prev->elapsed_s);
        } else {
          s.final_transitions += ev.a;
          s.confirmed += ev.b;
          s.elapsed_s += ev.dur;
        }
        s.completed = ev.c != 0;
        break;
      }
      case EventType::kRoundBegin:
      case EventType::kRoundEnd:
        break;
      case EventType::kHandlerRun: {
        s.handler_exec_s += ev.dur;
        auto& rule = s.rules[{ev.node, ev.a}];
        ++rule.runs;
        rule.exec_s += ev.dur;
        break;
      }
      case EventType::kHandlerApply:
        ++s.transitions;
        break;
      case EventType::kStateInsert:
        ++s.state_inserts;
        break;
      case EventType::kIplusAppend:
        ++s.iplus_appends;
        break;
      case EventType::kComboSweep:
        s.combinations += ev.b;
        s.prelim_violations += ev.c;
        s.sweep_s += ev.dur;
        break;
      case EventType::kSoundnessRun:
        break;
      case EventType::kSoundnessVerdict:
        ++s.soundness_jobs;
        if (ev.a < 5) ++s.verdicts[ev.a];
        s.schedules += ev.b;
        s.soundness_agg_s += ev.dur;
        break;
      case EventType::kSoundnessPhase:
        s.soundness_wall_s += ev.dur;
        break;
      case EventType::kDeferralDrain:
        s.deferred_s += ev.dur;
        break;
      case EventType::kCheckpointSave:
        if (ev.a != 0) ++s.checkpoints;
        s.checkpoint_s += ev.dur;
        break;
      case EventType::kWorkerError:
        ++s.worker_errors;
        s.worker_exceptions_dropped += ev.a;
        break;
      case EventType::kPorPrune:
        ++s.por_prune_rounds;
        s.por_pruned = ev.b;
        s.por_conservative = ev.c;
        break;
      case EventType::kPorResolve:
        s.por_active = true;
        s.por_relation_pairs = ev.a;
        s.por_unclassifiable = ev.c;
        break;
      case EventType::kOnlinePeriod:
        break;
    }
    auto& lane = s.lanes[ev.lane];
    ++lane.events;
    lane.busy_s += ev.dur;
  }
  s.deferrals = s.verdicts[kVerdictDefer];
  return s;
}

namespace {

void phase_row(std::FILE* out, const char* name, double secs, double elapsed,
               const char* note) {
  const double pct = elapsed > 0.0 ? 100.0 * secs / elapsed : 0.0;
  std::fprintf(out, "  %-22s %10.4fs %6.1f%%  %s\n", name, secs, pct, note);
}

}  // namespace

void print_report(const ReportSummary& s, std::FILE* out) {
  std::fprintf(out, "lmc_report: %" PRIu64 " event(s), %u round(s), %" PRIu64
               " run segment(s)%s\n",
               s.events, s.rounds, s.run_begins, s.completed ? ", completed" : "");
  std::fprintf(out, "totals: %" PRIu64 " transitions, %" PRIu64 " state inserts, %" PRIu64
               " I+ appends, %" PRIu64 " combinations, %" PRIu64 " prelim -> %" PRIu64
               " confirmed violation(s)\n",
               s.transitions, s.state_inserts, s.iplus_appends, s.combinations,
               s.prelim_violations, s.confirmed);
  std::fprintf(out, "soundness: %" PRIu64 " job(s): %" PRIu64 " sound, %" PRIu64
               " unsound, %" PRIu64 " deferred, %" PRIu64 " feas-skip, %" PRIu64
               " skipped; %" PRIu64 " schedule(s)\n",
               s.soundness_jobs, s.verdicts[kVerdictSound], s.verdicts[kVerdictUnsound],
               s.verdicts[kVerdictDefer], s.verdicts[kVerdictFeasSkip],
               s.verdicts[kVerdictSkipped], s.schedules);
  if (s.worker_errors > 0)
    std::fprintf(out, "worker errors: %" PRIu64 " event(s), %" PRIu64
                 " secondary exception(s) dropped (first of each fan-out rethrown)\n",
                 s.worker_errors, s.worker_exceptions_dropped);
  if (s.por_active)
    std::fprintf(out, "POR: %" PRIu64 " independent pair(s) (%" PRIu64
                 " unclassifiable); %" PRIu64 " delivery(ies) pruned over %" PRIu64
                 " round(s), %" PRIu64 " conservative skip(s)\n",
                 s.por_relation_pairs, s.por_unclassifiable, s.por_pruned,
                 s.por_prune_rounds, s.por_conservative);

  std::fprintf(out, "where did time go (elapsed %.4fs):\n", s.elapsed_s);
  phase_row(out, "handler execution", s.handler_exec_s, s.elapsed_s,
            "aggregate across workers");
  phase_row(out, "combination sweep", s.sweep_s, s.elapsed_s, "wall (deterministic thread)");
  phase_row(out, "soundness (wall)", s.soundness_wall_s, s.elapsed_s, "wall");
  phase_row(out, "soundness (aggregate)", s.soundness_agg_s, s.elapsed_s,
            "sum over jobs; exceeds wall when parallel");
  phase_row(out, "deferred drain", s.deferred_s, s.elapsed_s, "wall");
  phase_row(out, "checkpointing", s.checkpoint_s, s.elapsed_s, "wall");

  if (!s.rules.empty()) {
    std::fprintf(out, "per-rule (node, kind):\n");
    for (const auto& [key, line] : s.rules)
      std::fprintf(out, "  node %3u %-8s %8" PRIu64 " run(s) %10.4fs\n", key.first,
                   key.second != 0 ? "message" : "internal", line.runs, line.exec_s);
  }
  if (!s.lanes.empty()) {
    std::fprintf(out, "per-worker lane (0 = deterministic thread):\n");
    for (const auto& [lane, line] : s.lanes)
      std::fprintf(out, "  lane %3u %10" PRIu64 " event(s) %10.4fs busy\n", lane, line.events,
                   line.busy_s);
  }
}

std::string report_bench_json(const ReportSummary& s, const std::string& case_label) {
  BenchRecord rec("lmc_report", case_label);
  rec.param("run_segments", s.run_begins);
  rec.metric("events", s.events);
  rec.metric("rounds", static_cast<std::uint64_t>(s.rounds));
  rec.metric("transitions", s.transitions);
  rec.metric("state_inserts", s.state_inserts);
  rec.metric("iplus_appends", s.iplus_appends);
  rec.metric("combinations", s.combinations);
  rec.metric("prelim_violations", s.prelim_violations);
  rec.metric("confirmed_violations", s.confirmed);
  rec.metric("soundness_jobs", s.soundness_jobs);
  rec.metric("soundness_deferred", s.deferrals);
  rec.metric("worker_errors", s.worker_errors);
  rec.metric("worker_exceptions_dropped", s.worker_exceptions_dropped);
  if (s.por_active) {
    rec.metric("por_relation_pairs", s.por_relation_pairs);
    rec.metric("por_unclassifiable", s.por_unclassifiable);
    rec.metric("por_pruned", s.por_pruned);
    rec.metric("por_conservative", s.por_conservative);
    rec.metric("por_prune_rounds", s.por_prune_rounds);
  }
  rec.metric("elapsed_s", s.elapsed_s);
  rec.metric("handler_exec_s", s.handler_exec_s);
  rec.metric("sweep_s", s.sweep_s);
  rec.metric("soundness_wall_s", s.soundness_wall_s);
  rec.metric("soundness_agg_s", s.soundness_agg_s);
  rec.metric("deferred_s", s.deferred_s);
  rec.metric("checkpoint_s", s.checkpoint_s);
  return rec.to_json();
}

ProfilePhases profile_phases(const ProfileData& prof) {
  const LocalMcStats& st = prof.stats;
  ProfilePhases ph;
  ph.run_s = st.elapsed_s;
  ph.sweep_s = st.system_state_s;
  ph.soundness_s = st.soundness_wall_s;
  ph.drain_s = st.deferred_s;
  ph.explore_s = ph.run_s - ph.sweep_s - ph.drain_s;
  return ph;
}

void print_profile_report(const ProfileData& prof, std::size_t top_k, std::FILE* out) {
  const ProfilePhases ph = profile_phases(prof);
  std::fprintf(out,
               "lmc_report --profile: %zu prof line(s), %" PRIu64
               " run(s), %u thread(s), run wall %.4fs\n",
               prof.lines, prof.runs, prof.threads, ph.run_s);
  std::fprintf(out, "phase wall (summed over runs):\n");
  phase_row(out, "explore", ph.explore_s, ph.run_s, "derived: run - sweep - drain");
  phase_row(out, "combination sweep", ph.sweep_s, ph.run_s, "includes phase-1 soundness");
  phase_row(out, "soundness", ph.soundness_s, ph.run_s, "wall (both phases)");
  phase_row(out, "deferred drain", ph.drain_s, ph.run_s, "wall");

  std::fprintf(out, "stats (summed over runs):\n");
  for_each_stat(prof.stats, [out](const char* name, const auto& v) {
    if constexpr (std::is_floating_point_v<std::remove_cvref_t<decltype(v)>>)
      std::fprintf(out, "  %-24s %14.4fs\n", name, v);
    else
      std::fprintf(out, "  %-24s %14" PRIu64 "\n", name, static_cast<std::uint64_t>(v));
  });

  std::uint64_t ser = 0, hashed = 0;
  for (const auto& [key, rule] : prof.rules) {
    ser += rule.ser_bytes;
    hashed += rule.hash_bytes;
  }
  std::fprintf(out, "rule ledger: %" PRIu64 " byte(s) serialized, %" PRIu64 " hashed\n", ser,
               hashed);

  std::vector<const ProfileData::Rule*> hot;
  hot.reserve(prof.rules.size());
  for (const auto& [key, rule] : prof.rules) hot.push_back(&rule);
  std::sort(hot.begin(), hot.end(), [](const ProfileData::Rule* a, const ProfileData::Rule* b) {
    if (a->exec_s != b->exec_s) return a->exec_s > b->exec_s;
    return a->key < b->key;  // deterministic tie-break
  });
  if (top_k > 0 && hot.size() > top_k) hot.resize(top_k);
  if (!hot.empty()) {
    std::fprintf(out,
                 "hottest rules (top %zu of %zu by handler wall; %% of explore wall):\n",
                 hot.size(), prof.rules.size());
    std::fprintf(out, "  %-26s %9s %12s %7s %9s %9s\n", "rule", "runs", "exec_s", "%expl",
                 "ser B/tr", "hash B/tr");
    for (const ProfileData::Rule* r : hot) {
      char label[64];
      std::snprintf(label, sizeof label, "node %u %s kind %u", r->key.node,
                    r->key.is_message != 0 ? "msg" : "int", r->key.kind);
      const double pct = ph.explore_s > 0.0 ? 100.0 * r->exec_s / ph.explore_s : 0.0;
      const double runs = static_cast<double>(r->runs);
      const double ser_per = r->runs > 0 ? static_cast<double>(r->ser_bytes) / runs : 0.0;
      const double hash_per = r->runs > 0 ? static_cast<double>(r->hash_bytes) / runs : 0.0;
      std::fprintf(out, "  %-26s %9" PRIu64 " %12.6f %6.1f%% %9.1f %9.1f\n", label, r->runs,
                   r->exec_s, pct, ser_per, hash_per);
    }
  }
}

}  // namespace lmc::obs
