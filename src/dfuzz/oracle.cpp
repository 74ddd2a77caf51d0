#include "dfuzz/oracle.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "analyze/independence/auditor.hpp"
#include "mc/global_mc.hpp"
#include "mc/local_mc.hpp"
#include "mc/replay.hpp"
#include "mc/symmetry/role_group.hpp"
#include "persist/checkpoint.hpp"
#include "runtime/audit.hpp"
#include "runtime/hash.hpp"

#ifdef _WIN32
#include <process.h>
#define LMC_GETPID _getpid
#else
#include <unistd.h>
#define LMC_GETPID getpid
#endif

namespace lmc::dfuzz {

const char* to_string(OracleFailure f) {
  switch (f) {
    case OracleFailure::None: return "none";
    case OracleFailure::MissingNodeState: return "missing-node-state";
    case OracleFailure::GmcViolationMissing: return "gmc-violation-missing-from-lmc";
    case OracleFailure::UnsoundConfirmed: return "unsound-confirmed-violation";
    case OracleFailure::InvariantHoldsOnConfirmed: return "invariant-holds-on-confirmed";
    case OracleFailure::WitnessReplayFailed: return "witness-replay-failed";
    case OracleFailure::ResumeMismatch: return "resume-mismatch";
    case OracleFailure::AuditUnsound: return "audit-unsound";
    case OracleFailure::AuditReplayFailed: return "audit-replay-failed";
    case OracleFailure::OptViolationMissed: return "opt-violation-missed";
    case OracleFailure::OptSpuriousViolation: return "opt-spurious-violation";
    case OracleFailure::ModelInvalid: return "model-invalid";
    case OracleFailure::SymmetryViolationMismatch: return "symmetry-violation-mismatch";
    case OracleFailure::SymmetryReplayFailed: return "symmetry-witness-replay-failed";
    case OracleFailure::PorViolationMismatch: return "por-violation-mismatch";
    case OracleFailure::PorReplayFailed: return "por-witness-replay-failed";
    case OracleFailure::PorThreadMismatch: return "por-thread-mismatch";
    case OracleFailure::PorAuditFailed: return "por-audit-failed";
  }
  return "?";
}

namespace {

/// Same combined tuple hash the global checker keys sys_tuples_ by.
Hash64 tuple_hash(const std::vector<Hash64>& tuple) {
  Hash64 h = 0x9e3779b97f4a7c15ULL;
  for (Hash64 nh : tuple) h = hash_combine(h, nh);
  return h;
}

std::string tuple_str(const std::vector<Hash64>& tuple) {
  std::ostringstream os;
  os << "(";
  for (std::size_t i = 0; i < tuple.size(); ++i) os << (i ? " " : "") << std::hex << tuple[i];
  os << ")";
  return std::move(os).str();
}

std::string scratch_checkpoint_path(const std::string& dir) {
  static std::atomic<std::uint64_t> counter{0};
  namespace fs = std::filesystem;
  fs::path base = dir.empty() ? fs::temp_directory_path() : fs::path(dir);
  const std::uint64_t id = counter.fetch_add(1);
  return (base / ("lmc_dfuzz_" + std::to_string(LMC_GETPID()) + "_" + std::to_string(id) +
                  ".ckpt"))
      .string();
}

}  // namespace

// Wall-clock and allocator-dependent stats are not exploration state: zero
// them so two equivalent runs encode to identical checkpoint bytes.
Blob normalized_checkpoint_bytes(const Blob& checkpoint) {
  CheckerImage img = decode_checkpoint(checkpoint);
  clear_attribution(img.stats);
  // Trace-segment stamps differ between a straight run (segment 0) and an
  // interrupted+resumed one (segment 1+) by design; they are attribution,
  // not exploration state.
  img.segment_id = 0;
  img.base_round = 0;
  return encode_checkpoint(img);
}

OracleReport DiffOracle::check(const SystemConfig& cfg, const Invariant* invariant) const {
  OracleReport rep;
  auto fail = [&](OracleFailure f, std::string detail) {
    // Keep the FIRST divergence: later checks may be downstream noise of it.
    if (rep.ok) {
      rep.ok = false;
      rep.failure = f;
      rep.detail = std::move(detail);
    }
  };

  // --- reference: global B-DFS over full (L, I) states ----------------------
  GlobalMcOptions gopt;
  gopt.collect_system_states = true;
  // Match LMC's AssertPolicy::DiscardState: an assert-failed successor is
  // dropped in both worlds, so the reachable-state comparison is apples to
  // apples (the divergence on the asserting handler's SENT messages is
  // intentional — I+ keeps them, the global network does not — and only
  // widens LMC's exploration, which the soundness checks keep honest).
  gopt.assert_is_violation = false;
  gopt.check_invariants = invariant != nullptr;
  gopt.max_transitions = opt_.gmc_max_transitions;
  gopt.time_budget_s = opt_.gmc_time_budget_s;
  GlobalModelChecker g(cfg, invariant, gopt);
  g.run_from_initial();
  rep.gmc_states = g.stats().unique_states;
  rep.gmc_transitions = g.stats().transitions;
  rep.gmc_system_tuples = g.system_state_tuples().size();
  if (!g.stats().completed) {
    rep.conclusive = false;
    rep.detail = "global baseline hit a budget; no verdict";
    return rep;
  }
  // Deduplicate global violations by system tuple (many global states —
  // differing only in the network — project to one violating tuple). The
  // count is the reference verdict, so it is recorded before LMC runs: a
  // report that fails early carries it too.
  std::unordered_map<Hash64, std::vector<Hash64>> gmc_viol;
  for (const GlobalViolation& v : g.violations()) {
    std::vector<Hash64> tuple;
    tuple.reserve(v.system_state.size());
    for (const Blob& b : v.system_state) tuple.push_back(hash_blob(b));
    gmc_viol.emplace(tuple_hash(tuple), std::move(tuple));
  }
  rep.gmc_violation_tuples = gmc_viol.size();

  // --- subject: LMC on the GEN path -----------------------------------------
  LocalMcOptions lopt;
  lopt.stop_on_confirmed = false;  // the full violation set, not the first
  lopt.num_threads = opt_.num_threads;
  lopt.max_transitions = opt_.lmc_max_transitions;
  lopt.time_budget_s = opt_.lmc_time_budget_s;
  lopt.soundness = opt_.soundness;
  lopt.audit_validity = opt_.audit_validity;
  lopt.trace = opt_.trace;
  lopt.profile = opt_.profile;
  LocalModelChecker l(cfg, invariant, lopt);
  try {
    l.run_from_initial();
  } catch (const ModelValidityError& e) {
    rep.handler_audits = l.audits_performed();
    fail(OracleFailure::ModelInvalid, e.what());
    return rep;
  }
  rep.handler_audits = l.audits_performed();
  rep.lmc_node_states = l.stats().node_states;
  rep.lmc_transitions = l.stats().transitions;
  rep.lmc_confirmed = l.stats().confirmed_violations;
  rep.lmc_unsound_rejected = l.stats().unsound_violations;
  if (!l.stats().completed) {
    rep.conclusive = false;
    rep.detail = "local checker hit a budget; no verdict";
    return rep;
  }
  if (l.stats().deferred_dropped) {
    rep.conclusive = false;
    rep.detail = "local checker overflowed the deferred queue; confirmed set may be partial";
    return rep;
  }

  // --- completeness: global node states are all locally traversed -----------
  for (const auto& [h, tuple] : g.system_state_tuples()) {
    (void)h;
    for (NodeId n = 0; n < cfg.num_nodes; ++n) {
      if (l.store().find(n, tuple[n]) == UINT32_MAX) {
        fail(OracleFailure::MissingNodeState,
             "node " + std::to_string(n) + " state " + tuple_str({tuple[n]}) +
                 " reached globally but never traversed by LMC");
        break;
      }
    }
    if (!rep.ok) break;
  }

  // --- violation-set comparison ---------------------------------------------
  if (invariant != nullptr) {
    std::unordered_set<Hash64> lmc_confirmed;
    for (const LocalViolation& v : l.violations())
      if (v.confirmed) lmc_confirmed.insert(tuple_hash(v.state_hashes));

    // (a) completeness of the verdicts: nothing the global search flags is
    // missing from LMC's confirmed set.
    for (const auto& [h, tuple] : gmc_viol) {
      if (!lmc_confirmed.count(h))
        fail(OracleFailure::GmcViolationMissing,
             "globally found violation " + tuple_str(tuple) +
                 " is not among LMC's confirmed violations");
    }

    // (b) soundness of the verdicts: every confirmed tuple is globally
    // reachable and really violates the invariant.
    for (const LocalViolation& v : l.violations()) {
      if (!v.confirmed) continue;
      const Hash64 h = tuple_hash(v.state_hashes);
      auto it = g.system_state_tuples().find(h);
      if (it == g.system_state_tuples().end() || it->second != v.state_hashes) {
        fail(OracleFailure::UnsoundConfirmed,
             "confirmed violation " + tuple_str(v.state_hashes) +
                 " names a system state the global search never reached");
        continue;
      }
      SystemStateView view;
      view.reserve(v.system_state.size());
      for (const Blob& b : v.system_state) view.push_back(&b);
      if (invariant->holds(cfg, view))
        fail(OracleFailure::InvariantHoldsOnConfirmed,
             "confirmed violation " + tuple_str(v.state_hashes) +
                 " does not actually violate " + invariant->name());
    }
  }

  // --- witness replay of every confirmed violation --------------------------
  if (opt_.check_replay) {
    for (const LocalViolation& v : l.violations()) {
      if (!v.confirmed) continue;
      ReplayResult r = replay_schedule(cfg, l.initial_nodes(), l.initial_in_flight(), v.witness,
                                       l.events(), v.state_hashes);
      ++rep.witnesses_replayed;
      if (!r.ok)
        fail(OracleFailure::WitnessReplayFailed,
             "witness for " + tuple_str(v.state_hashes) + " failed to replay: " + r.error);
    }
  }

  // --- sampled soundness audit of reachable tuples ---------------------------
  if (opt_.audit_every > 0) {
    // unordered_map iteration order is not deterministic across platforms:
    // sort by tuple hash so the sampled subset is pinned.
    std::vector<const std::pair<const Hash64, std::vector<Hash64>>*> tuples;
    tuples.reserve(g.system_state_tuples().size());
    for (const auto& kv : g.system_state_tuples()) tuples.push_back(&kv);
    std::sort(tuples.begin(), tuples.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    SoundnessVerifier verifier(l.store(), l.initial_in_flight_hashes(), opt_.soundness);
    std::uint64_t k = 0;
    for (const auto* kv : tuples) {
      if (++k % opt_.audit_every != 0) continue;
      std::vector<std::uint32_t> combo;
      combo.reserve(cfg.num_nodes);
      bool mapped = true;
      for (NodeId n = 0; n < cfg.num_nodes; ++n) {
        std::uint32_t idx = l.store().find(n, kv->second[n]);
        if (idx == UINT32_MAX) mapped = false;  // already reported above
        combo.push_back(idx);
      }
      if (!mapped) continue;
      SoundnessResult res = verifier.verify(combo);
      ++rep.tuples_audited;
      if (!res.sound) {
        fail(OracleFailure::AuditUnsound, "globally reachable tuple " + tuple_str(kv->second) +
                                              " rejected by soundness verification");
        continue;
      }
      ReplayResult r = replay_schedule(cfg, l.initial_nodes(), l.initial_in_flight(),
                                       res.schedule, l.events(), kv->second);
      if (!r.ok)
        fail(OracleFailure::AuditReplayFailed,
             "audit schedule for " + tuple_str(kv->second) + " failed to replay: " + r.error);
    }
  }

  // --- checkpoint/resume round-trip ------------------------------------------
  if (opt_.check_resume && l.stats().transitions >= 4) {
    LocalMcOptions half = lopt;
    half.trace = nullptr;
    half.profile = nullptr;
    half.max_transitions = l.stats().transitions / 2;
    LocalModelChecker interrupted(cfg, invariant, half);
    interrupted.run_from_initial();
    const std::string path = scratch_checkpoint_path(opt_.scratch_dir);
    interrupted.save_checkpoint(path);

    LocalMcOptions ropt = lopt;
    ropt.trace = nullptr;
    ropt.profile = nullptr;
    LocalModelChecker resumed(cfg, invariant, ropt);
    resumed.run_resumed(path);
    std::remove(path.c_str());
    rep.resume_checked = true;
    if (!resumed.stats().completed) {
      rep.conclusive = false;
      if (rep.detail.empty()) rep.detail = "resumed run hit a budget; round-trip not judged";
    } else if (normalized_checkpoint_bytes(resumed.checkpoint_bytes()) !=
               normalized_checkpoint_bytes(l.checkpoint_bytes())) {
      fail(OracleFailure::ResumeMismatch,
           "interrupt+resume produced a different exploration than the straight run");
    }
  }

  // --- OPT path: projection-driven system-state creation ----------------------
  if (opt_.check_opt && invariant != nullptr && invariant->has_projection()) {
    LocalMcOptions oopt = lopt;
    oopt.trace = nullptr;
    oopt.profile = nullptr;
    oopt.use_projection = true;
    LocalModelChecker o(cfg, invariant, oopt);
    o.run_from_initial();
    if (!o.stats().completed) {
      rep.conclusive = false;
      if (rep.detail.empty()) rep.detail = "OPT run hit a budget; OPT path not judged";
    } else {
      rep.opt_checked = true;
      rep.opt_confirmed = o.stats().confirmed_violations;
      // OPT verifies pair conflicts with free bystanders, so its confirmed
      // tuples need not equal the global ones — but bug presence must agree.
      if (rep.gmc_violation_tuples > 0 && o.stats().confirmed_violations == 0)
        fail(OracleFailure::OptViolationMissed,
             "global search finds a violation but LMC-OPT confirms none");
      if (rep.gmc_violation_tuples == 0 && o.stats().confirmed_violations > 0)
        fail(OracleFailure::OptSpuriousViolation,
             "LMC-OPT confirms a violation on a protocol the global search proves clean");
      for (const LocalViolation& v : o.violations()) {
        if (!v.confirmed) continue;
        const Hash64 h = tuple_hash(v.state_hashes);
        auto it = g.system_state_tuples().find(h);
        if (it == g.system_state_tuples().end() || it->second != v.state_hashes) {
          fail(OracleFailure::UnsoundConfirmed,
               "OPT-confirmed violation " + tuple_str(v.state_hashes) +
                   " names a system state the global search never reached");
          continue;
        }
        if (opt_.check_replay) {
          ReplayResult r = replay_schedule(cfg, o.initial_nodes(), o.initial_in_flight(),
                                           v.witness, o.events(), v.state_hashes);
          ++rep.witnesses_replayed;
          if (!r.ok)
            fail(OracleFailure::WitnessReplayFailed,
                 "OPT witness for " + tuple_str(v.state_hashes) + " failed to replay: " + r.error);
        }
      }
    }
  }

  // --- symmetry reduction differential ---------------------------------------
  // The unreduced GEN run above is the reference: re-run with the reduction
  // on and demand the confirmed sets agree up to within-class permutation.
  if (opt_.check_symmetry && invariant != nullptr) {
    LocalMcOptions sopt = lopt;
    sopt.trace = nullptr;
    sopt.profile = nullptr;
    sopt.symmetry.mode = symmetry::SymmetryMode::kAuto;
    LocalModelChecker s(cfg, invariant, sopt);
    s.run_from_initial();
    const std::vector<std::vector<NodeId>> classes = s.symmetry_classes();
    if (!s.stats().completed) {
      rep.conclusive = false;
      if (rep.detail.empty()) rep.detail = "symmetry run hit a budget; reduction not judged";
    } else if (!classes.empty()) {
      // classes empty = the reduction never activated (no replicated roles,
      // or the invariant is order-sensitive): nothing to compare, the run
      // was just the unreduced search again.
      rep.sym_checked = true;
      rep.sym_orbits = s.stats().sym.orbits;
      rep.sym_confirmed = s.stats().confirmed_violations;
      std::unordered_map<Hash64, std::vector<Hash64>> base_keys, sym_keys;
      for (const LocalViolation& v : l.violations())
        if (v.confirmed)
          base_keys.emplace(symmetry::canonical_key(v.state_hashes, classes), v.state_hashes);
      for (const LocalViolation& v : s.violations())
        if (v.confirmed)
          sym_keys.emplace(symmetry::canonical_key(v.state_hashes, classes), v.state_hashes);
      for (const auto& [k, tuple] : base_keys)
        if (!sym_keys.count(k))
          fail(OracleFailure::SymmetryViolationMismatch,
               "violation " + tuple_str(tuple) +
                   " confirmed by the unreduced run has no permutation-equivalent " +
                   "counterpart in the reduced run");
      for (const auto& [k, tuple] : sym_keys)
        if (!base_keys.count(k))
          fail(OracleFailure::SymmetryViolationMismatch,
               "reduced run confirmed " + tuple_str(tuple) +
                   " with no permutation-equivalent counterpart in the unreduced run");
      // The reduced run reports CONCRETE assignments (de-canonicalized in
      // the drain): each witness must replay through the real handlers to
      // exactly the claimed per-node states.
      if (opt_.check_replay) {
        for (const LocalViolation& v : s.violations()) {
          if (!v.confirmed) continue;
          ReplayResult r = replay_schedule(cfg, s.initial_nodes(), s.initial_in_flight(),
                                           v.witness, s.events(), v.state_hashes);
          ++rep.witnesses_replayed;
          if (!r.ok)
            fail(OracleFailure::SymmetryReplayFailed,
                 "symmetry witness for " + tuple_str(v.state_hashes) +
                     " failed to replay: " + r.error);
        }
      }
    }
  }

  // --- partial-order reduction differential ----------------------------------
  // The unreduced GEN run above is again the reference. POR claims only to
  // skip REDUNDANT interleavings — the set of confirmed violations must be
  // exactly equal (no permutation slack, unlike symmetry), every reduced-run
  // witness must replay through the real handlers, and because prune
  // decisions happen at publish time on the deterministic thread, a
  // 1-thread and an 8-thread reduced run must explore byte-identically.
  if (opt_.check_por && invariant != nullptr) {
    LocalMcOptions popt = lopt;
    popt.trace = nullptr;
    popt.profile = nullptr;
    popt.por.mode = indep::PorMode::kOn;
    popt.por.audit = true;
    popt.por.audit_every = 1;
    LocalModelChecker p(cfg, invariant, popt);
    bool audit_threw = false;
    try {
      p.run_from_initial();
    } catch (const indep::PorAuditError& e) {
      audit_threw = true;
      fail(OracleFailure::PorAuditFailed,
           std::string("commutation auditor refuted a claimed-independent pair: ") + e.what());
    }
    if (!audit_threw) {
      if (!p.stats().completed) {
        rep.conclusive = false;
        if (rep.detail.empty()) rep.detail = "POR run hit a budget; reduction not judged";
      } else if (p.stats().por.active != 0) {
        // active == 0 = the reduction never resolved on (no footprints or an
        // empty relation): the run was just the unreduced search again.
        rep.por_checked = true;
        rep.por_relation_pairs = p.stats().por.relation_pairs;
        rep.por_pruned = p.stats().por.pairs_pruned;
        rep.por_audits = p.stats().por.audits;
        rep.por_confirmed = p.stats().confirmed_violations;
        std::unordered_map<Hash64, std::vector<Hash64>> base_t, por_t;
        for (const LocalViolation& v : l.violations())
          if (v.confirmed) base_t.emplace(tuple_hash(v.state_hashes), v.state_hashes);
        for (const LocalViolation& v : p.violations())
          if (v.confirmed) por_t.emplace(tuple_hash(v.state_hashes), v.state_hashes);
        for (const auto& [k, tuple] : base_t)
          if (!por_t.count(k))
            fail(OracleFailure::PorViolationMismatch,
                 "violation " + tuple_str(tuple) +
                     " confirmed by the unreduced run is missing from the POR run");
        for (const auto& [k, tuple] : por_t)
          if (!base_t.count(k))
            fail(OracleFailure::PorViolationMismatch,
                 "POR run confirmed " + tuple_str(tuple) +
                     " which the unreduced run did not");
        if (opt_.check_replay) {
          for (const LocalViolation& v : p.violations()) {
            if (!v.confirmed) continue;
            ReplayResult r = replay_schedule(cfg, p.initial_nodes(), p.initial_in_flight(),
                                             v.witness, p.events(), v.state_hashes);
            ++rep.witnesses_replayed;
            if (!r.ok)
              fail(OracleFailure::PorReplayFailed,
                   "POR witness for " + tuple_str(v.state_hashes) +
                       " failed to replay: " + r.error);
          }
        }
        // Thread-count identity under pruning (the auditor stays off here:
        // it only adds checks, never changes exploration, and one audited
        // run already covered every prune decision).
        LocalMcOptions p8opt = popt;
        p8opt.por.audit = false;
        p8opt.num_threads = 8;
        LocalModelChecker p8(cfg, invariant, p8opt);
        p8.run_from_initial();
        if (!p8.stats().completed) {
          rep.conclusive = false;
          if (rep.detail.empty())
            rep.detail = "8-thread POR run hit a budget; thread identity not judged";
        } else if (normalized_checkpoint_bytes(p8.checkpoint_bytes()) !=
                   normalized_checkpoint_bytes(p.checkpoint_bytes())) {
          fail(OracleFailure::PorThreadMismatch,
               "1-thread and 8-thread POR runs produced different normalized checkpoints");
        }
      }
    }
  }

  return rep;
}

}  // namespace lmc::dfuzz
