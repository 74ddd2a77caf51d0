#include "mc/local_mc.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <utility>

#include "analyze/independence/auditor.hpp"
#include "mc/clock.hpp"
#include "mc/parallel_local_mc.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"
#include "persist/exec_cache.hpp"
#include "runtime/audit.hpp"

namespace lmc {

namespace {

using obs::EventType;
using obs::TraceEvent;

/// Upper bound on the deferred soundness queue; each combination past it
/// counts in stats.deferred_dropped.
constexpr std::size_t kMaxDeferred = std::size_t{1} << 20;
/// Jobs verified per fan-out. Outcome slots live per chunk, so the memory of
/// a verification phase does not grow with the deferred queue.
constexpr std::size_t kVerifyChunk = 4096;

/// Phase-1 tasks one pool fan-out executes before the applier applies them,
/// when the run has more than one lane. Chosen by lmcbench `check_s_par`
/// (3 lanes, 4-core box, 4 alternating runs): paxos-explore medians read
/// 1.30/1.21/1.25/1.13 s at chunks of 256/512/1024/2048, paxos-online
/// 0.46/0.43/0.47/0.44 s. 512 is within the run-to-run spread of the best,
/// and a smaller chunk delays the budget probe less (DESIGN.md §12).
constexpr std::size_t kPhase1Chunk = 512;

/// Trace-event builder: keeps the emission sites below one-liners.
TraceEvent tev(EventType type, obs::Phase phase, std::uint32_t round, std::uint64_t a,
               std::uint64_t b, std::uint64_t c, double dur = 0.0,
               std::uint32_t node = TraceEvent::kNoNode, std::uint64_t seq = 0) {
  TraceEvent ev;
  ev.type = type;
  ev.phase = phase;
  ev.round = round;
  ev.node = node;
  ev.seq = seq;
  ev.a = a;
  ev.b = b;
  ev.c = c;
  ev.dur = dur;
  return ev;
}

bool history_contains(const std::vector<Hash64>& hist, Hash64 h) {
  return std::binary_search(hist.begin(), hist.end(), h);
}

void history_insert(std::vector<Hash64>& hist, Hash64 h) {
  hist.insert(std::upper_bound(hist.begin(), hist.end(), h), h);
}

}  // namespace

LocalModelChecker::LocalModelChecker(const SystemConfig& cfg, const Invariant* invariant,
                                     LocalMcOptions opt)
    : cfg_(cfg), invariant_(invariant), opt_(opt), store_(cfg.num_nodes) {}

const LocalViolation* LocalModelChecker::first_confirmed() const {
  for (const LocalViolation& v : violations_)
    if (v.confirmed) return &v;
  return nullptr;
}

std::uint32_t LocalModelChecker::expand_bound() const {
  return std::min(opt_.max_chain_depth, opt_.max_total_depth);
}

bool LocalModelChecker::budget_exceeded() const {
  return stats_.transitions >= opt_.max_transitions || hard_budget_exceeded();
}

// Time/cancel only. The combination-sweep probes use this deliberately: a
// transition-budget stop must happen at a task-group boundary (probes fire
// at data-dependent points, which would make the stop — and therefore a
// checkpoint taken there — non-reproducible on resume).
bool LocalModelChecker::hard_budget_exceeded() const {
  if (now_s() > deadline_) return true;
  return opt_.cancel != nullptr && opt_.cancel->load(std::memory_order_relaxed);
}

void LocalModelChecker::init_run(const std::vector<Blob>& nodes,
                                 const std::vector<Message>& in_flight) {
  store_ = LocalStore(cfg_.num_nodes);
  net_ = MonotonicNetwork{};
  events_.clear();
  internal_scan_.assign(cfg_.num_nodes, 0);
  proj_index_.reset(cfg_.num_nodes);
  node_gens_.assign(cfg_.num_nodes, {});
  pred_edges_.assign(cfg_.num_nodes, 0);
  por_fwd_.assign(cfg_.num_nodes, {});
  por_deferred_.clear();
  por_audit_ctr_ = 0;
  deferred_.clear();
  engine_.reset();
  pending_tasks_.clear();
  stats_ = LocalMcStats{};
  live_bytes_ = 0;
  violations_.clear();
  stop_ = false;
  base_elapsed_s_ = 0.0;
  cur_round_ = 0;
  segment_id_ = 0;
  handler_errors_dropped_ = 0;

  start_ = StartSnapshot{nodes, in_flight, {}};
  for (NodeId n = 0; n < cfg_.num_nodes; ++n) {
    NodeStateRec rec;
    rec.blob = nodes[n];
    rec.hash = hash_blob(rec.blob);
    rec.depth = 0;
    const Hash64 root_hash = rec.hash;
    store_.add(n, std::move(rec));  // LS_n[0]: the snapshot state
    live_bytes_ += LocalStore::state_bytes(store_.rec(n, 0));
    ++stats_.node_states;
    LMC_TRACE(opt_.trace, record(tev(EventType::kStateInsert, obs::Phase::kExplore, cur_round_,
                                     0, root_hash, 0, 0.0, n)));
    index_state(n, 0);
  }
  // Snapshot in-flight messages seed I+ and are available to soundness
  // verification without any generating event.
  for (const Message& m : in_flight) {
    Hash64 h = m.hash();
    start_.in_flight_hashes.push_back(h);
    if (net_.add(m, h)) {
      live_bytes_ += MonotonicNetwork::entry_bytes(net_.at(net_.size() - 1));
      EventRecord er;
      er.is_message = true;
      er.msg = m;
      events_.emplace(h, std::move(er));
      LMC_TRACE(opt_.trace, record(tev(EventType::kIplusAppend, obs::Phase::kExplore, cur_round_,
                                       h, net_.size(), 0, 0.0, m.dst)));
    }
  }
  resolve_symmetry();
  resolve_por();
}

// Decide whether the symmetry reduction is active for this run and build
// the canonicalizer (DESIGN.md §13). Every condition here is about either
// profitability or keeping the orbit abstraction exact:
//  * the invariant must vouch for each class (symmetric_under) — otherwise
//    a non-representative orbit member could violate while the canonical
//    representative does not, and the sweep would miss it;
//  * the projection sweep (LMC-OPT) is excluded: it enumerates conflicting
//    projection PAIRS, not whole combinations, so "orbit of a combination"
//    is not the unit it works in;
//  * max_total_depth must be unbounded: the total-depth filter sums member
//    depths, and two arrangements of one orbit can have different depth
//    sums when members reached equal states at different depths — a finite
//    filter would make orbit membership arrangement-dependent. Bound
//    exploration with max_chain_depth instead (bench_symmetry does).
void LocalModelChecker::resolve_symmetry() {
  canon_.reset();
  stats_.sym = SymmetryStats{};
  const symmetry::SymmetryOptions& so = opt_.symmetry;
  if (so.mode == symmetry::SymmetryMode::kOff || invariant_ == nullptr) return;
  if (!opt_.enable_system_states) return;
  if (opt_.use_projection && invariant_->has_projection()) return;
  if (opt_.max_total_depth != std::numeric_limits<std::uint32_t>::max()) return;
  std::vector<std::vector<NodeId>> classes = symmetry::normalize_classes(
      so.mode == symmetry::SymmetryMode::kExplicit ? so.classes : cfg_.symmetric_roles,
      cfg_.num_nodes);
  // Per-class filtering is sound: invariance under each class's permutations
  // implies invariance under the product group they generate.
  std::vector<std::vector<NodeId>> kept;
  for (auto& c : classes) {
    if (c.size() > 64) continue;  // universe member masks are one word
    if (invariant_->symmetric_under({c})) kept.push_back(std::move(c));
  }
  if (kept.empty()) return;
  canon_ = std::make_unique<symmetry::Canonicalizer>(std::move(kept), cfg_.num_nodes);
  stats_.sym.active = 1;
  stats_.sym.classes = static_cast<std::uint32_t>(canon_->classes().size());
  // Seed the universes from whatever the store already holds: the snapshot
  // states on a fresh run, the full store on checkpoint load.
  for (NodeId n = 0; n < cfg_.num_nodes; ++n) {
    const std::uint32_t cnt = store_.size(n);
    for (std::uint32_t i = 0; i < cnt; ++i) canon_->add_state(n, store_.rec(n, i).hash);
  }
}

// Decide whether the partial-order reduction is active for this run. The
// conditions:
//  * registered footprints (SystemConfig::footprints) — the relation is
//    derived from them; no metadata, no reduction;
//  * max_total_depth AND max_chain_depth unbounded: recorded depths are
//    path-dependent, and pruning a first-discovery edge can re-record a
//    state one level deeper via its covering path. Under a depth bound that
//    shift silently truncates the state's expansion (observed empirically:
//    bound-frontier states lose children), and the total-depth filter sums
//    recorded depths, so either bound makes the reduced run diverge from
//    the unreduced one. Sleep-set pruning is exact only for exhaustive
//    exploration of the (finite) reachable space (DESIGN.md §14);
//  * a non-empty derived relation — an empty relation can never prune, and
//    resolving to "off" keeps checkpoint mode-matching deterministic.
void LocalModelChecker::resolve_por() {
  por_rel_.reset();
  por_loop_sends_ok_ = false;
  stats_.por = PorStats{};
  if (opt_.por.mode != indep::PorMode::kOn) return;
  if (cfg_.footprints == nullptr) return;
  if (opt_.max_total_depth != std::numeric_limits<std::uint32_t>::max()) return;
  if (opt_.max_chain_depth != std::numeric_limits<std::uint32_t>::max()) return;
  indep::AnalysisResult res =
      indep::analyze_independence(cfg_.footprints.get(), cfg_.num_nodes, "");
  if (res.relation.size() == 0) return;
  por_rel_ = std::make_unique<indep::IndependenceRelation>(std::move(res.relation));
  por_loop_sends_ok_ = true;
  for (const NodeFootprints& nf : cfg_.footprints->nodes)
    for (const RuleFootprint& rf : nf.rules)
      for (const FieldAccess& w : rf.writes)
        if (w.merge != MergeKind::kNone) por_loop_sends_ok_ = false;
  stats_.por.active = 1;
  stats_.por.relation_pairs = por_rel_->size();
  LMC_TRACE(opt_.trace, record(tev(EventType::kPorResolve, obs::Phase::kRun, cur_round_,
                                   stats_.por.relation_pairs, por_rel_->digest(),
                                   res.unclassifiable)));
}

// One cursor-scan generation (Fig. 9): publish, in deterministic scan
// order, every (message, state) pair and internal-event task the store and
// I+ grew since the last scan. Runs on the applier only, between
// generations — publication order is therefore a pure function of the
// exploration, independent of thread count.
std::vector<LocalModelChecker::Task> LocalModelChecker::publish_round() {
  const std::uint32_t bound = expand_bound();
  std::vector<Task> tasks;
  std::uint64_t round_pruned = 0;

  // POR pairs deferred by the previous generation: their pred records (if
  // any) were applied by the stream in between, so decide them for real now
  // — prune or publish, never a second deferral.
  if (!por_deferred_.empty()) {
    std::vector<Task> retry;
    retry.swap(por_deferred_);
    for (const Task& t : retry) {
      const MonotonicNetwork::Entry& e = std::as_const(net_).at(t.net_idx);
      const NodeStateRec& rec = store_.rec(t.node, t.state_idx);
      if (por_rel_ != nullptr &&
          try_prune_por(e, t.node, t.state_idx, rec, /*allow_defer=*/false) ==
              PruneVerdict::kPrune) {
        ++stats_.por.pairs_pruned;
        ++round_pruned;
        continue;
      }
      tasks.push_back(t);
    }
  }

  // Network events: each message in I+ on every not-yet-tried state of its
  // destination (the per-message cursor of §4.2).
  const std::size_t n_msgs = net_.size();
  for (std::size_t i = 0; i < n_msgs; ++i) {
    MonotonicNetwork::Entry& e = net_.at(i);
    const NodeId d = e.msg.dst;
    const std::uint32_t limit = store_.size(d);
    for (std::uint32_t idx = static_cast<std::uint32_t>(e.next_state); idx < limit; ++idx) {
      const NodeStateRec& rec = store_.rec(d, idx);
      if (rec.depth >= bound) continue;
      if (history_contains(rec.history, e.hash)) {
        ++stats_.history_skips;
        continue;
      }
      if (por_rel_ != nullptr) {
        const PruneVerdict v = try_prune_por(e, d, idx, rec, /*allow_defer=*/true);
        if (v == PruneVerdict::kPrune) {
          ++stats_.por.pairs_pruned;
          ++round_pruned;
          continue;
        }
        if (v == PruneVerdict::kDefer) {
          por_deferred_.push_back(Task{true, i, d, idx});
          ++stats_.por.deferrals;
          continue;
        }
      }
      tasks.push_back(Task{true, i, d, idx});
    }
    e.next_state = limit;
  }
  if (round_pruned > 0)
    LMC_TRACE(opt_.trace, record(tev(EventType::kPorPrune, obs::Phase::kExplore, cur_round_,
                                     round_pruned, stats_.por.pairs_pruned,
                                     stats_.por.conservative_skips)));

  // Internal events: scan states added since the last generation.
  for (NodeId n = 0; n < cfg_.num_nodes; ++n) {
    const std::uint32_t limit = store_.size(n);
    for (std::uint32_t idx = internal_scan_[n]; idx < limit; ++idx) {
      if (store_.rec(n, idx).depth >= bound) continue;
      tasks.push_back(Task{false, 0, n, idx});
    }
    internal_scan_[n] = limit;
  }
  return tasks;
}

// DESIGN.md §14: decide at publish time whether delivering message e to
// state s (= rec) can be skipped. Justification shape: an incoming edge
// `a` of s from predecessor p such that (1) the static relation declares a
// and the message independent at this node, and (2) the recorded outcome
// of delivering the SAME message at p proves the commuted path covers
// everything (m, s) would contribute:
//  * kNoop — m matched nothing at p, and by independence matches nothing
//    at s either: (m, s) is a silent no-op, prune unconditionally;
//  * kSucc(q) — the diamond closes through q: exec(q, a) = exec(s, m) and
//    the sends coincide, so the successor and its traffic are reached via
//    (a, q). Requires (i) a executable at q — for message edges a must not
//    sit in q's recorded history (histories are first-path, never merged);
//    (ii) q.depth <= s.depth, keeping the covering path at least as shallow
//    as the pruned one (POR only activates with unbounded depth, so this is
//    defense-in-depth, not load-bearing); (iii) for message edges the
//    tie-break e.hash < a.hash — justifying hashes along any chain of
//    prunes strictly increase, so one member of every commuting clique
//    always executes. Internal edges need no tie-break: internal tasks are
//    never pruned;
//  * kLoopSends — m self-looped at p but sent. Prunable only under the
//    all-kNone guard (por_loop_sends_ok_): with no commutative merges,
//    independence forces a's writes disjoint from m's reads AND writes, so
//    m reads the same values at s, performs the same (state-preserving)
//    assignments, and re-sends byte-identical messages the monotone I+
//    dedups — (m, s) contributes nothing. No successor is created, so the
//    tie-break/history/depth conditions of kSucc do not apply;
//  * kPruned — (m, p) was itself pruned: the classic sleep-set propagation
//    step. m "sleeps" across the independent edge a — inductively exec(p, m)
//    is covered by whichever record grounded p's prune, and the commuted
//    edge a from that covering state reaches exec(s, m), so (m, s) is
//    covered too. The chain is well-founded: every kPruned record consulted
//    was created strictly earlier, so it traces back to a grounded
//    kNoop/kSucc/kLoopSends record for the SAME message. Guarded by
//    p.depth < s.depth (p is a minimal-depth pred), the same
//    defense-in-depth shallowness condition as kSucc's;
//  * kDiscard — conservative skip: the delivery at p was discarded;
//    nothing proves (m, s) redundant;
//  * missing record — on the pair's FIRST consideration this usually means
//    (m, p) is published in the current generation and its outcome is still
//    in flight: defer (m, s) one generation and decide it at the top of the
//    next publish_round, by which time the stream has applied the record.
//    On the deferred retry a still-missing record (the pred pair was
//    history-skipped or out of depth) is a conservative skip.
// A successful prune records itself as kPruned so later states (and resumed
// runs, via checkpoint section 14) can propagate the decision.
// All inputs (rec.preds, events_, por_fwd_) are applier-written state
// frozen between generations, so decisions are deterministic and
// thread-count independent, and a resumed run reproduces them exactly.
LocalModelChecker::PruneVerdict LocalModelChecker::try_prune_por(const MonotonicNetwork::Entry& e,
                                                                 NodeId d, std::uint32_t rec_idx,
                                                                 const NodeStateRec& rec,
                                                                 bool allow_defer) {
  const std::uint64_t mkey = indep::event_key(true, e.msg.type);
  bool record_in_flight = false;
  for (const Pred& pr : rec.preds) {
    auto eit = events_.find(pr.ev_hash);
    if (eit == events_.end()) {
      ++stats_.por.conservative_skips;
      continue;
    }
    const EventRecord& er = eit->second;
    const std::uint64_t pkey = er.is_message ? indep::event_key(true, er.msg.type)
                                             : indep::event_key(false, er.ev.kind);
    if (!por_rel_->independent(d, mkey, pkey)) continue;
    auto fit = por_fwd_[d].find(FwdKey{pr.pred_idx, e.hash});
    if (fit == por_fwd_[d].end()) {
      if (allow_defer)
        record_in_flight = true;  // counted as a skip only on the final pass
      else
        ++stats_.por.conservative_skips;
      continue;
    }
    bool prune = false;
    switch (fit->second.outcome) {
      case FwdOutcome::kNoop:
        prune = true;
        break;
      case FwdOutcome::kSucc: {
        const NodeStateRec& q = store_.rec(d, fit->second.succ);
        const bool hash_ok = !pr.is_message || e.hash < pr.ev_hash;
        const bool hist_ok = !pr.is_message || !history_contains(q.history, pr.ev_hash);
        prune = hash_ok && hist_ok && q.depth <= rec.depth;
        break;
      }
      case FwdOutcome::kLoopSends:
        prune = por_loop_sends_ok_;
        if (!prune) ++stats_.por.conservative_skips;
        break;
      case FwdOutcome::kPruned:
        prune = store_.rec(d, pr.pred_idx).depth < rec.depth;
        if (!prune) ++stats_.por.conservative_skips;
        break;
      case FwdOutcome::kDiscard:
        ++stats_.por.conservative_skips;
        break;
    }
    if (!prune) continue;
    if (opt_.por.audit) {
      // Sampled runtime cross-check: execute both orders of (a, m) from the
      // serialized predecessor state and compare successor bytes and sent
      // sequences. A divergence means the registered footprints are wrong —
      // the prune we were about to take is unsound — so the auditor throws
      // out of run*() rather than let the reduced run silently differ.
      const std::uint32_t every = opt_.por.audit_every == 0 ? 1 : opt_.por.audit_every;
      if (por_audit_ctr_++ % every == 0) {
        indep::AuditEvent a;
        a.is_message = er.is_message;
        if (er.is_message)
          a.msg = er.msg;
        else
          a.ev = er.ev;
        indep::AuditEvent b;
        b.is_message = true;
        b.msg = e.msg;
        indep::audit_commutation(cfg_, d, store_.rec(d, pr.pred_idx).blob, a, b);
        ++stats_.por.audits;
      }
    }
    record_fwd(d, rec_idx, e.hash, FwdOutcome::kPruned, 0);
    return PruneVerdict::kPrune;
  }
  return record_in_flight ? PruneVerdict::kDefer : PruneVerdict::kPublish;
}

void LocalModelChecker::record_fwd(NodeId n, std::uint32_t pred_idx, Hash64 ev_hash,
                                   FwdOutcome out, std::uint32_t succ) {
  por_fwd_[n].emplace(FwdKey{pred_idx, ev_hash}, FwdRec{out, succ});
}

void LocalModelChecker::execute_audited(Exec& e, const Blob& state, const Message* msg) {
  e.result = e.is_message ? exec_message(cfg_, e.node, state, *msg)
                          : exec_internal(cfg_, e.node, state, e.ev);
  if (!opt_.audit_validity) return;
  const AuditReport rep = e.is_message ? audit_message(cfg_, e.node, state, *msg, e.result)
                                       : audit_internal(cfg_, e.node, state, e.ev, e.result);
  audits_performed_.fetch_add(1, std::memory_order_relaxed);
  if (!rep.ok) throw ModelValidityError(e.node, rep.detail);
}

bool LocalModelChecker::discards(const ExecResult& r) const {
  return r.assert_failed && opt_.assert_policy == LocalMcOptions::AssertPolicy::DiscardState;
}

// The pure part of applying a result, done where the result was produced:
// one hash per sent message, and the successor's hash. Bytes equal to the
// predecessor's are the predecessor's state, and equal bytes have equal
// hashes, so a silent no-op hashes no state; differing bytes are hashed,
// and apply_exec still compares that hash with the predecessor's. A result
// the assert policy discards is never looked up, so it gets no state hash.
void LocalModelChecker::digest(Exec& e, const NodeStateRec& pred) const {
  std::vector<Hash64> gen;
  gen.reserve(e.result.sent.size());
  for (const Message& m : e.result.sent) gen.push_back(m.hash());
  e.gen = std::move(gen);
  if (discards(e.result)) return;
  e.state_hash = e.result.state == pred.blob ? pred.hash : hash_blob(e.result.state);
}

// A pool lane's body: run the handler(s) of one task against the store
// and I+, which nothing writes while a chunk executes, and digest each
// result outside its handler timing. With an exec cache attached the lane
// probes with peek() and skips execution on a hit — the applier finalizes
// the cached verdict authoritatively at apply time, so results never
// depend on lane timing.
std::vector<LocalModelChecker::Exec> LocalModelChecker::execute_task(const Task& t) {
  std::vector<Exec> out;
  ExecCache* const cache = opt_.exec_cache;
  const bool timing = opt_.trace != nullptr || opt_.profile != nullptr;
  const NodeStateRec& rec = store_.rec(t.node, t.state_idx);
  if (t.is_message) {
    const MonotonicNetwork::Entry& e = std::as_const(net_).at(t.net_idx);
    Exec ex;
    ex.is_message = true;
    ex.ev_hash = e.hash;
    ex.node = t.node;
    ex.pred_idx = t.state_idx;
    const double tr0 = timing ? now_s() : 0.0;
    if (cache != nullptr && cache->peek(e.hash, rec.hash)) {
      ex.peek_hit = true;
    } else {
      execute_audited(ex, rec.blob, &e.msg);
    }
    if (timing) ex.exec_s = now_s() - tr0;
    if (!ex.peek_hit) digest(ex, rec);
    out.push_back(std::move(ex));
  } else {
    for (const InternalEvent& ev : internal_events_of(cfg_, t.node, rec.blob)) {
      Exec ex;
      ex.is_message = false;
      ex.ev_hash = ev.hash(t.node);
      ex.node = t.node;
      ex.pred_idx = t.state_idx;
      ex.ev = ev;
      const double tr0 = timing ? now_s() : 0.0;
      if (cache != nullptr && cache->peek(ex.ev_hash, rec.hash)) {
        ex.peek_hit = true;
      } else {
        execute_audited(ex, rec.blob, nullptr);
      }
      if (timing) ex.exec_s = now_s() - tr0;
      if (!ex.peek_hit) digest(ex, rec);
      out.push_back(std::move(ex));
    }
  }
  return out;
}

void LocalModelChecker::apply_exec(Exec& e, std::uint64_t seq) {
  // Finalize the exec-cache verdict authoritatively on the applier, in
  // publication order: within a run every (event, state) pair executes at
  // most once (cursor discipline), so this lookup hits exactly when an
  // EARLIER run inserted the pair — the same verdict a serial run computes.
  // The lane's speculative peek() only decided whether to bother executing.
  // A result produced here is digested here.
  if (ExecCache* const cache = opt_.exec_cache; cache != nullptr) {
    const NodeStateRec& pred0 = store_.rec(e.node, e.pred_idx);
    ExecResult replay;
    if (cache->lookup(e.ev_hash, pred0.hash, replay)) {
      e.cached = true;
      e.result = std::move(replay);
      digest(e, pred0);
    } else {
      if (e.peek_hit) {
        // The lane's peek saw the pair but a generation rotation evicted it
        // before this apply: execute here (rare; still audited).
        const double tr0 = opt_.trace != nullptr || opt_.profile != nullptr ? now_s() : 0.0;
        execute_audited(e, pred0.blob, e.is_message ? net_.find(e.ev_hash) : nullptr);
        if (opt_.trace != nullptr || opt_.profile != nullptr) e.exec_s = now_s() - tr0;
        digest(e, pred0);
      }
      cache->insert(e.ev_hash, pred0.hash, e.result);
    }
  }
  LMC_TRACE(opt_.trace, record(tev(EventType::kHandlerRun, obs::Phase::kExplore, cur_round_,
                                   e.is_message ? 1 : 0, e.ev_hash, e.cached ? 1 : 0,
                                   e.exec_s, e.node, seq)));
  // Per-rule cost attribution. All fields are computed from the Exec alone
  // (identity: a pure function of the exploration); exec_s is lane wall
  // time (attribution). hash_bytes counts the state bytes of every result
  // the assert policy keeps, whether or not digest() had to hash them.
  if (obs::ProfileSink* const psink = opt_.profile; psink != nullptr) {
    obs::RuleKey rk;
    rk.node = e.node;
    rk.is_message = e.is_message ? 1 : 0;
    if (e.is_message) {
      const auto it = events_.find(e.ev_hash);
      if (it != events_.end()) rk.kind = it->second.msg.type;
    } else {
      rk.kind = e.ev.kind;
    }
    std::uint64_t ser = e.result.state.size();
    for (const Message& m : e.result.sent) ser += m.payload.size();
    const std::uint64_t hash_bytes = discards(e.result) ? 0 : e.result.state.size();
    psink->rule(rk, e.cached, ser, hash_bytes, e.exec_s);
  }
  // A cached replay is not a handler execution: it is exactly the work the
  // warm start avoided. Everything downstream treats it identically.
  if (e.cached)
    ++stats_.warm_pairs_skipped;
  else
    ++stats_.transitions;
  // outcome: 0 new state, 1 dedup/new path, 2 self-loop, 3 assert-discard.
  auto apply_ev = [&](std::uint64_t outcome) {
    LMC_TRACE(opt_.trace, record(tev(EventType::kHandlerApply, obs::Phase::kExplore, cur_round_,
                                     e.cached ? 1 : 0, e.ev_hash, outcome, 0.0, e.node)));
  };
  // addNextState (Fig. 9): register generated messages in I+ first — BEFORE
  // the local-assert policy can discard the successor state. The handler
  // really sent these messages before its assertion fired, and I+ is
  // monotonic/never-remove (§3, §4.2): dropping them would hide every
  // behaviour they trigger on other nodes and can mask real bugs whose
  // trigger message precedes an assert.
  std::vector<Hash64>& gen = e.gen;
  for (std::size_t k = 0; k < gen.size(); ++k) {
    const Message& m = e.result.sent[k];
    const Hash64 h = gen[k];
    if (node_gens_[e.node].insert(h).second && engine_ != nullptr)
      engine_->note_generated(e.node, h);
    if (net_.add(m, h)) {
      live_bytes_ += MonotonicNetwork::entry_bytes(net_.at(net_.size() - 1));
      EventRecord er;
      er.is_message = true;
      er.msg = m;
      events_.emplace(h, std::move(er));
      LMC_TRACE(opt_.trace, record(tev(EventType::kIplusAppend, obs::Phase::kExplore, cur_round_,
                                       h, net_.size(), 0, 0.0, m.dst)));
    }
  }

  if (e.result.assert_failed) {
    ++stats_.local_assert_discards;
    // §4.2 "Local assertions": by default treat the assert as marking the
    // node state invalid (usually an unexpected delivery made possible by
    // the conservative I+ policy) and discard it; under IgnoreViolation,
    // keep exploring the successor — a real protocol bug will eventually
    // manifest as a system-invariant violation. The messages stay in I+
    // either way; no predecessor edge generates them, so soundness
    // verification will not schedule deliveries that depend on them.
    if (opt_.assert_policy == LocalMcOptions::AssertPolicy::DiscardState) {
      if (por_rel_ != nullptr && e.is_message)
        record_fwd(e.node, e.pred_idx, e.ev_hash, FwdOutcome::kDiscard, 0);
      apply_ev(3);
      return;
    }
  }

  if (!e.is_message) {
    EventRecord er;
    er.is_message = false;
    er.node = e.node;
    er.ev = e.ev;
    events_.emplace(e.ev_hash, std::move(er));
  }

  NodeStateRec& pred = store_.rec(e.node, e.pred_idx);
  const Hash64 h2 = e.state_hash;
  if (h2 == pred.hash) {
    // No-op transition. If it generated messages (a stateless relay), keep
    // it as a self-loop so soundness verification can account for the
    // generation (see NodeStateRec::self_loops).
    if (por_rel_ != nullptr && e.is_message)
      record_fwd(e.node, e.pred_idx, e.ev_hash,
                 gen.empty() ? FwdOutcome::kNoop : FwdOutcome::kLoopSends, 0);
    if (!gen.empty()) {
      pred.self_loops.push_back(Pred{e.pred_idx, e.is_message, e.ev_hash, std::move(gen)});
      live_bytes_ += LocalStore::edge_bytes(pred.self_loops.back());
      ++pred_edges_[e.node];
    }
    apply_ev(2);
    return;
  }

  const std::uint32_t existing = store_.find(e.node, h2);
  if (existing != UINT32_MAX) {
    // Known state reached by a new path: extend its predecessor set. The
    // history is intentionally not merged (paper's simplification).
    if (por_rel_ != nullptr && e.is_message)
      record_fwd(e.node, e.pred_idx, e.ev_hash, FwdOutcome::kSucc, existing);
    std::vector<Pred>& preds = store_.rec(e.node, existing).preds;
    preds.push_back(Pred{e.pred_idx, e.is_message, e.ev_hash, std::move(gen)});
    live_bytes_ += LocalStore::edge_bytes(preds.back());
    ++pred_edges_[e.node];
    apply_ev(1);
    return;
  }

  NodeStateRec rec;
  rec.blob = e.result.state;  // a copy: stored blobs are exact-size
  rec.hash = h2;
  rec.depth = pred.depth + 1;
  rec.history = pred.history;
  if (e.is_message) history_insert(rec.history, e.ev_hash);
  rec.preds.push_back(Pred{e.pred_idx, e.is_message, e.ev_hash, std::move(gen)});
  ++pred_edges_[e.node];
  const std::uint32_t idx = store_.add(e.node, std::move(rec));
  live_bytes_ += LocalStore::state_bytes(store_.rec(e.node, idx));
  if (por_rel_ != nullptr && e.is_message)
    record_fwd(e.node, e.pred_idx, e.ev_hash, FwdOutcome::kSucc, idx);
  if (canon_ != nullptr) canon_->add_state(e.node, h2);
  ++stats_.node_states;
  stats_.max_chain_depth_reached = std::max(stats_.max_chain_depth_reached, pred.depth + 1);
  apply_ev(0);
  LMC_TRACE(opt_.trace, record(tev(EventType::kStateInsert, obs::Phase::kExplore, cur_round_,
                                   idx, h2, pred.depth + 1, 0.0, e.node)));

  index_state(e.node, idx);

  if (opt_.enable_system_states && invariant_ != nullptr && !stop_) {
    const double t0 = now_s();
    const std::uint64_t pre_ss = stats_.system_states;
    const std::uint64_t pre_pv = stats_.prelim_violations;
    check_combinations(e.node, idx);
    const double dt = now_s() - t0;
    stats_.system_state_s += dt;
    LMC_TRACE(opt_.trace, record(tev(EventType::kComboSweep, obs::Phase::kSweep, cur_round_,
                                     /*site=*/0, stats_.system_states - pre_ss,
                                     stats_.prelim_violations - pre_pv, dt, e.node)));
  }
}

void LocalModelChecker::ProjectionIndex::reset(std::size_t num_nodes) {
  ids.clear();
  projs.clear();
  cls.assign(num_nodes, {});
  members.assign(num_nodes, {});
}

void LocalModelChecker::ProjectionIndex::add(NodeId n, Projection p) {
  const auto idx = static_cast<std::uint32_t>(cls[n].size());
  if (p.empty()) {
    cls[n].push_back(kUnmapped);
    return;
  }
  const auto [it, fresh] = ids.try_emplace(std::move(p), static_cast<std::uint32_t>(projs.size()));
  if (fresh) projs.push_back(&it->first);
  cls[n].push_back(it->second);
  members[n][it->second].push_back(idx);
}

const Projection& LocalModelChecker::ProjectionIndex::projection(std::uint32_t c) const {
  static const Projection kEmpty;
  return c == kUnmapped ? kEmpty : *projs[c];
}

bool LocalModelChecker::indexes_projections() const {
  return opt_.enable_system_states && invariant_ != nullptr && invariant_->has_projection();
}

void LocalModelChecker::index_state(NodeId n, std::uint32_t idx) {
  if (indexes_projections())
    proj_index_.add(n, invariant_->project(cfg_, n, store_.rec(n, idx).blob));
}

bool LocalModelChecker::combo_violates(const std::vector<std::uint32_t>& combo) const {
  if (invariant_->has_projection()) {
    auto proj = [&](NodeId i) -> const Projection& {
      return proj_index_.projection(proj_index_.cls[i][combo[i]]);
    };
    for (NodeId i = 0; i < cfg_.num_nodes; ++i)
      if (invariant_->projection_self_violates(proj(i))) return true;
    for (NodeId i = 0; i < cfg_.num_nodes; ++i)
      for (NodeId j = i + 1; j < cfg_.num_nodes; ++j)
        if (invariant_->projections_conflict(proj(i), proj(j))) return true;
    return false;
  }
  SystemStateView view(cfg_.num_nodes);
  for (NodeId i = 0; i < cfg_.num_nodes; ++i) view[i] = &store_.rec(i, combo[i]).blob;
  return !invariant_->holds(cfg_, view);
}

void LocalModelChecker::check_one_combination(std::vector<std::uint32_t>& combo) {
  // System-state creation and soundness can dwarf exploration (Fig. 13);
  // honor the wall-clock budget from inside the combination loops too.
  if ((++combo_probe_ & 0xff) == 0 && hard_budget_exceeded()) {
    stats_.completed = false;
    stop_ = true;
    return;
  }
  std::uint64_t depth_sum = 0;
  for (NodeId i = 0; i < cfg_.num_nodes; ++i) depth_sum += store_.rec(i, combo[i]).depth;
  if (depth_sum > opt_.max_total_depth) return;
  stats_.max_total_depth_reached =
      std::max<std::uint32_t>(stats_.max_total_depth_reached,
                              static_cast<std::uint32_t>(depth_sum));
  ++stats_.system_states;
  ++stats_.invariant_checks;
  if (!combo_violates(combo)) return;
  std::vector<Deferred> one(1);
  one[0].combo = combo;
  verify_prelims(std::move(one), /*phase2=*/false);
}

void LocalModelChecker::pool_run(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (opt_.num_threads > 1 && n > 1) {
    if (!pool_) pool_ = std::make_unique<WorkerPool>(opt_.num_threads);
    const std::uint64_t pre = pool_->dropped_exceptions();
    try {
      pool_->run(n, fn);
    } catch (...) {
      // run() rethrows only the FIRST worker exception; any others the pool
      // counted for this fan-out would otherwise vanish — surface them.
      const std::uint64_t dropped = pool_->dropped_exceptions() - pre;
      if (dropped > 0)
        LMC_TRACE(opt_.trace, record(tev(EventType::kWorkerError, obs::Phase::kRun, cur_round_,
                                         dropped, /*source=*/1, 0)));
      throw;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

bool LocalModelChecker::members_feasible(const std::vector<std::uint32_t>& combo) {
  for (NodeId k = 0; k < cfg_.num_nodes; ++k)
    if (combo[k] != kFreeNode && !engine_->feasible(k, combo[k])) return false;
  return true;
}

void LocalModelChecker::verify_prelims(std::vector<Deferred> jobs, bool phase2) {
  if (jobs.empty()) return;
  if (!opt_.enable_soundness) {
    // Fig. 13 "system-state" variant: count preliminary violations only.
    if (!phase2) stats_.prelim_violations += jobs.size();
    return;
  }

  // Kind values align with the obs::kVerdict* constants by construction.
  enum class Kind : std::uint8_t { Skipped, FeasSkip, Sound, Unsound, Defer };
  struct Outcome {
    Kind kind = Kind::Skipped;
    SoundnessResult res;
    double secs = 0.0;
    /// Verifier invocations this job consumed (symmetry jobs aggregate one
    /// per expanded assignment; plain jobs are exactly one call).
    std::uint64_t calls = 1;
    std::uint64_t tried = 0;  ///< symmetry jobs: concrete assignments expanded
  };
  std::vector<Outcome> out;
  obs::TraceSink* const tsink = opt_.trace;
  const obs::Phase tphase = phase2 ? obs::Phase::kDrain : obs::Phase::kSoundness;
  const double wall_t0 = now_s();
  const SoundnessOptions& so = opt_.soundness;
  const bool quick = !phase2 && so.quick_expansions != 0;
  const std::uint64_t cap = quick ? std::min(so.max_schedules, so.quick_expansions)
                                  : so.max_schedules;
  // The store stays frozen until this phase returns: bring the engine up to
  // date once, on this thread. A segment's first verification creates it.
  if (engine_ == nullptr) {
    engine_ = std::make_unique<SoundnessEngine>(store_, start_.in_flight_hashes);
    for (NodeId n = 0; n < cfg_.num_nodes; ++n)
      for (Hash64 h : node_gens_[n]) engine_->note_generated(n, h);
  }
  for (NodeId n = 0; n < cfg_.num_nodes; ++n) engine_->sync(n, pred_edges_[n]);

  // Fan out: every job is verified independently against the frozen stores;
  // outcomes land in per-job slots of the current chunk.
  auto verify_job = [&](std::size_t i, Outcome& o) {
    if (hard_budget_exceeded()) return;  // stays Skipped
    const Deferred& d = jobs[i];
    if (d.sym && canon_ != nullptr) {
      // Orbit representative from the symmetry sweep: the orbit violates
      // the invariant (position-symmetric within classes), but only SOME
      // arrangements of its members may be jointly reachable. Expand every
      // concrete assignment in deterministic order against the frozen
      // stores and confirm the first sound one — this is where witnesses
      // get de-canonicalized back to concrete node ids. The worker owns
      // slot i, so writing the winning assignment into jobs[i] is safe.
      const auto& classes = canon_->classes();
      std::vector<std::vector<std::uint32_t>> counts(classes.size());
      for (std::size_t c = 0; c < classes.size(); ++c) {
        counts[c].assign(canon_->universe(c).entries().size(), 0);
        for (NodeId m : classes[c])
          ++counts[c][canon_->universe(c).find(store_.rec(m, d.combo[m]).hash)];
      }
      std::vector<std::uint32_t> combo = d.combo;
      bool found = false, any_truncated = false, budget_hit = false;
      std::uint64_t tried = 0, feas_skipped = 0, calls = 0, seqs = 0;
      double secs = 0.0;
      auto try_combo = [&]() -> bool {
        if (hard_budget_exceeded()) {
          budget_hit = true;
          return false;
        }
        ++tried;
        if (!members_feasible(combo)) {
          ++feas_skipped;
          return true;  // next assignment
        }
        const double t0 = now_s();
        SoundnessResult res = engine_->verify(combo, so.max_schedules);
        secs += now_s() - t0;
        ++calls;
        seqs += res.schedules_checked;
        if (res.truncated) any_truncated = true;
        if (res.sound) {
          found = true;
          o.res = std::move(res);
          jobs[i].combo = combo;
          return false;
        }
        return true;
      };
      auto expand = [&](auto&& self, std::size_t c) -> bool {
        if (c == classes.size()) return try_combo();
        return canon_->for_each_assignment(
            c, counts[c], [&](const std::vector<std::size_t>& pick) {
              for (std::size_t p = 0; p < pick.size(); ++p) {
                const NodeId m = classes[c][p];
                combo[m] = store_.find(m, canon_->universe(c).entries()[pick[p]].hash);
              }
              return self(self, c + 1);
            });
      };
      expand(expand, 0);
      o.secs = secs;
      o.calls = calls;
      o.tried = tried;
      o.res.schedules_checked = seqs;
      if (budget_hit && !found) return;  // stays Skipped
      if (found)
        o.kind = Kind::Sound;
      else if (calls == 0)
        o.kind = Kind::FeasSkip;  // every arrangement failed the pre-check
      else {
        o.kind = Kind::Unsound;
        o.res.truncated = any_truncated;
      }
      if (tsink != nullptr)
        tsink->record_worker(tev(EventType::kSoundnessRun, tphase, cur_round_,
                                 static_cast<std::uint64_t>(o.kind), 0, phase2 ? 1 : 0, o.secs,
                                 TraceEvent::kNoNode, i));
      return;
    }
    // Per-member pre-check: a combination whose members cannot
    // individually be reached even with maximal help from the other
    // nodes is unsound — skip the joint search entirely (cached; kills
    // the bulk of the preliminary violations near a bug, cf. §5.4). Runs
    // in both phases: during exploration it spares the quick search, in
    // the final drain it is conclusive against the frozen store.
    if (!members_feasible(d.combo)) {
      o.kind = Kind::FeasSkip;
      return;
    }
    const double t0 = now_s();
    o.res = engine_->verify(d.combo, cap);
    o.secs = now_s() - t0;
    o.kind = o.res.sound ? Kind::Sound
                         : (quick && o.res.truncated ? Kind::Defer : Kind::Unsound);
    if (tsink != nullptr)
      tsink->record_worker(tev(EventType::kSoundnessRun, tphase, cur_round_,
                               static_cast<std::uint64_t>(o.kind), 0, phase2 ? 1 : 0, o.secs,
                               TraceEvent::kNoNode, i));
  };

  // Deterministic merge in enumeration/queue order: counters, the deferred
  // queue and confirmed violations come out identical for any thread count.
  // Returns false once the merge must stop.
  auto merge_job = [&](std::size_t i, Outcome& o) -> bool {
    if (stop_) {
      if (phase2) stats_.completed = false;  // partial drain
      return false;
    }
    if (o.kind == Kind::Skipped) {  // wall-clock budget / cancel hit
      stats_.completed = false;
      if (!phase2) stop_ = true;
      return false;
    }
    if (phase2)
      ++stats_.deferred_processed;
    else
      ++stats_.prelim_violations;
    if (jobs[i].sym) stats_.sym.assignments_tried += o.tried;
    // During exploration, every non-sound verdict is PROVISIONAL: the store
    // is still growing, and a predecessor edge recorded later (another
    // message reaching an already-deduplicated state) can turn an unsound
    // combination sound. A mid-run rejection is therefore only a deferral;
    // the verdict becomes final in the phase-2 drain, when the traversal
    // has reached its fixpoint (the paper's a-posteriori check, §4.2).
    auto defer = [&](Deferred&& d) {
      if (deferred_.size() < kMaxDeferred) {
        deferred_.push_back(std::move(d));
        ++stats_.soundness_deferred;
      } else {
        ++stats_.deferred_dropped;
      }
    };
    // dur carries exactly the seconds added to stats_.soundness_s for this
    // job (0 when none were), so a report's sum reproduces it bit-for-bit.
    auto verdict_ev = [&](double secs) {
      LMC_TRACE(tsink, record(tev(EventType::kSoundnessVerdict, tphase, cur_round_,
                                  static_cast<std::uint64_t>(o.kind), o.res.schedules_checked,
                                  phase2 ? 1 : 0, secs, TraceEvent::kNoNode, i)));
    };
    if (o.kind == Kind::FeasSkip) {
      verdict_ev(0.0);
      if (!phase2) {
        defer(std::move(jobs[i]));
        return true;
      }
      ++stats_.unsound_violations;
      ++stats_.feasibility_skips;
      return true;
    }
    stats_.soundness_calls += o.calls;
    stats_.soundness_s += o.secs;
    stats_.sequences_checked += o.res.schedules_checked;
    verdict_ev(o.secs);
    switch (o.kind) {
      case Kind::Sound:
        record_confirmed(jobs[i].combo, std::move(o.res));
        break;
      case Kind::Defer:
        // Undecided at the quick cap: defer the expensive refutation/search
        // to phase 2 (after exploration), so unsound floods cannot starve
        // the exploration that produces the genuinely sound combinations.
        defer(std::move(jobs[i]));
        break;
      default:  // Unsound
        if (!phase2) {
          defer(std::move(jobs[i]));
          break;
        }
        if (o.res.truncated) ++stats_.verify_truncated;
        ++stats_.unsound_violations;
        break;
    }
    return true;
  };

  bool merging = true;
  for (std::size_t base = 0; merging && base < jobs.size(); base += kVerifyChunk) {
    if (stop_) {  // stopped by an earlier chunk: leave the rest unverified
      if (phase2) stats_.completed = false;  // partial drain
      break;
    }
    const std::size_t n = std::min(kVerifyChunk, jobs.size() - base);
    // Build every closure and member verdict the chunk's plain jobs read on
    // this thread, so the workers only read. Symmetry jobs pick their
    // assignments in the worker and build what they miss under the
    // engine's lock.
    for (std::size_t i = base; i < base + n; ++i)
      if (!(jobs[i].sym && canon_ != nullptr) && members_feasible(jobs[i].combo))
        engine_->prepare(jobs[i].combo);
    out.assign(n, Outcome{});
    pool_run(n, [&](std::size_t j) { verify_job(base + j, out[j]); });
    if (tsink != nullptr) tsink->drain_workers();
    for (std::size_t j = 0; merging && j < n; ++j) merging = merge_job(base + j, out[j]);
  }

  // Wall seconds of the whole phase, as seen by this (merging) thread — the
  // counterpart to the AGGREGATE soundness_s summed across workers above.
  const double wall_dt = now_s() - wall_t0;
  stats_.soundness_wall_s += wall_dt;
  LMC_TRACE(tsink, record(tev(EventType::kSoundnessPhase, tphase, cur_round_, jobs.size(),
                              phase2 ? 1 : 0, 0, wall_dt)));
}

void LocalModelChecker::record_confirmed(const std::vector<std::uint32_t>& combo,
                                         SoundnessResult res) {
  ++stats_.confirmed_violations;
  LocalViolation v;
  v.combo = res.final_combo.empty() ? combo : res.final_combo;
  v.invariant = invariant_->name();
  v.confirmed = true;
  v.witness = std::move(res.schedule);
  for (NodeId i = 0; i < cfg_.num_nodes; ++i) {
    const NodeStateRec& r = store_.rec(i, v.combo[i]);
    v.state_hashes.push_back(r.hash);
    v.system_state.push_back(r.blob);
  }
  violations_.push_back(std::move(v));
  if (opt_.stop_on_confirmed) stop_ = true;
}

void LocalModelChecker::process_deferred() {
  if (deferred_.empty() || !opt_.enable_soundness) return;
  // Phase 2: a parallel drain — each queued combination gets its own
  // independent SoundnessVerifier with the full caps; outcomes are merged
  // in queue order so the drain is deterministic across thread counts.
  const double t0 = now_s();
  std::vector<Deferred> jobs;
  jobs.swap(deferred_);
  const std::size_t n_jobs = jobs.size();
  verify_prelims(std::move(jobs), /*phase2=*/true);
  const double dt = now_s() - t0;
  stats_.deferred_s += dt;
  LMC_TRACE(opt_.trace, record(tev(EventType::kDeferralDrain, obs::Phase::kDrain, cur_round_,
                                   n_jobs, 0, 0, dt)));
}

void LocalModelChecker::check_snapshot_combination() {
  if (!opt_.enable_system_states || invariant_ == nullptr) return;
  std::vector<std::uint32_t> combo(cfg_.num_nodes, 0);  // every node on LS_n[0]
  const double t0 = now_s();
  const std::uint64_t pre_ss = stats_.system_states;
  const std::uint64_t pre_pv = stats_.prelim_violations;
  if (canon_ != nullptr) {
    // Route the live combination through the orbit machinery, so its orbit
    // is marked seen and later sweeps do not re-count it.
    const auto& classes = canon_->classes();
    std::vector<std::vector<std::uint32_t>> counts(classes.size());
    for (std::size_t c = 0; c < classes.size(); ++c) {
      counts[c].assign(canon_->universe(c).entries().size(), 0);
      for (NodeId m : classes[c])
        ++counts[c][canon_->universe(c).find(store_.rec(m, 0).hash)];
    }
    SymSweepCtx ctx{opt_.max_system_states_per_step, false};
    sym_consider(combo, counts, ctx);
    const double dt = now_s() - t0;
    stats_.system_state_s += dt;
    LMC_TRACE(opt_.trace, record(tev(EventType::kComboSweep, obs::Phase::kSweep, cur_round_,
                                     /*site=*/2, stats_.system_states - pre_ss,
                                     stats_.prelim_violations - pre_pv, dt)));
    return;
  }
  if (opt_.use_projection && invariant_->has_projection()) {
    // LMC-OPT materializes a system state only when projections flag a
    // possible violation (keeps "OPT creates zero system states" exact on
    // correct protocols, Fig. 11) — the live state included.
    if (combo_violates(combo)) check_one_combination(combo);
  } else {
    check_one_combination(combo);
  }
  const double dt = now_s() - t0;
  stats_.system_state_s += dt;
  LMC_TRACE(opt_.trace, record(tev(EventType::kComboSweep, obs::Phase::kSweep, cur_round_,
                                   /*site=*/2, stats_.system_states - pre_ss,
                                   stats_.prelim_violations - pre_pv, dt)));
}

void LocalModelChecker::check_combinations(NodeId n, std::uint32_t idx) {
  // Sweep the combinations that include the NEW state (n, idx); combinations
  // of previously seen states were checked in earlier rounds (§4.2). Phase A
  // (the sweep) shards the enumeration space and collects preliminary
  // violations in enumeration order; phase B verifies them in parallel and
  // merges the outcomes in that same order, so the full round is
  // deterministic regardless of thread count.
  if (canon_ != nullptr) {
    // Symmetry reduction: canonical enumeration + always-defer verification
    // (sweep_sym queues violating orbits straight onto deferred_).
    sweep_sym(n, idx);
    return;
  }
  std::vector<Deferred> prelims;
  if (opt_.use_projection && invariant_->has_projection())
    sweep_opt(n, idx, prelims);
  else
    sweep_gen(n, idx, prelims);
  if (stop_) return;  // budget stop inside the sweep: its findings are dropped
  verify_prelims(std::move(prelims), /*phase2=*/false);
}

void LocalModelChecker::sweep_gen(NodeId n, std::uint32_t idx, std::vector<Deferred>& prelims) {
  // LMC-GEN: full incremental Cartesian product over the other nodes. The
  // product [0, n_combos) is mixed-radix decoded (first `other` node =
  // fastest-varying digit, preserving the historical enumeration order), so
  // contiguous index ranges become independent shards.
  std::vector<NodeId> others;
  for (NodeId m = 0; m < cfg_.num_nodes; ++m)
    if (m != n) others.push_back(m);

  std::vector<std::uint64_t> radix(others.size());
  std::uint64_t total = 1;
  for (std::size_t k = 0; k < others.size(); ++k) {
    radix[k] = store_.size(others[k]);
    if (radix[k] == 0) return;  // no states yet for that node: empty product
    if (total > std::numeric_limits<std::uint64_t>::max() / radix[k])
      total = std::numeric_limits<std::uint64_t>::max();  // saturate
    else
      total *= radix[k];
  }
  std::uint64_t n_combos = total;
  if (n_combos > opt_.max_system_states_per_step) {
    n_combos = opt_.max_system_states_per_step;
    ++stats_.combo_truncated;
  }
  if (n_combos == 0) return;

  struct Shard {
    std::vector<Deferred> prelims;
    std::uint64_t system_states = 0;
    std::uint64_t invariant_checks = 0;
    std::uint32_t max_depth = 0;
    bool stopped = false;  // wall-clock budget / cancel hit mid-shard
  };
  const std::uint64_t max_shards = static_cast<std::uint64_t>(pool_width()) * 8;
  const std::size_t n_shards =
      static_cast<std::size_t>(std::min<std::uint64_t>(n_combos, max_shards));
  std::vector<Shard> shards(n_shards);

  pool_run(n_shards, [&](std::size_t s) {
    Shard& sh = shards[s];
    const std::uint64_t base = n_combos / n_shards;
    const std::uint64_t rem = n_combos % n_shards;
    const std::uint64_t lo = s * base + std::min<std::uint64_t>(s, rem);
    const std::uint64_t hi = lo + base + (s < rem ? 1 : 0);
    std::vector<std::uint32_t> combo(cfg_.num_nodes, 0);
    combo[n] = idx;
    std::vector<std::uint64_t> pos(others.size(), 0);
    std::uint64_t r = lo;
    for (std::size_t k = 0; k < others.size(); ++k) {
      pos[k] = r % radix[k];
      r /= radix[k];
    }
    std::uint64_t probe = 0;
    for (std::uint64_t g = lo; g < hi; ++g) {
      // System-state creation can dwarf exploration (Fig. 13): honor the
      // wall-clock budget from inside the shards too.
      if ((++probe & 0xff) == 0 && hard_budget_exceeded()) {
        sh.stopped = true;
        return;
      }
      for (std::size_t k = 0; k < others.size(); ++k)
        combo[others[k]] = static_cast<std::uint32_t>(pos[k]);
      std::uint64_t depth_sum = 0;
      for (NodeId i = 0; i < cfg_.num_nodes; ++i) depth_sum += store_.rec(i, combo[i]).depth;
      if (depth_sum <= opt_.max_total_depth) {
        sh.max_depth = std::max<std::uint32_t>(sh.max_depth, static_cast<std::uint32_t>(depth_sum));
        ++sh.system_states;
        ++sh.invariant_checks;
        if (combo_violates(combo)) {
          Deferred d;
          d.combo = combo;
          sh.prelims.push_back(std::move(d));
        }
      }
      for (std::size_t k = 0; k < others.size(); ++k) {
        if (++pos[k] < radix[k]) break;
        pos[k] = 0;
      }
    }
  });

  // Reduce shard accumulators in shard (= enumeration) order.
  for (Shard& sh : shards) {
    stats_.system_states += sh.system_states;
    stats_.invariant_checks += sh.invariant_checks;
    stats_.max_total_depth_reached = std::max(stats_.max_total_depth_reached, sh.max_depth);
    if (sh.stopped) {
      stats_.completed = false;
      stop_ = true;
    }
    for (Deferred& d : sh.prelims) prelims.push_back(std::move(d));
  }
}

void LocalModelChecker::sweep_opt(NodeId n, std::uint32_t idx, std::vector<Deferred>& prelims) {
  // LMC-OPT: invariant-specific creation. Unmapped states (empty
  // projection — e.g. Paxos states with no chosen value) never participate
  // (§4.2). A violation witnessed by projections is decided by one
  // self-violating state or one conflicting pair, so only those states are
  // pinned; the bystander nodes stay FREE in soundness verification, which
  // parks them on a co-reachable completion (see SoundnessVerifier::verify).
  const std::uint32_t pc = proj_index_.cls[n][idx];
  if (pc == ProjectionIndex::kUnmapped) return;
  const Projection& p = proj_index_.projection(pc);

  auto emit = [&](NodeId m, std::uint32_t j, bool pair) {
    Deferred d;
    d.combo.assign(cfg_.num_nodes, kFreeNode);
    d.combo[n] = idx;
    d.has_mask = true;
    std::uint64_t depth_sum = store_.rec(n, idx).depth;
    if (pair) {
      d.combo[m] = j;
      depth_sum += store_.rec(m, j).depth;
    }
    if (depth_sum > opt_.max_total_depth) return;
    stats_.max_total_depth_reached = std::max<std::uint32_t>(
        stats_.max_total_depth_reached, static_cast<std::uint32_t>(depth_sum));
    ++stats_.system_states;
    ++stats_.invariant_checks;
    prelims.push_back(std::move(d));
  };

  if (invariant_->projection_self_violates(p)) {
    emit(/*m=*/0, /*j=*/0, /*pair=*/false);
    return;
  }

  // Projection-class scan, inline on the applier: each class of every other
  // node is tested once, and the members of the hit classes are emitted in
  // scan order — node ascending, then state index ascending — so the hit
  // classes of one node are merged.
  std::vector<std::pair<NodeId, std::uint32_t>> hits;
  for (NodeId m = 0; m < cfg_.num_nodes; ++m) {
    if (m == n) continue;
    const std::size_t first = hits.size();
    for (const auto& [c, states] : proj_index_.members[m]) {
      if ((++combo_probe_ & 0xff) == 0 && hard_budget_exceeded()) {
        stats_.completed = false;
        stop_ = true;
        return;
      }
      const Projection& q = proj_index_.projection(c);
      if (!invariant_->projections_conflict(p, q) && !invariant_->projection_self_violates(q))
        continue;
      const std::size_t mid = hits.size();
      for (std::uint32_t j : states) hits.emplace_back(m, j);
      std::inplace_merge(hits.begin() + static_cast<std::ptrdiff_t>(first),
                         hits.begin() + static_cast<std::ptrdiff_t>(mid), hits.end());
    }
  }
  for (const auto& [m, j] : hits) emit(m, j, /*pair=*/true);
}

bool LocalModelChecker::sym_consider(std::vector<std::uint32_t>& combo,
                                     const std::vector<std::vector<std::uint32_t>>& counts,
                                     SymSweepCtx& ctx) {
  // Same budget-probe discipline as the unreduced sweeps.
  if ((++combo_probe_ & 0xff) == 0 && hard_budget_exceeded()) {
    stats_.completed = false;
    stop_ = true;
    return false;
  }
  const auto& classes = canon_->classes();
  std::vector<std::pair<NodeId, Hash64>> fixed;
  fixed.reserve(canon_->free_nodes().size());
  for (NodeId m : canon_->free_nodes()) fixed.emplace_back(m, store_.rec(m, combo[m]).hash);
  const Hash64 key = canon_->orbit_key(fixed, counts);
  if (canon_->seen_or_mark(key)) {
    ++stats_.sym.orbit_hits;
    return true;
  }
  if (ctx.cap == 0) {
    if (!ctx.cap_noted) {
      ++stats_.combo_truncated;
      ctx.cap_noted = true;
    }
    return false;
  }
  --ctx.cap;
  ++stats_.system_states;  // counts ORBITS while the reduction is active
  ++stats_.invariant_checks;
  ++stats_.sym.orbits;
  stats_.sym.represented = symmetry::sat_add(stats_.sym.represented, canon_->orbit_size(counts));

  // Deterministic representative: lexicographically first perfect
  // assignment per class. The invariant is position-symmetric within each
  // class (activation requirement), so the representative's verdict is the
  // whole orbit's verdict.
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const std::vector<std::size_t> pick = canon_->first_assignment(c, counts[c]);
    for (std::size_t p = 0; p < pick.size(); ++p) {
      const NodeId m = classes[c][p];
      combo[m] = store_.find(m, canon_->universe(c).entries()[pick[p]].hash);
    }
  }
  std::uint64_t depth_sum = 0;
  for (NodeId i = 0; i < cfg_.num_nodes; ++i) depth_sum += store_.rec(i, combo[i]).depth;
  stats_.max_total_depth_reached = std::max<std::uint32_t>(
      stats_.max_total_depth_reached, static_cast<std::uint32_t>(depth_sum));
  if (!combo_violates(combo)) return true;

  // Always-defer: a mid-run quick verdict on one arrangement would be both
  // provisional (the store is still growing) and arrangement-sensitive; the
  // phase-2 drain expands the whole orbit against the frozen store instead.
  ++stats_.prelim_violations;
  if (opt_.enable_soundness) {
    if (deferred_.size() < kMaxDeferred) {
      Deferred d;
      d.combo = combo;
      d.sym = true;
      deferred_.push_back(std::move(d));
      ++stats_.soundness_deferred;
      ++stats_.sym.orbit_defers;
    } else {
      ++stats_.deferred_dropped;
    }
  }
  return true;
}

void LocalModelChecker::sweep_sym(NodeId n, std::uint32_t idx) {
  // Canonical counterpart of sweep_gen: cross every realizable multiset of
  // each class universe with the full store product over non-class nodes,
  // forcing the new state (n, idx) into its own dimension. Runs inline on
  // the applier: the orbit seen-set already de-duplicates across arrivals,
  // and a single writer keeps it deterministic at any thread count.
  const auto& classes = canon_->classes();
  const auto& free_nodes = canon_->free_nodes();
  const std::int32_t nc = canon_->class_of(n);
  std::ptrdiff_t forced = -1;
  if (nc >= 0) {
    const std::size_t e =
        canon_->universe(static_cast<std::size_t>(nc)).find(store_.rec(n, idx).hash);
    forced = static_cast<std::ptrdiff_t>(e);
  }

  std::vector<std::vector<std::uint32_t>> counts(classes.size());
  std::vector<std::uint32_t> combo(cfg_.num_nodes, 0);
  SymSweepCtx ctx{opt_.max_system_states_per_step, false};

  auto rec_classes = [&](auto&& self, std::size_t c) -> bool {
    if (c == classes.size()) return sym_consider(combo, counts, ctx);
    const std::ptrdiff_t f = (static_cast<std::int32_t>(c) == nc) ? forced : -1;
    return canon_->for_each_multiset(c, f, [&](const std::vector<std::uint32_t>& cnt) {
      counts[c] = cnt;
      return self(self, c + 1);
    });
  };
  auto rec_free = [&](auto&& self, std::size_t k) -> bool {
    if (k == free_nodes.size()) return rec_classes(rec_classes, 0);
    const NodeId m = free_nodes[k];
    if (m == n) {
      combo[m] = idx;
      return self(self, k + 1);
    }
    const std::uint32_t lim = store_.size(m);
    for (std::uint32_t j = 0; j < lim; ++j) {
      combo[m] = j;
      if (!self(self, k + 1)) return false;
    }
    return true;
  };
  rec_free(rec_free, 0);
}

void LocalModelChecker::refresh_memory_stats() {
  stats_.stored_bytes = std::max(stats_.stored_bytes, live_bytes_);
}

void LocalModelChecker::finalize_stats() {
  stats_.dup_msgs_suppressed = net_.suppressed();
  stats_.messages_in_iplus = net_.size();
  refresh_memory_stats();
  stats_.elapsed_s = base_elapsed_s_ + (now_s() - run_t0_);
}

// Cooperative safepoint: called after every applied task, not just between
// generations, so `checkpoint_every_s` is honored even while a generation
// of slow handlers is in flight. The generation's unapplied tasks (whose
// cursors already advanced at publish time) are materialized as `pending`
// for the image — exactly what a budget stop serializes — and a resume
// re-executes them in publication order.
void LocalModelChecker::maybe_auto_checkpoint(std::span<const Task> unapplied) {
  if (opt_.checkpoint_every_s <= 0.0 || opt_.checkpoint_path.empty() || stop_) return;
  const double now = now_s();
  if (now - last_checkpoint_s_ < opt_.checkpoint_every_s) return;
  last_checkpoint_s_ = now;
  pending_tasks_.assign(unapplied.begin(), unapplied.end());
  ++stats_.checkpoints_written;  // before encoding: the file must carry it
  finalize_stats();
  bool ok = true;
  try {
    save_checkpoint(opt_.checkpoint_path);
  } catch (const std::exception&) {
    // A failed write must not poison the run (or the stat it pre-counted):
    // roll the counter back, record the failure, keep exploring. The next
    // interval retries with a fresh image.
    --stats_.checkpoints_written;
    ++stats_.checkpoint_failures;
    ok = false;
  }
  pending_tasks_.clear();  // the live generation still owns them
  LMC_TRACE(opt_.trace, record(tev(EventType::kCheckpointSave, obs::Phase::kCheckpoint,
                                   cur_round_, ok ? 1 : 0, stats_.checkpoints_written, 0,
                                   now_s() - now)));
}

// Apply one generation of tasks in publication order. With one lane each
// task executes right before it is applied. With more, the pool executes
// kPhase1Chunk tasks at a time into per-task slots, and the applier then
// applies them in order; nothing writes the store or I+ while a chunk
// executes, so every lane reads quiescent tables. Every checker-state
// mutation, stop decision and trace event happens on the applier in an
// order independent of thread count. Budget stops happen between tasks
// ONLY: the unapplied tail (whose cursors already advanced at publish time)
// is captured in pending_tasks_ even when a lane already executed part of
// it, so a checkpoint taken after the stop resumes by re-executing exactly
// those tasks, in order — the resumed exploration is indistinguishable from
// an uninterrupted one. A confirmed-violation stop (stop_on_confirmed)
// drops the remaining executions of its own task, matching the historical
// semantics.
void LocalModelChecker::apply_generation(const std::vector<Task>& tasks) {
  ++cur_round_;
  LMC_TRACE(opt_.trace, record(tev(EventType::kRoundBegin, obs::Phase::kRun, cur_round_,
                                   tasks.size(), 0, 0)));
  const double t0 = now_s();
  const std::size_t chunk = pool_width() > 1 ? kPhase1Chunk : 1;
  std::vector<std::vector<Exec>> execs(std::min(chunk, tasks.size()));
  std::vector<std::exception_ptr> errors(execs.size());
  for (std::size_t begin = 0; begin < tasks.size() && !stop_; begin += chunk) {
    const std::size_t n = std::min(chunk, tasks.size() - begin);
    pool_run(n, [&](std::size_t i) {
      try {
        execs[i] = execute_task(tasks[begin + i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
    for (std::size_t i = 0; i < n && !stop_; ++i) {
      if (errors[i]) {
        // A handler exception aborts the run at its publication position.
        // Later tasks of the chunk may hold further exceptions that will
        // never be rethrown — count and trace them instead of losing them.
        std::uint64_t others = 0;
        for (std::size_t j = i + 1; j < n; ++j) others += errors[j] != nullptr ? 1 : 0;
        if (others > 0) {
          handler_errors_dropped_ += others;
          LMC_TRACE(opt_.trace, record(tev(EventType::kWorkerError, obs::Phase::kRun,
                                           cur_round_, others, /*source=*/0, 0)));
        }
        std::rethrow_exception(errors[i]);
      }
      const std::size_t seq = begin + i;
      for (Exec& e : execs[i]) {
        if (stop_) break;
        apply_exec(e, seq);
      }
      execs[i].clear();
      if (!stop_ && budget_exceeded()) {
        stats_.completed = false;
        stop_ = true;
      }
      const auto unapplied = std::span<const Task>(tasks).subspan(seq + 1);
      if (stop_)
        pending_tasks_.assign(unapplied.begin(), unapplied.end());
      else
        maybe_auto_checkpoint(unapplied);  // cooperative safepoint (slow-handler fix)
    }
  }
  refresh_memory_stats();
  LMC_TRACE(opt_.trace, record(tev(EventType::kRoundEnd, obs::Phase::kRun, cur_round_,
                                   tasks.size(), stats_.node_states, net_.size(),
                                   now_s() - t0)));
}

// Phase 1: publish a generation, apply it, repeat until the fixpoint or a
// stop; then phase 2 drains the deferred soundness checks.
void LocalModelChecker::explore_stream() {
  last_checkpoint_s_ = now_s();
  stats_.completed = true;

  auto run_end_ev = [&] {
    LMC_TRACE(opt_.trace, record(tev(EventType::kRunEnd, obs::Phase::kRun, cur_round_,
                                     stats_.transitions, stats_.confirmed_violations,
                                     stats_.completed ? 1 : 0, stats_.elapsed_s)));
    LMC_PROF(opt_.profile, add_run(stats_, opt_.num_threads));
  };

  // A run that starts already over budget (e.g. resumed from a checkpoint
  // whose recorded elapsed time exceeds the budget) does no work at all:
  // pending tasks stay pending for the next resume.
  if (budget_exceeded()) {
    stats_.completed = false;
    finalize_stats();
    run_end_ev();
    return;
  }

  // Resume path: finish the generation that was interrupted (its cursors
  // had already advanced past these tasks when the checkpoint was taken).
  if (!pending_tasks_.empty() && !stop_) {
    const std::vector<Task> pend = std::move(pending_tasks_);
    pending_tasks_.clear();
    apply_generation(pend);
  }

  while (!stop_) {
    if (budget_exceeded()) {
      stats_.completed = false;
      break;
    }
    const std::vector<Task> tasks = publish_round();
    // Fixpoint: exploration exhausted — but deferred POR pairs still count
    // as pending work (the next generation decides them without deferring).
    if (tasks.empty() && por_deferred_.empty()) break;
    apply_generation(tasks);
    maybe_auto_checkpoint({});
  }
  // Phase 2: re-verify the combinations the quick pass could not decide.
  if (!stop_) process_deferred();
  engine_.reset();  // the segment's verifications are over: free the closures
  if (stop_ && !violations_.empty()) stats_.completed = false;
  finalize_stats();
  run_end_ev();
}

void LocalModelChecker::run(const std::vector<Blob>& nodes,
                            const std::vector<Message>& in_flight) {
  run_t0_ = now_s();
  deadline_ = run_t0_ + opt_.time_budget_s;
  segment_id_ = 0;  // a fresh run starts trace segment 0
  LMC_TRACE(opt_.trace, record(tev(EventType::kRunBegin, obs::Phase::kRun, 0, /*mode=*/0, 0,
                                   opt_.num_threads, 0.0, TraceEvent::kNoNode, segment_id_)));
  init_run(nodes, in_flight);
  check_snapshot_combination();
  explore_stream();
}

void LocalModelChecker::run_from_initial() { run(initial_states(cfg_), {}); }

void LocalModelChecker::run_resumed(const std::string& path) {
  load_checkpoint(path);
  run_t0_ = now_s();
  // Whatever wall clock the interrupted run already consumed counts against
  // the budget (inf - x == inf keeps unbounded runs unbounded).
  deadline_ = run_t0_ + (opt_.time_budget_s - base_elapsed_s_);
  // This process's trace is a NEW segment of the checkpointed run: bump the
  // segment id (the checkpoint stores the id of the segment that wrote it)
  // and continue round numbering from the checkpoint's round.
  ++segment_id_;
  LMC_TRACE(opt_.trace, record(tev(EventType::kRunBegin, obs::Phase::kRun, cur_round_,
                                   /*mode=*/2, stats_.transitions, opt_.num_threads, 0.0,
                                   TraceEvent::kNoNode, segment_id_)));
  explore_stream();
}

// --- persistence -----------------------------------------------------------

CheckerImage LocalModelChecker::make_image() const {
  CheckerImage img;
  img.num_nodes = cfg_.num_nodes;
  img.store = store_;
  img.net_entries = net_.snapshot_entries();
  img.net_suppressed = net_.suppressed();
  img.segment_id = segment_id_;
  img.base_round = cur_round_;
  img.events = events_;
  img.start = start_;
  img.node_gens.resize(cfg_.num_nodes);
  for (NodeId n = 0; n < cfg_.num_nodes; ++n) {
    img.node_gens[n].assign(node_gens_[n].begin(), node_gens_[n].end());
    std::sort(img.node_gens[n].begin(), img.node_gens[n].end());
  }
  img.internal_scan = internal_scan_;
  img.stats = stats_;
  img.deferred.reserve(deferred_.size());
  for (const Deferred& d : deferred_) {
    DeferredCombo dc;
    dc.combo = d.combo;
    if (d.has_mask) {
      dc.fixed.resize(d.combo.size());
      for (std::size_t k = 0; k < d.combo.size(); ++k) {
        dc.fixed[k] = d.combo[k] != kFreeNode ? 1 : 0;
        if (d.combo[k] == kFreeNode) dc.combo[k] = 0;
      }
    }
    dc.has_mask = d.has_mask;
    dc.sym = d.sym;
    img.deferred.push_back(std::move(dc));
  }
  if (canon_ != nullptr) {
    img.has_symmetry = true;
    img.sym_seen = canon_->seen_sorted();
  }
  if (por_rel_ != nullptr) {
    img.has_por = true;
    img.por_digest = por_rel_->digest();
    // Only kNoop/kDiscard/kPruned outcomes are serialized: kSucc/kLoopSends
    // are rebuilt from preds/self_loops on load. Sorted for canonical bytes.
    img.por_entries.resize(cfg_.num_nodes);
    for (NodeId n = 0; n < cfg_.num_nodes; ++n) {
      for (const auto& [k, r] : por_fwd_[n]) {
        std::uint8_t code = 0;
        switch (r.outcome) {
          case FwdOutcome::kNoop: code = 0; break;
          case FwdOutcome::kDiscard: code = 1; break;
          case FwdOutcome::kPruned: code = 2; break;
          default: continue;
        }
        img.por_entries[n].push_back(PorFwdEntry{k.pred_idx, k.ev_hash, code});
      }
      std::sort(img.por_entries[n].begin(), img.por_entries[n].end(),
                [](const PorFwdEntry& a, const PorFwdEntry& b) {
                  return std::tie(a.pred_idx, a.ev_hash) < std::tie(b.pred_idx, b.ev_hash);
                });
    }
    img.por_deferred.reserve(por_deferred_.size());
    for (const Task& t : por_deferred_)
      img.por_deferred.push_back(PendingTask{true, t.net_idx, t.node, t.state_idx});
  }
  img.violations = violations_;
  img.pending.reserve(pending_tasks_.size());
  for (const Task& t : pending_tasks_)
    img.pending.push_back(PendingTask{t.is_message, t.net_idx, t.node, t.state_idx});
  return img;
}

Blob LocalModelChecker::checkpoint_bytes() const { return encode_checkpoint(make_image()); }

void LocalModelChecker::save_checkpoint(const std::string& path) const {
  write_checkpoint_file(path, checkpoint_bytes());
}

void LocalModelChecker::load_checkpoint_bytes(const Blob& data) {
  CheckerImage img = decode_checkpoint(data);
  if (img.num_nodes != cfg_.num_nodes)
    throw CheckpointError("checkpoint: node count mismatch (file " +
                          std::to_string(img.num_nodes) + ", config " +
                          std::to_string(cfg_.num_nodes) + ")");

  store_ = std::move(img.store);
  net_ = MonotonicNetwork::restore(std::move(img.net_entries), img.net_suppressed);
  // One walk starts the running footprint. Decoded vectors can be smaller
  // than the written ones, so the file's stored_bytes stays its floor.
  live_bytes_ = store_.bytes() + net_.bytes();
  events_ = std::move(img.events);
  start_ = std::move(img.start);
  internal_scan_ = std::move(img.internal_scan);
  node_gens_.assign(cfg_.num_nodes, {});
  for (NodeId n = 0; n < cfg_.num_nodes; ++n)
    node_gens_[n].insert(img.node_gens[n].begin(), img.node_gens[n].end());
  stats_ = img.stats;
  deferred_.clear();
  deferred_.reserve(img.deferred.size());
  for (const DeferredCombo& dc : img.deferred) {
    Deferred d;
    d.combo = dc.combo;
    d.has_mask = dc.has_mask;
    d.sym = dc.sym;
    if (d.has_mask)
      for (std::size_t k = 0; k < dc.fixed.size(); ++k)
        if (dc.fixed[k] == 0) d.combo[k] = kFreeNode;
    deferred_.push_back(std::move(d));
  }
  violations_ = std::move(img.violations);
  pending_tasks_.clear();
  pending_tasks_.reserve(img.pending.size());
  for (const PendingTask& t : img.pending)
    pending_tasks_.push_back(
        Task{t.is_message, static_cast<std::size_t>(t.net_idx), t.node, t.state_idx});

  // The projection index and the pred-edge counts are derived state —
  // rebuild them from the store under this checker's options (the
  // checkpoint stays invariant-agnostic). Every recorded pred and
  // self-loop is one counted edge.
  proj_index_.reset(cfg_.num_nodes);
  pred_edges_.assign(cfg_.num_nodes, 0);
  for (NodeId n = 0; n < cfg_.num_nodes; ++n)
    for (std::uint32_t i = 0; i < store_.size(n); ++i) {
      index_state(n, i);
      const NodeStateRec& r = store_.rec(n, i);
      pred_edges_[n] += r.preds.size() + r.self_loops.size();
    }
  // Re-resolve the reduction against the restored store, then restore the
  // orbit seen-set so already-counted orbits are not re-processed. Options
  // must agree with the writing run: a symmetry-mode mismatch would splice
  // two incompatible enumeration disciplines into one exploration.
  resolve_symmetry();
  if ((canon_ != nullptr) != img.has_symmetry)
    throw CheckpointError("checkpoint symmetry mode mismatch (file " +
                          std::string(img.has_symmetry ? "on" : "off") + ", options resolve to " +
                          std::string(canon_ != nullptr ? "on" : "off") + ")");
  if (canon_ != nullptr) canon_->restore_seen(img.sym_seen);
  // Re-resolve the reduction, then rebuild the forward map: kSucc from pred
  // edges, kLoopSends from self-loops, and the persisted kNoop/kDiscard/
  // kPruned entries (section 14) on top — the result is byte-for-byte the
  // map the writing run held, so resumed prune decisions replay identically. Mode
  // and relation digest must agree with the writer for the same reason a
  // symmetry mismatch throws: splicing differently-pruned explorations is
  // not the run the checkpoint describes.
  resolve_por();
  if ((por_rel_ != nullptr) != img.has_por)
    throw CheckpointError("checkpoint por mode mismatch (file " +
                          std::string(img.has_por ? "on" : "off") + ", options resolve to " +
                          std::string(por_rel_ != nullptr ? "on" : "off") + ")");
  por_fwd_.assign(cfg_.num_nodes, {});
  por_deferred_.clear();
  por_audit_ctr_ = 0;
  if (por_rel_ != nullptr) {
    if (img.por_digest != por_rel_->digest())
      throw CheckpointError("checkpoint por relation digest mismatch: the file was written "
                            "with different handler footprints");
    for (NodeId n = 0; n < cfg_.num_nodes; ++n) {
      const std::uint32_t count = store_.size(n);
      for (std::uint32_t i = 0; i < count; ++i) {
        const NodeStateRec& r = store_.rec(n, i);
        for (const Pred& p : r.preds)
          if (p.is_message) record_fwd(n, p.pred_idx, p.ev_hash, FwdOutcome::kSucc, i);
        for (const Pred& p : r.self_loops)
          if (p.is_message) record_fwd(n, p.pred_idx, p.ev_hash, FwdOutcome::kLoopSends, 0);
      }
      if (n < img.por_entries.size())
        for (const PorFwdEntry& pe : img.por_entries[n])
          record_fwd(n, pe.pred_idx, pe.ev_hash,
                     pe.outcome == 2   ? FwdOutcome::kPruned
                     : pe.outcome == 1 ? FwdOutcome::kDiscard
                                       : FwdOutcome::kNoop,
                     0);
    }
    por_deferred_.reserve(img.por_deferred.size());
    for (const PendingTask& t : img.por_deferred)
      por_deferred_.push_back(
          Task{true, static_cast<std::size_t>(t.net_idx), t.node, t.state_idx});
  }
  // The resolves above reset the reduction stats; the file's are the run's.
  stats_.sym = img.stats.sym;
  stats_.por = img.stats.por;
  engine_.reset();
  combo_probe_ = 0;
  // Trace continuity across resumes: rounds continue from the checkpoint's
  // counter, and the segment id is restored as-is (run_resumed bumps it for
  // the NEW segment; a bare load must round-trip byte-identically).
  cur_round_ = img.base_round;
  segment_id_ = img.segment_id;
  stop_ = false;
  base_elapsed_s_ = stats_.elapsed_s;
}

void LocalModelChecker::load_checkpoint(const std::string& path) {
  load_checkpoint_bytes(read_checkpoint_file(path));
}

}  // namespace lmc
