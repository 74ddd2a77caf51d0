#include "mc/soundness.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace lmc {

SoundnessVerifier::SoundnessVerifier(const LocalStore& store,
                                     std::vector<Hash64> initial_in_flight, SoundnessOptions opt)
    : store_(store), initial_in_flight_(std::move(initial_in_flight)), opt_(opt) {}

namespace {

/// One forward transition inside a node's relevant sub-DAG.
struct FwdEdge {
  std::uint32_t to = 0;
  bool is_message = false;
  Hash64 ev_hash = 0;
  const std::vector<Hash64>* gen = nullptr;
  bool self_loop = false;
};

struct SubGraph {
  // Forward adjacency restricted to states on some path to the target
  // (fixed nodes) or the whole traversed graph (free nodes). After pruning,
  // `states` of a fixed node holds exactly the states that still reach the
  // target — the search can only succeed if every fixed root is in it.
  std::unordered_map<std::uint32_t, std::vector<FwdEdge>> out;
  std::unordered_set<std::uint32_t> states;
  std::uint32_t target = 0;
  bool fixed = true;  ///< must end exactly on `target`
};

/// Backward closure of `target` over predecessor pointers, then the forward
/// edges among those states (plus recorded self-loops).
SubGraph build_subgraph(const LocalStore& store, NodeId n, std::uint32_t target) {
  SubGraph g;
  g.target = target;
  std::vector<std::uint32_t> work{target};
  g.states.insert(target);
  while (!work.empty()) {
    std::uint32_t s = work.back();
    work.pop_back();
    for (const Pred& p : store.rec(n, s).preds)
      if (g.states.insert(p.pred_idx).second) work.push_back(p.pred_idx);
  }
  for (std::uint32_t s : g.states) {
    const NodeStateRec& rec = store.rec(n, s);
    for (const Pred& p : rec.preds)
      if (g.states.count(p.pred_idx))
        g.out[p.pred_idx].push_back(FwdEdge{s, p.is_message, p.ev_hash, &p.gen, false});
    for (const Pred& sl : rec.self_loops)
      g.out[s].push_back(FwdEdge{s, sl.is_message, sl.ev_hash, &sl.gen, true});
  }
  return g;
}

/// The entire traversed graph of node n — used for free (unconstrained)
/// nodes, which may end anywhere.
SubGraph build_full_graph(const LocalStore& store, NodeId n) {
  SubGraph g;
  g.fixed = false;
  for (std::uint32_t s = 0; s < store.size(n); ++s) {
    g.states.insert(s);
    const NodeStateRec& rec = store.rec(n, s);
    for (const Pred& p : rec.preds)
      g.out[p.pred_idx].push_back(FwdEdge{s, p.is_message, p.ev_hash, &p.gen, false});
    for (const Pred& sl : rec.self_loops)
      g.out[s].push_back(FwdEdge{s, sl.is_message, sl.ev_hash, &sl.gen, true});
  }
  return g;
}

/// Drop message edges whose hash nothing can generate, then drop states
/// that can no longer reach the target; iterate to a fixpoint.
void prune_subgraphs(std::vector<SubGraph>& graphs, const std::vector<Hash64>& initial) {
  bool changed = true;
  while (changed) {
    changed = false;
    std::unordered_set<Hash64> available(initial.begin(), initial.end());
    for (const SubGraph& g : graphs)
      for (const auto& [src, edges] : g.out)
        for (const FwdEdge& e : edges)
          for (Hash64 h : *e.gen) available.insert(h);

    for (SubGraph& g : graphs) {
      // Remove unavailable message edges.
      for (auto& [src, edges] : g.out) {
        auto it = std::remove_if(edges.begin(), edges.end(), [&](const FwdEdge& e) {
          return e.is_message && !available.count(e.ev_hash);
        });
        if (it != edges.end()) {
          edges.erase(it, edges.end());
          changed = true;
        }
      }
      if (!g.fixed) continue;  // free nodes may end anywhere: no target pruning
      // Keep only states that can still reach the target (backward BFS over
      // the surviving forward edges).
      std::unordered_set<std::uint32_t> reaches{g.target};
      bool grew = true;
      while (grew) {
        grew = false;
        for (const auto& [src, edges] : g.out) {
          if (reaches.count(src)) continue;
          for (const FwdEdge& e : edges)
            if (!e.self_loop && reaches.count(e.to)) {
              reaches.insert(src);
              grew = true;
              break;
            }
        }
      }
      for (auto it = g.out.begin(); it != g.out.end();) {
        if (!reaches.count(it->first)) {
          it = g.out.erase(it);
          changed = true;
          continue;
        }
        auto& edges = it->second;
        auto drop = std::remove_if(edges.begin(), edges.end(), [&](const FwdEdge& e) {
          return !e.self_loop && !reaches.count(e.to);
        });
        if (drop != edges.end()) {
          edges.erase(drop, edges.end());
          changed = true;
        }
        ++it;
      }
      g.states = std::move(reaches);
    }
  }
}

/// Joint DFS over (positions, net multiset). Returns true and fills
/// `schedule` when every node parks on its target.
class JointSearch {
 public:
  JointSearch(const std::vector<SubGraph>& graphs, const std::vector<Hash64>& initial,
              std::uint64_t max_expansions)
      : graphs_(graphs), max_expansions_(max_expansions) {
    for (Hash64 h : initial) ++net_[h];
  }

  bool run(Schedule* schedule) {
    pos_.assign(graphs_.size(), 0);  // every node starts on its snapshot state LS_n[0]
    return dfs(schedule);
  }

  std::uint64_t expansions() const { return expansions_; }
  bool truncated() const { return truncated_; }

 private:
  Hash64 joint_hash() const {
    Hash64 h = 0x51ed270b9a3bULL;
    for (std::uint32_t p : pos_) h = hash_combine(h, p);
    Hash64 nh = 0;
    for (const auto& [k, c] : net_)
      if (c != 0) nh = hash_combine_unordered(nh, hash_combine(k, c));
    return hash_combine(h, nh);
  }

  bool at_goal() const {
    for (std::size_t n = 0; n < graphs_.size(); ++n)
      if (graphs_[n].fixed && pos_[n] != graphs_[n].target) return false;
    return true;
  }

 public:
  const std::vector<std::uint32_t>& positions() const { return pos_; }

 private:

  bool dfs(Schedule* schedule) {
    if (at_goal()) return true;
    if (expansions_ >= max_expansions_) {
      truncated_ = true;
      return false;
    }
    if (!visited_.insert(joint_hash()).second) return false;
    ++expansions_;

    for (std::size_t n = 0; n < graphs_.size(); ++n) {
      auto it = graphs_[n].out.find(pos_[n]);
      if (it == graphs_[n].out.end()) continue;
      for (const FwdEdge& e : it->second) {
        if (e.is_message) {
          auto nit = net_.find(e.ev_hash);
          if (nit == net_.end() || nit->second == 0) continue;
        }
        if (e.self_loop) {
          // Fire only when it contributes a message we do not have yet;
          // bounds re-firing without tracking per-path state.
          bool contributes = false;
          for (Hash64 g : *e.gen)
            if (net_[g] == 0) contributes = true;
          if (!contributes) continue;
        }
        // Apply.
        const std::uint32_t old_pos = pos_[n];
        if (e.is_message) --net_[e.ev_hash];
        for (Hash64 g : *e.gen) ++net_[g];
        pos_[n] = e.to;
        if (schedule != nullptr)
          schedule->push_back({static_cast<NodeId>(n), e.is_message, e.ev_hash});

        if (dfs(schedule)) return true;

        // Undo.
        if (schedule != nullptr) schedule->pop_back();
        pos_[n] = old_pos;
        for (Hash64 g : *e.gen) --net_[g];
        if (e.is_message) ++net_[e.ev_hash];
      }
    }
    return false;
  }

  const std::vector<SubGraph>& graphs_;
  std::uint64_t max_expansions_;
  std::vector<std::uint32_t> pos_;
  std::unordered_map<Hash64, std::uint32_t> net_;
  std::unordered_set<Hash64> visited_;
  std::uint64_t expansions_ = 0;
  bool truncated_ = false;
};

}  // namespace

bool SoundnessVerifier::target_feasible(NodeId n, std::uint32_t target,
                                        const std::unordered_set<Hash64>& other_avail) const {
  if (target == 0) return true;  // target IS the snapshot state
  SubGraph g = build_subgraph(store_, n, target);
  // Prune under maximal help: everything other nodes could ever generate is
  // assumed available, plus what this subgraph's own surviving edges make.
  bool changed = true;
  while (changed) {
    changed = false;
    std::unordered_set<Hash64> avail = other_avail;
    for (Hash64 h : initial_in_flight_) avail.insert(h);
    for (const auto& [src, edges] : g.out)
      for (const FwdEdge& e : edges)
        for (Hash64 h : *e.gen) avail.insert(h);

    for (auto& [src, edges] : g.out) {
      auto it = std::remove_if(edges.begin(), edges.end(), [&](const FwdEdge& e) {
        return e.is_message && !avail.count(e.ev_hash);
      });
      if (it != edges.end()) {
        edges.erase(it, edges.end());
        changed = true;
      }
    }
  }
  // Target still reachable from the snapshot state over surviving edges?
  std::unordered_set<std::uint32_t> reached{0};
  std::vector<std::uint32_t> work{0};
  while (!work.empty()) {
    std::uint32_t s = work.back();
    work.pop_back();
    if (s == target) return true;
    auto it = g.out.find(s);
    if (it == g.out.end()) continue;
    for (const FwdEdge& e : it->second)
      if (!e.self_loop && reached.insert(e.to).second) work.push_back(e.to);
  }
  return reached.count(target) != 0;
}

SoundnessResult SoundnessVerifier::verify(const std::vector<std::uint32_t>& combo,
                                          const std::vector<bool>* fixed) const {
  // Reentrant: all search state (sub-graphs, frontiers, the schedule under
  // construction) lives in locals; the members read here are set once at
  // construction. Concurrent verify() calls — the parallel verification
  // phase — therefore need no locking.
  SoundnessResult res;
  const std::uint32_t n_nodes = store_.num_nodes();

  std::vector<SubGraph> graphs;
  graphs.reserve(n_nodes);
  for (NodeId n = 0; n < n_nodes; ++n) {
    if (fixed == nullptr || (*fixed)[n])
      graphs.push_back(build_subgraph(store_, n, combo[n]));
    else
      graphs.push_back(build_full_graph(store_, n));
  }

  prune_subgraphs(graphs, initial_in_flight_);
  // A fixed node's pruned state set holds exactly the states that still
  // reach the target; a snapshot state outside it provably cannot.
  for (NodeId n = 0; n < n_nodes; ++n)
    if (graphs[n].fixed && graphs[n].states.count(0) == 0) return res;
  if (opt_.max_schedules == 0) {  // no expansion budget at all: inconclusive
    res.truncated = true;
    return res;
  }

  JointSearch search(graphs, initial_in_flight_, opt_.max_schedules);
  Schedule sched;
  const bool found = search.run(&sched);
  res.schedules_checked = search.expansions();
  res.truncated = search.truncated();
  if (found) {
    res.sound = true;
    res.schedule = std::move(sched);
    res.final_combo = search.positions();
  }
  return res;
}

}  // namespace lmc
