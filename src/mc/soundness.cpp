#include "mc/soundness.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <unordered_set>

#include "runtime/hash.hpp"

namespace lmc {

namespace {

constexpr std::uint32_t kNone = UINT32_MAX;

bool test_bit(const std::uint64_t* w, std::size_t i) { return (w[i / 64] >> (i % 64)) & 1; }
void set_bit(std::uint64_t* w, std::size_t i) { w[i / 64] |= std::uint64_t{1} << (i % 64); }
void clear_bit(std::uint64_t* w, std::size_t i) { w[i / 64] &= ~(std::uint64_t{1} << (i % 64)); }
std::size_t words_for(std::size_t bits) { return (bits + 63) / 64; }

// Chunk c of the hash log holds ids [256 * (2^c - 1), 256 * (2^(c+1) - 1)).
unsigned chunk_of(std::uint32_t id) { return std::bit_width((id >> 8) + 1) - 1; }
std::uint32_t chunk_base(unsigned c) { return 256u * ((1u << c) - 1u); }

}  // namespace

/// One node's graph as the joint search sees it: the backward closure of a
/// target (every state on some LS_n[0]-to-target path, with all edges among
/// them and their self-loops), or the whole graph for a free node. States
/// carry local indices; out-edges are in CSR form by source.
struct SoundnessEngine::Closure {
  struct Edge {
    std::uint32_t to = 0;   ///< local index of the successor
    std::uint32_t ev = 0;   ///< event id (the message, for a message edge)
    std::uint32_t gen = 0;  ///< first of its generated ids in `gens`
    std::uint32_t n_gen : 30 = 0;
    std::uint32_t message : 1 = 0;
    std::uint32_t self_loop : 1 = 0;
  };
  std::vector<std::uint32_t> states;     ///< local -> store index
  std::vector<std::uint32_t> out_begin;  ///< per local state: its first out-edge; size + 1
  std::vector<Edge> edges;
  std::vector<std::uint32_t> gens;      ///< generated ids; each edge names a range
  std::vector<std::uint32_t> produced;  ///< distinct ids some edge generates, ascending
  std::vector<std::uint32_t> consumed;  ///< distinct ids some message edge consumes, ascending
  std::uint32_t root = kNone;           ///< local index of LS_n[0]
  std::uint32_t target = kNone;         ///< local index of the target (kNone: full graph)
  std::uint32_t ids_end = 0;            ///< every id named here is below this
  /// Feasibility verdict: 0 = none, else sig << 2 | feasible << 1 | 1, with
  /// sig the other nodes' generated-message count it was computed at.
  mutable std::atomic<std::uint64_t> feas{0};

  /// Set in `bits` every id an alive edge generates.
  void mark_generated(const std::uint64_t* alive, std::uint64_t* bits) const {
    for (std::size_t k = 0; k < edges.size(); ++k)
      if (test_bit(alive, k))
        for (std::uint32_t i = 0; i < edges[k].n_gen; ++i) set_bit(bits, gens[edges[k].gen + i]);
  }
  /// Kill every alive message edge whose message `avail` rejects; true when
  /// one died.
  template <class Avail>
  bool kill_unavailable(std::uint64_t* alive, Avail avail) const {
    bool killed = false;
    for (std::size_t k = 0; k < edges.size(); ++k)
      if (edges[k].message && test_bit(alive, k) && !avail(edges[k].ev)) {
        clear_bit(alive, k);
        killed = true;
      }
    return killed;
  }
};

/// Per-thread buffers of verify() and feasible(). `count` and `bits` are
/// all zero between calls.
struct SoundnessEngine::Buffers {
  struct Part {  ///< one node's share of a verify() call
    const Closure* c = nullptr;
    bool fixed = false;
    bool dirty = false;     ///< prune: an edge died since the last reach pass
    std::uint32_t pos = 0;  ///< DFS position (local index)
    std::size_t alive = 0;  ///< offset of its edge bits in `alive`
  };
  std::vector<Part> parts;
  std::vector<std::uint32_t> count;     ///< per id: net multiset multiplicity
  std::vector<std::uint64_t> bits;      ///< per id: availability
  std::vector<std::uint64_t> alive;     ///< per part: edge bits (empty = every edge alive)
  std::vector<std::uint64_t> reach;     ///< per local state: reaches the target / is reached
  std::vector<std::uint32_t> work;
  std::vector<std::uint32_t> in_begin;  ///< prune: alive in-edges by destination ...
  std::vector<std::uint32_t> in_src;    ///< ... as their sources

  void fit(std::uint32_t ids_end) {
    if (count.size() < ids_end) count.resize(ids_end, 0);
    if (bits.size() < words_for(ids_end)) bits.resize(words_for(ids_end), 0);
  }
};

SoundnessEngine::Buffers& SoundnessEngine::buffers() {
  thread_local Buffers s;
  return s;
}

Hash64 SoundnessEngine::HashLog::operator[](std::uint32_t id) const {
  const unsigned c = chunk_of(id);
  return chunks_[c][id - chunk_base(c)];
}

void SoundnessEngine::HashLog::append(std::uint32_t id, Hash64 h) {
  const unsigned c = chunk_of(id);
  if (!chunks_[c]) chunks_[c] = std::make_unique<Hash64[]>(std::size_t{256} << c);
  chunks_[c][id - chunk_base(c)] = h;
}

SoundnessEngine::SoundnessEngine(const LocalStore& store,
                                 const std::vector<Hash64>& initial_in_flight)
    : store_(store),
      mask_words_(static_cast<std::uint32_t>(words_for(store.num_nodes()))),
      gen_counts_(store.num_nodes(), 0),
      nodes_(store.num_nodes()) {
  for (Hash64 h : initial_in_flight) {
    const std::uint32_t id = id_of(h);
    if (id == flight_count_.size()) flight_count_.push_back(0);
    ++flight_count_[id];
  }
  flight_ids_ = num_ids_;
  for (std::uint32_t id = 0; id < flight_ids_; ++id)
    flight_hash_ += mix64(hash_combine(hashes_[id], flight_count_[id]));
}

SoundnessEngine::~SoundnessEngine() {
  for (NodeCache& nc : nodes_) drop(nc);
}

std::uint32_t SoundnessEngine::id_of(Hash64 h) {
  const std::uint32_t id = ids_.insert_if_absent(h, num_ids_);
  if (id == num_ids_) {
    hashes_.append(id, h);
    ++num_ids_;
    gen_by_.resize(std::size_t{num_ids_} * mask_words_, 0);
  }
  return id;
}

void SoundnessEngine::note_generated(NodeId n, Hash64 h) {
  std::uint64_t& w = gen_by_[std::size_t{id_of(h)} * mask_words_ + n / 64];
  const std::uint64_t bit = std::uint64_t{1} << (n % 64);
  if ((w & bit) != 0) return;
  w |= bit;
  ++gen_counts_[n];
}

void SoundnessEngine::drop(NodeCache& nc) {
  if (!nc.slots) return;
  for (std::size_t i = 0; i <= nc.states; ++i) delete nc.slots[i].load(std::memory_order_relaxed);
  nc.slots.reset();
}

void SoundnessEngine::sync(NodeId n, std::uint64_t edges) {
  NodeCache& nc = nodes_[n];
  const std::uint32_t states = store_.size(n);
  if (nc.slots && nc.states == states && nc.edges == edges) return;
  drop(nc);
  nc.states = states;
  nc.edges = edges;
  nc.slots = std::make_unique<std::atomic<Closure*>[]>(std::size_t{states} + 1);
  for (std::size_t i = 0; i <= states; ++i) nc.slots[i].store(nullptr, std::memory_order_relaxed);
}

const SoundnessEngine::Closure& SoundnessEngine::closure(NodeId n, std::uint32_t target) {
  NodeCache& nc = nodes_[n];
  std::atomic<Closure*>& slot = nc.slots[target == kFreeNode ? nc.states : target];
  if (const Closure* c = slot.load(std::memory_order_acquire)) return *c;
  std::lock_guard<std::mutex> lk(build_mu_);
  Closure* c = slot.load(std::memory_order_relaxed);
  if (c == nullptr) {
    c = build(n, target);
    slot.store(c, std::memory_order_release);
  }
  return *c;
}

SoundnessEngine::Closure* SoundnessEngine::build(NodeId n, std::uint32_t target) {
  auto c = std::make_unique<Closure>();
  if (target == kFreeNode) {
    c->states.resize(store_.size(n));
    std::iota(c->states.begin(), c->states.end(), 0u);
  } else {
    // The backward closure of the target. Its states' out-edges are
    // recorded in this set's iteration order, which is the order the joint
    // search tries them in and so decides the witness found, where free
    // nodes park and whether a quick pass succeeds within its cap: build
    // the set exactly this way and iterate it once.
    std::unordered_set<std::uint32_t> states;
    std::vector<std::uint32_t> work{target};
    states.insert(target);
    while (!work.empty()) {
      const std::uint32_t s = work.back();
      work.pop_back();
      for (const Pred& p : store_.rec(n, s).preds)
        if (states.insert(p.pred_idx).second) work.push_back(p.pred_idx);
    }
    c->states.assign(states.begin(), states.end());
  }
  const auto size = static_cast<std::uint32_t>(c->states.size());
  if (local_of_.size() < store_.size(n)) local_of_.resize(store_.size(n), kNone);
  for (std::uint32_t l = 0; l < size; ++l) local_of_[c->states[l]] = l;

  // Edges in destination order (each state's preds, then its self-loops),
  // then counting-sorted by source, which keeps each source's edges in
  // recording order.
  struct Raw {
    std::uint32_t src;
    Closure::Edge e;
  };
  std::vector<Raw> raw;
  std::vector<std::uint32_t> gens;
  auto add = [&](std::uint32_t src, std::uint32_t to, const Pred& p, bool self_loop) {
    Closure::Edge e;
    e.to = to;
    e.ev = id_of(p.ev_hash);
    e.gen = static_cast<std::uint32_t>(gens.size());
    e.n_gen = static_cast<std::uint32_t>(p.gen.size());
    e.message = p.is_message ? 1 : 0;
    e.self_loop = self_loop ? 1 : 0;
    for (Hash64 g : p.gen) gens.push_back(id_of(g));
    raw.push_back(Raw{src, e});
  };
  for (std::uint32_t l = 0; l < size; ++l) {  // every pred of a member is a member
    const NodeStateRec& rec = store_.rec(n, c->states[l]);
    for (const Pred& p : rec.preds) add(local_of_[p.pred_idx], l, p, false);
    for (const Pred& sl : rec.self_loops) add(l, l, sl, true);
  }
  c->out_begin.assign(std::size_t{size} + 1, 0);
  for (const Raw& r : raw) ++c->out_begin[r.src + 1];
  std::partial_sum(c->out_begin.begin(), c->out_begin.end(), c->out_begin.begin());
  std::vector<std::uint32_t> cursor(c->out_begin.begin(), c->out_begin.end() - 1);
  c->edges.resize(raw.size());
  for (const Raw& r : raw) c->edges[cursor[r.src]++] = r.e;
  c->gens.assign(gens.begin(), gens.end());
  std::vector<std::uint32_t> ids = gens;
  std::sort(ids.begin(), ids.end());
  c->produced.assign(ids.begin(), std::unique(ids.begin(), ids.end()));
  ids.clear();
  for (const Closure::Edge& e : c->edges)
    if (e.message) ids.push_back(e.ev);
  std::sort(ids.begin(), ids.end());
  c->consumed.assign(ids.begin(), std::unique(ids.begin(), ids.end()));
  c->root = local_of_[0];
  if (target != kFreeNode) c->target = local_of_[target];
  c->ids_end = num_ids_;
  for (std::uint32_t s : c->states) local_of_[s] = kNone;
  return c.release();
}

std::uint64_t SoundnessEngine::others_generated(NodeId n) const {
  std::uint64_t sum = 0;
  for (NodeId m = 0; m < gen_counts_.size(); ++m)
    if (m != n) sum += gen_counts_[m];
  return sum;
}

bool SoundnessEngine::feasible(NodeId n, std::uint32_t target) {
  if (target == 0) return true;  // the target IS the snapshot state
  const std::uint64_t sig = others_generated(n);
  const Closure& c = closure(n, target);
  auto cached = [&](std::uint64_t v) { return v != 0 && ((v & 2) != 0 || (v >> 2) == sig); };
  std::uint64_t v = c.feas.load(std::memory_order_acquire);
  if (cached(v)) return (v & 2) != 0;
  std::lock_guard<std::mutex> lk(build_mu_);
  v = c.feas.load(std::memory_order_relaxed);
  if (cached(v)) return (v & 2) != 0;
  const bool ok = compute_feasible(n, c);
  c.feas.store(sig << 2 | (ok ? 2 : 0) | 1, std::memory_order_release);
  return ok;
}

bool SoundnessEngine::compute_feasible(NodeId n, const Closure& c) const {
  if (c.root == kNone) return false;
  // Maximal help: a message is available when it was in flight, another
  // node ever generated it, or a surviving edge of this closure does.
  auto external = [&](std::uint32_t id) {
    if (id < flight_ids_) return true;
    const std::uint64_t* w = &gen_by_[std::size_t{id} * mask_words_];
    for (std::uint32_t k = 0; k < mask_words_; ++k) {
      std::uint64_t m = w[k];
      if (k == n / 64) m &= ~(std::uint64_t{1} << (n % 64));
      if (m != 0) return true;
    }
    return false;
  };
  Buffers& buf = buffers();
  buf.fit(c.ids_end);
  buf.alive.assign(words_for(c.edges.size()), ~std::uint64_t{0});
  std::uint64_t* alive = buf.alive.data();
  std::uint64_t* bits = buf.bits.data();
  for (bool changed = true; changed;) {
    c.mark_generated(alive, bits);
    changed = c.kill_unavailable(alive, [&](std::uint32_t id) {
      return test_bit(bits, id) || external(id);
    });
    for (std::uint32_t id : c.produced) clear_bit(bits, id);
  }
  // Is the target still reachable from LS_n[0] over surviving edges?
  buf.reach.assign(words_for(c.states.size()), 0);
  buf.work.assign(1, c.root);
  set_bit(buf.reach.data(), c.root);
  while (!buf.work.empty()) {
    const std::uint32_t u = buf.work.back();
    buf.work.pop_back();
    for (std::uint32_t k = c.out_begin[u]; k < c.out_begin[u + 1]; ++k) {
      const Closure::Edge& e = c.edges[k];
      if (e.self_loop || !test_bit(alive, k) || test_bit(buf.reach.data(), e.to)) continue;
      set_bit(buf.reach.data(), e.to);
      buf.work.push_back(e.to);
    }
  }
  return test_bit(buf.reach.data(), c.target);
}

void SoundnessEngine::prepare(const std::vector<std::uint32_t>& combo) {
  for (NodeId n = 0; n < nodes_.size(); ++n) closure(n, combo[n]);
}

/// The availability prune and the joint DFS of one verify() call.
class SoundnessEngine::Search {
 public:
  Search(const SoundnessEngine& eng, Buffers& buf, std::uint64_t max_expansions)
      : eng_(eng), buf_(buf), parts_(buf.parts), max_(max_expansions) {}

  /// Drop message edges whose message nothing available can generate, and
  /// in fixed parts the states that can no longer reach the target, to a
  /// fixpoint. False when a fixed part's LS_n[0] drops out.
  bool prune() {
    const std::uint32_t flight = eng_.flight_ids_;
    std::uint64_t* bits = buf_.bits.data();
    auto avail = [&](std::uint32_t id) { return id < flight || test_bit(bits, id); };
    // Fast exit: nothing dies when every consumed id is generated by some
    // part or in flight (then every closure state reaches its target).
    for (const Buffers::Part& p : parts_)
      for (std::uint32_t id : p.c->produced) set_bit(bits, id);
    bool missing = false;
    for (const Buffers::Part& p : parts_)
      for (std::uint32_t id : p.c->consumed) missing = missing || !avail(id);
    clear_produced();
    if (!missing) return true;

    std::size_t words = 0;
    for (Buffers::Part& p : parts_) {
      p.alive = words;
      p.dirty = false;
      words += words_for(p.c->edges.size());
    }
    buf_.alive.assign(words, ~std::uint64_t{0});
    for (bool changed = true; changed;) {
      for (const Buffers::Part& p : parts_) p.c->mark_generated(buf_.alive.data() + p.alive, bits);
      changed = false;
      for (Buffers::Part& p : parts_)
        if (p.c->kill_unavailable(buf_.alive.data() + p.alive, avail)) p.dirty = changed = true;
      clear_produced();
      for (Buffers::Part& p : parts_) {
        if (!p.fixed || !p.dirty) continue;
        p.dirty = false;
        if (!prune_reach(p)) return false;
      }
    }
    return true;
  }

  /// DFS from every node's LS_n[0]; fills `res` when every fixed part parks
  /// on its target.
  void run(SoundnessResult& res) {
    for (std::uint32_t id = 0; id < eng_.flight_ids_; ++id) buf_.count[id] = eng_.flight_count_[id];
    net_hash_ = eng_.flight_hash_;
    for (Buffers::Part& p : parts_) p.pos = p.c->root;
    res_ = &res;
    res.sound = dfs();
    res.schedules_checked = expansions_;
    res.truncated = truncated_;
    for (std::uint32_t id = 0; id < eng_.flight_ids_; ++id) buf_.count[id] = 0;
  }

 private:
  void clear_produced() {
    for (const Buffers::Part& p : parts_)
      for (std::uint32_t id : p.c->produced) clear_bit(buf_.bits.data(), id);
  }

  /// Keep the states of fixed part p that reach its target over surviving
  /// non-self-loop edges, and the edges among them (self-loops included).
  bool prune_reach(Buffers::Part& p) {
    const Closure& c = *p.c;
    const auto size = static_cast<std::uint32_t>(c.states.size());
    std::uint64_t* alive = buf_.alive.data() + p.alive;
    // The alive non-self-loop edges by destination, as their sources.
    auto each_live_edge = [&](auto&& visit) {
      for (std::uint32_t u = 0; u < size; ++u)
        for (std::uint32_t k = c.out_begin[u]; k < c.out_begin[u + 1]; ++k)
          if (!c.edges[k].self_loop && test_bit(alive, k)) visit(u, c.edges[k].to);
    };
    std::vector<std::uint32_t>& in_begin = buf_.in_begin;
    in_begin.assign(std::size_t{size} + 1, 0);
    each_live_edge([&](std::uint32_t, std::uint32_t to) { ++in_begin[to + 1]; });
    std::partial_sum(in_begin.begin(), in_begin.end(), in_begin.begin());
    std::vector<std::uint32_t>& cursor = buf_.work;
    cursor.assign(in_begin.begin(), in_begin.end() - 1);
    buf_.in_src.resize(in_begin[size]);
    each_live_edge([&](std::uint32_t u, std::uint32_t to) { buf_.in_src[cursor[to]++] = u; });
    buf_.reach.assign(words_for(size), 0);
    std::uint64_t* reach = buf_.reach.data();
    set_bit(reach, c.target);
    buf_.work.assign(1, c.target);
    while (!buf_.work.empty()) {
      const std::uint32_t v = buf_.work.back();
      buf_.work.pop_back();
      for (std::uint32_t i = in_begin[v]; i < in_begin[v + 1]; ++i) {
        const std::uint32_t src = buf_.in_src[i];
        if (test_bit(reach, src)) continue;
        set_bit(reach, src);
        buf_.work.push_back(src);
      }
    }
    if (!test_bit(reach, c.root)) return false;
    for (std::uint32_t u = 0; u < c.states.size(); ++u)
      for (std::uint32_t k = c.out_begin[u]; k < c.out_begin[u + 1]; ++k) {
        if (!test_bit(alive, k)) continue;
        const Closure::Edge& e = c.edges[k];
        if (test_bit(reach, u) && (e.self_loop || test_bit(reach, e.to))) continue;
        clear_bit(alive, k);
      }
    return true;
  }

  /// Move one message's multiplicity by `delta`, keeping the joint hash's
  /// net share, the sum over nonzero counts of mix(hash, count), current.
  void bump(std::uint32_t id, int delta) {
    std::uint32_t& cnt = buf_.count[id];
    const Hash64 h = eng_.hashes_[id];
    if (cnt != 0) net_hash_ -= mix64(hash_combine(h, cnt));
    cnt += static_cast<std::uint32_t>(delta);
    if (cnt != 0) net_hash_ += mix64(hash_combine(h, cnt));
  }

  Hash64 joint_hash() const {
    Hash64 h = 0x51ed270b9a3bULL;
    for (const Buffers::Part& p : parts_) h = hash_combine(h, p.c->states[p.pos]);
    return hash_combine(h, net_hash_);
  }

  bool at_goal() const {
    for (const Buffers::Part& p : parts_)
      if (p.fixed && p.pos != p.c->target) return false;
    return true;
  }

  bool dfs() {
    if (at_goal()) {
      res_->final_combo.resize(parts_.size());
      for (std::size_t n = 0; n < parts_.size(); ++n)
        res_->final_combo[n] = parts_[n].c->states[parts_[n].pos];
      return true;
    }
    if (expansions_ >= max_) {
      truncated_ = true;
      return false;
    }
    const auto fresh = static_cast<std::uint32_t>(visited_.size());
    if (visited_.insert_if_absent(joint_hash(), fresh) != fresh) return false;
    ++expansions_;

    const bool pruned = !buf_.alive.empty();
    for (std::size_t n = 0; n < parts_.size(); ++n) {
      Buffers::Part& p = parts_[n];
      const Closure& c = *p.c;
      const std::uint64_t* alive = pruned ? buf_.alive.data() + p.alive : nullptr;
      const std::uint32_t from = p.pos;
      for (std::uint32_t k = c.out_begin[from]; k < c.out_begin[from + 1]; ++k) {
        if (alive != nullptr && !test_bit(alive, k)) continue;
        const Closure::Edge& e = c.edges[k];
        if (e.message && buf_.count[e.ev] == 0) continue;
        const std::uint32_t* gen = c.gens.data() + e.gen;
        if (e.self_loop) {
          // Fire only when it contributes a message we do not have yet;
          // bounds re-firing without tracking per-path state.
          bool contributes = false;
          for (std::uint32_t i = 0; i < e.n_gen; ++i) contributes |= buf_.count[gen[i]] == 0;
          if (!contributes) continue;
        }
        if (e.message) bump(e.ev, -1);
        for (std::uint32_t i = 0; i < e.n_gen; ++i) bump(gen[i], +1);
        p.pos = e.to;
        res_->schedule.push_back({static_cast<NodeId>(n), e.message != 0, eng_.hashes_[e.ev]});
        const bool found = dfs();
        p.pos = from;
        for (std::uint32_t i = 0; i < e.n_gen; ++i) bump(gen[i], -1);
        if (e.message) bump(e.ev, +1);
        if (found) return true;
        res_->schedule.pop_back();
      }
    }
    return false;
  }

  const SoundnessEngine& eng_;
  Buffers& buf_;
  std::vector<Buffers::Part>& parts_;
  std::uint64_t max_;
  SoundnessResult* res_ = nullptr;
  HashIndex visited_;  ///< joint hashes of expanded states
  Hash64 net_hash_ = 0;
  std::uint64_t expansions_ = 0;
  bool truncated_ = false;
};

SoundnessResult SoundnessEngine::verify(const std::vector<std::uint32_t>& combo,
                                        std::uint64_t max_expansions) {
  SoundnessResult res;
  Buffers& buf = buffers();
  buf.parts.resize(nodes_.size());
  buf.alive.clear();
  std::uint32_t ids_end = flight_ids_;
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    Buffers::Part& p = buf.parts[n];
    p.fixed = combo[n] != kFreeNode;
    p.c = &closure(n, combo[n]);
    // A fixed node whose closure lacks LS_n[0] cannot reach its target at
    // all; pruning only shrinks closures, so this is the pruned verdict.
    if (p.fixed && p.c->root == kNone) return res;
    ids_end = std::max(ids_end, p.c->ids_end);
  }
  buf.fit(ids_end);
  Search search(*this, buf, max_expansions);
  if (!search.prune()) return res;
  if (max_expansions == 0) {  // no expansion budget at all: inconclusive
    res.truncated = true;
    return res;
  }
  search.run(res);
  return res;
}

SoundnessVerifier::SoundnessVerifier(const LocalStore& store,
                                     std::vector<Hash64> initial_in_flight, SoundnessOptions opt)
    : engine_(std::make_unique<SoundnessEngine>(store, initial_in_flight)), opt_(opt) {
  for (NodeId n = 0; n < store.num_nodes(); ++n) {
    std::uint64_t edges = 0;
    for (std::uint32_t i = 0; i < store.size(n); ++i)
      edges += store.rec(n, i).preds.size() + store.rec(n, i).self_loops.size();
    engine_->sync(n, edges);
  }
}

SoundnessResult SoundnessVerifier::verify(const std::vector<std::uint32_t>& combo,
                                          const std::vector<bool>* fixed) const {
  if (fixed == nullptr) return engine_->verify(combo, opt_.max_schedules);
  std::vector<std::uint32_t> masked = combo;
  for (NodeId n = 0; n < masked.size(); ++n)
    if (!(*fixed)[n]) masked[n] = kFreeNode;
  return engine_->verify(masked, opt_.max_schedules);
}

}  // namespace lmc
