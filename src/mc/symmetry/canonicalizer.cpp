#include "mc/symmetry/canonicalizer.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace lmc::symmetry {

bool ClassUniverse::add(Hash64 h, std::uint32_t member_pos) {
  const std::uint64_t bit = std::uint64_t{1} << member_pos;
  auto it = std::lower_bound(entries_.begin(), entries_.end(), h,
                             [](const Entry& e, Hash64 v) { return e.hash < v; });
  if (it != entries_.end() && it->hash == h) {
    if ((it->members & bit) != 0) return false;
    it->members |= bit;
    return true;
  }
  entries_.insert(it, Entry{h, bit});
  return true;
}

std::size_t ClassUniverse::find(Hash64 h) const {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), h,
                             [](const Entry& e, Hash64 v) { return e.hash < v; });
  if (it == entries_.end() || it->hash != h) return SIZE_MAX;
  return static_cast<std::size_t>(it - entries_.begin());
}

Canonicalizer::Canonicalizer(std::vector<std::vector<NodeId>> classes, std::uint32_t num_nodes)
    : classes_(std::move(classes)),
      num_nodes_(num_nodes),
      class_of_(num_nodes, -1),
      member_pos_(num_nodes, 0),
      universes_(classes_.size()) {
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    if (classes_[c].size() > 64) throw std::invalid_argument("symmetry class larger than 64");
    for (std::size_t p = 0; p < classes_[c].size(); ++p) {
      const NodeId n = classes_[c][p];
      class_of_[n] = static_cast<std::int32_t>(c);
      member_pos_[n] = static_cast<std::uint32_t>(p);
    }
  }
  for (NodeId n = 0; n < num_nodes_; ++n)
    if (class_of_[n] < 0) free_nodes_.push_back(n);
}

bool Canonicalizer::add_state(NodeId n, Hash64 h) {
  const std::int32_t c = class_of_[n];
  if (c < 0) return false;
  return universes_[static_cast<std::size_t>(c)].add(h, member_pos_[n]);
}

Hash64 Canonicalizer::orbit_key(const std::vector<std::pair<NodeId, Hash64>>& fixed,
                                const std::vector<std::vector<std::uint32_t>>& counts) const {
  // Entry hashes are folded (never indices), and universes are sorted by
  // hash, so the key is stable as universes grow and across resume.
  Hash64 h = 0x6a09e667f3bcc908ULL;
  for (const auto& [n, v] : fixed)
    h = hash_combine(h, hash_combine(static_cast<Hash64>(n), v));
  for (std::size_t c = 0; c < counts.size(); ++c) {
    h = hash_combine(h, static_cast<Hash64>(c));
    const auto& entries = universes_[c].entries();
    for (std::size_t e = 0; e < counts[c].size(); ++e)
      for (std::uint32_t k = 0; k < counts[c][e]; ++k) h = hash_combine(h, entries[e].hash);
  }
  return h;
}

std::uint64_t Canonicalizer::orbit_size(
    const std::vector<std::vector<std::uint32_t>>& counts) const {
  std::uint64_t total = 1;
  std::vector<std::uint32_t> mults;
  for (const auto& cnt : counts) {
    mults.clear();
    for (std::uint32_t k : cnt)
      if (k > 0) mults.push_back(k);
    const std::uint64_t per = multiset_orbit_size(mults);
    if (per != 0 && total > UINT64_MAX / per) return UINT64_MAX;
    total *= per;
  }
  return total;
}

bool Canonicalizer::seen_or_mark(Hash64 orbit) {
  const auto next = static_cast<std::uint32_t>(seen_list_.size());
  if (seen_.insert_if_absent(orbit, next) != next) return true;
  seen_list_.push_back(orbit);
  return false;
}

std::vector<Hash64> Canonicalizer::seen_sorted() const {
  std::vector<Hash64> out = seen_list_;
  std::sort(out.begin(), out.end());
  return out;
}

void Canonicalizer::restore_seen(const std::vector<Hash64>& seen) {
  seen_ = HashIndex();
  seen_list_ = seen;
  for (std::size_t i = 0; i < seen.size(); ++i)
    seen_.insert_if_absent(seen[i], static_cast<std::uint32_t>(i));
}

namespace {

/// Incremental bipartite matching of chosen occurrences onto class member
/// positions (Kuhn). Pushing an occurrence augments; popping the last
/// pushed occurrence just releases its member — the remaining matching
/// stays perfect, so DFS backtracking is O(1).
class OccMatcher {
 public:
  explicit OccMatcher(std::size_t members) : member_match_(members, -1) {}

  bool push(std::uint64_t mask) {
    occ_masks_.push_back(mask);
    occ_match_.push_back(UINT32_MAX);
    std::vector<bool> visited(member_match_.size(), false);
    if (augment(occ_masks_.size() - 1, visited)) return true;
    occ_masks_.pop_back();
    occ_match_.pop_back();
    return false;
  }

  void pop() {
    member_match_[occ_match_.back()] = -1;
    occ_match_.pop_back();
    occ_masks_.pop_back();
  }

 private:
  bool augment(std::size_t occ, std::vector<bool>& visited) {
    std::uint64_t mask = occ_masks_[occ];
    while (mask != 0) {
      const auto m = static_cast<std::uint32_t>(std::countr_zero(mask));
      mask &= mask - 1;
      if (visited[m]) continue;
      visited[m] = true;
      if (member_match_[m] < 0 || augment(static_cast<std::size_t>(member_match_[m]), visited)) {
        occ_match_[occ] = m;
        member_match_[m] = static_cast<std::int32_t>(occ);
        return true;
      }
    }
    return false;
  }

  std::vector<std::uint64_t> occ_masks_;
  std::vector<std::uint32_t> occ_match_;   ///< occurrence -> member
  std::vector<std::int32_t> member_match_; ///< member -> occurrence (-1 free)
};

}  // namespace

bool Canonicalizer::for_each_multiset(
    std::size_t c, std::ptrdiff_t forced,
    const std::function<bool(const std::vector<std::uint32_t>&)>& cb) const {
  const auto& entries = universes_[c].entries();
  const auto slots = static_cast<std::uint32_t>(classes_[c].size());

  // suffix_cap[e] = max occurrences entries e.. can still contribute.
  std::vector<std::uint32_t> suffix_cap(entries.size() + 1, 0);
  for (std::size_t e = entries.size(); e-- > 0;)
    suffix_cap[e] =
        suffix_cap[e + 1] + static_cast<std::uint32_t>(std::popcount(entries[e].members));

  std::vector<std::uint32_t> counts(entries.size(), 0);
  OccMatcher matcher(slots);
  bool aborted = false;

  // DFS over counts per entry, ascending entry index. An occurrence is
  // admitted only while the partial multiset stays matchable — adding an
  // occurrence can never repair an unmatchable set, so failure prunes the
  // whole count range above it.
  auto dfs = [&](auto&& self, std::size_t e, std::uint32_t remaining) -> void {
    if (aborted) return;
    if (remaining == 0) {
      if (forced >= 0 && static_cast<std::size_t>(forced) >= e) return;  // forced not taken
      if (!cb(counts)) aborted = true;
      return;
    }
    if (e >= entries.size() || suffix_cap[e] < remaining) return;
    const std::uint32_t min_cnt = (static_cast<std::ptrdiff_t>(e) == forced) ? 1 : 0;
    const auto avail = static_cast<std::uint32_t>(std::popcount(entries[e].members));
    const std::uint32_t max_cnt = std::min(remaining, avail);
    if (min_cnt > max_cnt) return;
    std::uint32_t pushed = 0;
    bool ok = true;
    for (; pushed < min_cnt; ++pushed)
      if (!matcher.push(entries[e].members)) {
        ok = false;
        break;
      }
    if (ok) {
      for (std::uint32_t cnt = min_cnt;; ++cnt) {
        counts[e] = cnt;
        self(self, e + 1, remaining - cnt);
        if (aborted || cnt >= max_cnt || !matcher.push(entries[e].members)) break;
        ++pushed;
      }
    }
    counts[e] = 0;
    for (; pushed > 0; --pushed) matcher.pop();
  };
  dfs(dfs, 0, slots);
  return !aborted;
}

bool Canonicalizer::assignment_dfs(
    std::size_t c, std::vector<std::uint32_t>& rem, std::vector<std::size_t>& pick,
    std::size_t member, const std::function<bool(const std::vector<std::size_t>&)>& cb,
    bool& aborted) const {
  if (member == pick.size()) {
    if (!cb(pick)) aborted = true;
    return true;
  }
  const auto& entries = universes_[c].entries();
  bool any = false;
  for (std::size_t e = 0; e < entries.size(); ++e) {
    if (rem[e] == 0 || ((entries[e].members >> member) & 1) == 0) continue;
    --rem[e];
    pick[member] = e;
    any = assignment_dfs(c, rem, pick, member + 1, cb, aborted) || any;
    ++rem[e];
    if (aborted) return any;
  }
  return any;
}

std::vector<std::size_t> Canonicalizer::first_assignment(
    std::size_t c, const std::vector<std::uint32_t>& counts) const {
  std::vector<std::size_t> result;
  std::vector<std::uint32_t> rem = counts;
  std::vector<std::size_t> pick(classes_[c].size(), 0);
  bool aborted = false;
  assignment_dfs(
      c, rem, pick, 0,
      [&](const std::vector<std::size_t>& p) {
        result = p;
        return false;  // stop at the first
      },
      aborted);
  return result;
}

bool Canonicalizer::for_each_assignment(
    std::size_t c, const std::vector<std::uint32_t>& counts,
    const std::function<bool(const std::vector<std::size_t>&)>& cb) const {
  std::vector<std::uint32_t> rem = counts;
  std::vector<std::size_t> pick(classes_[c].size(), 0);
  bool aborted = false;
  assignment_dfs(c, rem, pick, 0, cb, aborted);
  return !aborted;
}

}  // namespace lmc::symmetry
