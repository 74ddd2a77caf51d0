#include "persist/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <tuple>
#include <type_traits>

#include "runtime/hash_index.hpp"

namespace lmc {

namespace {

constexpr std::size_t kMagicLen = sizeof(kCheckpointMagic);
// magic | u32 version | u32 num_nodes | u32 section_count | u32 reserved
constexpr std::size_t kHeaderLen = kMagicLen + 4 * sizeof(std::uint32_t);
// u32 id | u32 reserved | u64 len
constexpr std::size_t kSectionHeaderLen = 2 * sizeof(std::uint32_t) + sizeof(std::uint64_t);

[[noreturn]] void fail(const std::string& what) { throw CheckpointError("checkpoint: " + what); }

void check(bool ok, const char* what) {
  if (!ok) fail(what);
}

// --- field codecs ----------------------------------------------------------

void write_message(Writer& w, const Message& m) { m.serialize(w); }
Message read_message(Reader& r) { return Message::deserialize(r); }

void write_pred(Writer& w, const Pred& p) {
  w.u32(p.pred_idx);
  w.b(p.is_message);
  w.u64(p.ev_hash);
  write_u64_vec(w, p.gen);
}

Pred read_pred(Reader& r) {
  Pred p;
  p.pred_idx = r.u32();
  p.is_message = r.b();
  p.ev_hash = r.u64();
  p.gen = read_u64_vec(r);
  return p;
}

void write_u32_vec(Writer& w, const std::vector<std::uint32_t>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (std::uint32_t x : v) w.u32(x);
}

std::vector<std::uint32_t> read_u32_vec(Reader& r) {
  std::uint32_t n = r.u32();
  std::vector<std::uint32_t> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(r.u32());
  return v;
}

// --- section encoders ------------------------------------------------------

Blob enc_meta(const CheckerImage& img) {
  Writer w;
  w.u64(img.store.total_states());
  w.u32(img.num_nodes);
  for (NodeId n = 0; n < img.num_nodes; ++n) w.u64(img.store.size(n));
  w.u64(img.net_entries.size());
  w.u64(img.events.size());
  w.u64(img.pending.size());
  return std::move(w).take();
}

// Only the snapshot itself is stored: its states are LS_n[0] by construction
// (no root indices) and its in-flight hashes are recomputed on decode.
Blob enc_snapshot(const CheckerImage& img) {
  Writer w;
  w.vec(img.start.nodes, [](Writer& ww, const Blob& b) { ww.bytes(b); });
  w.vec(img.start.in_flight, [](Writer& ww, const Message& m) { write_message(ww, m); });
  return std::move(w).take();
}

Blob enc_store(const CheckerImage& img) {
  Writer w;
  for (NodeId n = 0; n < img.num_nodes; ++n) {
    const std::uint32_t count = img.store.size(n);
    w.u32(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const NodeStateRec& r = img.store.rec(n, i);
      w.bytes(r.blob);
      w.u64(r.hash);
      w.u32(r.depth);
      w.vec(r.preds, [](Writer& ww, const Pred& p) { write_pred(ww, p); });
      w.vec(r.self_loops, [](Writer& ww, const Pred& p) { write_pred(ww, p); });
      write_u64_vec(w, r.history);
    }
  }
  return std::move(w).take();
}

Blob enc_network(const CheckerImage& img) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(img.net_entries.size()));
  for (const MonotonicNetwork::Entry& e : img.net_entries) {
    write_message(w, e.msg);
    w.u64(e.hash);
    w.u64(e.next_state);
  }
  w.u64(img.net_suppressed);
  return std::move(w).take();
}

Blob enc_events(const CheckerImage& img) {
  // Canonical order: sorted by event hash (the table is unordered).
  std::vector<const std::pair<const Hash64, EventRecord>*> sorted;
  sorted.reserve(img.events.size());
  for (const auto& kv : img.events) sorted.push_back(&kv);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  Writer w;
  w.u32(static_cast<std::uint32_t>(sorted.size()));
  for (const auto* kv : sorted) {
    w.u64(kv->first);
    const EventRecord& er = kv->second;
    w.b(er.is_message);
    if (er.is_message) {
      write_message(w, er.msg);
    } else {
      w.u32(er.node);
      er.ev.serialize(w);
    }
  }
  return std::move(w).take();
}

Blob enc_feasibility(const CheckerImage& img) {
  Writer w;
  for (NodeId n = 0; n < img.num_nodes; ++n) write_u64_vec(w, img.node_gens[n]);
  return std::move(w).take();
}

Blob enc_cursors(const CheckerImage& img) {
  Writer w;
  for (std::uint32_t c : img.internal_scan) w.u32(c);
  return std::move(w).take();
}

// Section 8: every stat as a (name, u64) pair, in table order. Doubles are
// stored as their bit patterns, narrower integers and flags widened.
Blob enc_stats(const LocalMcStats& s) {
  Writer w;
  std::uint32_t n = 0;
  for_each_stat(s, [&](const char*, const auto&) { ++n; });
  w.u32(n);
  for_each_stat(s, [&](const char* name, const auto& v) {
    w.str(name);
    if constexpr (std::is_floating_point_v<std::remove_cvref_t<decltype(v)>>)
      w.u64(std::bit_cast<std::uint64_t>(v));
    else
      w.u64(static_cast<std::uint64_t>(v));
  });
  return std::move(w).take();
}

Blob enc_deferred(const CheckerImage& img) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(img.deferred.size()));
  for (const DeferredCombo& d : img.deferred) {
    write_u32_vec(w, d.combo);
    w.u32(static_cast<std::uint32_t>(d.fixed.size()));
    for (std::uint8_t f : d.fixed) w.u8(f);
    w.b(d.has_mask);
    w.b(d.sym);
  }
  return std::move(w).take();
}

Blob enc_symmetry(const CheckerImage& img) {
  Writer w;
  write_u64_vec(w, img.sym_seen);
  return std::move(w).take();
}

Blob enc_por(const CheckerImage& img) {
  Writer w;
  w.u64(img.por_digest);
  w.u32(static_cast<std::uint32_t>(img.por_entries.size()));
  for (const std::vector<PorFwdEntry>& per_node : img.por_entries) {
    w.u32(static_cast<std::uint32_t>(per_node.size()));
    for (const PorFwdEntry& e : per_node) {
      w.u32(e.pred_idx);
      w.u64(e.ev_hash);
      w.u8(e.outcome);
    }
  }
  // Deferred pairs awaiting their one-generation retry (always messages).
  w.u32(static_cast<std::uint32_t>(img.por_deferred.size()));
  for (const PendingTask& t : img.por_deferred) {
    w.u64(t.net_idx);
    w.u32(t.node);
    w.u32(t.state_idx);
  }
  return std::move(w).take();
}

Blob enc_violations(const CheckerImage& img) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(img.violations.size()));
  for (const LocalViolation& v : img.violations) {
    write_u32_vec(w, v.combo);
    write_u64_vec(w, v.state_hashes);
    w.vec(v.system_state, [](Writer& ww, const Blob& b) { ww.bytes(b); });
    w.str(v.invariant);
    w.b(v.confirmed);
    w.vec(v.witness, [](Writer& ww, const ScheduleStep& s) {
      ww.u32(s.node);
      ww.b(s.is_message);
      ww.u64(s.ev_hash);
    });
  }
  return std::move(w).take();
}

Blob enc_pending(const CheckerImage& img) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(img.pending.size()));
  for (const PendingTask& t : img.pending) {
    w.b(t.is_message);
    w.u64(t.net_idx);
    w.u32(t.node);
    w.u32(t.state_idx);
  }
  return std::move(w).take();
}

Blob enc_segment(const CheckerImage& img) {
  Writer w;
  w.u64(img.segment_id);
  w.u32(img.base_round);
  return std::move(w).take();
}

// --- section decoders (with structural validation) -------------------------

void dec_snapshot(Reader& r, CheckerImage& img) {
  StartSnapshot& st = img.start;
  st.nodes = r.vec<Blob>([](Reader& rr) { return rr.bytes(); });
  st.in_flight = r.vec<Message>([](Reader& rr) { return read_message(rr); });
  r.expect_exhausted();
  check(st.nodes.size() == img.num_nodes, "snapshot node count mismatch");
  for (NodeId n = 0; n < img.num_nodes; ++n) {
    check(img.store.size(n) > 0, "node has no state (missing snapshot state)");
    check(hash_blob(st.nodes[n]) == img.store.rec(n, 0).hash,
          "snapshot state is not the node's first state");
  }
  for (const Message& m : st.in_flight) st.in_flight_hashes.push_back(m.hash());
}

void dec_store(Reader& r, CheckerImage& img) {
  img.store = LocalStore(img.num_nodes);
  for (NodeId n = 0; n < img.num_nodes; ++n) {
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      NodeStateRec rec;
      rec.blob = r.bytes();
      rec.hash = r.u64();
      rec.depth = r.u32();
      rec.preds = r.vec<Pred>([](Reader& rr) { return read_pred(rr); });
      rec.self_loops = r.vec<Pred>([](Reader& rr) { return read_pred(rr); });
      rec.history = read_u64_vec(r);
      check(rec.hash == hash_blob(rec.blob), "node state hash mismatch (corrupt blob)");
      for (const Pred& p : rec.preds) check(p.pred_idx < count, "pred index out of range");
      for (const Pred& p : rec.self_loops) check(p.pred_idx < count, "self-loop index out of range");
      check(std::is_sorted(rec.history.begin(), rec.history.end()), "history not sorted");
      check(img.store.add(n, std::move(rec)) == i, "duplicate node state hash");
    }
  }
  r.expect_exhausted();
}

void dec_network(Reader& r, CheckerImage& img) {
  std::uint32_t n = r.u32();
  img.net_entries.reserve(n);
  HashIndex seen;
  for (std::uint32_t i = 0; i < n; ++i) {
    MonotonicNetwork::Entry e;
    e.msg = read_message(r);
    e.hash = r.u64();
    e.next_state = r.u64();
    check(e.hash == e.msg.hash(), "network entry hash mismatch (corrupt message)");
    check(e.msg.dst < img.num_nodes, "network entry destination out of range");
    check(e.next_state <= img.store.size(e.msg.dst), "network cursor beyond store");
    check(seen.insert_if_absent(e.hash, i) == i, "duplicate network message");
    img.net_entries.push_back(std::move(e));
  }
  img.net_suppressed = r.u64();
  r.expect_exhausted();
}

void dec_events(Reader& r, CheckerImage& img) {
  std::uint32_t n = r.u32();
  img.events.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Hash64 key = r.u64();
    EventRecord er;
    er.is_message = r.b();
    if (er.is_message) {
      er.msg = read_message(r);
      check(er.msg.hash() == key, "event table key mismatch (message)");
    } else {
      er.node = r.u32();
      check(er.node < img.num_nodes, "event node out of range");
      er.ev = InternalEvent::deserialize(r);
      check(er.ev.hash(er.node) == key, "event table key mismatch (internal)");
    }
    img.events.emplace(key, std::move(er));
  }
  r.expect_exhausted();
}

void dec_feasibility(Reader& r, CheckerImage& img) {
  img.node_gens.resize(img.num_nodes);
  for (NodeId n = 0; n < img.num_nodes; ++n) {
    img.node_gens[n] = read_u64_vec(r);
    check(std::is_sorted(img.node_gens[n].begin(), img.node_gens[n].end()),
          "node_gens not sorted");
  }
  r.expect_exhausted();
}

void dec_cursors(Reader& r, CheckerImage& img) {
  img.internal_scan.resize(img.num_nodes);
  for (NodeId n = 0; n < img.num_nodes; ++n) {
    img.internal_scan[n] = r.u32();
    check(img.internal_scan[n] <= img.store.size(n), "internal cursor beyond store");
  }
  r.expect_exhausted();
}

// Sets every field by name: an unknown name, a repeated name, a missing
// field or a value outside its field's type is rejected, naming the field.
void dec_stats(Reader& r, LocalMcStats& s) {
  std::map<std::string, std::uint64_t> vals;
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name = r.str();
    const std::uint64_t v = r.u64();
    if (!vals.emplace(name, v).second) fail("stats field repeated: " + name);
  }
  r.expect_exhausted();
  for_each_stat(s, [&](const char* name, auto& field) {
    const auto it = vals.find(name);
    if (it == vals.end()) fail(std::string("stats field missing: ") + name);
    using T = std::remove_reference_t<decltype(field)>;
    if constexpr (std::is_floating_point_v<T>) {
      field = std::bit_cast<T>(it->second);
    } else {
      if (it->second > static_cast<std::uint64_t>(std::numeric_limits<T>::max()))
        fail(std::string("stats field out of range: ") + name);
      field = static_cast<T>(it->second);
    }
    vals.erase(it);
  });
  if (!vals.empty()) fail("unknown stats field: " + vals.begin()->first);
}

void dec_deferred(Reader& r, CheckerImage& img) {
  std::uint32_t n = r.u32();
  img.deferred.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    DeferredCombo d;
    d.combo = read_u32_vec(r);
    std::uint32_t fn = r.u32();
    d.fixed.reserve(fn);
    for (std::uint32_t k = 0; k < fn; ++k) d.fixed.push_back(r.u8());
    d.has_mask = r.b();
    d.sym = r.b();
    check(d.combo.size() == img.num_nodes, "deferred combo size mismatch");
    check(!d.has_mask || d.fixed.size() == img.num_nodes, "deferred mask size mismatch");
    for (NodeId k = 0; k < img.num_nodes; ++k)
      check(d.combo[k] < img.store.size(k), "deferred combo index out of range");
    img.deferred.push_back(std::move(d));
  }
  r.expect_exhausted();
}

void dec_violations(Reader& r, CheckerImage& img) {
  std::uint32_t n = r.u32();
  img.violations.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    LocalViolation v;
    v.combo = read_u32_vec(r);
    v.state_hashes = read_u64_vec(r);
    v.system_state = r.vec<Blob>([](Reader& rr) { return rr.bytes(); });
    v.invariant = r.str();
    v.confirmed = r.b();
    v.witness = r.vec<ScheduleStep>([](Reader& rr) {
      ScheduleStep s;
      s.node = rr.u32();
      s.is_message = rr.b();
      s.ev_hash = rr.u64();
      return s;
    });
    check(v.combo.size() == img.num_nodes, "violation combo size mismatch");
    img.violations.push_back(std::move(v));
  }
  r.expect_exhausted();
}

void dec_pending(Reader& r, CheckerImage& img) {
  std::uint32_t n = r.u32();
  img.pending.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    PendingTask t;
    t.is_message = r.b();
    t.net_idx = r.u64();
    t.node = r.u32();
    t.state_idx = r.u32();
    check(t.node < img.num_nodes, "pending task node out of range");
    check(t.state_idx < img.store.size(t.node), "pending task state out of range");
    // Cursors advance when a task is published, so every valid pending task
    // lies below its cursor: a message task below its I+ entry's, on the
    // message's destination; an internal task below its node's.
    if (t.is_message) {
      check(t.net_idx < img.net_entries.size(), "pending task message index out of range");
      const MonotonicNetwork::Entry& e = img.net_entries[t.net_idx];
      check(t.node == e.msg.dst, "pending message task not on its message's destination");
      check(t.state_idx < e.next_state, "pending message task beyond its network cursor");
    } else {
      check(t.state_idx < img.internal_scan[t.node],
            "pending internal task beyond its internal cursor");
    }
    img.pending.push_back(t);
  }
  r.expect_exhausted();
}

void dec_segment(Reader& r, CheckerImage& img) {
  img.segment_id = r.u64();
  img.base_round = r.u32();
  r.expect_exhausted();
}

void dec_symmetry(Reader& r, CheckerImage& img) {
  img.has_symmetry = true;
  img.sym_seen = read_u64_vec(r);
  check(std::is_sorted(img.sym_seen.begin(), img.sym_seen.end()), "orbit seen-set not sorted");
  r.expect_exhausted();
}

void dec_por(Reader& r, CheckerImage& img) {
  img.has_por = true;
  img.por_digest = r.u64();
  const std::uint32_t n = r.u32();
  check(n == img.num_nodes, "por node count mismatch");
  img.por_entries.assign(n, {});
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t cnt = r.u32();
    std::vector<PorFwdEntry>& per_node = img.por_entries[i];
    per_node.reserve(cnt);
    for (std::uint32_t j = 0; j < cnt; ++j) {
      PorFwdEntry e;
      e.pred_idx = r.u32();
      e.ev_hash = r.u64();
      e.outcome = r.u8();
      check(e.outcome <= 2, "por entry outcome out of range");
      check(e.pred_idx < img.store.size(static_cast<NodeId>(i)),
            "por entry pred state out of range");
      per_node.push_back(e);
    }
    check(std::is_sorted(per_node.begin(), per_node.end(),
                         [](const PorFwdEntry& a, const PorFwdEntry& b) {
                           return std::tie(a.pred_idx, a.ev_hash) <
                                  std::tie(b.pred_idx, b.ev_hash);
                         }),
          "por entries not sorted");
  }
  const std::uint32_t dn = r.u32();
  img.por_deferred.reserve(dn);
  for (std::uint32_t j = 0; j < dn; ++j) {
    PendingTask t;
    t.is_message = true;
    t.net_idx = r.u64();
    t.node = static_cast<NodeId>(r.u32());
    t.state_idx = r.u32();
    check(t.node < img.num_nodes, "por deferred node out of range");
    check(t.net_idx < img.net_entries.size(), "por deferred message out of range");
    check(t.state_idx < img.store.size(t.node), "por deferred state out of range");
    const MonotonicNetwork::Entry& e = img.net_entries[t.net_idx];
    check(t.node == e.msg.dst, "por deferred task not on its message's destination");
    check(t.state_idx < e.next_state, "por deferred task beyond its network cursor");
    img.por_deferred.push_back(t);
  }
  r.expect_exhausted();
}

}  // namespace

// --- container -------------------------------------------------------------

Blob CheckpointWriter::finish() && {
  Writer w;
  w.raw(reinterpret_cast<const std::uint8_t*>(kCheckpointMagic), kMagicLen);
  w.u32(kCheckpointVersion);
  w.u32(num_nodes_);
  w.u32(static_cast<std::uint32_t>(sections_.size()));
  w.u32(0);  // reserved
  for (const auto& [id, payload] : sections_) {
    w.u32(id);
    w.u32(0);  // reserved
    w.u64(payload.size());
    w.raw(payload.data(), payload.size());
  }
  Blob out = std::move(w).take();
  const Hash64 sum = hash_bytes(out.data(), out.size());
  Writer tail;
  tail.u64(sum);
  out.insert(out.end(), tail.data().begin(), tail.data().end());
  return out;
}

CheckpointReader::CheckpointReader(const Blob& data) : data_(&data) {
  check(data.size() >= kHeaderLen + sizeof(std::uint64_t), "file too small to be a checkpoint");
  check(std::memcmp(data.data(), kCheckpointMagic, kMagicLen) == 0,
        "bad magic (not a checkpoint file)");

  // Checksum before anything else is interpreted: the trailing u64 must
  // equal the hash of every preceding byte.
  const std::size_t body_len = data.size() - sizeof(std::uint64_t);
  Reader tail(data.data() + body_len, sizeof(std::uint64_t));
  const Hash64 expect = tail.u64();
  const Hash64 got = hash_bytes(data.data(), body_len);
  check(got == expect, "checksum mismatch (truncated or corrupted file)");

  Reader r(data.data(), body_len);
  r.u64();  // magic (already compared)
  version_ = r.u32();
  check(version_ == kCheckpointVersion, "unsupported format version");
  num_nodes_ = r.u32();
  const std::uint32_t n_sections = r.u32();
  r.u32();  // reserved

  std::size_t off = kHeaderLen;
  for (std::uint32_t i = 0; i < n_sections; ++i) {
    check(r.remaining() >= kSectionHeaderLen, "section header truncated");
    Section s;
    s.id = r.u32();
    r.u32();  // reserved
    const std::uint64_t len = r.u64();
    check(len <= r.remaining(), "section length exceeds file");
    s.offset = off + kSectionHeaderLen;
    s.len = static_cast<std::size_t>(len);
    for (const Section& prev : sections_) check(prev.id != s.id, "duplicate section id");
    sections_.push_back(s);
    off = s.offset + s.len;
    r = Reader(data.data() + off, body_len - off);
  }
  check(r.remaining() == 0, "trailing bytes after last section");
}

bool CheckpointReader::has(std::uint32_t id) const {
  for (const Section& s : sections_)
    if (s.id == id) return true;
  return false;
}

Reader CheckpointReader::open(std::uint32_t id) const {
  for (const Section& s : sections_)
    if (s.id == id) return Reader(data_->data() + s.offset, s.len);
  fail("missing required section");
}

// --- image codec -----------------------------------------------------------

Blob encode_checkpoint(const CheckerImage& img) {
  CheckpointWriter w(img.num_nodes);
  w.add_section(kSecMeta, enc_meta(img));
  w.add_section(kSecSnapshot, enc_snapshot(img));
  w.add_section(kSecStore, enc_store(img));
  w.add_section(kSecNetwork, enc_network(img));
  w.add_section(kSecEvents, enc_events(img));
  w.add_section(kSecFeasibility, enc_feasibility(img));
  w.add_section(kSecCursors, enc_cursors(img));
  w.add_section(kSecStats, enc_stats(img.stats));
  w.add_section(kSecDeferred, enc_deferred(img));
  w.add_section(kSecViolations, enc_violations(img));
  w.add_section(kSecPending, enc_pending(img));
  w.add_section(kSecSegment, enc_segment(img));
  if (img.has_symmetry) w.add_section(kSecSymmetry, enc_symmetry(img));
  if (img.has_por) w.add_section(kSecPor, enc_por(img));
  return std::move(w).finish();
}

CheckerImage decode_checkpoint(const Blob& data) {
  CheckpointReader r(data);
  CheckerImage img;
  img.num_nodes = r.num_nodes();
  check(img.num_nodes > 0, "zero nodes");
  try {
    // Order matters: later sections validate indices against the store.
    {
      Reader s = r.open(kSecStore);
      dec_store(s, img);
    }
    {
      Reader s = r.open(kSecSnapshot);
      dec_snapshot(s, img);
    }
    {
      Reader s = r.open(kSecNetwork);
      dec_network(s, img);
    }
    {
      Reader s = r.open(kSecEvents);
      dec_events(s, img);
    }
    {
      Reader s = r.open(kSecFeasibility);
      dec_feasibility(s, img);
    }
    {
      Reader s = r.open(kSecCursors);
      dec_cursors(s, img);
    }
    {
      Reader s = r.open(kSecStats);
      dec_stats(s, img.stats);
    }
    {
      Reader s = r.open(kSecDeferred);
      dec_deferred(s, img);
    }
    {
      Reader s = r.open(kSecViolations);
      dec_violations(s, img);
    }
    {
      Reader s = r.open(kSecPending);
      dec_pending(s, img);
    }
    {
      Reader s = r.open(kSecSegment);
      dec_segment(s, img);
    }
    // Section 13 exists only in files written by symmetry-active runs.
    if (r.has(kSecSymmetry)) {
      Reader s = r.open(kSecSymmetry);
      dec_symmetry(s, img);
    }
    // Section 14 exists only in files written by POR-active runs.
    if (r.has(kSecPor)) {
      Reader s = r.open(kSecPor);
      dec_por(s, img);
    }
  } catch (const SerializeError& e) {
    fail(std::string("malformed section: ") + e.what());
  }
  return img;
}

CheckpointInfo inspect_checkpoint(const Blob& data) {
  CheckpointReader r(data);
  CheckpointInfo info;
  info.version = r.version();
  info.num_nodes = r.num_nodes();
  info.sections = r.sections();
  if (r.has(kSecMeta)) {
    try {
      Reader m = r.open(kSecMeta);
      info.total_states = m.u64();
      const std::uint32_t n = m.u32();
      check(n == info.num_nodes, "meta node count mismatch");
      for (std::uint32_t i = 0; i < n; ++i) info.states_per_node.push_back(m.u64());
      info.net_size = m.u64();
      info.event_count = m.u64();
      info.pending_tasks = m.u64();
      m.expect_exhausted();
    } catch (const SerializeError& e) {
      fail(std::string("malformed meta section: ") + e.what());
    }
  }
  if (r.has(kSecStats)) {
    try {
      Reader s = r.open(kSecStats);
      dec_stats(s, info.stats);
    } catch (const SerializeError& e) {
      fail(std::string("malformed stats section: ") + e.what());
    }
  }
  if (r.has(kSecSegment)) {
    try {
      Reader s = r.open(kSecSegment);
      info.segment_id = s.u64();
      info.base_round = s.u32();
      s.expect_exhausted();
    } catch (const SerializeError& e) {
      fail(std::string("malformed segment section: ") + e.what());
    }
  }
  if (r.has(kSecSymmetry)) {
    try {
      Reader s = r.open(kSecSymmetry);
      info.has_symmetry = true;
      info.sym_seen = s.u32();
    } catch (const SerializeError& e) {
      fail(std::string("malformed symmetry section: ") + e.what());
    }
  }
  if (r.has(kSecPor)) {
    try {
      Reader s = r.open(kSecPor);
      info.has_por = true;
      info.por_digest = s.u64();
      const std::uint32_t n = s.u32();
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t cnt = s.u32();
        info.por_entries += cnt;
        for (std::uint32_t j = 0; j < cnt; ++j) {
          s.u32();
          s.u64();
          s.u8();
        }
      }
      info.por_deferred = s.u32();
      for (std::uint64_t j = 0; j < info.por_deferred; ++j) {
        s.u64();
        s.u32();
        s.u32();
      }
      s.expect_exhausted();
    } catch (const SerializeError& e) {
      fail(std::string("malformed por section: ") + e.what());
    }
  }
  return info;
}

// --- file I/O --------------------------------------------------------------

void write_checkpoint_file(const std::string& path, const Blob& data) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) fail("cannot open for writing: " + tmp);
  const std::size_t wrote = data.empty() ? 0 : std::fwrite(data.data(), 1, data.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (wrote != data.size() || !flushed) {
    std::remove(tmp.c_str());
    fail("short write: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    fail("cannot rename into place: " + path);
  }
}

Blob read_checkpoint_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) fail("cannot open: " + path);
  Blob data;
  std::uint8_t buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) data.insert(data.end(), buf, buf + n);
  const bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) fail("read error: " + path);
  return data;
}

}  // namespace lmc
