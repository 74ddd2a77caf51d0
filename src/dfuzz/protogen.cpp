#include "dfuzz/protogen.hpp"

#include <string>
#include <utility>

#include "dfuzz/rng.hpp"

namespace lmc::dfuzz {

namespace {

using dsl::DslSpec;
using dsl::SpecAction;
using dsl::SpecInternalRule;
using dsl::SpecMsgRule;
using dsl::SpecSend;

/// Protocol name, provenance seed, node count and the synthesized state and
/// message names every generated spec shares.
DslSpec skeleton(std::uint64_t seed, std::uint32_t nodes, std::uint32_t states,
                 std::uint32_t msg_types) {
  DslSpec spec;
  spec.name = "dfuzz_seed_" + std::to_string(seed);
  spec.seed = seed;
  spec.num_nodes = nodes;
  for (std::uint32_t i = 0; i < states; ++i) spec.states.push_back("s" + std::to_string(i));
  for (std::uint32_t i = 0; i < msg_types; ++i) spec.messages.push_back("m" + std::to_string(i));
  return spec;
}

SpecSend fixed_send(NodeId dst, std::uint32_t type, std::uint32_t tag) {
  SpecSend s;
  s.dst = dst;
  s.type = type;
  s.tag = tag;
  return s;
}

void add_internal(DslSpec& spec, SpecInternalRule r) {
  r.label = "r" + std::to_string(spec.internals.size());
  spec.internals.push_back(std::move(r));
}

/// Keep a drawn message rule unless an earlier rule owns its (node, type,
/// guard): under first-match dispatch it could never fire (DSL04).
void add_msg_rule(DslSpec& spec, SpecMsgRule r) {
  for (const SpecMsgRule& kept : spec.msg_rules)
    if (kept.node == r.node && kept.type == r.type && kept.guard_state == r.guard_state) return;
  spec.msg_rules.push_back(std::move(r));
}

/// Both states are >= 1, so the all-zero initial system state never
/// violates trivially (A == B means at most one node in A).
void add_mutex(DslSpec& spec, std::uint32_t state_a, std::uint32_t state_b, bool projected) {
  dsl::SpecInvariant inv;
  inv.name = "mutex";
  inv.projected = projected;
  inv.a = {state_a};
  inv.b = {state_b};
  spec.invariants.push_back(std::move(inv));
}

}  // namespace

DslSpec generate_spec(std::uint64_t seed, const GenLimits& lim) {
  Rng rng(seed);
  const std::uint32_t num_nodes = rng.range(2, lim.max_nodes < 2 ? 2 : lim.max_nodes);
  const std::uint32_t num_states = rng.range(2, lim.max_states < 2 ? 2 : lim.max_states);
  const std::uint32_t num_msg_types =
      rng.range(1, lim.max_msg_types < 1 ? 1 : lim.max_msg_types);
  DslSpec spec = skeleton(seed, num_nodes, num_states, num_msg_types);

  std::uint32_t tag = 0;
  auto gen_action = [&](std::uint32_t min_goto) {
    SpecAction a;
    a.goto_state = rng.range(min_goto, num_states - 1);
    const std::uint32_t sends = rng.range(0, lim.max_sends);
    for (std::uint32_t s = 0; s < sends; ++s) {
      const NodeId dst = rng.range(0, num_nodes - 1);
      const std::uint32_t type = rng.range(0, num_msg_types - 1);
      // Distinct payloads: rules never alias each other's traffic.
      a.sends.push_back(fixed_send(dst, type, tag++));
    }
    a.fail_assert = rng.chance(lim.assert_pct);
    return a;
  };

  // At least one internal rule per protocol, and the first one guards on
  // the initial state: otherwise (empty network, nothing enabled) the whole
  // run is a trivial no-op and the seed is wasted.
  const std::uint32_t n_int =
      rng.range(1, lim.max_internal_rules < 1 ? 1 : lim.max_internal_rules);
  for (std::uint32_t i = 0; i < n_int; ++i) {
    SpecInternalRule r;
    r.node = rng.range(0, num_nodes - 1);
    r.guard_state = i == 0 ? 0 : rng.range(0, num_states - 1);
    // Non-decreasing goto: together with the message rules' strict
    // progress this makes the node state monotone along any chain, so no
    // rule ever executes twice in one run and no message content is ever
    // regenerated — generated protocols stay inside the model's
    // completeness envelope (the paper's duplicate-message limit of 0;
    // DESIGN.md "Delivery history"). A backward goto is legal for the
    // interpreter but produces protocols the local checker is documented
    // to under-approximate, which the differential oracle would flag.
    r.action = gen_action(r.guard_state);
    add_internal(spec, std::move(r));
  }

  const std::uint32_t n_msg = rng.range(0, lim.max_msg_rules);
  for (std::uint32_t i = 0; i < n_msg; ++i) {
    SpecMsgRule r;
    r.node = rng.range(0, num_nodes - 1);
    r.type = rng.range(0, num_msg_types - 1);
    r.guard_state = rng.range(0, num_states - 2);
    r.action = gen_action(r.guard_state + 1);  // strictly up: bounded progress
    add_msg_rule(spec, std::move(r));
  }

  const std::uint32_t state_a = rng.range(1, num_states - 1);
  const std::uint32_t state_b = rng.range(1, num_states - 1);
  add_mutex(spec, state_a, state_b, rng.chance(lim.projection_pct));
  return spec;
}

DslSpec generate_symmetric_spec(std::uint64_t seed, const GenLimits& lim) {
  Rng rng(seed);
  // Partition the nodes into drivers [0, drivers) and one replicated class
  // [drivers, num_nodes). At least one driver, at least two members.
  const std::uint32_t max_n = lim.max_nodes < 3 ? 3 : lim.max_nodes;
  const std::uint32_t drivers = rng.range(1, max_n - 2);
  const std::uint32_t members = rng.range(2, max_n - drivers);
  const std::uint32_t num_nodes = drivers + members;
  const std::uint32_t num_states = rng.range(2, lim.max_states < 2 ? 2 : lim.max_states);
  const std::uint32_t num_msg_types =
      rng.range(1, lim.max_msg_types < 1 ? 1 : lim.max_msg_types);
  DslSpec spec = skeleton(seed, num_nodes, num_states, num_msg_types);

  std::uint32_t tag = 0;

  // Driver internal rules. The first one always guards the initial state
  // and broadcasts into the class (otherwise nothing reaches the members
  // and the seed is wasted). A broadcast shares ONE tag across the member
  // copies — contents stay distinct via dst, and every member's consumed
  // digest matches, which is what lets their blobs coincide.
  const std::uint32_t n_drv =
      rng.range(1, lim.max_internal_rules < 1 ? 1 : lim.max_internal_rules);
  for (std::uint32_t i = 0; i < n_drv; ++i) {
    SpecInternalRule r;
    r.node = static_cast<NodeId>(rng.range(0, drivers - 1));
    r.guard_state = i == 0 ? 0 : rng.range(0, num_states - 1);
    r.action.goto_state = rng.range(r.guard_state, num_states - 1);
    const std::uint32_t sends = i == 0 ? 1 : rng.range(0, lim.max_sends);
    for (std::uint32_t s = 0; s < sends; ++s) {
      const std::uint32_t type = rng.range(0, num_msg_types - 1);
      if (i == 0 || rng.chance(70)) {
        const std::uint32_t t = tag++;
        for (std::uint32_t m = drivers; m < num_nodes; ++m)
          r.action.sends.push_back(fixed_send(static_cast<NodeId>(m), type, t));
      } else {
        const NodeId dst = static_cast<NodeId>(rng.range(0, drivers - 1));
        r.action.sends.push_back(fixed_send(dst, type, tag++));
      }
    }
    r.action.fail_assert = i != 0 && rng.chance(lim.assert_pct);
    add_internal(spec, std::move(r));
  }

  // Replicated member rules: each template is stamped out identically for
  // every member (template-major, so local rule positions line up). Replies
  // to drivers carry PER-MEMBER tags: behaviour is still symmetric (tags
  // never guard anything) but the receiving driver's digest distinguishes
  // senders, keeping the delivery history a function of the driver's blob.
  const std::uint32_t n_msg_tpl = rng.range(1, 2);
  for (std::uint32_t t = 0; t < n_msg_tpl; ++t) {
    const std::uint32_t type =
        t == 0 ? spec.internals[0].action.sends[0].type : rng.range(0, num_msg_types - 1);
    const std::uint32_t guard = t == 0 ? 0 : rng.range(0, num_states - 2);
    const std::uint32_t target = rng.range(guard + 1, num_states - 1);
    const std::uint32_t replies = rng.range(0, 1);
    const NodeId reply_dst = static_cast<NodeId>(rng.range(0, drivers - 1));
    const std::uint32_t reply_type = rng.range(0, num_msg_types - 1);
    const bool fail = rng.chance(lim.assert_pct);
    for (std::uint32_t m = drivers; m < num_nodes; ++m) {
      SpecMsgRule r;
      r.node = static_cast<NodeId>(m);
      r.type = type;
      r.guard_state = guard;
      r.action.goto_state = target;
      if (replies != 0)
        r.action.sends.push_back(fixed_send(reply_dst, reply_type, tag + (m - drivers)));
      r.action.fail_assert = fail;
      add_msg_rule(spec, std::move(r));
    }
    if (replies != 0) tag += members;
  }
  if (rng.chance(50)) {
    // One replicated fire-once internal rule for the class.
    const std::uint32_t guard = rng.range(0, num_states - 1);
    const std::uint32_t target = rng.range(guard, num_states - 1);
    const std::uint32_t pokes = rng.range(0, 1);
    const NodeId poke_dst = static_cast<NodeId>(rng.range(0, drivers - 1));
    const std::uint32_t poke_type = rng.range(0, num_msg_types - 1);
    for (std::uint32_t m = drivers; m < num_nodes; ++m) {
      SpecInternalRule r;
      r.node = static_cast<NodeId>(m);
      r.guard_state = guard;
      r.action.goto_state = target;
      if (pokes != 0)
        r.action.sends.push_back(fixed_send(poke_dst, poke_type, tag + (m - drivers)));
      add_internal(spec, std::move(r));
    }
    if (pokes != 0) tag += members;
  }

  const std::uint32_t state_a = rng.range(1, num_states - 1);
  const std::uint32_t state_b = rng.range(1, num_states - 1);
  // Never project: the GEN system-state path is the one symmetry reduction
  // hooks into (projection combos are arrangement-dependent).
  add_mutex(spec, state_a, state_b, /*projected=*/false);
  return spec;
}

}  // namespace lmc::dfuzz
