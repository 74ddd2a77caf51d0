#include "dfuzz/shrink.hpp"

#include <utility>

#include "dsl/interp.hpp"

namespace lmc::dfuzz {

namespace {

using dsl::DslSpec;

/// Remove node `gone` entirely: every rule it owns and every send addressed
/// to it are dropped, and all higher node ids (rule owners and send
/// destinations) shift down by one so the id space stays dense. ANY node can
/// be removed, not just the highest — a divergence carried by a middle node
/// must not survive shrinking merely because a higher-numbered bystander is
/// load-bearing.
void drop_node(DslSpec& s, NodeId gone) {
  s.num_nodes -= 1;
  std::erase_if(s.internals, [gone](const dsl::SpecInternalRule& r) { return r.node == gone; });
  std::erase_if(s.msg_rules, [gone](const dsl::SpecMsgRule& r) { return r.node == gone; });
  // Replies to 'sender' follow whichever node delivered; only fixed
  // destinations name node ids.
  auto scrub = [gone](dsl::SpecAction& a) {
    std::erase_if(a.sends,
                  [gone](const dsl::SpecSend& sa) { return !sa.to_sender && sa.dst == gone; });
    for (dsl::SpecSend& sa : a.sends)
      if (!sa.to_sender && sa.dst > gone) --sa.dst;
  };
  for (dsl::SpecInternalRule& r : s.internals) {
    if (r.node > gone) --r.node;
    scrub(r.action);
  }
  for (dsl::SpecMsgRule& r : s.msg_rules) {
    if (r.node > gone) --r.node;
    scrub(r.action);
  }
}

}  // namespace

ShrinkResult shrink_spec(const DslSpec& spec, OracleFailure failure, const OracleOptions& opt,
                         std::uint64_t max_attempts) {
  ShrinkResult out;
  out.spec = spec;
  DiffOracle oracle(opt);

  auto still_fails = [&](const DslSpec& candidate) {
    if (out.attempts >= max_attempts) return false;
    if (!dsl::validate(candidate).empty()) return false;
    ++out.attempts;
    dsl::CompiledProtocol p = dsl::instantiate(candidate);
    OracleReport r = oracle.check(p.cfg, p.invariant.get());
    if (!r.conclusive || r.ok || r.failure != failure) return false;
    out.report = std::move(r);
    return true;
  };

  bool progress = true;
  while (progress && out.attempts < max_attempts) {
    progress = false;

    for (std::size_t i = 0; i < out.spec.msg_rules.size();) {
      DslSpec cand = out.spec;
      cand.msg_rules.erase(cand.msg_rules.begin() + static_cast<std::ptrdiff_t>(i));
      if (still_fails(cand)) {
        out.spec = std::move(cand);
        ++out.removed;
        progress = true;
      } else {
        ++i;
      }
    }

    for (std::size_t i = 0; i < out.spec.internals.size();) {
      DslSpec cand = out.spec;
      cand.internals.erase(cand.internals.begin() + static_cast<std::ptrdiff_t>(i));
      if (still_fails(cand)) {
        out.spec = std::move(cand);
        ++out.removed;
        progress = true;
      } else {
        ++i;
      }
    }

    auto shrink_sends = [&](auto get_rules) {
      for (std::size_t i = 0; i < get_rules(out.spec).size(); ++i) {
        for (std::size_t s = 0; s < get_rules(out.spec)[i].action.sends.size();) {
          DslSpec cand = out.spec;
          auto& sends = get_rules(cand)[i].action.sends;
          sends.erase(sends.begin() + static_cast<std::ptrdiff_t>(s));
          if (still_fails(cand)) {
            out.spec = std::move(cand);
            ++out.removed;
            progress = true;
          } else {
            ++s;
          }
        }
      }
    };
    shrink_sends([](DslSpec& s) -> auto& { return s.internals; });
    shrink_sends([](DslSpec& s) -> auto& { return s.msg_rules; });

    auto clear_asserts = [&](auto get_rules) {
      for (std::size_t i = 0; i < get_rules(out.spec).size(); ++i) {
        if (!get_rules(out.spec)[i].action.fail_assert) continue;
        DslSpec cand = out.spec;
        get_rules(cand)[i].action.fail_assert = false;
        if (still_fails(cand)) {
          out.spec = std::move(cand);
          ++out.removed;
          progress = true;
        }
      }
    };
    clear_asserts([](DslSpec& s) -> auto& { return s.internals; });
    clear_asserts([](DslSpec& s) -> auto& { return s.msg_rules; });

    // Try removing each node in turn (not break-at-first-failure: node 0
    // being load-bearing must not shield node 3 from removal). A successful
    // drop retries the SAME index — it now names the next candidate.
    for (NodeId n = 0; out.spec.num_nodes > 2 && n < out.spec.num_nodes;) {
      DslSpec cand = out.spec;
      drop_node(cand, n);
      if (still_fails(cand)) {
        out.spec = std::move(cand);
        ++out.removed;
        progress = true;
      } else {
        ++n;
      }
    }
  }

  // Pin the report to the final spec (still_fails stored it on each accept;
  // if nothing ever shrank, run the oracle once so the report is filled).
  if (out.removed == 0) {
    dsl::CompiledProtocol p = dsl::instantiate(out.spec);
    out.report = DiffOracle(opt).check(p.cfg, p.invariant.get());
  }
  return out;
}

}  // namespace lmc::dfuzz
