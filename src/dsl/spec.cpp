#include "dsl/spec.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

namespace lmc::dsl {

namespace {

std::string check_action(const DslSpec& spec, const SpecAction& a) {
  if (a.goto_state >= spec.states.size()) return "goto state out of range";
  for (const SpecSend& s : a.sends) {
    if (!s.to_sender && s.dst >= spec.num_nodes) return "send dst out of range";
    if (s.type >= spec.messages.size()) return "send type out of range";
  }
  return "";
}

std::string check_state_set(const DslSpec& spec, const std::vector<std::uint32_t>& set) {
  if (set.empty()) return "empty state set";
  std::uint32_t prev = 0;
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (set[i] >= spec.states.size()) return "state out of range";
    if (i > 0 && set[i] <= prev) return "state set not sorted/deduped";
    prev = set[i];
  }
  return "";
}

bool in_set(const std::vector<std::uint32_t>& set, std::uint32_t s) {
  for (std::uint32_t v : set)
    if (v == s) return true;
  return false;
}

/// Shortest plain decimal (never scientific — the lexer has no exponents)
/// that round-trips small config values (30, 0.5, 12.25).
std::string fmt_num(double v) {
  char buf[64];
  for (int prec = 0; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*f", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  std::string s = buf;
  if (s.find('.') == std::string::npos) s += ".0";
  return s;
}

}  // namespace

std::string validate(const DslSpec& spec) {
  if (spec.num_nodes < 2) return "fewer than 2 nodes";
  if (spec.states.size() < 2) return "fewer than 2 states";
  if (spec.internals.size() > 32) return "more than 32 elaborated internal rules";
  // The uniqueness rules (DSL04, DSL05, DSL07) are plain pairwise scans: an
  // elaborated spec holds a few dozen rules, and instantiate() runs this on
  // every load.
  std::vector<std::pair<NodeId, const SpecSend*>> sent;  // (source, send) so far
  auto duplicate_send = [&](NodeId src, const SpecAction& a) -> std::string {
    for (const SpecSend& s : a.sends) {
      // Indistinguishable in-flight copies: the set network's duplicate
      // limit of 0 would silently drop the second.
      for (const auto& [psrc, p] : sent)
        if (psrc == src && p->to_sender == s.to_sender && (s.to_sender || p->dst == s.dst) &&
            p->type == s.type && p->tag == s.tag)
          return "duplicate send content ('" + spec.messages[s.type] + "' tag " +
                 std::to_string(s.tag) + " from node " + std::to_string(src) + ") [DSL07]";
      sent.emplace_back(src, &s);
    }
    return "";
  };
  for (std::size_t i = 0; i < spec.internals.size(); ++i) {
    const SpecInternalRule& r = spec.internals[i];
    if (r.node >= spec.num_nodes) return "internal rule node out of range";
    if (r.guard_state >= spec.states.size()) return "internal guard out of range";
    if (r.action.goto_state < r.guard_state) return "internal rule decreases the state";
    for (const SpecSend& s : r.action.sends)
      if (s.to_sender) return "internal rule sends to 'sender'";
    if (std::string e = check_action(spec, r.action); !e.empty()) return "internal rule: " + e;
    for (std::size_t j = 0; j < i; ++j)
      if (spec.internals[j].node == r.node && spec.internals[j].label == r.label)
        return "duplicate internal label '" + r.label + "' on node " + std::to_string(r.node) +
               " [DSL05]";
    if (std::string e = duplicate_send(r.node, r.action); !e.empty()) return e;
  }
  for (std::size_t i = 0; i < spec.msg_rules.size(); ++i) {
    const SpecMsgRule& r = spec.msg_rules[i];
    if (r.node >= spec.num_nodes) return "msg rule node out of range";
    if (r.type >= spec.messages.size()) return "msg rule type out of range";
    if (r.guard_state >= spec.states.size()) return "msg guard out of range";
    if (r.action.goto_state <= r.guard_state) return "msg rule not strictly monotone";
    if (std::string e = check_action(spec, r.action); !e.empty()) return "msg rule: " + e;
    for (std::size_t j = 0; j < i; ++j) {
      const SpecMsgRule& q = spec.msg_rules[j];
      if (q.node == r.node && q.type == r.type && q.guard_state == r.guard_state)
        return "duplicate message rule on node " + std::to_string(r.node) +
               " (first match would hide it) [DSL04]";
    }
    if (std::string e = duplicate_send(r.node, r.action); !e.empty()) return e;
  }
  if (spec.invariants.empty()) return "no invariant";
  for (const SpecInvariant& inv : spec.invariants) {
    if (std::string e = check_state_set(spec, inv.a); !e.empty())
      return "invariant " + inv.name + ": " + e;
    if (std::string e = check_state_set(spec, inv.b); !e.empty())
      return "invariant " + inv.name + ": " + e;
    if (in_set(inv.a, 0) && in_set(inv.b, 0))
      return "invariant " + inv.name + " is violated by the initial system state";
  }
  for (const Scenario& sc : spec.scenarios) {
    if (sc.num_nodes < 2) return "scenario " + sc.name + ": fewer than 2 nodes";
    if (sc.drop_pct < 0.0 || sc.drop_pct > 100.0)
      return "scenario " + sc.name + ": drop percentage out of range";
  }
  return "";
}

std::string to_lmc_text(const DslSpec& spec) {
  std::ostringstream os;
  os << "# canonical elaborated form; regenerate with to_lmc_text()\n";
  os << "protocol " << spec.name << " {\n";
  os << "  nodes " << spec.num_nodes << ";\n";
  if (spec.seed != 0) os << "  seed " << spec.seed << ";\n";
  if (spec.expect_violation) os << "  expect violation;\n";

  auto name_list = [&](const char* kw, const std::vector<std::string>& names) {
    if (names.empty()) return;
    os << "  " << kw << " ";
    for (std::size_t i = 0; i < names.size(); ++i) os << (i ? ", " : "") << names[i];
    os << ";\n";
  };
  name_list("states", spec.states);
  name_list("messages", spec.messages);

  auto body = [&](const SpecAction& a) {
    if (a.sends.empty() && !a.fail_assert) {
      os << ";\n";
      return;
    }
    os << " {";
    for (const SpecSend& s : a.sends) {
      os << " send " << spec.messages[s.type] << " to ";
      if (s.to_sender)
        os << "sender";
      else
        os << "node " << s.dst;
      os << " tag " << s.tag << ";";
    }
    if (a.fail_assert) {
      os << " assert false";
      if (!a.assert_msg.empty()) {
        os << " \"";
        for (char c : a.assert_msg) {
          if (c == '"' || c == '\\') os << '\\';
          os << c;
        }
        os << '"';
      }
      os << ";";
    }
    os << " }\n";
  };

  for (const SpecInternalRule& r : spec.internals) {
    os << "  internal " << r.label << " at " << r.node << " @ " << spec.states[r.guard_state]
       << " -> " << spec.states[r.action.goto_state];
    body(r.action);
  }
  for (const SpecMsgRule& r : spec.msg_rules) {
    os << "  on " << spec.messages[r.type] << " at " << r.node << " @ "
       << spec.states[r.guard_state] << " -> " << spec.states[r.action.goto_state];
    body(r.action);
  }

  auto state_set = [&](const std::vector<std::uint32_t>& set) {
    if (set.size() == 1) {
      os << spec.states[set[0]];
      return;
    }
    os << "{";
    for (std::size_t i = 0; i < set.size(); ++i) os << (i ? ", " : "") << spec.states[set[i]];
    os << "}";
  };
  for (const SpecInvariant& inv : spec.invariants) {
    os << "  invariant " << inv.name << ": never ";
    state_set(inv.a);
    os << (inv.before ? " before " : " with ");
    state_set(inv.b);
    if (inv.projected) os << " projected";
    os << ";\n";
  }

  for (const Scenario& sc : spec.scenarios) {
    os << "  scenario " << sc.name << " {";
    os << " nodes " << sc.num_nodes << ";";
    os << " seed " << sc.seed << ";";
    os << " drop " << fmt_num(sc.drop_pct) << ";";
    os << " sim_time " << fmt_num(sc.sim_time) << ";";
    os << " app_max " << fmt_num(sc.app_max) << ";";
    if (sc.fifo) os << " fifo;";
    os << " }\n";
  }

  os << "}\n";
  return std::move(os).str();
}

}  // namespace lmc::dsl
