#include "runtime/state_machine.hpp"

namespace lmc {

Blob machine_to_blob(const StateMachine& m, std::size_t reserve) {
  Writer w(reserve);
  m.serialize(w);
  return std::move(w).take();
}

std::unique_ptr<StateMachine> machine_from_blob(const SystemConfig& cfg, NodeId n,
                                                const Blob& state) {
  auto m = cfg.make(n);
  Reader r(state);
  m->deserialize(r);
  r.expect_exhausted();
  return m;
}

ExecResult exec_message(const SystemConfig& cfg, NodeId n, const Blob& state, const Message& m) {
  auto node = machine_from_blob(cfg, n, state);
  Context ctx(n);
  node->handle_message(m, ctx);
  ExecResult res;
  res.state = machine_to_blob(*node, state.size());
  res.assert_failed = ctx.assert_failed();
  res.assert_msg = ctx.assert_message();
  res.sent = std::move(ctx).take_sent();
  return res;
}

ExecResult exec_internal(const SystemConfig& cfg, NodeId n, const Blob& state,
                         const InternalEvent& ev) {
  auto node = machine_from_blob(cfg, n, state);
  Context ctx(n);
  node->handle_internal(ev, ctx);
  ExecResult res;
  res.state = machine_to_blob(*node, state.size());
  res.assert_failed = ctx.assert_failed();
  res.assert_msg = ctx.assert_message();
  res.sent = std::move(ctx).take_sent();
  return res;
}

std::vector<InternalEvent> internal_events_of(const SystemConfig& cfg, NodeId n,
                                              const Blob& state) {
  auto node = machine_from_blob(cfg, n, state);
  return node->enabled_internal_events();
}

std::vector<Blob> initial_states(const SystemConfig& cfg) {
  std::vector<Blob> v;
  v.reserve(cfg.num_nodes);
  for (NodeId n = 0; n < cfg.num_nodes; ++n) v.push_back(machine_to_blob(*cfg.make(n)));
  return v;
}

}  // namespace lmc
