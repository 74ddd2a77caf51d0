// Interpreter: runs an elaborated DslSpec as a StateMachine + Invariant so
// LocalMc, GlobalMc, DiffOracle and the ModelValidityAuditor work on .lmc
// protocols unchanged.
//
// The node state is a compact triple (state, fired bitmask, delivery digest),
// and it is serialization-complete: everything a handler's behaviour can depend
// on (current state, which fire-once rules ran, which messages were consumed)
// is in the blob, so equal blobs really are interchangeable under re-execution.
// The digest folds the FULL message identity (src included): with
// sender-relative replies two deliveries that differ only in their sender
// produce different successor blobs, keeping the delivery history a function of
// the state (the seed-664 lesson — states reachable via different histories
// must not alias).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dsl/spec.hpp"
#include "mc/invariant.hpp"
#include "runtime/state_machine.hpp"

namespace lmc::dsl {

class DslNode final : public StateMachine {
 public:
  DslNode(NodeId self, std::shared_ptr<const DslSpec> spec)
      : self_(self), spec_(std::move(spec)) {}

  void handle_message(const Message& m, Context& ctx) override;
  std::vector<InternalEvent> enabled_internal_events() const override;
  void handle_internal(const InternalEvent& ev, Context& ctx) override;
  void serialize(Writer& w) const override;
  void deserialize(Reader& r) override;

 private:
  void apply(const SpecAction& a, Context& ctx, NodeId sender, bool have_sender);

  NodeId self_;
  std::shared_ptr<const DslSpec> spec_;
  std::uint32_t state_ = 0;
  std::uint32_t fired_ = 0;   ///< bitmask over self_'s OWN internal rules, in table order
  std::uint64_t digest_ = 0;  ///< XOR of mix64(src,type,payload) per consumed message
};

/// The conjunction of the spec's named invariants. Each one is pairwise
/// ("never A with B" on distinct nodes, or "never A before B" on an ordered
/// node pair), so when every invariant opts into `projected` the whole
/// conjunction exposes an exact pairwise projection for LMC-OPT: invariant k
/// owns keys 2k (state in A) and 2k+1 (state in B), values carry the node id
/// so `before` can compare positions.
class DslInvariant final : public Invariant {
 public:
  explicit DslInvariant(std::shared_ptr<const DslSpec> spec) : spec_(std::move(spec)) {}

  std::string name() const override;
  bool holds(const SystemConfig& cfg, const SystemStateView& sys) const override;
  bool symmetric_under(const std::vector<std::vector<NodeId>>& classes) const override;
  bool has_projection() const override;
  Projection project(const SystemConfig& cfg, NodeId n, const Blob& state) const override;
  bool projections_conflict(const Projection& a, const Projection& b) const override;

  /// Name of the first invariant `sys` violates; empty when all hold.
  std::string first_violated(const SystemStateView& sys) const;

 private:
  std::shared_ptr<const DslSpec> spec_;
};

/// A spec made runnable. Owns the spec; `cfg` and `invariant` stay valid as
/// long as this object lives.
struct CompiledProtocol {
  std::shared_ptr<const DslSpec> spec;
  SystemConfig cfg;
  std::unique_ptr<DslInvariant> invariant;
};

/// Throws std::invalid_argument when dsl::validate rejects the spec.
/// Fills `cfg.symmetric_roles` with the inferred interchangeability classes
/// (see infer_symmetric_roles) so `SymmetryMode::kAuto` works out of the box.
CompiledProtocol instantiate(const DslSpec& spec);

/// Maximal classes of nodes whose rule tables are automorphic under id
/// swaps (symmetry::infer_classes over the spec's elaborated rules). Tags
/// are ignored — the reduction is unconditionally sound, so over-merging
/// only costs effectiveness, and shared per-AST-send auto tags make
/// mirrored handlers compare equal.
std::vector<std::vector<NodeId>> infer_symmetric_roles(const DslSpec& spec);

/// Decode the `state` field of a serialized DslNode.
std::uint32_t dsl_state_of(const Blob& state);

}  // namespace lmc::dsl
