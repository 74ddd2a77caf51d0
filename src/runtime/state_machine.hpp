// The node state machine abstraction (the paper's Fig. 5 behaviour
// functions) plus the execution funnel both model checkers use.
//
// Mace programs declare handler and message boundaries and get
// (de)serialization generated; here protocols implement this interface by
// hand. Everything the checkers do — dedup, predecessors, soundness — works
// on the serialized representation (`Blob`) and its 64-bit hash, never on
// live objects, so checker state stays copy-free and compact (§4.2).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "runtime/context.hpp"
#include "runtime/footprint.hpp"
#include "runtime/message.hpp"
#include "runtime/serialize.hpp"
#include "runtime/types.hpp"

namespace lmc {

/// One node's deterministic state machine.
class StateMachine {
 public:
  virtual ~StateMachine() = default;

  /// HM: handle a network message. Sends via ctx; must be deterministic.
  virtual void handle_message(const Message& m, Context& ctx) = 0;

  /// Enumerate the internal events (timers, app calls) enabled in this
  /// state. The test driver of §4.2 is expressed through these.
  virtual std::vector<InternalEvent> enabled_internal_events() const = 0;

  /// HA: handle an internal event.
  virtual void handle_internal(const InternalEvent& ev, Context& ctx) = 0;

  /// Deterministic full-state (de)serialization. Equal logical states MUST
  /// produce identical bytes: hashes of these bytes are state identity.
  /// These contracts (and handler determinism above) are what lmc_lint
  /// checks statically and runtime/audit.hpp enforces dynamically.
  virtual void serialize(Writer& w) const = 0;
  virtual void deserialize(Reader& r) = 0;
};

/// Creates a fresh (pre-init) machine for node `self` in an `n`-node system.
using MachineFactory =
    std::function<std::unique_ptr<StateMachine>(NodeId self, std::uint32_t n)>;

/// Immutable description of the system under test.
struct SystemConfig {
  std::uint32_t num_nodes = 0;
  MachineFactory factory;

  /// Classes of interchangeable nodes ("replicated roles"): within one
  /// class, permuting node ids yields behaviourally identical systems.
  /// Consumed by `LocalMcOptions::symmetry` mode `kAuto` (src/mc/symmetry/).
  /// Purely advisory — a wrong hint costs reduction effectiveness, never
  /// soundness, because orbit verification re-checks concrete assignments.
  std::vector<std::vector<NodeId>> symmetric_roles;

  /// Static handler footprints (runtime/footprint.hpp), filled by the
  /// elaborator (DSL compiler, ProtoGen, hand-written make_config). Input
  /// of the static commutation checker behind `LocalMcOptions::por`; a
  /// config without footprints simply gets no partial-order reduction.
  /// Wrong footprints CAN cost soundness — that is what the runtime
  /// commutation auditor and the IN01–IN03 lint diagnostics police.
  std::shared_ptr<const ProtocolFootprints> footprints;

  std::unique_ptr<StateMachine> make(NodeId n) const { return factory(n, num_nodes); }
};

/// Serialize a machine into a fresh blob whose buffer starts with room for
/// `reserve` bytes (the blob's capacity may exceed its size).
Blob machine_to_blob(const StateMachine& m, std::size_t reserve = 0);

/// Rehydrate node `n` of `cfg` from `state`.
std::unique_ptr<StateMachine> machine_from_blob(const SystemConfig& cfg, NodeId n,
                                                const Blob& state);

/// Result of executing one handler on one serialized node state.
struct ExecResult {
  /// Successor node state (serialized). Its buffer was reserved from the
  /// predecessor's size: copy it to keep an exact-size blob.
  Blob state;
  std::vector<Message> sent;    ///< the handler's `c` set
  bool assert_failed = false;   ///< a local assertion fired
  std::string assert_msg;
};

/// Execute HM / HA on a serialized state. These are the only ways the
/// checkers run protocol code.
ExecResult exec_message(const SystemConfig& cfg, NodeId n, const Blob& state, const Message& m);
ExecResult exec_internal(const SystemConfig& cfg, NodeId n, const Blob& state,
                         const InternalEvent& ev);

/// Enabled internal events of a serialized state.
std::vector<InternalEvent> internal_events_of(const SystemConfig& cfg, NodeId n,
                                              const Blob& state);

/// Initial (pre-init) serialized states for all nodes of `cfg`.
std::vector<Blob> initial_states(const SystemConfig& cfg);

}  // namespace lmc
