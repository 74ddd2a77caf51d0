// Greedy shrinker for oracle disagreements: keep deleting protocol pieces
// while the SAME class of divergence persists, so a repro artifact lands as
// the smallest protocol that still shows the bug.
#pragma once

#include <cstdint>

#include "dfuzz/oracle.hpp"
#include "dsl/spec.hpp"

namespace lmc::dfuzz {

struct ShrinkResult {
  dsl::DslSpec spec;      ///< smallest failing spec found
  OracleReport report;    ///< the oracle report on that spec
  std::uint64_t attempts = 0;   ///< oracle runs spent
  std::uint32_t removed = 0;    ///< accepted reductions
};

/// Greedily minimize `spec`, preserving `failure` (the divergence class the
/// original run produced). A candidate counts as still-failing only when
/// dsl::validate accepts it and its oracle verdict is CONCLUSIVE and fails
/// with the same failure kind — an inconclusive or differently-failing
/// reduction is rejected, so the artifact always reproduces the reported
/// bug. Reduction passes: drop message rules, drop internal rules, drop
/// individual sends, clear injected asserts, drop ANY single node (its
/// rules and traffic go with it; higher node ids are renumbered down to
/// keep the id space dense). `max_attempts` bounds the total oracle
/// invocations.
ShrinkResult shrink_spec(const dsl::DslSpec& spec, OracleFailure failure,
                         const OracleOptions& opt, std::uint64_t max_attempts = 400);

}  // namespace lmc::dfuzz
