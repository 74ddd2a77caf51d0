// Repro artifact writer, shared by lmc_fuzz and the tests: a shrunk oracle
// disagreement lands as <dir>/dfuzz_repro_seed<seed>.lmc — the minimal
// protocol as loadable DSL text. Its `#` header records the seed, the
// failure class and detail, the shrink counts, the `lmc_fuzz` command that
// regenerates the unshrunk spec, and the exact `lmc_run ... --oracle`
// command that replays the check with the sweep's oracle options.
#pragma once

#include <cstdint>
#include <string>

#include "dfuzz/oracle.hpp"
#include "dfuzz/protogen.hpp"
#include "dfuzz/shrink.hpp"

namespace lmc::dfuzz {

/// Write the artifact under `dir` (created, with parents, if it does not
/// exist) and return its path. `opt`, `lim` and `symmetric_specs` are what
/// the sweep ran with. Throws std::runtime_error on I/O failure.
std::string write_repro_artifact(const std::string& dir, std::uint64_t seed,
                                 const ShrinkResult& shrunk, const OracleOptions& opt,
                                 const GenLimits& lim, bool symmetric_specs);

}  // namespace lmc::dfuzz
