#include "dfuzz/artifacts.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "dsl/spec.hpp"

namespace lmc::dfuzz {

std::string write_repro_artifact(const std::string& dir, std::uint64_t seed,
                                 const ShrinkResult& shrunk, const OracleOptions& opt,
                                 const GenLimits& lim, bool symmetric_specs) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/dfuzz_repro_seed" + std::to_string(seed) + ".lmc";

  std::string regenerate = "lmc_fuzz --seed " + std::to_string(seed) + " --runs 1";
  if (lim.max_nodes != GenLimits{}.max_nodes)
    regenerate += " --max-nodes " + std::to_string(lim.max_nodes);
  if (symmetric_specs) regenerate += " --symmetric-specs";

  char budget[32];
  std::snprintf(budget, sizeof budget, "%g", opt.lmc_time_budget_s);
  std::string replay = "lmc_run " + path + " --oracle --no-scenarios --time-budget " + budget +
                       " --threads " + std::to_string(opt.num_threads);
  if (opt.check_symmetry) replay += " --symmetry";
  if (opt.check_por) replay += " --por";
  if (opt.audit_every != 0) replay += " --audit-every " + std::to_string(opt.audit_every);
  if (opt.audit_validity) replay += " --audit-validity";

  std::string detail = shrunk.report.detail;
  for (char& c : detail)
    if (c == '\n') c = ' ';  // one comment line

  dsl::DslSpec spec = shrunk.spec;
  // Expect what the reference checker found, so the replay exits 0 once the
  // checker agrees with it (a violation is the expected outcome for most
  // shrunk disagreements, not a failure). The disagreeing checker's own
  // count would be wrong when it missed a violation the global search
  // found.
  spec.expect_violation = shrunk.report.gmc_violation_tuples > 0;

  std::ofstream out(path, std::ios::binary);
  out << "# lmc_fuzz disagreement\n"
      << "# seed: " << seed << "\n"
      << "# failure: " << to_string(shrunk.report.failure) << "\n"
      << "# detail: " << detail << "\n"
      << "# shrink: removed " << shrunk.removed << " piece(s) in " << shrunk.attempts
      << " oracle run(s)\n"
      << "# regenerate (unshrunk): " << regenerate << "\n"
      << "# replay: " << replay << "\n"
      << dsl::to_lmc_text(spec);
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
  return path;
}

}  // namespace lmc::dfuzz
