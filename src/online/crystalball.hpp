// CrystalBall-style online model checking (§3.3, §4.2): run the (simulated)
// live system, and periodically restart the local model checker from the
// current live snapshot. The checker only needs to out-run the exponential
// explosion for a few seconds per period — exactly the regime LMC targets.
#pragma once

#include <functional>
#include <limits>

#include "mc/local_mc.hpp"
#include "online/live_runner.hpp"

namespace lmc {

/// Per-period progress record (passed to CrystalBallOptions::on_period).
struct CrystalBallPeriod {
  int index = 0;             ///< 0-based checker run number
  double live_time = 0.0;    ///< simulated time of this period's snapshot
  bool found = false;        ///< a confirmed violation surfaced this period
  LocalMcStats stats;        ///< this period's checker stats
};

struct CrystalBallOptions {
  double period = 60.0;          ///< live seconds between checker runs (§5.5)
  double max_live_time = 3600.0; ///< give up after this much simulated time
  /// Observation hook, called after every checker period.
  std::function<void(const CrystalBallPeriod&)> on_period;
  LocalMcOptions mc;             ///< per-run checker configuration
};

struct CrystalBallResult {
  bool found = false;
  double live_time = 0.0;          ///< simulated time at the detecting snapshot
  double checker_elapsed_s = 0.0;  ///< wall time of the detecting checker run
  int runs = 0;                    ///< checker runs performed
  LocalViolation violation;        ///< the confirmed violation (if found)
  Snapshot snapshot;               ///< the snapshot the witness starts from
  EventTable events;               ///< event table for witness replay (if found)
  LocalMcStats last_stats;         ///< stats of the final checker run
};

class CrystalBall {
 public:
  CrystalBall(const SystemConfig& cfg, const Invariant* invariant, LiveRunner& live,
              CrystalBallOptions opt)
      : cfg_(cfg), invariant_(invariant), live_(live), opt_(opt) {}

  /// Alternate live execution and checker runs until a confirmed violation
  /// is found or max_live_time passes. Each period restarts a fresh checker
  /// from the current live snapshot.
  CrystalBallResult run();

 private:
  const SystemConfig& cfg_;
  const Invariant* invariant_;
  LiveRunner& live_;
  CrystalBallOptions opt_;
};

}  // namespace lmc
