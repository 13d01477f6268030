// The stacked differential oracle: one ScenarioProgram, many routes.
//
// A program is replayed on every execution route the repo claims is
// observationally identical, and the full-precision energy digests (and
// trace bytes, when tracing is on) are compared bit for bit:
//
//   single-device legs — determinism (same spec twice), plus an
//   InvariantChecker leg that runs the full consistency check after
//   every step, including conservation against the battery's ground
//   truth (its digest is never compared — mid-run sampler flushes move
//   window boundaries);
//
//   fleet legs — a 4-device serial-reference fleet (kLockstep: no
//   executor, no consolidation) against the 4-worker work-stealing
//   scheduler, with a push-broker campaign layered on top so
//   cross-device injection is in play;
//
//   fleet.work_stealing_untraced — the same armed work-stealing fleet
//   with tracing off, so window consolidation (off whenever a recorder
//   is attached) runs on the checked path. Digests only: they do not
//   depend on tracing. Skipped when the oracle runs untraced, because
//   fleet.work_stealing is then this leg;
//
//   fleet.hibernation — a work-stealing fleet capped at ONE resident
//   device, so every device is parked after its run and restored by
//   replay. Its snapshot digests must equal an unarmed serial-reference
//   run of the same fleet, and restoring each device through device(i)
//   must reproduce its snapshot digest live. This leg runs the cast and
//   the push campaign only: the program's steps are NOT armed, because
//   armed executor closures point into a DeviceContext that parking
//   destroys and replay cannot re-arm. It runs untraced, so the
//   work-stealing window consolidation (off whenever a recorder is
//   attached) is on the path it checks.
//
// Any mismatch is an equivalence bug by definition: every route shares
// every summation and its order. The verdict lists one line per broken
// leg plus any invariant violations, and times each leg for the bench's
// oracle-leg breakdown.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/program.h"
#include "obs/metrics.h"

namespace eandroid::fuzz {

struct OracleOptions {
  /// Single-device legs (determinism, per-step invariants).
  bool single_legs = true;
  /// Fleet legs (work-stealing traced and untraced, hibernation).
  /// Heavier — five 4-device fleet runs plus four replay restores per
  /// program.
  bool fleet_legs = true;
  /// Record and compare trace bytes as well as digests.
  bool trace = true;
};

struct LegTiming {
  std::string leg;
  double seconds = 0.0;
};

struct OracleVerdict {
  /// One "leg: what diverged" line per broken equivalence.
  std::vector<std::string> failures;
  /// "step N (op): violation" lines from the per-step invariant leg.
  std::vector<std::string> invariant_violations;
  /// Wall-clock cost of every leg that ran.
  std::vector<LegTiming> timings;
  /// Steps the reference run dispatched (sanity: == program.steps.size()).
  std::uint64_t steps_applied = 0;
  /// The single-device reference run's metrics (fault recoveries, binder
  /// failures, ...); empty when the single legs are off.
  obs::MetricsSnapshot metrics;

  [[nodiscard]] bool ok() const {
    return failures.empty() && invariant_violations.empty();
  }
  [[nodiscard]] std::string to_string() const;
};

/// Replays `program` on every enabled route and compares. The program
/// must satisfy validate() (checked error otherwise).
[[nodiscard]] OracleVerdict run_oracle(const ScenarioProgram& program,
                                       const OracleOptions& options = {});

}  // namespace eandroid::fuzz
