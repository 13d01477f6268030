// Chaos harness: one simulated phone under a long generated program.
//
// Generates a ScenarioProgram (generator.h) whose steps mix the cast's
// framework traffic with the grammar's six fault ops — process kills
// (including kills of wakelock holders, the leak path), main-thread
// hang toggles, Binder failure windows, dropped broadcasts, deferred
// alarms, battery exhaustion — replays it on a Testbed through a
// ProgramExecutor, and returns a digest of everything observable: fault
// counts, recovery counts (service restarts, ANR kills), energy totals,
// and the InvariantChecker's report.
//
// Two properties make it a harness rather than a demo:
//   * the digest is a full-precision string, so two runs of the same seed
//     can be compared bitwise (determinism under faults);
//   * a failing seed is self-contained — ChaosResult::plan is the program
//     in corpus format, which run_chaos(program) (or the fuzz oracle)
//     replays exactly, and which fuzz::shrink can reduce.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/program.h"
#include "obs/obs.h"

namespace eandroid::fuzz {

struct ChaosOptions {
  std::uint64_t seed = 1;
  /// Program steps (each 50–900 ms after the previous one); the program
  /// then runs a 70 s tail so in-flight recoveries settle.
  int steps = 300;
  /// Observability passthrough (TestbedOptions::obs). Tracing a chaos
  /// run captures the fault/recovery event order; the trace text rides
  /// on ChaosResult::trace_text and stays OUT of the digest, which must
  /// not change when tracing is toggled.
  obs::ObsOptions obs{};
};

struct ChaosResult {
  std::uint64_t seed = 0;
  /// The program that ran, serialized (corpus format).
  std::string plan;

  /// Fault-op steps applied.
  std::uint64_t faults_injected = 0;
  std::uint64_t service_restarts = 0;
  std::uint64_t anr_kills = 0;
  std::uint64_t binder_failures = 0;
  std::uint64_t broadcasts_dropped = 0;
  std::uint64_t alarms_delayed = 0;

  std::uint64_t workload_steps = 0;
  std::uint64_t windows_opened = 0;
  std::uint64_t windows_closed = 0;
  double sim_seconds = 0.0;
  double consumed_mj = 0.0;
  double ea_total_mj = 0.0;

  std::vector<std::string> violations;

  /// Text export of the device trace when tracing was on, empty
  /// otherwise. Deliberately excluded from digest(): tracing must never
  /// change what the simulation computes.
  std::string trace_text;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  /// Full-precision rendering of every field above; equal digests mean
  /// the runs were observably identical.
  [[nodiscard]] std::string digest() const;
};

/// The program run_chaos(options) drives: `options.steps` steps from the
/// generator seeded with `options.seed`, plus the 70 s settle tail.
[[nodiscard]] ScenarioProgram chaos_program(const ChaosOptions& options);

/// Runs one seeded chaos program to completion.
ChaosResult run_chaos(const ChaosOptions& options);

/// Runs `program` (which must satisfy validate()) as a chaos run: a
/// Testbed seeded with program.seed, the cast installed, the program
/// replayed to its horizon, then the invariant check. Shrinking a failing
/// chaos seed replays its candidates through this.
ChaosResult run_chaos(const ScenarioProgram& program,
                      const obs::ObsOptions& obs = {});

}  // namespace eandroid::fuzz
