// Auto-shrinker: reduce a failing ScenarioProgram to a minimal one.
//
// Four passes, all gated on a caller-supplied "still fails" predicate
// (typically: run_oracle(candidate) is not ok) and all grammar-safe —
// every candidate is normalized through repair() and checked with
// validate() before the predicate ever sees it, so removing a
// kBindService drags its kUnbindService out instead of producing an
// unreplayable program:
//
//   1. ddmin over steps — classic delta debugging: try removing chunks of
//      the program at shrinking granularity until no single-chunk removal
//      still fails;
//   2. per-step parameter minimization — walk each surviving step's a/b
//      parameters toward zero (try 0, 1, then binary descent), keeping
//      any value under which the failure reproduces;
//   3. time minimization — move each step earlier (with every later step
//      and the horizon, so later gaps and the settle tail are kept): try
//      1 us after its predecessor, then binary descent to 1 ms, so a
//      reproducer does not idle through the generator's long gaps;
//   4. horizon minimization — lower horizon_us toward the last step's
//      instant (try that instant, then binary descent to 1 ms), so a
//      reproducer simulates no longer than its failure needs.
//
// The result is the smallest program this process reaches, ready to be
// serialized into tests/fuzz/corpus/ as a forever-regression reproducer.
#pragma once

#include <cstdint>
#include <functional>

#include "fuzz/program.h"

namespace eandroid::fuzz {

struct ShrinkStats {
  /// Valid candidates the predicate was asked about.
  int candidates = 0;
  /// Candidates on which the failure still reproduced.
  int still_failing = 0;
  int initial_steps = 0;
  int final_steps = 0;
};

struct ShrinkOptions {
  /// Hard cap on predicate invocations (each one replays the oracle, so
  /// this bounds shrink wall-clock).
  int max_candidates = 400;
};

/// Returns the reduced program. `still_fails` must return true on
/// `program` itself (checked error otherwise — shrinking a passing
/// program means the caller mixed up its polarity).
[[nodiscard]] ScenarioProgram shrink(
    const ScenarioProgram& program,
    const std::function<bool(const ScenarioProgram&)>& still_fails,
    ShrinkStats* stats = nullptr, const ShrinkOptions& options = {});

}  // namespace eandroid::fuzz
