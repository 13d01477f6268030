// Shrinker contracts, against cheap synthetic predicates (no oracle
// replays here — injected_bug_test.cpp covers the end-to-end path):
// ddmin converges to the failure-carrying core, every candidate shown to
// the predicate is grammatical, parameters descend to their minimum,
// steps move as early and horizons come down as far as the failure
// allows, and polarity misuse is a checked error.
#include <gtest/gtest.h>

#include <algorithm>

#include "fuzz/generator.h"
#include "fuzz/shrink.h"
#include "sim/check.h"

namespace eandroid::fuzz {
namespace {

bool has_op(const ScenarioProgram& program, OpKind op) {
  return std::any_of(program.steps.begin(), program.steps.end(),
                     [op](const Step& s) { return s.op == op; });
}

/// A seed whose program contains the given op (the generator covers the
/// grammar well, so one is always nearby).
ScenarioProgram program_containing(OpKind op) {
  for (std::uint64_t seed = 1; seed < 500; ++seed) {
    GeneratorOptions options;
    options.seed = seed;
    ScenarioProgram program = generate(options);
    if (has_op(program, op)) return program;
  }
  ADD_FAILURE() << "no program contains " << to_string(op);
  return {};
}

TEST(ShrinkTest, DdminReducesToTheFailureCarryingCore) {
  // "Fails iff a wakelock is ever acquired" — the minimal reproducer is
  // one kAcquireWakelock step.
  const ScenarioProgram program = program_containing(OpKind::kAcquireWakelock);
  ShrinkStats stats;
  const ScenarioProgram reduced = shrink(
      program,
      [](const ScenarioProgram& p) {
        return has_op(p, OpKind::kAcquireWakelock);
      },
      &stats);
  EXPECT_TRUE(validate(reduced));
  EXPECT_TRUE(has_op(reduced, OpKind::kAcquireWakelock));
  EXPECT_EQ(reduced.steps.size(), 1u)
      << "steps left: " << reduced.steps.size();
  EXPECT_EQ(stats.initial_steps, static_cast<int>(program.steps.size()));
  EXPECT_EQ(stats.final_steps, 1);
  EXPECT_GT(stats.candidates, 0);
}

TEST(ShrinkTest, DependentOpsSurviveTogether) {
  // "Fails iff an unbind happens" — the reproducer must keep the bind
  // that makes the unbind grammatical: exactly two steps.
  const ScenarioProgram program = program_containing(OpKind::kUnbindService);
  const ScenarioProgram reduced = shrink(
      program, [](const ScenarioProgram& p) {
        return has_op(p, OpKind::kUnbindService);
      });
  EXPECT_TRUE(validate(reduced));
  EXPECT_TRUE(has_op(reduced, OpKind::kUnbindService));
  EXPECT_TRUE(has_op(reduced, OpKind::kBindService));
  EXPECT_EQ(reduced.steps.size(), 2u);
}

TEST(ShrinkTest, EveryCandidateShownToThePredicateIsValid) {
  const ScenarioProgram program = program_containing(OpKind::kCpuBurst);
  bool all_valid = true;
  (void)shrink(program, [&all_valid](const ScenarioProgram& p) {
    if (!validate(p)) all_valid = false;
    return has_op(p, OpKind::kCpuBurst);
  });
  EXPECT_TRUE(all_valid);
}

TEST(ShrinkTest, ParametersDescendToTheRangeMinimum) {
  const ScenarioProgram program = program_containing(OpKind::kCpuBurst);
  const ScenarioProgram reduced = shrink(
      program,
      [](const ScenarioProgram& p) { return has_op(p, OpKind::kCpuBurst); });
  ASSERT_EQ(reduced.steps.size(), 1u);
  // kCpuBurst's a is "milliseconds of CPU", minimum 1.
  EXPECT_EQ(reduced.steps[0].a, 1);
}

TEST(ShrinkTest, CandidateBudgetBoundsTheWork) {
  const ScenarioProgram program = program_containing(OpKind::kSendPush);
  ShrinkOptions options;
  options.max_candidates = 3;
  ShrinkStats stats;
  (void)shrink(
      program,
      [](const ScenarioProgram& p) { return has_op(p, OpKind::kSendPush); },
      &stats, options);
  EXPECT_LE(stats.candidates, 3);
}

TEST(ShrinkTest, StepIndependentFailureShrinksWithoutOverrunningTheSteps) {
  // A failure no step carries (every program fails — the shape of a bug
  // in a route that never replays the steps). Lowering a parameter can
  // make repair() drop the very step being minimized, so parameter
  // descent must re-check the step count after every accepted candidate.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    GeneratorOptions options;
    options.seed = seed;
    const ScenarioProgram program = generate(options);
    const ScenarioProgram reduced =
        shrink(program, [](const ScenarioProgram&) { return true; });
    EXPECT_TRUE(validate(reduced)) << "seed " << seed;
    EXPECT_LE(reduced.steps.size(), 1u) << "seed " << seed;
  }
}

TEST(ShrinkTest, HorizonShrinksToTheFailingStepsInstant) {
  // A failure carried by one early step: the reproducer needs nothing
  // after that step's instant, so its horizon must come down from the
  // generator's long settle tail to that instant.
  GeneratorOptions options;
  options.seed = 3;
  const ScenarioProgram program = generate(options);
  ASSERT_GE(program.steps.size(), 2u);
  const Step early = program.steps.front();
  ASSERT_LT(early.at_us, program.horizon_us);
  const auto carries_early = [&early](const ScenarioProgram& p) {
    return std::any_of(p.steps.begin(), p.steps.end(), [&](const Step& s) {
      return s.op == early.op && s.app == early.app &&
             s.at_us == early.at_us;
    });
  };
  const ScenarioProgram reduced = shrink(program, carries_early);
  EXPECT_TRUE(validate(reduced));
  ASSERT_EQ(reduced.steps.size(), 1u);
  EXPECT_LE(reduced.horizon_us, early.at_us);
}

TEST(ShrinkTest, HorizonDescendsToTheFailureThreshold) {
  // A failure that needs the run to last until `needed`: the last step's
  // instant passes, so binary descent must stop within 1 ms above it.
  GeneratorOptions options;
  options.seed = 4;
  const ScenarioProgram program = generate(options);
  const std::int64_t needed =
      program.steps.back().at_us +
      (program.horizon_us - program.steps.back().at_us) / 3;
  ShrinkStats stats;
  const ScenarioProgram reduced = shrink(
      program,
      [needed](const ScenarioProgram& p) { return p.horizon_us >= needed; },
      &stats);
  EXPECT_TRUE(validate(reduced));
  EXPECT_GE(reduced.horizon_us, needed);
  EXPECT_LT(reduced.horizon_us, needed + 1'000);
}

/// A seed whose program's first step of `op` comes after `after_us`.
ScenarioProgram program_with_late(OpKind op, std::int64_t after_us) {
  for (std::uint64_t seed = 1; seed < 500; ++seed) {
    GeneratorOptions options;
    options.seed = seed;
    ScenarioProgram program = generate(options);
    const auto first = std::find_if(
        program.steps.begin(), program.steps.end(),
        [op](const Step& s) { return s.op == op; });
    if (first != program.steps.end() && first->at_us > after_us) {
      return program;
    }
  }
  ADD_FAILURE() << "no program has a late " << to_string(op);
  return {};
}

TEST(ShrinkTest, TimeIndependentFailureShrinksIntoTheFirstSecond) {
  // "Fails iff a process is ever killed", whenever it happens: the
  // reproducer must not idle through the generator's gaps before the
  // kill, nor run past it.
  const ScenarioProgram program =
      program_with_late(OpKind::kKillApp, 10'000'000);
  const ScenarioProgram reduced = shrink(
      program,
      [](const ScenarioProgram& p) { return has_op(p, OpKind::kKillApp); });
  EXPECT_TRUE(validate(reduced));
  ASSERT_EQ(reduced.steps.size(), 1u);
  EXPECT_EQ(reduced.steps[0].op, OpKind::kKillApp);
  EXPECT_LT(reduced.steps[0].at_us, 1'000'000);
  EXPECT_LT(reduced.horizon_us, 1'000'000);
}

TEST(ShrinkTest, FailureGatedOnALateInstantKeepsItsStepThere) {
  // "Fails iff a process is killed at or after `late`": moving the kill
  // earlier than `late` loses the failure, so the time pass must stop at
  // `late` (within its 1 ms grain), never before it.
  const ScenarioProgram program =
      program_with_late(OpKind::kKillApp, 10'000'000);
  const std::int64_t late =
      std::find_if(program.steps.begin(), program.steps.end(),
                   [](const Step& s) { return s.op == OpKind::kKillApp; })
          ->at_us -
      1'234'567;
  const auto killed_late = [late](const ScenarioProgram& p) {
    return std::any_of(p.steps.begin(), p.steps.end(), [late](const Step& s) {
      return s.op == OpKind::kKillApp && s.at_us >= late;
    });
  };
  const ScenarioProgram reduced = shrink(program, killed_late);
  EXPECT_TRUE(validate(reduced));
  ASSERT_EQ(reduced.steps.size(), 1u);
  EXPECT_GE(reduced.steps[0].at_us, late);
  EXPECT_LT(reduced.steps[0].at_us, late + 1'000);
}

TEST(ShrinkTest, PassingProgramIsACheckedError) {
  GeneratorOptions options;
  options.seed = 5;
  const ScenarioProgram program = generate(options);
  EXPECT_THROW(
      (void)shrink(program, [](const ScenarioProgram&) { return false; }),
      sim::CheckFailure);
}

}  // namespace
}  // namespace eandroid::fuzz
