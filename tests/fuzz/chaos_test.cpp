// run_chaos: a long generated program under fault ops must end in a
// consistent device, and the whole run must be a pure function of its
// seed.
#include <gtest/gtest.h>

#include "apps/testbed.h"
#include "fuzz/chaos.h"
#include "fuzz/executor.h"

namespace eandroid::fuzz {
namespace {

ChaosOptions small_options(std::uint64_t seed) {
  ChaosOptions options;
  options.seed = seed;
  options.steps = 60;
  return options;
}

TEST(ChaosTest, RunIsDeterministic) {
  const ChaosResult a = run_chaos(small_options(7));
  const ChaosResult b = run_chaos(small_options(7));
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.plan, b.plan);
}

TEST(ChaosTest, RunHoldsInvariants) {
  const ChaosResult result = run_chaos(small_options(3));
  EXPECT_TRUE(result.ok()) << result.digest();
  EXPECT_GT(result.faults_injected, 0u);
  EXPECT_EQ(result.workload_steps, 60u);
  EXPECT_GE(result.windows_opened, result.windows_closed);
}

TEST(ChaosTest, DifferentSeedsDiverge) {
  EXPECT_NE(run_chaos(small_options(1)).digest(),
            run_chaos(small_options(2)).digest());
}

TEST(ChaosTest, PlanReplaysAsTheSameRun) {
  const ChaosResult result = run_chaos(small_options(5));
  ScenarioProgram program;
  std::string error;
  ASSERT_TRUE(ScenarioProgram::parse(result.plan, &program, &error)) << error;
  EXPECT_EQ(run_chaos(program).digest(), result.digest());
}

TEST(ChaosTest, DefaultSeedsKillAWakelockHolder) {
  // The leak path: a process dies while it holds a wakelock, and the
  // framework must reap the lock. kill_app has no lock-holder variant, so
  // the default-length programs must reach it on their own. A probe
  // scheduled at each kill_app instant runs before the kill (same-instant
  // events fire in insertion order) and reads the live wakelock table.
  int holder_kills = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const ScenarioProgram program = chaos_program({.seed = seed});
    apps::Testbed bed({.seed = seed});
    install_cast(bed);
    bed.start();
    for (const Step& step : program.steps) {
      if (step.op != OpKind::kKillApp) continue;
      const kernelsim::Uid victim = bed.uid_of(kCastPackages[step.app]);
      bed.sim().schedule_at(sim::TimePoint{} + sim::micros(step.at_us),
                            [&bed, &holder_kills, victim] {
                              if (!bed.server().power().held_by(victim)
                                       .empty()) {
                                ++holder_kills;
                              }
                            });
    }
    ProgramExecutor executor(bed, program);
    executor.run();
  }
  EXPECT_GT(holder_kills, 0);
}

}  // namespace
}  // namespace eandroid::fuzz
