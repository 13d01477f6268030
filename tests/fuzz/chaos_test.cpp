// Chaos programs: long generated programs under fault ops must end in a
// consistent device, and the whole run must be a pure function of its
// seed. The programs are the committed chaos suite's
// (bench/suites/chaos.cfg), shortened to 60 steps where a test replays
// several of them.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/testbed.h"
#include "fuzz/executor.h"
#include "fuzz/suite.h"

namespace eandroid::fuzz {
namespace {

SweepConfig chaos_suite() {
  std::ifstream in(EANDROID_CHAOS_SUITE);
  std::ostringstream text;
  text << in.rdbuf();
  SweepConfig config;
  std::string error;
  EXPECT_TRUE(SweepConfig::parse(text.str(), &config, &error)) << error;
  return config;
}

ScenarioProgram small_program(std::uint64_t seed) {
  SweepConfig config = chaos_suite();
  config.min_steps = config.max_steps = 60;
  return config.program_for(seed);
}

/// Everything a replay leaves observable: the energy digest (per-uid
/// profiler totals, battery, tracker counters), the device metrics
/// (service restarts, ANR kills, binder failures, ...) and the dropped
/// broadcast and deferred alarm counts, which have no metric.
struct Replay {
  std::string digest;
  std::vector<std::string> violations;
  std::uint64_t steps = 0;
  std::uint64_t faults = 0;
  std::uint64_t windows_opened = 0;
  std::uint64_t windows_closed = 0;
};

Replay replay(const ScenarioProgram& program) {
  apps::Testbed bed({.seed = program.seed});
  install_cast(bed);
  bed.start();
  ProgramExecutor executor(bed, program);
  executor.run();
  executor.check_now("end state");
  framework::SystemServer& server = bed.server();
  Replay out;
  out.digest = bed.energy_digest() + bed.metrics_snapshot().render() +
               "dropped " +
               std::to_string(server.broadcasts().dropped_total()) +
               " delayed " + std::to_string(server.alarms().delayed_total());
  out.violations = executor.violations();
  out.steps = executor.steps_applied();
  out.faults = executor.faults_applied();
  out.windows_opened = bed.eandroid()->tracker().opened_total();
  out.windows_closed = bed.eandroid()->tracker().closed_total();
  return out;
}

TEST(ChaosTest, RunIsDeterministic) {
  EXPECT_EQ(small_program(7).serialize(), small_program(7).serialize());
  EXPECT_EQ(replay(small_program(7)).digest, replay(small_program(7)).digest);
}

TEST(ChaosTest, RunHoldsInvariants) {
  const Replay result = replay(small_program(3));
  EXPECT_TRUE(result.violations.empty()) << result.violations.front();
  EXPECT_GT(result.faults, 0u);
  EXPECT_EQ(result.steps, 60u);
  EXPECT_GE(result.windows_opened, result.windows_closed);
}

TEST(ChaosTest, DifferentSeedsDiverge) {
  EXPECT_NE(replay(small_program(1)).digest, replay(small_program(2)).digest);
}

TEST(ChaosTest, PlanReplaysAsTheSameRun) {
  const ScenarioProgram original = small_program(5);
  ScenarioProgram parsed;
  std::string error;
  ASSERT_TRUE(ScenarioProgram::parse(original.serialize(), &parsed, &error))
      << error;
  EXPECT_EQ(replay(parsed).digest, replay(original).digest);
}

TEST(ChaosTest, DefaultSeedsKillAWakelockHolder) {
  // The leak path: a process dies while it holds a wakelock, and the
  // framework must reap the lock. kill_app has no lock-holder variant, so
  // the suite's own programs must reach it. A probe scheduled at each
  // kill_app instant runs before the kill (same-instant events fire in
  // insertion order) and reads the live wakelock table.
  const SweepConfig config = chaos_suite();
  int holder_kills = 0;
  for (std::uint64_t seed = config.first_seed;
       seed < config.first_seed + 16; ++seed) {
    const ScenarioProgram program = config.program_for(seed);
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
