// Sweep driver contracts: a suite's keys reach the generator, and a sweep
// reports the op mix of the programs it ran and the reference runs'
// metrics merged in seed order.
#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "fuzz/suite.h"

namespace eandroid::fuzz {
namespace {

TEST(SweepTest, TailKeySetsTheSettleTail) {
  SweepConfig config;
  std::string error;
  ASSERT_TRUE(SweepConfig::parse("min_steps = 5\nmax_steps = 5\n"
                                 "tail_us = 70000000\n",
                                 &config, &error))
      << error;
  const ScenarioProgram program = config.program_for(9);
  ASSERT_EQ(program.steps.size(), 5u);
  EXPECT_EQ(program.horizon_us - program.steps.back().at_us, 70'000'000);
  EXPECT_FALSE(SweepConfig::parse("tail_us = soon\n", &config, &error));
  EXPECT_EQ(error, "line 1: bad number for tail_us: soon");
}

TEST(SweepTest, ReportsOpMixAndMergedReferenceMetrics) {
  SweepConfig config;
  config.seeds = 6;
  config.min_steps = 8;
  config.max_steps = 16;
  config.fleet_legs = false;
  config.threads = 2;
  const SweepResult result = run_sweep(config);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.scenarios_run, 6);

  std::uint64_t steps = 0;
  obs::MetricsSnapshot merged;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const ScenarioProgram program = config.program_for(seed);
    steps += program.steps.size();
    OracleOptions options;
    options.fleet_legs = false;
    merged.merge(run_oracle(program, options).metrics);
  }
  EXPECT_EQ(std::accumulate(result.op_steps.begin(), result.op_steps.end(),
                            std::uint64_t{0}),
            steps);
  EXPECT_EQ(result.steps_total, steps);
  ASSERT_NE(result.metrics.find("fw.bus_events"), nullptr);
  EXPECT_EQ(result.metrics.render(), merged.render());
}

}  // namespace
}  // namespace eandroid::fuzz
