// One seed of parallel_scaling's randomized soak: a 600-step generated
// scenario program on a Testbed with the fuzz cast, memory pressure (a
// 400 MB LMK budget) on even seeds, and a 1 s tail. Everything it returns
// is a pure function of the seed.
#pragma once

#include <cmath>
#include <cstdint>

#include "apps/testbed.h"
#include "fuzz/executor.h"
#include "fuzz/generator.h"

namespace eandroid::bench {

inline constexpr int kSoakSteps = 600;

struct SoakResult {
  std::uint64_t steps = 0;
  double sim_seconds = 0.0;
  std::uint64_t windows_opened = 0;
  std::uint64_t windows_closed = 0;
  double drained_mj = 0.0;
  double ea_total_mj = 0.0;

  [[nodiscard]] bool conserved() const {
    return std::abs(drained_mj - ea_total_mj) < 1e-3;
  }
};

inline SoakResult run_soak_seed(std::uint64_t seed) {
  const fuzz::ScenarioProgram program =
      fuzz::generate({.seed = seed,
                      .min_steps = kSoakSteps,
                      .max_steps = kSoakSteps,
                      .tail_us = 1'000'000});
  apps::Testbed bed({.seed = seed});
  if (seed % 2 == 0) bed.server().lmk().set_budget_mb(400);
  fuzz::install_cast(bed);
  bed.start();
  fuzz::ProgramExecutor executor(bed, program);
  executor.run();
  return SoakResult{executor.steps_applied(),
                    bed.sim().now().seconds(),
                    bed.eandroid()->tracker().opened_total(),
                    bed.eandroid()->tracker().closed_total(),
                    bed.server().battery().consumed_total_mj(),
                    bed.eandroid()->engine().true_total_mj()};
}

}  // namespace eandroid::bench
