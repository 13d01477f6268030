// Soak bench: long randomized runs across many seeds (generated scenario
// programs, see soak.h), verifying energy conservation holds at scale and
// reporting throughput (how much simulated phone activity the stack
// processes per wall second).
//
// Seeds are independent simulations, so they fan out across the
// exp::ParallelRunner; results come back in seed order and are identical
// to a serial loop (see bench/parallel_scaling.cpp, which proves that bit
// for bit).
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "exp/parallel_runner.h"
#include "soak.h"

int main() {
  using namespace eandroid;
  using bench::SoakResult;
  using Clock = std::chrono::steady_clock;

  constexpr std::uint64_t kSeeds = 12;
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::printf("=== soak: randomized device activity across seeds "
              "(%u worker threads) ===\n\n",
              threads);
  std::printf("%6s %10s %12s %10s %10s %9s\n", "seed", "steps",
              "sim time", "windows", "drain(kJ)", "conserved");

  const auto start = Clock::now();
  const std::vector<SoakResult> results = exp::run_indexed<SoakResult>(
      kSeeds, [](std::size_t i) { return bench::run_soak_seed(i + 1); });
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();

  double total_sim_seconds = 0.0;
  int violations = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const SoakResult& r = results[seed - 1];
    if (!r.conserved()) ++violations;
    total_sim_seconds += r.sim_seconds;
    std::printf("%6llu %10llu %10.1f s %10llu %10.1f %9s\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(r.steps), r.sim_seconds,
                static_cast<unsigned long long>(r.windows_opened),
                r.drained_mj / 1000.0, r.conserved() ? "yes" : "NO");
  }
  std::printf("\n%d conservation violations; %.0fx realtime (%.1f sim-s "
              "per wall-s)\n",
              violations, total_sim_seconds / wall, total_sim_seconds / wall);
  return violations == 0 ? 0 : 1;
}
