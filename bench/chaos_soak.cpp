// Chaos soak: hundreds of long generated scenario programs (framework
// traffic mixed with the grammar's six fault ops), each checked for
// (a) global invariants after recovery and (b) bitwise determinism —
// every seed is executed twice and the two full-precision digests must
// match.
//
// On failure the smallest failing seed is replayed serially, shrunk with
// fuzz::shrink (the failure predicate: a violation, or a digest mismatch
// between two runs) and printed in corpus format, ready to be committed
// under tests/fuzz/corpus/:
//
//   ./chaos_soak            # default 500 seeds
//   EANDROID_CHAOS_SEEDS=32 ./chaos_soak
//
// Emits BENCH_chaos.json for trend tracking. Exit code 0 iff every seed
// is clean.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "exp/parallel_runner.h"
#include "fuzz/chaos.h"
#include "fuzz/shrink.h"

namespace {

using namespace eandroid;

struct SeedOutcome {
  fuzz::ChaosResult result;
  bool deterministic = false;

  [[nodiscard]] bool clean() const {
    return deterministic && result.ok();
  }
};

SeedOutcome run_seed(std::uint64_t seed) {
  const fuzz::ChaosOptions options{.seed = seed};
  SeedOutcome outcome;
  outcome.result = fuzz::run_chaos(options);
  const fuzz::ChaosResult replay = fuzz::run_chaos(options);
  outcome.deterministic = outcome.result.digest() == replay.digest();
  return outcome;
}

/// The chaos failure predicate, on any program: a violation, or two runs
/// that digest differently.
bool chaos_fails(const fuzz::ScenarioProgram& program) {
  const fuzz::ChaosResult first = fuzz::run_chaos(program);
  return !first.ok() || first.digest() != fuzz::run_chaos(program).digest();
}

}  // namespace

int main() {
  using Clock = std::chrono::steady_clock;

  std::uint64_t seeds = 500;
  if (const char* env = std::getenv("EANDROID_CHAOS_SEEDS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) seeds = static_cast<std::uint64_t>(parsed);
  }
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::printf("=== chaos soak: %llu generated fault programs, each run "
              "twice (%u worker threads) ===\n\n",
              static_cast<unsigned long long>(seeds), threads);

  const auto start = Clock::now();
  const std::vector<SeedOutcome> outcomes = exp::run_indexed<SeedOutcome>(
      seeds, [](std::size_t i) { return run_seed(i + 1); });
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::uint64_t faults = 0, restarts = 0, anrs = 0, binder_fails = 0,
                bcast_drops = 0, alarm_delays = 0, windows = 0;
  double sim_seconds = 0.0;
  std::uint64_t first_bad = 0;
  int violations = 0, nondeterministic = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const SeedOutcome& o = outcomes[seed - 1];
    faults += o.result.faults_injected;
    restarts += o.result.service_restarts;
    anrs += o.result.anr_kills;
    binder_fails += o.result.binder_failures;
    bcast_drops += o.result.broadcasts_dropped;
    alarm_delays += o.result.alarms_delayed;
    windows += o.result.windows_opened;
    sim_seconds += o.result.sim_seconds;
    if (!o.result.ok()) ++violations;
    if (!o.deterministic) ++nondeterministic;
    if (!o.clean() && first_bad == 0) first_bad = seed;
  }

  std::printf("faults injected   %10llu\n",
              static_cast<unsigned long long>(faults));
  std::printf("service restarts  %10llu\n",
              static_cast<unsigned long long>(restarts));
  std::printf("ANR kills         %10llu\n",
              static_cast<unsigned long long>(anrs));
  std::printf("binder failures   %10llu\n",
              static_cast<unsigned long long>(binder_fails));
  std::printf("broadcast drops   %10llu\n",
              static_cast<unsigned long long>(bcast_drops));
  std::printf("alarm deferrals   %10llu\n",
              static_cast<unsigned long long>(alarm_delays));
  std::printf("windows opened    %10llu\n",
              static_cast<unsigned long long>(windows));
  std::printf("invariant fails   %10d\n", violations);
  std::printf("nondeterministic  %10d\n", nondeterministic);
  std::printf("wall              %9.1fs  (%.0fx realtime)\n", wall,
              sim_seconds / wall);

  if (first_bad != 0) {
    // Replay the smallest failing seed serially, then shrink its program
    // so the failure reproduces from the printed reproducer alone.
    std::printf("\n--- replaying failing seed %llu ---\n",
                static_cast<unsigned long long>(first_bad));
    const fuzz::ScenarioProgram program =
        fuzz::chaos_program({.seed = first_bad});
    const fuzz::ChaosResult replay = fuzz::run_chaos(program);
    std::printf("digest: %s\n", replay.digest().c_str());
    for (const std::string& v : replay.violations) {
      std::printf("violation: %s\n", v.c_str());
    }
    if (replay.violations.empty()) {
      std::printf("(digest mismatch between paired runs — "
                  "nondeterminism)\n");
    }
    if (chaos_fails(program)) {
      fuzz::ShrinkStats stats;
      const fuzz::ScenarioProgram shrunk =
          fuzz::shrink(program, chaos_fails, &stats);
      std::printf("\n--- shrunk reproducer: %d -> %d steps after %d "
                  "candidates (tests/fuzz/corpus/ format) ---\n",
                  stats.initial_steps, stats.final_steps, stats.candidates);
      std::printf("# chaos_soak seed %llu\n%s",
                  static_cast<unsigned long long>(first_bad),
                  shrunk.serialize().c_str());
    } else {
      std::printf("(the serial replay passed; not shrunk)\n");
    }
  }

  if (std::FILE* json = std::fopen("BENCH_chaos.json", "w")) {
    std::fprintf(json,
                 "{\n"
                 "  \"seeds\": %llu,\n"
                 "  \"faults_injected\": %llu,\n"
                 "  \"service_restarts\": %llu,\n"
                 "  \"anr_kills\": %llu,\n"
                 "  \"binder_failures\": %llu,\n"
                 "  \"broadcast_drops\": %llu,\n"
                 "  \"alarm_deferrals\": %llu,\n"
                 "  \"invariant_violations\": %d,\n"
                 "  \"nondeterministic_seeds\": %d,\n"
                 "  \"sim_seconds\": %.1f,\n"
                 "  \"wall_seconds\": %.1f\n"
                 "}\n",
                 static_cast<unsigned long long>(seeds),
                 static_cast<unsigned long long>(faults),
                 static_cast<unsigned long long>(restarts),
                 static_cast<unsigned long long>(anrs),
                 static_cast<unsigned long long>(binder_fails),
                 static_cast<unsigned long long>(bcast_drops),
                 static_cast<unsigned long long>(alarm_delays), violations,
                 nondeterministic, sim_seconds, wall);
    std::fclose(json);
    std::printf("\nwrote BENCH_chaos.json\n");
  }

  return (violations == 0 && nondeterministic == 0) ? 0 : 1;
}
