// Serial vs parallel throughput of the experiment runner on a 768-seed
// soak workload (soak.h), plus two contracts: every per-seed result
// (drain, windows, steps, conservation inputs) must be BITWISE identical
// to the serial path — fan-out may only change wall time, never physics —
// and every seed must conserve energy (engine total within 1 uJ of the
// battery's drain). Exit 1 if either fails.
//
// The seed count keeps the serial leg well above half a second on a
// 4-core machine, so thread start-up and scheduling noise cannot pass
// for scaling. Each leg runs kReps times, legs interleaved within a rep
// so machine drift hits them alike; wall time is reported as the median
// with min and max, and speedup as the ratio of medians.
//
// Emits BENCH_parallel.json (machine-readable) so future PRs can track
// the perf trajectory across commits and machines.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "exp/parallel_runner.h"
#include "soak.h"

namespace {

using namespace eandroid;
using bench::SoakResult;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kSeeds = 768;
constexpr int kReps = 5;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool identical(const std::vector<SoakResult>& a,
               const std::vector<SoakResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].steps != b[i].steps ||
        a[i].windows_opened != b[i].windows_opened ||
        a[i].windows_closed != b[i].windows_closed ||
        !same_bits(a[i].sim_seconds, b[i].sim_seconds) ||
        !same_bits(a[i].drained_mj, b[i].drained_mj) ||
        !same_bits(a[i].ea_total_mj, b[i].ea_total_mj)) {
      return false;
    }
  }
  return true;
}

std::vector<exp::ParallelRunner<SoakResult>::Job> make_jobs() {
  std::vector<exp::ParallelRunner<SoakResult>::Job> jobs;
  jobs.reserve(kSeeds);
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    jobs.push_back([seed] { return bench::run_soak_seed(seed); });
  }
  return jobs;
}

double total_sim_seconds(const std::vector<SoakResult>& results) {
  double total = 0.0;
  for (const SoakResult& r : results) total += r.sim_seconds;
  return total;
}

/// Median, min and max wall time of one leg over its reps.
struct WallStats {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

WallStats stats_of(std::vector<double> walls) {
  std::sort(walls.begin(), walls.end());
  const std::size_t n = walls.size();
  const double median = n % 2 == 1
                            ? walls[n / 2]
                            : 0.5 * (walls[n / 2 - 1] + walls[n / 2]);
  return {median, walls.front(), walls.back()};
}

struct Measurement {
  unsigned threads = 0;
  std::vector<double> walls;
  WallStats wall;
  double sims_per_wall_s = 0.0;  // at the median wall
  double speedup = 1.0;          // serial median / this median
  bool identical_to_serial = true;
  /// More workers than cores: wall time then measures scheduler churn,
  /// not scaling, so no speedup claim is made for this row.
  bool oversubscribed = false;
};

/// Thread counts to sweep: EANDROID_BENCH_THREADS ("1,2,4") overrides the
/// default {1, 2, 4, hw} so CI and small containers can pin the sweep to
/// what the machine actually has.
std::vector<unsigned> thread_configs(unsigned hw) {
  if (const char* env = std::getenv("EANDROID_BENCH_THREADS")) {
    std::vector<unsigned> configs;
    unsigned value = 0;
    bool have_digit = false;
    for (const char* p = env;; ++p) {
      if (*p >= '0' && *p <= '9') {
        value = value * 10 + static_cast<unsigned>(*p - '0');
        have_digit = true;
      } else if (*p == ',' || *p == '\0') {
        if (have_digit && value > 0) configs.push_back(value);
        value = 0;
        have_digit = false;
        if (*p == '\0') break;
      }
    }
    if (!configs.empty()) return configs;
  }
  std::vector<unsigned> configs = {1, 2, 4};
  if (hw > 4) configs.push_back(hw);
  return configs;
}

}  // namespace

int main() {
  using namespace eandroid;

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("=== parallel scaling: %llu-seed soak, %d steps each, %d reps "
              "(hardware_concurrency=%u) ===\n\n",
              static_cast<unsigned long long>(kSeeds), bench::kSoakSteps,
              kReps, hw);

  const auto time_run = [](auto&& run) {
    const auto start = Clock::now();
    auto results = run();
    return std::make_pair(
        std::chrono::duration<double>(Clock::now() - start).count(),
        std::move(results));
  };

  const std::vector<unsigned> configs = thread_configs(hw);
  std::vector<double> serial_walls;
  std::vector<Measurement> measurements(configs.size());
  std::vector<SoakResult> serial;
  bool all_identical = true;
  for (int rep = 0; rep < kReps; ++rep) {
    auto [serial_wall, serial_results] = time_run([] {
      return exp::ParallelRunner<SoakResult>::run_serial(make_jobs());
    });
    serial_walls.push_back(serial_wall);
    if (rep == 0) {
      serial = std::move(serial_results);
    } else {
      all_identical = all_identical && identical(serial, serial_results);
    }
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const unsigned threads = configs[c];
      auto [wall, parallel] = time_run([threads] {
        return exp::ParallelRunner<SoakResult>({.threads = threads})
            .run(make_jobs());
      });
      Measurement& m = measurements[c];
      m.threads = threads;
      m.walls.push_back(wall);
      m.identical_to_serial =
          m.identical_to_serial && identical(serial, parallel);
      all_identical = all_identical && m.identical_to_serial;
    }
  }
  const double sim_seconds = total_sim_seconds(serial);
  const WallStats serial_stats = stats_of(serial_walls);
  const auto unconserved = static_cast<int>(std::count_if(
      serial.begin(), serial.end(),
      [](const SoakResult& r) { return !r.conserved(); }));

  std::printf("%8s %10s %10s %10s %16s %9s %10s\n", "threads", "median (s)",
              "min (s)", "max (s)", "sim-s / wall-s", "speedup", "identical");
  std::printf("%8s %10.3f %10.3f %10.3f %16.0f %8.2fx %10s\n", "serial",
              serial_stats.median, serial_stats.min, serial_stats.max,
              sim_seconds / serial_stats.median, 1.0, "--");
  for (Measurement& m : measurements) {
    m.wall = stats_of(m.walls);
    m.sims_per_wall_s = sim_seconds / m.wall.median;
    m.speedup = serial_stats.median / m.wall.median;
    m.oversubscribed = m.threads > hw;
    if (m.oversubscribed) {
      std::printf("%8u %10.3f %10.3f %10.3f %16.0f %9s %10s\n", m.threads,
                  m.wall.median, m.wall.min, m.wall.max, m.sims_per_wall_s,
                  "--", m.identical_to_serial ? "yes" : "NO");
    } else {
      std::printf("%8u %10.3f %10.3f %10.3f %16.0f %8.2fx %10s\n", m.threads,
                  m.wall.median, m.wall.min, m.wall.max, m.sims_per_wall_s,
                  m.speedup, m.identical_to_serial ? "yes" : "NO");
    }
  }

  std::FILE* json = std::fopen("BENCH_parallel.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"parallel_scaling\",\n"
                 "  \"workload\": {\"seeds\": %llu, \"steps\": %d, "
                 "\"sim_seconds\": %.3f},\n"
                 "  \"effective_cores\": %u,\n"
                 "  \"reps\": %d,\n"
                 "  \"serial\": {\"wall_s\": %.4f, \"wall_s_min\": %.4f, "
                 "\"wall_s_max\": %.4f, \"sims_per_wall_s\": %.1f},\n"
                 "  \"parallel\": [",
                 static_cast<unsigned long long>(kSeeds), bench::kSoakSteps,
                 sim_seconds, hw, kReps, serial_stats.median, serial_stats.min,
                 serial_stats.max, sim_seconds / serial_stats.median);
    for (std::size_t i = 0; i < measurements.size(); ++i) {
      const Measurement& m = measurements[i];
      std::fprintf(json,
                   "%s\n    {\"threads\": %u, \"wall_s\": %.4f, "
                   "\"wall_s_min\": %.4f, \"wall_s_max\": %.4f, "
                   "\"sims_per_wall_s\": %.1f, ",
                   i == 0 ? "" : ",", m.threads, m.wall.median, m.wall.min,
                   m.wall.max, m.sims_per_wall_s);
      if (m.oversubscribed) {
        // More workers than cores: speedup would be noise, not scaling.
        std::fprintf(json, "\"speedup\": null, \"oversubscribed\": true, ");
      } else {
        std::fprintf(json, "\"speedup\": %.3f, \"oversubscribed\": false, ",
                     m.speedup);
      }
      std::fprintf(json, "\"identical_to_serial\": %s}",
                   m.identical_to_serial ? "true" : "false");
    }
    std::fprintf(json,
                 "\n  ],\n"
                 "  \"all_identical\": %s,\n"
                 "  \"conservation_violations\": %d\n"
                 "}\n",
                 all_identical ? "true" : "false", unconserved);
    std::fclose(json);
    std::printf("\nwrote BENCH_parallel.json\n");
  }

  std::printf("\n%d conservation violations across %llu seeds\n",
              unconserved, static_cast<unsigned long long>(kSeeds));
  if (!all_identical) {
    std::printf("FAIL: parallel results diverged from the serial path\n");
    return 1;
  }
  if (unconserved != 0) {
    std::printf("FAIL: energy not conserved on %d seeds\n", unconserved);
    return 1;
  }
  // Speedup is hardware-dependent (a 1-core container cannot show any);
  // determinism is the hard gate, throughput is the tracked trajectory.
  return 0;
}
