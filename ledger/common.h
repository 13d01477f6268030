// Shared plumbing for the repository benchmark: arguments, the result a
// workload hands back, a fixed-memory latency histogram, host clocks and
// the process counters the metrics are read from.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ledger {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (Chrome trace JSON); empty
  /// keeps them in memory only.
  std::string span_out;
};

/// Everything one run reports. `attempted`/`failed` count framework calls
/// (false or nullopt returns), pushes (scheduled vs delivered) and checks;
/// the run is correct while no check has failed. Metric units live in the
/// catalogue in main.cpp; workloads only set values by name.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The parts of `failed` that framework calls and checks account for.
  std::uint64_t calls_failed = 0;
  std::uint64_t failed_checks = 0;
  std::map<std::string, double> metrics;
  /// Human-readable lines printed ahead of the result line.
  std::vector<std::string> report;

  /// Counts one framework call by its return value.
  void call(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      ++calls_failed;
    }
  }
  /// Counts one correctness check; a failure also makes the run wrong.
  void check(bool ok, const std::string& what);
  [[nodiscard]] bool correct() const { return failed_checks == 0; }
  void set(const std::string& name, double value) { metrics[name] = value; }
  void note(std::string line) { report.push_back(std::move(line)); }
};

/// Exact nanosecond latency histogram with fixed memory: one bucket per
/// nanosecond below kExact, the rare slower samples kept verbatim.
class LatencyHistogram {
 public:
  static constexpr std::size_t kExact = 1u << 16;

  LatencyHistogram() : counts_(kExact, 0) {}

  /// Adds one sample of `ns` host nanoseconds scaled by `scale` (the
  /// block's host-speed factor, see reference.h).
  void add(std::int64_t ns, double scale) {
    add(static_cast<std::int64_t>(static_cast<double>(ns) * scale + 0.5));
  }
  void add(std::int64_t ns) {
    ++total_;
    if (ns < 0) ns = 0;
    if (static_cast<std::uint64_t>(ns) < kExact) {
      ++counts_[static_cast<std::size_t>(ns)];
    } else {
      slow_.push_back(ns);
    }
  }
  [[nodiscard]] std::uint64_t count() const { return total_; }
  /// Nearest-rank quantile in nanoseconds (0 when empty).
  [[nodiscard]] double quantile_ns(double q) const;

 private:
  std::vector<std::uint32_t> counts_;
  mutable std::vector<std::int64_t> slow_;
  std::uint64_t total_ = 0;
};

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank quantile (0 when empty).
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Rates of consecutive blocks pooled into rounds of `round` blocks (one
/// CPU rotation): the median over rounds of sum(work) / sum(seconds). A
/// trailing partial round is dropped unless there is no full one.
[[nodiscard]] double round_median_rate(const std::vector<double>& work,
                                       const std::vector<double>& seconds,
                                       std::size_t round);

/// Moves the calling thread across every CPU it may run on, one CPU per
/// block, and restores its original CPU set when destroyed. The host's
/// CPUs slow down and speed up independently for seconds at a time
/// (neighbouring load on shared cores), so a single-threaded workload
/// that stays on one CPU measures that CPU's phase; visiting each CPU in
/// turn measures their average. Multi-threaded code must not run while
/// a rotation is active: threads it starts inherit the one-CPU mask.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the thread to the next CPU of the original set.
  void next();
  /// CPUs in one full rotation (1 when pinning is unavailable).
  [[nodiscard]] std::size_t cpus() const {
    return cpus_.empty() ? 1 : cpus_.size();
  }

 private:
  std::vector<int> cpus_;
  std::size_t at_ = 0;
};

/// One line summarizing the host-speed factors of a run's blocks.
[[nodiscard]] std::string speed_note(const std::vector<double>& factors);

/// Peak resident set of this process (VmHWM), in kB.
[[nodiscard]] std::int64_t peak_rss_kb();
/// CPU time consumed by every thread of this process, in seconds.
[[nodiscard]] double process_cpu_s();

/// Heap allocations since start (the counting allocator in main.cpp
/// counts only while enabled).
[[nodiscard]] std::uint64_t allocations();
void count_allocations(bool on);

/// 64-bit FNV-1a of a digest string, for compact printing.
[[nodiscard]] std::uint64_t fnv1a(const std::string& text);
[[nodiscard]] std::string hex64(std::uint64_t v);

/// splitmix64 step, used to derive independent streams from one seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace ledger
