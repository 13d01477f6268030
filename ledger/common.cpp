#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include <sched.h>

namespace ledger {

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  // The first failures say what broke; a repeat on every block adds nothing.
  constexpr std::uint64_t kNotedFailures = 8;
  if (++failed_checks <= kNotedFailures) note("CHECK FAILED: " + what);
  if (failed_checks == kNotedFailures + 1) {
    note("CHECK FAILED: (further failed checks are counted, not listed)");
  }
}

double LatencyHistogram::quantile_ns(double q) const {
  if (total_ == 0) return 0.0;
  // Nearest rank: the smallest sample with at least q of all at or below.
  auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total_));
  if (static_cast<double>(rank) < q * static_cast<double>(total_)) ++rank;
  rank = std::clamp<std::uint64_t>(rank, 1, total_);
  std::uint64_t seen = 0;
  for (std::size_t ns = 0; ns < counts_.size(); ++ns) {
    seen += counts_[ns];
    if (seen >= rank) return static_cast<double>(ns);
  }
  std::sort(slow_.begin(), slow_.end());
  return static_cast<double>(slow_[rank - seen - 1]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double round_median_rate(const std::vector<double>& work,
                         const std::vector<double>& seconds,
                         std::size_t round) {
  std::vector<double> rates;
  double w = 0.0;
  double t = 0.0;
  for (std::size_t i = 0; i < work.size(); ++i) {
    w += work[i];
    t += seconds[i];
    if ((i + 1) % round == 0) {
      rates.push_back(w / t);
      w = t = 0.0;
    }
  }
  if (rates.empty() && t > 0.0) rates.push_back(w / t);
  return median(rates);
}

std::string speed_note(const std::vector<double>& factors) {
  if (factors.empty()) return "host speed factor: no timed block";
  const auto [lo, hi] = std::minmax_element(factors.begin(), factors.end());
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "host speed factor (nominal reference time / measured) over "
                "%zu blocks: median %.3f, min %.3f, max %.3f",
                factors.size(), median(factors), *lo, *hi);
  return buf;
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus_) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[at_], &set);
  at_ = (at_ + 1) % cpus_.size();
  sched_setaffinity(0, sizeof(set), &set);
}

std::int64_t peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::int64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoll(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace ledger
