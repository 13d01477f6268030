#include "reference.h"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.h"

namespace ledger {
namespace {

constexpr int kEvents = 20000;

/// Keeps the kernel's result observable so it is not optimized away; an
/// atomic because speed_factor runs the kernel on several threads at once.
std::atomic<double> g_sink{0.0};

struct Event {
  std::int64_t when;
  std::uint64_t seq;
  std::function<void()> fn;
};

struct Later {
  bool operator()(const Event& a, const Event& b) const {
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
  }
};

}  // namespace

double reference_ns() {
  const std::int64_t t0 = now_ns();
  std::priority_queue<Event, std::vector<Event>, Later> queue;
  std::unordered_map<std::uint32_t, double> cells;
  std::vector<std::unique_ptr<double>> kept;
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t seq = 0;
  double acc = 0.0;
  for (int i = 0; i < 64; ++i) queue.push({i, seq++, {}});
  for (int fired = 0; fired < kEvents; ++fired) {
    Event e = queue.top();
    queue.pop();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const auto uid = static_cast<std::uint32_t>(x % 512);
    double& cell = cells[uid];
    cell += std::sqrt(static_cast<double>(x % 1000) + 1.0) * 0.25;
    acc += cell;
    if ((x & 15) == 0) {
      kept.push_back(std::make_unique<double>(acc));
      if (kept.size() > 256) kept.erase(kept.begin());
    }
    queue.push({e.when + static_cast<std::int64_t>(1 + x % 97), seq++,
                [&acc, uid] { acc += uid; }});
    if (e.fn) e.fn();
  }
  g_sink.store(acc, std::memory_order_relaxed);
  return static_cast<double>(now_ns() - t0);
}

double speed_factor(unsigned threads) {
  if (threads <= 1) return kNominalNs / reference_ns();
  std::vector<double> times(threads, 0.0);
  {
    // jthreads join on scope exit, also if starting a later one throws.
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
      pool.emplace_back([&times, i] { times[i] = reference_ns(); });
    }
  }
  double total = 0.0;
  for (const double t : times) total += t;
  return kNominalConcurrentNs / (total / threads);
}

}  // namespace ledger
