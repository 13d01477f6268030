// ledger: the repository benchmark's binary.
//
//   ledger --workload <metered_day|table1_churn|push_campaign>
//          --seed <n> --seconds <s> --trace <0|1> [--span-out <file>]
//
// Prints the machine context, the run's digests and notes, every metric
// by name with its unit, and as its last line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones (a layer a workload does not exercise reads 0). Exits 1
// when any output check fails, 2 on bad arguments.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "common.h"
#include "machine.h"
#include "spans.h"
#include "workloads.h"

// --- Counting allocator: counts global new while the traced run asks. ---

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ledger {

std::uint64_t allocations() {
  return g_allocs.load(std::memory_order_relaxed);
}
void count_allocations(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

namespace {

struct Entry {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, as BENCHMARK.json lists them.
constexpr Entry kEndToEnd[] = {
    {"setup_s", "s"},
    {"sim_s_per_wall_s", "sim-s/s"},
    {"ops_per_s", "ops/s"},
    {"op_us_p50", "us"},
    {"op_us_p99", "us"},
    {"device_sim_s_per_wall_s", "dev-sim-s/s"},
    {"peak_rss_mb", "MB"},
};

/// The per-layer metrics, as BENCHMARK.json lists them.
constexpr Entry kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"energy.ticks", "count"},
    {"energy.gather_ns_per_tick", "ns"},
    {"energy.fold_ns_per_tick", "ns"},
    {"energy.allocs_per_tick", "count"},
    {"framework.op_us_p50.start_self_service", "us"},
    {"framework.op_us_p50.stop_self_service", "us"},
    {"framework.op_us_p50.start_other_service", "us"},
    {"framework.op_us_p50.stop_other_service", "us"},
    {"framework.op_us_p50.bind_self_service", "us"},
    {"framework.op_us_p50.unbind_self_service", "us"},
    {"framework.op_us_p50.bind_other_service", "us"},
    {"framework.op_us_p50.unbind_other_service", "us"},
    {"framework.op_us_p50.start_self_activity", "us"},
    {"framework.op_us_p50.start_other_activity", "us"},
    {"framework.op_us_p50.wakelock_acquire", "us"},
    {"framework.op_us_p50.wakelock_release", "us"},
    {"framework.op_us_p50.change_screen", "us"},
    {"framework.ops_failed", "count"},
    {"framework.op_samples", "count"},
    {"hw.battery_history_points", "count"},
    {"kernel.binder_txns_per_op", "count"},
    {"kernel.binder_failed", "count"},
    {"kernel.binder_tokens_live", "count"},
    {"core.windows_opened", "count"},
    {"core.windows_closed", "count"},
    {"core.ticks_per_generation", "ratio"},
    {"core.tracker_ns_per_op", "ns"},
    {"core.engine_ns_per_op", "ns"},
    {"core.report_ms", "ms"},
    {"fleet.start_s", "s"},
    {"fleet.run_s", "s"},
    {"fleet.finish_s", "s"},
    {"fleet.aggregate_ms", "ms"},
    {"fleet.windows_consolidated_frac", "ratio"},
    {"fleet.pushes_sent", "count"},
    {"fleet.pushes_delivered", "count"},
    {"fleet.rss_kb_per_device", "kB"},
    {"exp.tasks", "count"},
    {"exp.steals", "count"},
    {"exp.parks", "count"},
    {"exp.injection_refills", "count"},
    {"exp.worker_busy_frac", "ratio"},
    {"obs.trace_overhead_frac", "ratio"},
    {"obs.events_recorded", "count"},
    {"obs.export_ms", "ms"},
    {"host.speed_factor", "ratio"},
    {"fail_frac", "ratio"},
    {"conservation_err_mj", "mJ"},
    {"ledger.self_frac.apps", "ratio"},
    {"ledger.self_frac.sim", "ratio"},
    {"ledger.self_frac.energy", "ratio"},
    {"ledger.self_frac.framework", "ratio"},
    {"ledger.self_frac.core", "ratio"},
    {"ledger.self_frac.fleet", "ratio"},
    {"ledger.self_frac.obs", "ratio"},
    {"ledger.resum_err_frac", "ratio"},
    {"ledger.overhead_frac", "ratio"},
    {"ledger.traced_wall_s", "s"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "ledger: %s\nusage: ledger --workload "
               "<metered_day|table1_churn|push_campaign> --seed <n> "
               "--seconds <s> --trace <0|1> [--span-out <file>]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] == '1';
    } else if (key == "--span-out") {
      args.span_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

/// Prints one metric line of the human-readable report.
void print_metric(const Entry& e, const Outcome& out) {
  const auto it = out.metrics.find(e.name);
  if (it == out.metrics.end()) {
    std::printf("  %-42s %-14s (not exercised by this workload)\n", e.name,
                "");
  } else {
    std::printf("  %-42s %-14.6g %s\n", e.name, it->second, e.unit);
  }
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  using namespace ledger;
  Args args;
  if (!parse(argc, argv, args)) return usage("bad arguments");

  // Untraced runs keep no spans, so they carry no span memory either.
  SpanLedger spans(args.trace ? SpanLedger::kDefaultKeep : 0);
  Outcome out;
  unsigned workers = 1;
  if (args.workload == "metered_day") {
    out = run_metered_day(args, spans);
  } else if (args.workload == "table1_churn") {
    out = run_table1_churn(args, spans);
  } else if (args.workload == "push_campaign") {
    workers = campaign_workers();
    out = run_push_campaign(args, spans);
  } else {
    return usage("unknown workload");
  }
  out.set("framework.ops_failed", static_cast<double>(out.calls_failed));
  out.set("fail_frac", out.attempted == 0
                           ? 1.0
                           : static_cast<double>(out.failed) /
                                 static_cast<double>(out.attempted));
  if (args.trace && !args.span_out.empty()) {
    out.check(spans.write_chrome(args.span_out),
              "spans written to " + args.span_out);
  }

  // Every end-to-end metric must be measured; per-layer ones a workload
  // does not reach read 0.
  for (const Entry& e : kEndToEnd) {
    const auto it = out.metrics.find(e.name);
    out.check(it != out.metrics.end() && std::isfinite(it->second) &&
                  it->second > 0.0,
              std::string("end-to-end metric ") + e.name +
                  " measured and positive");
  }
  for (auto& [name, value] : out.metrics) {
    out.check(std::isfinite(value), "metric " + name + " is finite");
  }

  std::printf("machine %s\n", machine_json(workers).c_str());
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const std::string& line : out.report) std::printf("%s\n", line.c_str());
  std::printf("end-to-end:\n");
  for (const Entry& e : kEndToEnd) print_metric(e, out);
  std::printf("per-layer:\n");
  for (const Entry& e : kPerLayer) print_metric(e, out);
  std::printf("attempted %llu failed %llu correct %s\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.correct() ? "true" : "false");

  std::string json = "{\"correct\": ";
  json += out.correct() ? "true" : "false";
  char buf[160];
  std::snprintf(buf, sizeof(buf), ", \"attempted\": %llu, \"failed\": %llu",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
  json += buf;
  json += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const Entry& e) {
    const auto it = out.metrics.find(e.name);
    double v = it == out.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", e.name, v, e.unit);
    json += buf;
    first = false;
  };
  if (args.trace) {
    for (const Entry& e : kPerLayer) emit(e);
  } else {
    for (const Entry& e : kEndToEnd) emit(e);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return out.correct() ? 0 : 1;
}
