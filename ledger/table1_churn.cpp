// table1_churn: the 13 Table I micro-operations of the paper, in a closed
// loop on one phone under complete E-Android.
//
// A driver app cycles through the operations of bench/fig10_micro_ops.cpp
// in a seeded order, choosing each time among the operations valid in the
// current state (a service can be stopped only once started, a binding
// released only once held, a wakelock released only once acquired), so
// no call fails. After each operation the phone advances one 250 ms
// sampling period; the next operation is issued only then. An activity
// start is undone after its sampling period (finish, and the driver
// relaunched), so the task stack stays bounded. Cross-app operations open
// and close collateral windows on nearly every slice, so the framework,
// binder and the window tracker do most of the work, and the engine's
// generation-keyed cache is invalidated about once per tick.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "apps/demo_app.h"
#include "apps/testbed.h"
#include "checks.h"
#include "reference.h"
#include "workloads.h"

namespace ledger {
namespace {

using namespace eandroid;
using framework::Intent;

/// One episode: a fresh phone and this many operations (2.3 simulated
/// hours). Every episode of a seed replays the same operation stream, so
/// its digest and counts repeat exactly, and episodes are equal work.
constexpr std::size_t kEpisodeSteps = 1u << 15;
/// Operations in the self-test's tiny run.
constexpr std::size_t kTinySteps = 4096;
/// Blocks per configuration in the traced run's android / framework-only
/// / complete comparison, and per leg of the tracing on/off comparison.
constexpr int kCompareRounds = 12;
constexpr std::size_t kCompareSteps = 2048;

constexpr const char* kSelf = "com.bench.self";
constexpr const char* kOther = "com.bench.other";

enum Op : std::uint8_t {
  kStartSelfService,
  kStopSelfService,
  kStartOtherService,
  kStopOtherService,
  kBindSelfService,
  kUnbindSelfService,
  kBindOtherService,
  kUnbindOtherService,
  kStartSelfActivity,
  kStartOtherActivity,
  kWakelockAcquire,
  kWakelockRelease,
  kChangeScreen,
  kOpCount
};

constexpr std::array<const char*, kOpCount> kOpNames = {
    "start_self_service",  "stop_self_service",    "start_other_service",
    "stop_other_service",  "bind_self_service",    "unbind_self_service",
    "bind_other_service",  "unbind_other_service", "start_self_activity",
    "start_other_activity", "wakelock_acquire",    "wakelock_release",
    "change_screen"};

/// The three configurations of the paper's Fig 10.
enum class Config { kAndroid, kFrameworkOnly, kComplete };

/// The fig10 device: a driver app with a service of its own and another
/// app with an exported service, E-Android per `config`.
std::unique_ptr<apps::Testbed> build_bed(std::uint64_t seed, Config config,
                                         bool obs_trace) {
  apps::TestbedOptions options;
  options.seed = seed;
  options.with_eandroid = config != Config::kAndroid;
  options.eandroid_mode = config == Config::kComplete
                              ? core::Mode::kComplete
                              : core::Mode::kFrameworkOnly;
  options.obs.trace = obs_trace;
  auto bed = std::make_unique<apps::Testbed>(options);

  apps::DemoAppSpec self = apps::victim_spec();
  self.package = kSelf;
  self.wakelock_bug = false;
  self.exit_dialog = false;
  self.permissions = {framework::Permission::kWakeLock,
                      framework::Permission::kWriteSettings};
  bed->install<apps::DemoApp>(self);

  apps::DemoAppSpec other = apps::victim_spec();
  other.package = kOther;
  other.wakelock_bug = false;
  other.exit_dialog = false;
  bed->install<apps::DemoApp>(other);

  bed->start();
  bed->server().user_launch(kSelf);
  bed->server().user_set_screen_mode(framework::BrightnessMode::kManual);
  return bed;
}

using PerOp = std::array<LatencyHistogram, kOpCount>;

/// The closed-loop driver: picks a valid operation, times it, advances one
/// sampling period, undoes activity starts.
class Churn {
 public:
  Churn(apps::Testbed& bed, std::uint64_t seed, Outcome& out,
        SpanLedger& spans, DispatchTally& tally)
      : bed_(bed),
        rng_(mix_seed(seed, 0x7ab1e1)),
        out_(out),
        spans_(spans),
        tally_(tally),
        self_(bed.context_of(kSelf)),
        self_service_(Intent::explicit_for(kSelf, apps::DemoApp::kService)),
        other_service_(Intent::explicit_for(kOther, apps::DemoApp::kService)) {}

  /// Runs `steps` operations; `latency` (scaled by `scale`) and `per_op`,
  /// when given, receive each operation's host time.
  void run(std::size_t steps, LatencyHistogram* latency, PerOp* per_op,
           double scale = 1.0) {
    for (std::size_t i = 0; i < steps; ++i) {
      const Op op = pick();
      bool ok = false;
      {
        Span span(spans_, Layer::kFramework);
        const std::int64_t t0 = now_ns();
        ok = apply(op);
        const std::int64_t ns = now_ns() - t0;
        if (latency != nullptr) latency->add(ns, scale);
        if (per_op != nullptr) (*per_op)[op].add(ns);
      }
      out_.call(ok);
      advance();
      if (op == kStartSelfActivity || op == kStartOtherActivity) undo(op);
    }
  }

 private:
  Op pick() {
    std::array<Op, kOpCount> valid{};
    std::size_t n = 0;
    const auto allow = [&](Op op, bool ok) {
      if (ok) valid[n++] = op;
    };
    allow(kStartSelfService, !self_started_);
    allow(kStopSelfService, self_started_);
    allow(kStartOtherService, !other_started_);
    allow(kStopOtherService, other_started_);
    allow(kBindSelfService, !self_binding_);
    allow(kUnbindSelfService, self_binding_.has_value());
    allow(kBindOtherService, !other_binding_);
    allow(kUnbindOtherService, other_binding_.has_value());
    allow(kStartSelfActivity, true);
    allow(kStartOtherActivity, true);
    allow(kWakelockAcquire, !lock_);
    allow(kWakelockRelease, lock_.has_value());
    allow(kChangeScreen, true);
    return valid[rng_.below(n)];
  }

  bool apply(Op op) {
    switch (op) {
      case kStartSelfService:
        self_started_ = true;
        return self_.start_service(self_service_);
      case kStopSelfService:
        self_started_ = false;
        return self_.stop_service(self_service_);
      case kStartOtherService:
        other_started_ = true;
        return self_.start_service(other_service_);
      case kStopOtherService:
        other_started_ = false;
        return self_.stop_service(other_service_);
      case kBindSelfService:
        self_binding_ = self_.bind_service(self_service_);
        return self_binding_.has_value();
      case kUnbindSelfService: {
        const bool ok = self_.unbind_service(*self_binding_);
        self_binding_.reset();
        return ok;
      }
      case kBindOtherService:
        other_binding_ = self_.bind_service(other_service_);
        return other_binding_.has_value();
      case kUnbindOtherService: {
        const bool ok = self_.unbind_service(*other_binding_);
        other_binding_.reset();
        return ok;
      }
      case kStartSelfActivity:
        return self_.start_activity(
            Intent::explicit_for(kSelf, apps::DemoApp::kRootActivity));
      case kStartOtherActivity:
        return self_.start_activity(
            Intent::explicit_for(kOther, apps::DemoApp::kRootActivity));
      case kWakelockAcquire:
        lock_ = self_.acquire_wakelock(framework::WakelockType::kScreenBright,
                                       "bench");
        return lock_.has_value();
      case kWakelockRelease: {
        const bool ok = self_.release_wakelock(*lock_);
        lock_.reset();
        return ok;
      }
      case kChangeScreen:
        level_ = 60 + static_cast<int>(rng_.below(196));
        return self_.set_brightness(level_);
      case kOpCount: break;
    }
    return false;
  }

  /// Finishes the activity an activity start pushed, so the task stack
  /// stays bounded; for another app's activity the driver is relaunched,
  /// as fig10 does.
  void undo(Op op) {
    Span span(spans_, Layer::kFramework);
    if (op == kStartSelfActivity) {
      out_.call(self_.finish_activity(apps::DemoApp::kRootActivity));
    } else {
      out_.call(bed_.context_of(kOther).finish_activity(
          apps::DemoApp::kRootActivity));
      out_.call(bed_.server().user_launch(kSelf));
    }
  }

  /// One sampling period of dispatch; in traced blocks the sampler's
  /// stage timers split out gather and fold.
  void advance() {
    const sim::TimePoint until = bed_.sim().now() + sim::millis(250);
    if (!spans_.armed()) {
      bed_.advance_to(until);
      return;
    }
    const std::uint64_t events = bed_.sim().events_dispatched();
    const std::uint64_t allocs = allocations();
    {
      Span span(spans_, Layer::kSim);
      bed_.advance_to(until);
      const StageDelta d = take_stage_nanos(bed_.sampler());
      spans_.child(Layer::kEnergy, static_cast<std::int64_t>(d.gather_ns));
      spans_.child(Layer::kEnergy, static_cast<std::int64_t>(d.fold_ns));
      tally_.stages += d;
    }
    tally_.allocations += allocations() - allocs;
    tally_.events += bed_.sim().events_dispatched() - events;
  }

  apps::Testbed& bed_;
  sim::Rng rng_;
  Outcome& out_;
  SpanLedger& spans_;
  DispatchTally& tally_;
  framework::Context& self_;
  Intent self_service_;
  Intent other_service_;
  bool self_started_ = false;
  bool other_started_ = false;
  std::optional<framework::BindingId> self_binding_;
  std::optional<framework::BindingId> other_binding_;
  std::optional<framework::WakelockId> lock_;
  int level_ = 120;
};

std::string tiny_run_digest(std::uint64_t seed, Outcome& scratch) {
  SpanLedger idle(0);
  DispatchTally tally;
  auto bed = build_bed(seed, Config::kComplete, false);
  Churn churn(*bed, seed, scratch, idle, tally);
  churn.run(kTinySteps, nullptr, nullptr);
  bed->finish();
  return bed->energy_digest();
}

/// Host time of `steps` operations on each of `churns`, in a rotating
/// order per round so host drift spreads evenly; returns ns per step (at
/// the reference speed) for each churn and round.
std::vector<std::vector<double>> interleave(std::vector<Churn*> churns) {
  std::vector<std::vector<double>> per_step(churns.size());
  for (int round = 0; round < kCompareRounds; ++round) {
    for (std::size_t k = 0; k < churns.size(); ++k) {
      const std::size_t c =
          (k + static_cast<std::size_t>(round)) % churns.size();
      const double phi = speed_factor();
      const std::int64_t t0 = now_ns();
      churns[c]->run(kCompareSteps, nullptr, nullptr);
      per_step[c].push_back(static_cast<double>(now_ns() - t0) * phi /
                            static_cast<double>(kCompareSteps));
    }
  }
  return per_step;
}

/// The paper's three configurations on one op stream: framework-only
/// minus android is the tracker's cost per op, complete minus
/// framework-only the engine's.
void measure_configs(std::uint64_t seed, Outcome& out) {
  SpanLedger idle(0);
  DispatchTally tally;
  Outcome scratch;
  auto android = build_bed(seed, Config::kAndroid, false);
  auto framework_only = build_bed(seed, Config::kFrameworkOnly, false);
  auto complete = build_bed(seed, Config::kComplete, false);
  Churn a(*android, seed, scratch, idle, tally);
  Churn f(*framework_only, seed, scratch, idle, tally);
  Churn c(*complete, seed, scratch, idle, tally);
  const auto ns = interleave({&a, &f, &c});
  std::vector<double> tracker;
  std::vector<double> engine;
  for (int r = 0; r < kCompareRounds; ++r) {
    tracker.push_back(ns[1][r] - ns[0][r]);
    engine.push_back(ns[2][r] - ns[1][r]);
  }
  out.check(scratch.failed == 0, "configuration comparison had no failures");
  out.set("core.tracker_ns_per_op", median(tracker));
  out.set("core.engine_ns_per_op", median(engine));
}

/// Tracing on vs off on one op stream, interleaved; sets the obs.* metrics.
void measure_obs(std::uint64_t seed, Outcome& out) {
  SpanLedger idle(0);
  DispatchTally tally;
  Outcome scratch;
  auto on = build_bed(seed, Config::kComplete, true);
  auto off = build_bed(seed, Config::kComplete, false);
  Churn on_churn(*on, seed, scratch, idle, tally);
  Churn off_churn(*off, seed, scratch, idle, tally);
  const auto ns = interleave({&on_churn, &off_churn});
  std::vector<double> ratios;
  for (int r = 0; r < kCompareRounds; ++r) {
    ratios.push_back(ns[0][r] / ns[1][r]);
  }
  out.check(scratch.failed == 0, "obs comparison had no failures");
  on->finish();
  off->finish();
  out.check(on->energy_digest() == off->energy_digest(),
            "tracing on and off give identical energy digests");
  out.set("obs.trace_overhead_frac", median(ratios) - 1.0);
  out.set("obs.events_recorded",
          static_cast<double>(on->obs().trace()->total_recorded()));
  const std::int64_t t0 = now_ns();
  const std::string json = on->chrome_trace();
  out.set("obs.export_ms", static_cast<double>(now_ns() - t0) / 1e6);
  out.check(!json.empty(), "chrome_trace export is not empty");
}

}  // namespace

Outcome run_table1_churn(const Args& args, SpanLedger& spans) {
  Outcome out;
  {
    Outcome scratch;
    const std::string a = tiny_run_digest(args.seed, scratch);
    const std::string b = tiny_run_digest(args.seed, scratch);
    out.check(a == b && !a.empty(), "tiny table1_churn repeats its digest");
    out.check(scratch.failed == 0, "tiny table1_churn ran without failures");
  }

  // setup_s is sampled once per episode, on that episode's CPU. Every host
  // time is taken at the reference speed (reference.h).
  std::vector<double> setup_s;
  std::vector<double> speed;
  LatencyHistogram latency;
  // Per-op histograms are only filled, and only allocated, when traced.
  const auto per_op = args.trace ? std::make_unique<PerOp>() : nullptr;
  DispatchTally tally;
  TraceSwitch tracer(args, spans);
  CpuRotation rotation;
  std::vector<double> work;
  std::vector<double> seconds;
  std::string first_digest;
  double conservation = 0.0;
  std::size_t episodes = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  for (std::size_t block = 0; now_ns() < deadline || episodes < 2; ++block) {
    const bool traced = tracer.traced(block);
    // Traced runs keep each traced block on its untraced partner's CPU.
    if (!args.trace || block % 2 == 0) rotation.next();
    const double phi = speed_factor();
    speed.push_back(phi);
    const std::int64_t s0 = now_ns();
    auto bed = build_bed(args.seed, Config::kComplete, false);
    setup_s.push_back(static_cast<double>(now_ns() - s0) / 1e9 * phi);
    Churn churn(*bed, args.seed, out, spans, tally);
    tracer.arm(traced);
    bed->sampler().enable_stage_timing(traced);
    const std::int64_t t0 = now_ns();
    {
      Span root(spans, Layer::kApps);
      churn.run(kEpisodeSteps, traced ? nullptr : &latency,
                traced ? per_op.get() : nullptr, phi);
    }
    const std::int64_t wall = now_ns() - t0;
    tracer.arm(false);
    const double wall_s = static_cast<double>(wall) / 1e9 * phi;
    tracer.record(traced, wall_s, wall);
    if (!traced) {
      work.push_back(static_cast<double>(kEpisodeSteps));
      seconds.push_back(wall_s);
    }

    bed->finish();
    const DeviceCheck check = check_device(*bed);
    conservation = std::max(conservation, check.conservation_err_mj);
    record_device_check(out, check,
                        "table1_churn episode " + std::to_string(episodes));
    const std::string digest = bed->energy_digest();
    if (episodes == 0) {
      first_digest = digest;
      char line[160];
      std::snprintf(line, sizeof(line), "digest.episode = %s (%zu bytes)",
                    hex64(fnv1a(digest)).c_str(), digest.size());
      out.note(line);
      // Layer counts of one episode: they repeat exactly per seed.
      record_counts(out, read_counts(*bed),
                    static_cast<double>(kEpisodeSteps));
      const double rss_kb = static_cast<double>(peak_rss_kb());
      out.set("peak_rss_mb", rss_kb / 1024.0);
      out.set("fleet.rss_kb_per_device", rss_kb);
    } else {
      out.check(digest == first_digest,
                "episode " + std::to_string(episodes) +
                    " repeats the first episode's digest");
    }
    ++episodes;
  }

  char line[160];
  std::snprintf(line, sizeof(line),
                "ran %zu episodes of %zu ops (%.2f simulated h each)",
                episodes, kEpisodeSteps,
                static_cast<double>(kEpisodeSteps) * 0.25 / 3600.0);
  out.note(line);
  out.note(speed_note(speed));
  out.set("host.speed_factor", median(speed));

  const double rate = round_median_rate(work, seconds, rotation.cpus());
  out.set("setup_s", median(setup_s));
  out.set("ops_per_s", rate);
  out.set("sim_s_per_wall_s", rate * 0.25);
  out.set("device_sim_s_per_wall_s", rate * 0.25);
  out.set("op_us_p50", latency.quantile_ns(0.50) / 1e3);
  out.set("op_us_p99", latency.quantile_ns(0.99) / 1e3);
  out.set("framework.op_samples", static_cast<double>(latency.count()));
  out.set("conservation_err_mj", conservation);

  if (args.trace) {
    for (int op = 0; op < kOpCount; ++op) {
      out.set(std::string("framework.op_us_p50.") + kOpNames[op],
              (*per_op)[op].quantile_ns(0.50) / 1e3);
    }
    const double ticks =
        static_cast<double>(std::max<std::uint64_t>(1, tally.stages.ticks));
    out.set("energy.gather_ns_per_tick",
            static_cast<double>(tally.stages.gather_ns) / ticks);
    out.set("energy.fold_ns_per_tick",
            static_cast<double>(tally.stages.fold_ns) / ticks);
    out.set("energy.allocs_per_tick",
            static_cast<double>(tally.allocations) / ticks);
    out.set("sim.ns_per_event",
            static_cast<double>(spans.self_ns(Layer::kSim)) /
                static_cast<double>(std::max<std::uint64_t>(1, tally.events)));
    tracer.report(out);
    measure_configs(args.seed, out);
    measure_obs(args.seed, out);
  }
  return out;
}

}  // namespace ledger
