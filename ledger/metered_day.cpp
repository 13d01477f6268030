// metered_day: one phone living day after day under complete E-Android.
//
// The stock cast (message, camera, browser, maps, game, music, contacts
// and the victim) shares the phone with BinderMalware and WakelockMalware.
// A seeded daily script unplugs the charger in the morning, runs app
// sessions with taps separated by pocket gaps in which the device
// suspends, syncs the victim's service once (which the binder malware
// pins), lets the wakelock malware hold the screen for one gap, and plugs
// the charger in for the night. Days follow each other on the same
// device. Almost every simulated event is a 250 ms sampler tick, so the
// sampler's gather and fold and the simulator's dispatch do most of the
// work; windows rarely open or close.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>

#include "apps/demo_app.h"
#include "apps/malware.h"
#include "apps/testbed.h"
#include "checks.h"
#include "core/detector.h"
#include "reference.h"
#include "workloads.h"

namespace ledger {
namespace {

using namespace eandroid;

/// A phone lives this many days (840 simulated hours), then a fresh phone
/// with a seed derived from the run's seed and the lifetime starts over:
/// later lifetimes live new days, so a run averages over many daily
/// scripts. The bound keeps host memory in check (see ledger/README.md on
/// battery history growth).
constexpr int kLifetimeDays = 35;
/// Day 0 of each lifetime is warm-up and not timed.
constexpr int kWarmupDays = 1;
/// Counts and the digest are read at the end of this day of the first
/// lifetime, so they repeat exactly for a seed however fast the host is;
/// the self-test replays the same days on fresh phones and must agree.
constexpr int kCheckpointDay = 4;
/// Day pairs for the tracing on/off comparison in the traced run.
constexpr int kObsPairs = 12;

constexpr const char* kSessionApps[] = {
    "com.example.message", "com.example.camera",   "com.example.browser",
    "com.example.maps",    "com.example.game3d",   "com.example.music",
    "com.example.contacts"};

struct Phone {
  std::unique_ptr<apps::Testbed> bed;
  apps::WakelockMalware* wakelock_malware = nullptr;
  std::string victim;
};

/// Construction, install, boot and sampler start, up to the first timed
/// event: the work setup_s measures.
Phone build_phone(std::uint64_t seed, bool obs_trace) {
  apps::TestbedOptions options;
  options.seed = seed;
  options.obs.trace = obs_trace;
  Phone phone;
  phone.bed = std::make_unique<apps::Testbed>(options);
  apps::Testbed& bed = *phone.bed;
  bed.install<apps::DemoApp>(apps::message_spec());
  bed.install<apps::DemoApp>(apps::camera_spec());
  bed.install<apps::DemoApp>(apps::browser_spec());
  bed.install<apps::DemoApp>(apps::maps_spec());
  bed.install<apps::DemoApp>(apps::game_spec());
  bed.install<apps::DemoApp>(apps::music_spec());
  bed.install<apps::DemoApp>(apps::contacts_spec());
  apps::DemoAppSpec victim = apps::victim_spec();
  victim.wakelock_bug = false;
  victim.exit_dialog = false;
  phone.victim = victim.package;
  bed.install<apps::DemoApp>(victim);
  bed.install<apps::BinderMalware>(victim.package, apps::DemoApp::kService);
  phone.wakelock_malware = bed.install<apps::WakelockMalware>();
  bed.start();
  // Both malware processes start with the phone, as a receiver for
  // BOOT_COMPLETED would start them: the binder malware begins polling.
  (void)bed.context_of(apps::BinderMalware::kPackage);
  (void)bed.context_of(apps::WakelockMalware::kPackage);
  bed.server().plug_charger();
  return phone;
}

/// Drives one phone through its daily script.
class DayDriver {
 public:
  /// What the driver's days add up to, across phones.
  struct Tally {
    DispatchTally dispatch;
    std::vector<double> report_ms;
    std::uint64_t user_ops = 0;
  };

  DayDriver(Phone& phone, std::uint64_t seed, Outcome& out, SpanLedger& spans,
            Tally& tally)
      : phone_(phone),
        bed_(*phone.bed),
        seed_(seed),
        out_(out),
        spans_(spans),
        tally_(tally) {}

  /// Runs simulated day `day`, [day * 24 h, (day + 1) * 24 h), then the
  /// end-of-day report. `latency`, when given, receives each framework
  /// call's host time multiplied by `scale`.
  void run_day(int day, LatencyHistogram* latency, double scale = 1.0) {
    latency_ = latency;
    latency_scale_ = scale;
    sim::Rng rng(mix_seed(seed_, static_cast<std::uint64_t>(day)));
    const sim::TimePoint t0 = sim::TimePoint{} + sim::hours(24) * day;
    const auto minutes_below = [&rng](std::uint64_t n) {
      return sim::minutes(static_cast<std::int64_t>(rng.below(n)));
    };
    const sim::TimePoint sync_at = t0 + sim::hours(9) + minutes_below(480);
    const sim::TimePoint attack_at = t0 + sim::hours(8) + minutes_below(720);
    bool synced = false;
    bool attacked = false;

    advance_to(t0 + sim::hours(7) + minutes_below(30));
    user_op([&] { bed_.server().unplug_charger(); return true; });
    while (bed_.sim().now() < t0 + sim::hours(23)) {
      const char* app = kSessionApps[rng.below(std::size(kSessionApps))];
      user_op([&] { bed_.server().user_unlock(); return true; });
      user_op([&] { return bed_.server().user_launch(app); });
      const std::uint64_t taps = 2 + rng.below(7);
      for (std::uint64_t i = 0; i < taps; ++i) {
        advance_by(sim::seconds(5 + static_cast<std::int64_t>(rng.below(36))));
        user_op([&] { bed_.server().user_tap(540, 960); return true; });
      }
      user_op([&] { bed_.server().user_press_home(); return true; });
      if (!synced && bed_.sim().now() >= sync_at) {
        synced = true;
        const auto service = framework::Intent::explicit_for(
            phone_.victim, apps::DemoApp::kService);
        user_op([&] {
          return bed_.context_of(phone_.victim).start_service(service);
        });
        advance_by(sim::seconds(1));
        user_op([&] {
          return bed_.context_of(phone_.victim).stop_service(service);
        });
      }
      const sim::Duration gap =
          sim::minutes(10 + static_cast<std::int64_t>(rng.below(81)));
      if (!attacked && bed_.sim().now() >= attack_at) {
        attacked = true;
        user_op([&] { return phone_.wakelock_malware->attack(); });
        advance_by(gap);
        user_op([&] { return phone_.wakelock_malware->release(); });
        user_op([&] {
          return bed_.context_of(apps::WakelockMalware::kPackage)
              .stop_service(framework::Intent::explicit_for(
                  apps::WakelockMalware::kPackage,
                  apps::WakelockMalware::kService));
        });
      } else {
        advance_by(gap);
      }
    }
    user_op([&] { bed_.server().plug_charger(); return true; });
    advance_to(t0 + sim::hours(24));
    end_of_day_report();
  }

 private:
  /// One framework call made as the user (or an app) would: timed into
  /// the latency histogram and counted by its return value.
  template <typename Fn>
  void user_op(Fn&& fn) {
    bool ok = false;
    {
      Span span(spans_, Layer::kFramework);
      const std::int64_t t0 = now_ns();
      ok = fn();
      if (latency_ != nullptr) latency_->add(now_ns() - t0, latency_scale_);
    }
    out_.call(ok);
    ++tally_.user_ops;
  }

  void advance_by(sim::Duration d) { advance_to(bed_.sim().now() + d); }

  /// Simulator dispatch up to `until`; in traced blocks the sampler's
  /// stage timers split out gather and fold.
  void advance_to(sim::TimePoint until) {
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
      tally_.dispatch.stages += d;
    }
    tally_.dispatch.allocations += allocations() - allocs;
    tally_.dispatch.events += bed_.sim().events_dispatched() - events;
  }

  /// The user's evening look at the battery screen: the E-Android view
  /// and a detector scan.
  void end_of_day_report() {
    Span span(spans_, Layer::kCore);
    const std::int64_t t0 = now_ns();
    const core::EAndroid& ea = *bed_.eandroid();
    const std::string view = ea.view().render("today");
    core::CollateralAttackDetector detector(bed_.server(), ea);
    const std::string alerts = detector.render(detector.scan());
    out_.call(!view.empty() && !alerts.empty());
    if (spans_.armed()) {
      tally_.report_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
  }

  Phone& phone_;
  apps::Testbed& bed_;
  std::uint64_t seed_;
  Outcome& out_;
  SpanLedger& spans_;
  Tally& tally_;
  LatencyHistogram* latency_ = nullptr;
  double latency_scale_ = 1.0;
};

/// Runs `days` days on a fresh phone and returns its digest.
std::string short_run_digest(std::uint64_t seed, int days, Outcome& scratch) {
  SpanLedger idle(0);
  DayDriver::Tally tally;
  Phone phone = build_phone(seed, false);
  DayDriver driver(phone, seed, scratch, idle, tally);
  for (int day = 0; day < days; ++day) driver.run_day(day, nullptr);
  return phone.bed->energy_digest();
}

/// Tracing on vs off on the same days, interleaved in pairs so host drift
/// cancels; sets the obs.* metrics.
void measure_obs(std::uint64_t seed, Outcome& out) {
  SpanLedger idle(0);
  DayDriver::Tally tally;
  Outcome scratch;
  Phone on = build_phone(seed, true);
  Phone off = build_phone(seed, false);
  DayDriver on_driver(on, seed, scratch, idle, tally);
  DayDriver off_driver(off, seed, scratch, idle, tally);
  std::vector<double> ratios;
  for (int day = 0; day < kObsPairs; ++day) {
    double on_ns = 0.0;
    double off_ns = 0.0;
    for (int leg = 0; leg < 2; ++leg) {
      const bool traced = (leg + day) % 2 == 0;
      const double phi = speed_factor();
      const std::int64_t t0 = now_ns();
      (traced ? on_driver : off_driver).run_day(day, nullptr);
      (traced ? on_ns : off_ns) = static_cast<double>(now_ns() - t0) * phi;
    }
    ratios.push_back(on_ns / off_ns);
  }
  out.check(scratch.failed == 0, "obs comparison ran without failed calls");
  on.bed->finish();
  off.bed->finish();
  out.check(on.bed->energy_digest() == off.bed->energy_digest(),
            "tracing on and off give identical energy digests");
  out.set("obs.trace_overhead_frac", median(ratios) - 1.0);
  out.set("obs.events_recorded",
          static_cast<double>(on.bed->obs().trace()->total_recorded()));
  const std::int64_t t0 = now_ns();
  const std::string json = on.bed->chrome_trace();
  out.set("obs.export_ms", static_cast<double>(now_ns() - t0) / 1e6);
  out.check(!json.empty(), "chrome_trace export is not empty");
}

}  // namespace

Outcome run_metered_day(const Args& args, SpanLedger& spans) {
  Outcome out;

  // Self-test: the checkpoint's days twice on fresh phones give the same
  // digest, which the measured phone must reproduce too.
  std::string first_digest;
  {
    Outcome scratch;
    first_digest = short_run_digest(args.seed, kCheckpointDay + 1, scratch);
    const std::string again =
        short_run_digest(args.seed, kCheckpointDay + 1, scratch);
    out.check(first_digest == again && !again.empty(),
              "short metered_day repeats its digest");
    out.check(scratch.failed == 0, "short metered_day ran without failures");
  }

  // setup_s is sampled once per timed day, on that day's CPU, so it sees
  // the same host phases as the days themselves. Every host time is taken
  // at the reference speed (reference.h).
  std::vector<double> setup_s;
  std::vector<double> speed;
  CpuRotation rotation;
  LatencyHistogram latency;
  DayDriver::Tally tally;
  TraceSwitch tracer(args, spans);
  std::vector<double> sim_s;
  std::vector<double> ops;
  std::vector<double> seconds;
  double conservation = 0.0;
  double rss_kb = 0.0;
  std::size_t block = 0;
  int lifetimes = 0;
  int days_run = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  // The first lifetime always completes; later ones stop at the deadline.
  while (lifetimes == 0 || now_ns() < deadline) {
    const std::uint64_t seed =
        lifetimes == 0
            ? args.seed
            : mix_seed(args.seed, static_cast<std::uint64_t>(lifetimes));
    Phone phone = build_phone(seed, false);
    apps::Testbed& bed = *phone.bed;
    DayDriver driver(phone, seed, out, spans, tally);
    for (int day = 0; day < kLifetimeDays; ++day) {
      if (lifetimes > 0 && now_ns() >= deadline) break;
      if (day < kWarmupDays) {
        driver.run_day(day, nullptr);
        continue;
      }
      const bool traced = tracer.traced(block);
      // Traced runs keep each traced day on its untraced partner's CPU.
      if (!args.trace || block % 2 == 0) rotation.next();
      ++block;
      const double phi = speed_factor();
      speed.push_back(phi);
      {
        const std::int64_t s0 = now_ns();
        const Phone spare = build_phone(args.seed, false);
        setup_s.push_back(static_cast<double>(now_ns() - s0) / 1e9 * phi);
      }
      const std::uint64_t ops_before = tally.user_ops;
      tracer.arm(traced);
      bed.sampler().enable_stage_timing(traced);
      const std::int64_t t0 = now_ns();
      {
        Span root(spans, Layer::kApps);
        driver.run_day(day, traced ? nullptr : &latency, phi);
      }
      const std::int64_t wall = now_ns() - t0;
      tracer.arm(false);
      bed.sampler().enable_stage_timing(false);
      const double wall_s = static_cast<double>(wall) / 1e9 * phi;
      tracer.record(traced, wall_s, wall);
      if (!traced) {
        sim_s.push_back(86400.0);
        ops.push_back(static_cast<double>(tally.user_ops - ops_before));
        seconds.push_back(wall_s);
      }
      ++days_run;
      if (lifetimes > 0 || day != kCheckpointDay) continue;
      const std::string digest = bed.energy_digest();
      out.check(digest == first_digest,
                "the measured phone reproduces the self-test's day " +
                    std::to_string(kCheckpointDay) + " digest");
      // Layer counts at the checkpoint: they repeat exactly per seed.
      char line[160];
      std::snprintf(line, sizeof(line), "digest.day%d = %s (%zu bytes)",
                    kCheckpointDay, hex64(fnv1a(digest)).c_str(),
                    digest.size());
      out.note(line);
      record_counts(out, read_counts(bed),
                    static_cast<double>(tally.user_ops));
    }
    bed.finish();
    const DeviceCheck check = check_device(bed);
    conservation = std::max(conservation, check.conservation_err_mj);
    record_device_check(out, check,
                        "metered_day lifetime " + std::to_string(lifetimes));
    if (lifetimes == 0) {
      rss_kb = static_cast<double>(peak_rss_kb());
      char line[256];
      std::snprintf(line, sizeof(line),
                    "first lifetime: %d days (%d h); InvariantChecker at its "
                    "default 1e-3 mJ tolerance reports %zu violation(s), at "
                    "1 mJ %zu; battery history %zu points",
                    kLifetimeDays, 24 * kLifetimeDays,
                    check.violations_default_tolerance, check.violations,
                    bed.server().battery().history().size());
      out.note(line);
      if (check.violations_default_tolerance > 0) {
        out.note("  first at the default tolerance: " +
                 check.first_default_tolerance_violation);
      }
    }
    ++lifetimes;
  }
  char line[160];
  std::snprintf(line, sizeof(line), "ran %d timed days over %d lifetime(s)",
                days_run, lifetimes);
  out.note(line);
  out.note(speed_note(speed));
  out.set("host.speed_factor", median(speed));

  const double sim_rate = round_median_rate(sim_s, seconds, rotation.cpus());
  out.set("setup_s", median(setup_s));
  out.set("sim_s_per_wall_s", sim_rate);
  out.set("device_sim_s_per_wall_s", sim_rate);
  out.set("ops_per_s", round_median_rate(ops, seconds, rotation.cpus()));
  out.set("op_us_p50", latency.quantile_ns(0.50) / 1e3);
  out.set("op_us_p99", latency.quantile_ns(0.99) / 1e3);
  out.set("framework.op_samples", static_cast<double>(latency.count()));
  out.set("peak_rss_mb", rss_kb / 1024.0);
  out.set("fleet.rss_kb_per_device", rss_kb);
  out.set("conservation_err_mj", conservation);

  if (args.trace) {
    const DispatchTally& d = tally.dispatch;
    const double ticks =
        static_cast<double>(std::max<std::uint64_t>(1, d.stages.ticks));
    out.set("energy.gather_ns_per_tick",
            static_cast<double>(d.stages.gather_ns) / ticks);
    out.set("energy.fold_ns_per_tick",
            static_cast<double>(d.stages.fold_ns) / ticks);
    out.set("energy.allocs_per_tick",
            static_cast<double>(d.allocations) / ticks);
    out.set("sim.ns_per_event",
            static_cast<double>(spans.self_ns(Layer::kSim)) /
                static_cast<double>(std::max<std::uint64_t>(1, d.events)));
    out.set("core.report_ms", median(tally.report_ms));
    tracer.report(out);
    measure_obs(args.seed, out);
  }
  return out;
}

}  // namespace ledger
