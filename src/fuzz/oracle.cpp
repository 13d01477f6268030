#include "fuzz/oracle.h"

#include <chrono>
#include <memory>
#include <sstream>
#include <utility>

#include "fleet/fleet.h"
#include "fuzz/executor.h"
#include "sim/check.h"

namespace eandroid::fuzz {

namespace {

struct Observed {
  std::vector<std::string> digests;
  std::vector<std::string> traces;
  bool operator==(const Observed&) const = default;
};

/// One single-device replay; digests/traces have exactly one element.
/// `metrics`, when non-null, receives the device's metrics snapshot.
Observed run_single(const ScenarioProgram& program, bool trace,
                    obs::MetricsSnapshot* metrics = nullptr) {
  fleet::DeviceSpec spec;
  spec.seed = program.seed;
  spec.obs.trace = trace;
  fleet::DeviceContext bed(spec);
  install_cast(bed);
  bed.start();
  ProgramExecutor executor(bed, program);
  executor.run();
  Observed out;
  out.digests.push_back(bed.energy_digest());
  if (trace) out.traces.push_back(bed.trace_text());
  if (metrics != nullptr) *metrics = bed.metrics_snapshot();
  return out;
}

constexpr int kFleetDevices = 4;

/// The oracle's fleet: the cast on every device (device i seeds
/// program.seed + i, so the population is not N clones), with a push
/// campaign layered on top to keep cross-device injection in play.
/// Campaign instants sit off the 250 ms sampling grid (broker contract).
/// Work-stealing fleets run 4 workers; `max_resident_devices` > 0 makes
/// one hibernate.
std::unique_ptr<fleet::Fleet> make_fleet(const ScenarioProgram& program,
                                         fleet::Scheduler scheduler,
                                         int max_resident_devices,
                                         bool trace) {
  fleet::FleetOptions options;
  options.device_count = kFleetDevices;
  options.base_seed = program.seed;
  options.scheduler = scheduler;
  options.workers = 4;
  options.max_resident_devices = max_resident_devices;
  options.epoch = sim::seconds(1);
  options.obs.trace = trace;
  options.install_plan = cast_install_plan();
  auto f = std::make_unique<fleet::Fleet>(std::move(options));

  fleet::PushCampaign campaign;
  campaign.sender_package = kCastPackages[2];
  campaign.target_package = kCastPackages[kPushApp];
  campaign.start = sim::TimePoint{} + sim::millis(1501);
  campaign.period = sim::millis(673);
  campaign.pushes_per_device = 4;
  campaign.device_stagger = sim::millis(13);
  f->broker().add_campaign(campaign);
  return f;
}

/// One fleet replay with the program armed on every device.
Observed run_fleet(const ScenarioProgram& program, fleet::Scheduler scheduler,
                   bool trace) {
  const std::unique_ptr<fleet::Fleet> fp =
      make_fleet(program, scheduler, 0, trace);
  fleet::Fleet& f = *fp;
  f.start();
  // Arm between start() and the first run (driver-thread window). The
  // executors outlive the run: their closures fire from the fleet's
  // schedulers.
  std::vector<std::unique_ptr<ProgramExecutor>> executors;
  executors.reserve(kFleetDevices);
  for (int i = 0; i < kFleetDevices; ++i) {
    executors.push_back(
        std::make_unique<ProgramExecutor>(f.device(i), program));
    executors.back()->arm();
  }
  f.run_for(sim::micros(program.horizon_us));
  f.finish();

  Observed out;
  out.digests = f.energy_digests();
  if (trace) {
    for (int i = 0; i < kFleetDevices; ++i) {
      out.traces.push_back(f.device(i).trace_text());
    }
  }
  return out;
}

class Stopwatch {
 public:
  Stopwatch() : begin_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         begin_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point begin_;
};

/// Adds one failure line if `got` differs from `want`: a size mismatch,
/// or the first device whose string differs.
void compare_each(const char* leg, const char* what,
                  const std::vector<std::string>& want,
                  const std::vector<std::string>& got,
                  OracleVerdict* verdict) {
  std::ostringstream msg;
  if (got.size() != want.size()) {
    msg << leg << ": " << got.size() << " " << what << "s, expected "
        << want.size();
    verdict->failures.push_back(msg.str());
    return;
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (got[i] != want[i]) {
      msg << leg << ": " << what << " mismatch on device " << i;
      verdict->failures.push_back(msg.str());
      return;
    }
  }
}

/// Digests always; traces only when both sides recorded them (digests do
/// not depend on tracing, so an untraced run checks against a traced
/// reference by digest alone).
void compare(const char* leg, const Observed& reference, const Observed& got,
             OracleVerdict* verdict) {
  compare_each(leg, "digest", reference.digests, got.digests, verdict);
  if (!reference.traces.empty() && !got.traces.empty()) {
    compare_each(leg, "trace", reference.traces, got.traces, verdict);
  }
}

/// The fleet.hibernation leg (see oracle.h): unarmed, untraced; snapshot
/// digests against an unarmed serial-reference run, then each device
/// restored by replay against its own snapshot.
void check_hibernation(const ScenarioProgram& program,
                       OracleVerdict* verdict) {
  const sim::Duration horizon = sim::micros(program.horizon_us);
  const std::unique_ptr<fleet::Fleet> reference =
      make_fleet(program, fleet::Scheduler::kLockstep, 0, false);
  reference->start();
  reference->run_for(horizon);
  reference->finish();
  Observed expected;
  expected.digests = reference->energy_digests();

  const std::unique_ptr<fleet::Fleet> parked =
      make_fleet(program, fleet::Scheduler::kWorkStealing, 1, false);
  parked->start();
  parked->run_for(horizon);
  parked->finish();
  Observed snapshots;
  Observed restored;
  for (int i = 0; i < kFleetDevices; ++i) {
    snapshots.digests.push_back(parked->snapshot(i).energy_digest);
    restored.digests.push_back(parked->device(i).energy_digest());
  }
  compare("fleet.hibernation snapshot", expected, snapshots, verdict);
  compare("fleet.hibernation restore", snapshots, restored, verdict);
}

template <typename Fn>
Observed timed(const char* leg, OracleVerdict* verdict, const Fn& fn) {
  const Stopwatch watch;
  Observed out = fn();
  verdict->timings.push_back({leg, watch.seconds()});
  return out;
}

}  // namespace

std::string OracleVerdict::to_string() const {
  std::ostringstream out;
  for (const std::string& f : failures) out << f << "\n";
  for (const std::string& v : invariant_violations) out << v << "\n";
  return out.str();
}

OracleVerdict run_oracle(const ScenarioProgram& program,
                         const OracleOptions& options) {
  std::vector<std::string> problems;
  EANDROID_CHECK(validate(program, &problems),
                 "oracle input fails the grammar: "
                     << (problems.empty() ? std::string("?") : problems[0]));
  OracleVerdict verdict;
  const bool trace = options.trace;

  if (options.single_legs) {
    const Observed reference =
        timed("single.reference", &verdict, [&] {
          return run_single(program, trace, &verdict.metrics);
        });
    compare("single.determinism", reference,
            timed("single.determinism", &verdict,
                  [&] { return run_single(program, trace); }),
            &verdict);

    // Invariant leg: its own device, digest never compared (per-step
    // flushes move window boundaries).
    const Stopwatch watch;
    {
      fleet::DeviceSpec spec;
      spec.seed = program.seed;
      fleet::DeviceContext bed(spec);
      install_cast(bed);
      bed.start();
      ProgramExecutor::Options exec_options;
      exec_options.check_invariants_each_step = true;
      ProgramExecutor executor(bed, program, exec_options);
      executor.run();
      executor.check_now("end state");
      verdict.invariant_violations = executor.violations();
      verdict.steps_applied = executor.steps_applied();
    }
    verdict.timings.push_back({"single.invariants", watch.seconds()});
  }

  if (options.fleet_legs) {
    const Observed reference =
        timed("fleet.reference", &verdict, [&] {
          return run_fleet(program, fleet::Scheduler::kLockstep, trace);
        });
    compare("fleet.work_stealing", reference,
            timed("fleet.work_stealing", &verdict,
                  [&] {
                    return run_fleet(program, fleet::Scheduler::kWorkStealing,
                                     trace);
                  }),
            &verdict);
    // Untraced, the work-stealing run consolidates sendless windows; with
    // tracing off everywhere, fleet.work_stealing already is this leg.
    if (trace) {
      compare("fleet.work_stealing_untraced", reference,
              timed("fleet.work_stealing_untraced", &verdict,
                    [&] {
                      return run_fleet(program,
                                       fleet::Scheduler::kWorkStealing, false);
                    }),
              &verdict);
    }
    const Stopwatch watch;
    check_hibernation(program, &verdict);
    verdict.timings.push_back({"fleet.hibernation", watch.seconds()});
  }
  return verdict;
}

}  // namespace eandroid::fuzz
