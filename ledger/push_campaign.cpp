// push_campaign: 1,024 phones under the work-stealing fleet scheduler.
//
// Every phone runs the same install plan: a sender, a push endpoint (a
// sync client) and a 3% background load. The broker sends each phone one
// push every 5 s, staggered 7 ms per device index, for one simulated
// hour. The working set of 1,024 phones is far larger than the last-level
// cache, and fleet scheduling, the broker and the work-stealing executor
// do work the single-phone workloads never reach. One block is one
// campaign on a freshly built fleet; the fleet advances a simulated
// minute per call, and that call's host time is the op latency.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "apps/demo_app.h"
#include "checks.h"
#include "fleet/aggregate.h"
#include "fleet/fleet.h"
#include "machine.h"
#include "reference.h"
#include "workloads.h"

namespace ledger {
namespace {

using namespace eandroid;

constexpr int kDevices = 1024;
constexpr std::int64_t kCampaignS = 3600;
constexpr std::int64_t kStepS = 30;
/// Untraced campaigns re-measure host speed every this many steps, so a
/// campaign's speed factor follows the host through the whole campaign.
constexpr int kStepsPerReference = 10;
constexpr int kTinyDevices = 32;
constexpr std::int64_t kTinyS = 120;
constexpr int kObsDevices = 128;
constexpr std::int64_t kObsS = 3600;
constexpr int kObsRounds = 6;

std::shared_ptr<const fleet::InstallPlan> make_plan() {
  fleet::InstallPlan plan;
  apps::DemoAppSpec sender;
  sender.package = "com.fleet.weather";
  plan.add_app<apps::DemoApp>(sender);
  apps::DemoAppSpec endpoint;
  endpoint.package = "com.fleet.syncclient";
  endpoint.push_endpoint = true;
  plan.add_app<apps::DemoApp>(endpoint);
  apps::DemoAppSpec load;
  load.package = "com.fleet.load";
  load.background_cpu = 0.03;
  plan.add_app<apps::DemoApp>(load);
  return std::make_shared<const fleet::InstallPlan>(std::move(plan));
}

/// The seed sets the campaign's phase: the first push lands 1–5 s in, at
/// a millisecond the seed picks, so each seed moves every delivery
/// against the phones' sampler ticks.
fleet::PushCampaign make_campaign(std::uint64_t seed, std::int64_t horizon_s) {
  fleet::PushCampaign campaign;
  campaign.sender_package = "com.fleet.weather";
  campaign.target_package = "com.fleet.syncclient";
  campaign.start = sim::TimePoint{} + sim::seconds(1) +
                   sim::millis(static_cast<std::int64_t>(
                       mix_seed(seed, 0x9054) % 4000));
  campaign.period = sim::seconds(5);
  campaign.pushes_per_device = static_cast<int>((horizon_s - 5) / 5);
  campaign.device_stagger = sim::millis(7);
  return campaign;
}

/// Builds a fleet with the campaign loaded; start() is left to the caller
/// so a traced block can arm the sampler stage timers first.
std::unique_ptr<fleet::Fleet> make_fleet(std::uint64_t seed, int devices,
                                         unsigned workers,
                                         std::int64_t horizon_s,
                                         bool obs_trace) {
  fleet::FleetOptions options;
  options.device_count = devices;
  options.base_seed = seed;
  options.scheduler = fleet::Scheduler::kWorkStealing;
  options.workers = workers;
  options.epoch = sim::seconds(5);
  options.obs.trace = obs_trace;
  options.obs.trace_capacity = 1u << 12;
  options.install_plan = make_plan();
  auto f = std::make_unique<fleet::Fleet>(options);
  f->broker().add_campaign(make_campaign(seed, horizon_s));
  return f;
}

/// Builds and starts a fleet: the work setup_s measures.
std::unique_ptr<fleet::Fleet> build_fleet(std::uint64_t seed, int devices,
                                          unsigned workers,
                                          std::int64_t horizon_s,
                                          bool obs_trace) {
  auto f = make_fleet(seed, devices, workers, horizon_s, obs_trace);
  f->start();
  return f;
}

std::uint64_t pushes_delivered(fleet::Fleet& f) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    n += f.device(i).server().push().pushes_delivered();
  }
  return n;
}

std::uint64_t counter(const obs::MetricsSnapshot& m, const char* name) {
  const obs::MetricRow* row = m.find(name);
  return row == nullptr ? 0 : row->count;
}

/// Per-device digests plus the aggregate report's digest.
std::vector<std::string> tiny_digests(std::uint64_t seed, unsigned workers) {
  auto f = build_fleet(seed, kTinyDevices, workers, kTinyS, false);
  f->run_for(sim::seconds(kTinyS));
  f->finish();
  std::vector<std::string> digests = f->energy_digests();
  digests.push_back(fleet::aggregate_fleet(*f).digest());
  return digests;
}

/// Tracing on vs off on the same small fleet segment, rounds in
/// alternating order; the fleet trace's export is timed across devices.
void measure_obs(std::uint64_t seed, unsigned workers, Outcome& out) {
  std::vector<double> ratios;
  double events = 0.0;
  double export_ms = 0.0;
  std::string digest_on;
  std::string digest_off;
  for (int round = 0; round < kObsRounds; ++round) {
    double ns[2] = {0.0, 0.0};
    for (int leg = 0; leg < 2; ++leg) {
      const bool traced = (leg + round) % 2 == 0;
      auto f = build_fleet(seed, kObsDevices, workers, kObsS, traced);
      const double phi = speed_factor(workers);
      const std::int64_t t0 = now_ns();
      f->run_for(sim::seconds(kObsS));
      f->finish();
      ns[traced ? 0 : 1] = static_cast<double>(now_ns() - t0) * phi;
      (traced ? digest_on : digest_off) = fleet::aggregate_fleet(*f).digest();
      if (traced && round == 0) {
        std::uint64_t recorded = 0;
        const std::int64_t e0 = now_ns();
        std::size_t bytes = 0;
        for (std::size_t i = 0; i < f->size(); ++i) {
          recorded += f->device(i).obs().trace()->total_recorded();
          bytes += f->device(i).chrome_trace().size();
        }
        export_ms = static_cast<double>(now_ns() - e0) / 1e6;
        events = static_cast<double>(recorded);
        out.check(bytes > 0, "fleet chrome_trace export is not empty");
      }
    }
    ratios.push_back(ns[0] / ns[1]);
  }
  out.check(digest_on == digest_off,
            "tracing on and off give identical fleet digests");
  out.set("obs.trace_overhead_frac", median(ratios) - 1.0);
  out.set("obs.events_recorded", events);
  out.set("obs.export_ms", export_ms);
}

}  // namespace

unsigned campaign_workers() { return std::min(4u, host_cores()); }

Outcome run_push_campaign(const Args& args, SpanLedger& spans) {
  Outcome out;
  const unsigned workers = campaign_workers();

  // Self-test: one worker and every core agree, and a repeat agrees.
  {
    const auto one = tiny_digests(args.seed, 1);
    const auto all = tiny_digests(args.seed, host_cores());
    const auto again = tiny_digests(args.seed, host_cores());
    out.check(one == all, "push_campaign digests equal at 1 and nproc workers");
    out.check(all == again, "tiny push_campaign repeats its digests");
  }

  // Every host time is taken at the reference speed (reference.h),
  // measured on all workers' CPUs at once before each block. setup_s gets
  // two samples per campaign: a spare fleet and the campaign's own.
  std::vector<double> setup_s;
  std::vector<double> speed;

  TraceSwitch tracer(args, spans);
  // Step latency percentiles are taken per campaign, then the median over
  // campaigns: a step's tail is a few steps per campaign where every phone
  // does the same extra work at once, and one campaign caught in a host
  // hiccup would otherwise own the pooled tail.
  std::vector<double> step_p50;
  std::vector<double> step_p99;
  std::size_t steps_timed = 0;
  std::vector<double> device_rate;
  std::vector<double> start_s;
  std::vector<double> run_s;
  std::vector<double> finish_s;
  std::vector<double> aggregate_ms;
  std::vector<double> busy;
  std::vector<double> consolidated;
  obs::MetricsSnapshot sched;
  std::string first_report;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  double conservation = 0.0;
  double checkpoint_rss_kb = 0.0;
  DeviceCounts totals;
  int campaigns = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  for (std::size_t block = 0; now_ns() < deadline || campaigns < 2; ++block) {
    const bool traced = tracer.traced(block);
    const double phi = speed_factor(workers);
    speed.push_back(phi);
    {
      const std::int64_t s0 = now_ns();
      const auto spare =
          build_fleet(args.seed, kDevices, workers, kCampaignS, false);
      setup_s.push_back(static_cast<double>(now_ns() - s0) / 1e9 * phi);
    }
    const std::int64_t t0 = now_ns();
    std::int64_t run_ns = 0;
    double run_norm_s = 0.0;
    double cpu_s = 0.0;
    std::unique_ptr<fleet::Fleet> f;
    fleet::FleetReport report;
    tracer.arm(traced);
    {
      Span root(spans, Layer::kApps);
      {
        Span span(spans, Layer::kFleet);
        const std::int64_t s0 = now_ns();
        f = make_fleet(args.seed, kDevices, workers, kCampaignS, false);
        const std::int64_t s1 = now_ns();
        if (traced) {
          for (std::size_t i = 0; i < f->size(); ++i) {
            f->device(i).sampler().enable_stage_timing(true);
          }
        }
        const std::int64_t s2 = now_ns();
        f->start();
        const std::int64_t s3 = now_ns();
        setup_s.push_back(static_cast<double>((s1 - s0) + (s3 - s2)) / 1e9 *
                          phi);
        start_s.push_back(static_cast<double>(s3 - s2) / 1e9);
      }
      const double cpu0 = process_cpu_s();
      double reference_cpu_s = 0.0;
      double phi_now = phi;
      int step_index = 0;
      std::vector<double> steps;
      for (std::int64_t t = 0; t < kCampaignS; t += kStepS, ++step_index) {
        if (!traced && step_index > 0 && step_index % kStepsPerReference == 0) {
          const double c0 = process_cpu_s();
          phi_now = speed_factor(workers);
          reference_cpu_s += process_cpu_s() - c0;
          speed.push_back(phi_now);
        }
        Span span(spans, Layer::kFleet);
        const std::int64_t s0 = now_ns();
        f->run_for(sim::seconds(kStepS));
        const std::int64_t step = now_ns() - s0;
        run_ns += step;
        run_norm_s += static_cast<double>(step) / 1e9 * phi_now;
        if (!traced) steps.push_back(static_cast<double>(step) * phi_now);
        if (traced) {
          StageDelta d;
          for (std::size_t i = 0; i < f->size(); ++i) {
            d += take_stage_nanos(f->device(i).sampler());
          }
          // Worker CPU time in gather and fold, spread over the workers.
          spans.child(Layer::kEnergy,
                      static_cast<std::int64_t>(d.gather_ns + d.fold_ns) /
                          static_cast<std::int64_t>(workers));
        }
      }
      if (!traced) {
        step_p50.push_back(quantile(steps, 0.50));
        step_p99.push_back(quantile(steps, 0.99));
        steps_timed += steps.size();
      }
      {
        Span span(spans, Layer::kFleet);
        const std::int64_t s0 = now_ns();
        f->finish();
        const std::int64_t s1 = now_ns();
        run_ns += s1 - s0;
        run_norm_s += static_cast<double>(s1 - s0) / 1e9 * phi_now;
        finish_s.push_back(static_cast<double>(s1 - s0) / 1e9);
        cpu_s = process_cpu_s() - cpu0 - reference_cpu_s;
        report = fleet::aggregate_fleet(*f);
        aggregate_ms.push_back(static_cast<double>(now_ns() - s1) / 1e6);
      }
    }
    const std::int64_t wall = now_ns() - t0;
    tracer.arm(false);
    tracer.record(traced, run_norm_s, wall);

    const double run_wall_s = static_cast<double>(run_ns) / 1e9;
    run_s.push_back(run_wall_s);
    if (!traced) {
      device_rate.push_back(static_cast<double>(kDevices) *
                            static_cast<double>(kCampaignS) / run_norm_s);
    }
    busy.push_back(cpu_s / (run_wall_s * static_cast<double>(workers)));
    const obs::MetricsSnapshot m = f->scheduler_metrics();
    consolidated.push_back(
        static_cast<double>(counter(m, "fleet.sched.windows_consolidated")) /
        static_cast<double>(std::max<std::uint64_t>(
            1, counter(m, "fleet.sched.windows_advanced"))));

    // Outputs: every campaign of a seed is the same fleet, so its report
    // must match the first one bit for bit.
    const std::string digest = report.digest();
    if (campaigns == 0) {
      first_report = digest;
      sched = m;
      sent = f->broker().scheduled_total();
      delivered = pushes_delivered(*f);
      std::vector<std::string> digests = f->energy_digests();
      std::string all;
      for (const std::string& d : digests) all += d;
      char line[256];
      std::snprintf(line, sizeof(line),
                    "digest.devices = %s (%zu devices), digest.report = %s",
                    hex64(fnv1a(all)).c_str(), digests.size(),
                    hex64(fnv1a(digest)).c_str());
      out.note(line);
      // Checks run on the first campaign: conservation and invariants on
      // every device, and every scheduled push delivered.
      std::size_t bad = 0;
      std::string first_bad;
      for (std::size_t i = 0; i < f->size(); ++i) {
        const DeviceCheck c = check_device(f->device(i));
        conservation = std::max(conservation, c.conservation_err_mj);
        if (c.violations > 0 || c.conservation_err_mj > kContractToleranceMj) {
          if (bad++ == 0) first_bad = c.first_violation;
        }
      }
      out.check(bad == 0,
                "fleet devices conserve energy and hold invariants (" +
                    std::to_string(bad) + " bad; " + first_bad + ")");
      out.attempted += sent;
      out.failed += sent - std::min(sent, delivered);
      // Layer counts, summed over the fleet: they repeat exactly per seed.
      for (std::size_t i = 0; i < f->size(); ++i) {
        totals += read_counts(f->device(i));
      }
      checkpoint_rss_kb = static_cast<double>(peak_rss_kb());
    } else {
      out.check(digest == first_report,
                "campaign " + std::to_string(campaigns) +
                    " repeats the first campaign's report digest");
    }
    ++campaigns;
  }

  char line[160];
  std::snprintf(line, sizeof(line),
                "ran %d campaigns of %d devices x %lld simulated s on %u "
                "workers",
                campaigns, kDevices, static_cast<long long>(kCampaignS),
                workers);
  out.note(line);
  out.note(speed_note(speed));
  out.set("host.speed_factor", median(speed));

  const double rate = median(device_rate);
  out.set("setup_s", median(setup_s));
  out.set("device_sim_s_per_wall_s", rate);
  out.set("sim_s_per_wall_s", rate / kDevices);
  out.set("ops_per_s", static_cast<double>(delivered) * rate /
                           (static_cast<double>(kDevices) * kCampaignS));
  out.set("op_us_p50", median(step_p50) / 1e3);
  out.set("op_us_p99", median(step_p99) / 1e3);
  out.set("framework.op_samples", static_cast<double>(steps_timed));
  out.set("peak_rss_mb", checkpoint_rss_kb / 1024.0);
  out.set("fleet.rss_kb_per_device", checkpoint_rss_kb / kDevices);
  out.set("conservation_err_mj", conservation);

  record_counts(out, totals, static_cast<double>(delivered));

  out.set("fleet.start_s", median(start_s));
  out.set("fleet.run_s", median(run_s));
  out.set("fleet.finish_s", median(finish_s));
  out.set("fleet.aggregate_ms", median(aggregate_ms));
  out.set("fleet.windows_consolidated_frac", median(consolidated));
  out.set("fleet.pushes_sent", static_cast<double>(sent));
  out.set("fleet.pushes_delivered", static_cast<double>(delivered));
  const auto sched_count = [&sched](const char* name) {
    return static_cast<double>(counter(sched, name));
  };
  out.set("exp.tasks", sched_count("fleet.sched.tasks_executed"));
  out.set("exp.steals", sched_count("fleet.sched.steals"));
  out.set("exp.parks", sched_count("fleet.sched.parks"));
  out.set("exp.injection_refills",
          sched_count("fleet.sched.injection_refills"));
  out.set("exp.worker_busy_frac", median(busy));

  if (args.trace) {
    tracer.report(out);
    measure_obs(args.seed, workers, out);
  }
  return out;
}

}  // namespace ledger
