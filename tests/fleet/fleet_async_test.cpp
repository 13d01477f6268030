// The work-stealing scheduler's contract: against the serial reference
// (kLockstep) it changes throughput and memory, never results.
//
//   * digests are bitwise identical to the reference across worker
//     counts, multi-call run_for timelines, and runs long enough that
//     every device task requeues itself;
//   * with tracing on, the per-device trace BYTES match the reference
//     too (consolidation only triggers with tracing off);
//   * hibernation (snapshot → evict → replay-restore) is digest-invariant
//     across eviction schedules, and restoring a parked device rebuilds
//     bit-identical state;
//   * devices handed out via device(i) are pinned: external mutations
//     survive (they are never replayed away);
//   * campaign mutation after start is a checked error on both
//     schedulers.
//
// Runs under the tsan label with multi-worker fleets: the executor's
// deques, the broker's frozen read path, and the hibernation LRU are the
// entire race surface.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/demo_app.h"
#include "fleet/aggregate.h"
#include "fleet/fleet.h"

namespace eandroid::fleet {
namespace {

using apps::DemoApp;
using apps::DemoAppSpec;

std::shared_ptr<const InstallPlan> campaign_plan() {
  auto plan = std::make_shared<InstallPlan>();
  DemoAppSpec sender;
  sender.package = "com.fleet.weather";
  sender.foreground_cpu = 0.02;
  plan->add_app<DemoApp>(sender);

  DemoAppSpec victim;
  victim.package = "com.fleet.syncclient";
  victim.push_endpoint = true;
  plan->add_app<DemoApp>(victim);

  DemoAppSpec load;
  load.package = "com.fleet.load";
  load.background_cpu = 0.03;
  plan->add_app<DemoApp>(load);
  return plan;
}

PushCampaign flood_campaign(int pushes_per_device) {
  PushCampaign campaign;
  campaign.sender_package = "com.fleet.weather";
  campaign.target_package = "com.fleet.syncclient";
  campaign.start = sim::TimePoint{} + sim::seconds(2) + sim::millis(1);
  campaign.period = sim::millis(750);
  campaign.pushes_per_device = pushes_per_device;
  campaign.device_stagger = sim::millis(13);
  return campaign;
}

/// A work-stealing fleet (the default scheduler) with `workers` threads.
FleetOptions base_options(int devices, unsigned workers = 2) {
  FleetOptions options;
  options.device_count = devices;
  options.workers = workers;
  options.install_plan = campaign_plan();
  options.epoch = sim::seconds(2);
  return options;
}

/// The same fleet on the serial reference.
FleetOptions reference_options(int devices) {
  FleetOptions options = base_options(devices);
  options.scheduler = Scheduler::kLockstep;
  return options;
}

/// Runs the shared two-leg timeline (two run_for calls, so windows span
/// multiple dispatches) and returns the digests.
std::vector<std::string> run_fleet(FleetOptions options) {
  Fleet fleet(std::move(options));
  fleet.broker().add_campaign(flood_campaign(/*pushes_per_device=*/8));
  fleet.start();
  fleet.run_for(sim::seconds(7));
  fleet.run_for(sim::seconds(5));
  fleet.finish();
  return fleet.energy_digests();
}

TEST(FleetAsyncTest, DigestsMatchTheReferenceAcrossWorkerCounts) {
  const std::vector<std::string> reference = run_fleet(reference_options(16));
  ASSERT_EQ(reference.size(), 16u);
  for (const unsigned workers : {1u, 2u, 4u}) {
    EXPECT_EQ(run_fleet(base_options(16, workers)), reference)
        << "workers=" << workers;
  }
}

TEST(FleetAsyncTest, LongRunsRequeueAndMatchTheReference) {
  // 30 windows per run_for: every device task advances
  // kAdvanceGrainWindows windows, requeues itself, and is caught up after
  // ceil(30 / kAdvanceGrainWindows) tasks — with stealing in play.
  constexpr int kDevices = 16;
  constexpr int kWindows = 30;
  constexpr int kGrains =
      (kWindows + kAdvanceGrainWindows - 1) / kAdvanceGrainWindows;
  static_assert(kGrains > 1);
  const auto run = [](FleetOptions options, std::uint64_t* run_tasks) {
    Fleet fleet(std::move(options));
    fleet.broker().add_campaign(flood_campaign(8));
    fleet.start();
    const auto executed = [&fleet] {
      const obs::MetricsSnapshot metrics = fleet.scheduler_metrics();
      const obs::MetricRow* row = metrics.find("fleet.sched.tasks_executed");
      return row == nullptr ? 0 : row->count;
    };
    const std::uint64_t before = executed();
    fleet.run_for(sim::seconds(2 * kWindows));
    *run_tasks = executed() - before;
    fleet.finish();
    return fleet.energy_digests();
  };
  std::uint64_t reference_tasks = 0;
  const std::vector<std::string> reference =
      run(reference_options(kDevices), &reference_tasks);
  EXPECT_EQ(reference_tasks, 0u);  // the serial reference has no executor
  for (const unsigned workers : {1u, 3u}) {
    std::uint64_t tasks = 0;
    EXPECT_EQ(run(base_options(kDevices, workers), &tasks), reference)
        << "workers=" << workers;
    EXPECT_EQ(tasks, static_cast<std::uint64_t>(kDevices * kGrains))
        << "workers=" << workers;
  }
}

TEST(FleetAsyncTest, TraceBytesMatchLockstep) {
  // Tracing disables window consolidation, so the work-stealing scheduler
  // must emit the exact per-window mark sequence the serial reference
  // does.
  const auto run = [](Scheduler scheduler) {
    FleetOptions options = base_options(6, /*workers=*/3);
    options.scheduler = scheduler;
    options.obs.trace = true;
    Fleet fleet(options);
    fleet.broker().add_campaign(flood_campaign(5));
    fleet.start();
    fleet.run_for(sim::seconds(9));
    fleet.finish();
    std::vector<std::string> traces;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      traces.push_back(fleet.device(i).trace_text());
    }
    return traces;
  };
  EXPECT_EQ(run(Scheduler::kLockstep), run(Scheduler::kWorkStealing));
}

TEST(FleetAsyncTest, HibernationIsDigestInvariantAcrossEvictionSchedules) {
  const std::vector<std::string> reference = run_fleet(reference_options(12));
  for (const int cap : {1, 3, 12}) {
    FleetOptions options = base_options(12);
    options.max_resident_devices = cap;
    EXPECT_EQ(run_fleet(options), reference) << "cap=" << cap;
  }
}

TEST(FleetAsyncTest, HibernationParksDevicesAndRestoresByReplay) {
  FleetOptions options = base_options(10);
  options.max_resident_devices = 3;
  Fleet fleet(options);
  fleet.broker().add_campaign(flood_campaign(8));
  fleet.start();
  fleet.run_for(sim::seconds(12));
  // Lazy mode: nothing materialized until the finish pass.
  EXPECT_EQ(fleet.resident_devices(), 0u);
  fleet.finish();
  // The working set honours the cap.
  EXPECT_LE(fleet.resident_devices(), 3u);
  const std::vector<std::string> digests = fleet.energy_digests();

  // Snapshots carry the parked record for every device.
  const obs::MetricsSnapshot metrics = fleet.scheduler_metrics();
  ASSERT_NE(metrics.find("fleet.hib.snapshots"), nullptr);
  EXPECT_EQ(metrics.find("fleet.hib.snapshots")->count, 10u);
  EXPECT_GE(metrics.find("fleet.hib.evictions")->count, 7u);
  EXPECT_EQ(fleet.snapshot(0).pushes_delivered, 8u);
  EXPECT_GT(fleet.snapshot(0).sim_end_us, 0);

  // Waking a parked device replays it into bit-identical state: its live
  // digest equals the snapshot taken before eviction.
  DeviceContext& device = fleet.device(0);
  EXPECT_EQ(device.energy_digest(), digests[0]);
  EXPECT_EQ(device.server().push().pushes_delivered(), 8u);
  EXPECT_GE(fleet.scheduler_metrics().find("fleet.hib.restores")->count, 1u);
}

TEST(FleetAsyncTest, TouchedDevicesArePinnedNotReplayedAway) {
  // Mutating a device through device(i) mid-run must stick: the fleet
  // pins it instead of reconstructing it by replay (which would lose the
  // mutation). Both schedulers get the same mid-run poke; digests for
  // every device — including the poked one — must still match.
  const auto run = [](FleetOptions options, bool poke) {
    Fleet fleet(std::move(options));
    fleet.broker().add_campaign(flood_campaign(6));
    fleet.start();
    fleet.run_for(sim::seconds(6));
    if (poke) {
      // An out-of-band push at the 6 s cut — an external mutation the
      // broker's replay schedule knows nothing about.
      auto& server = fleet.device(2).server();
      const auto* weather = server.packages().find("com.fleet.weather");
      EXPECT_NE(weather, nullptr);
      server.ensure_process(weather->uid);
      server.push().send_push(weather->uid, "com.fleet.syncclient");
    }
    fleet.run_for(sim::seconds(6));
    fleet.finish();
    return fleet.energy_digests();
  };
  FleetOptions hib = base_options(8);
  hib.max_resident_devices = 2;
  const std::vector<std::string> reference = run(reference_options(8), true);
  EXPECT_EQ(run(std::move(hib), true), reference);
  // Sanity: the poke was observable at all.
  EXPECT_NE(reference[2], run(reference_options(8), false)[2]);
}

TEST(FleetAsyncTest, AggregateWorksOnAHibernatingFleet) {
  const auto report_digest = [](FleetOptions options) {
    Fleet fleet(std::move(options));
    fleet.broker().add_campaign(flood_campaign(8));
    fleet.start();
    fleet.run_for(sim::seconds(15));
    fleet.finish();
    return aggregate_fleet(fleet).digest();
  };
  FleetOptions hib = base_options(6);
  hib.max_resident_devices = 2;
  EXPECT_EQ(report_digest(std::move(hib)),
            report_digest(reference_options(6)));
}

TEST(FleetAsyncTest, CampaignAfterAsyncStartIsACheckedError) {
  // One rule on both schedulers: start() freezes the broker.
  for (const FleetOptions& options : {base_options(2), reference_options(2)}) {
    Fleet fleet(options);
    fleet.broker().add_campaign(flood_campaign(2));
    fleet.start();
    EXPECT_THROW(fleet.broker().add_campaign(flood_campaign(2)),
                 sim::CheckFailure);
  }
}

TEST(FleetAsyncTest, ConsolidationSkipsSendlessWindows) {
  // A campaign confined to the first seconds of a long run leaves a tail
  // of sendless windows; with tracing off the scheduler must fold them.
  Fleet fleet(base_options(4));
  PushCampaign campaign = flood_campaign(3);
  fleet.broker().add_campaign(campaign);
  fleet.start();
  fleet.run_for(sim::seconds(60));
  fleet.finish();
  const obs::MetricsSnapshot metrics = fleet.scheduler_metrics();
  ASSERT_NE(metrics.find("fleet.sched.windows_consolidated"), nullptr);
  EXPECT_GT(metrics.find("fleet.sched.windows_consolidated")->count, 0u);
  // Consolidated or not, the digests match the serial reference.
  Fleet reference(reference_options(4));
  reference.broker().add_campaign(campaign);
  reference.start();
  reference.run_for(sim::seconds(60));
  reference.finish();
  EXPECT_EQ(fleet.energy_digests(), reference.energy_digests());
}

}  // namespace
}  // namespace eandroid::fleet
