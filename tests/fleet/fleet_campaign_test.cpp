// The fleet acceptance run: a 1,000-device population runs a
// 10-simulated-minute push-campaign workload to completion in a single
// process, and every device's full-precision energy digest is bitwise
// identical between the serial reference and the work-stealing scheduler
// at worker counts {1, 4, 8}, and across two repeated runs.
//
// This is the scale contract of the fleet layer — kept out of the tsan
// label (a sanitized build would multiply the runtime ~20x; the
// smaller worker-independence tests in fleet_test.cpp cover the race
// surface under TSan with the same code paths).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/demo_app.h"
#include "fleet/aggregate.h"
#include "fleet/fleet.h"

namespace eandroid::fleet {
namespace {

using apps::DemoApp;
using apps::DemoAppSpec;

constexpr int kDevices = 1000;
constexpr sim::Duration kRunTime = sim::minutes(10);

std::shared_ptr<const InstallPlan> campaign_plan() {
  auto plan = std::make_shared<InstallPlan>();
  DemoAppSpec sender;
  sender.package = "com.fleet.weather";
  plan->add_app<DemoApp>(sender);

  DemoAppSpec victim;
  victim.package = "com.fleet.syncclient";
  victim.push_endpoint = true;
  plan->add_app<DemoApp>(victim);
  return plan;
}

std::vector<std::string> run_campaign(Scheduler scheduler,
                                      unsigned workers = 1) {
  FleetOptions options;
  options.device_count = kDevices;
  options.scheduler = scheduler;
  options.workers = workers;
  options.epoch = sim::seconds(10);
  options.install_plan = campaign_plan();
  Fleet fleet(options);

  // A slow steady drip across the whole run: one push every 15 s per
  // device, phase-staggered so the population never ticks in unison.
  PushCampaign campaign;
  campaign.sender_package = "com.fleet.weather";
  campaign.target_package = "com.fleet.syncclient";
  campaign.start = sim::TimePoint{} + sim::seconds(5);
  campaign.period = sim::seconds(15);
  campaign.pushes_per_device = 39;  // last lands at 575 s + stagger
  campaign.device_stagger = sim::millis(7);
  fleet.broker().add_campaign(campaign);

  fleet.start();
  fleet.run_for(kRunTime);
  fleet.finish();
  return fleet.energy_digests();
}

TEST(FleetCampaignTest, ThousandDevicesWorkerAndRepeatInvariant) {
  const std::vector<std::string> reference = run_campaign(Scheduler::kLockstep);
  ASSERT_EQ(reference.size(), static_cast<std::size_t>(kDevices));
  // No empty digests, and stagger makes devices distinct populations.
  EXPECT_FALSE(reference.front().empty());
  EXPECT_NE(reference.front(), reference.back());

  const auto expect_matches = [&reference](
                                  const std::vector<std::string>& got,
                                  const std::string& what) {
    // Per-device, bitwise. EXPECT_EQ on the vectors would drown the log
    // on failure; report the first few divergences, then the verdict.
    int mismatches = 0;
    for (int i = 0; i < kDevices && mismatches < 3; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      EXPECT_EQ(got[idx], reference[idx]) << "device " << i << " (" << what
                                          << ")";
      if (got[idx] != reference[idx]) ++mismatches;
    }
    EXPECT_TRUE(got == reference) << what;
  };
  for (const unsigned workers : {1u, 4u, 8u}) {
    expect_matches(run_campaign(Scheduler::kWorkStealing, workers),
                   "workers=" + std::to_string(workers));
  }
  expect_matches(run_campaign(Scheduler::kWorkStealing, 4),
                 "repeat at workers=4");
}

}  // namespace
}  // namespace eandroid::fleet
