#include "framework/push_service.h"

#include <gtest/gtest.h>

#include "apps/demo_app.h"
#include "apps/malware.h"
#include "apps/scenarios.h"
#include "apps/testbed.h"

namespace eandroid::framework {
namespace {

using apps::DemoApp;
using apps::DemoAppSpec;
using apps::Testbed;

DemoAppSpec endpoint_spec(const std::string& package) {
  DemoAppSpec spec = apps::message_spec();
  spec.package = package;
  spec.push_endpoint = true;
  return spec;
}

TEST(PushTest, PushToUnregisteredTargetFails) {
  Testbed bed;
  bed.install<DemoApp>(apps::message_spec());  // not an endpoint
  DemoAppSpec sender = apps::message_spec();
  sender.package = "com.sender";
  bed.install<DemoApp>(sender);
  bed.start();
  EXPECT_FALSE(
      bed.context_of("com.sender").send_push("com.example.message"));
  EXPECT_FALSE(bed.context_of("com.sender").send_push("com.missing"));
}

TEST(PushTest, PushWakesReceiverProcess) {
  Testbed bed;
  DemoApp* receiver = bed.install<DemoApp>(endpoint_spec("com.receiver"));
  DemoAppSpec sender = apps::message_spec();
  sender.package = "com.sender";
  bed.install<DemoApp>(sender);
  bed.start();
  // Register the endpoint (first run), then kill the process.
  bed.server().ensure_process(bed.uid_of("com.receiver"));
  bed.server().kill_app(bed.uid_of("com.receiver"));
  ASSERT_FALSE(bed.server().pid_of(bed.uid_of("com.receiver")).valid());

  EXPECT_TRUE(bed.context_of("com.sender").send_push("com.receiver"));
  EXPECT_TRUE(bed.server().pid_of(bed.uid_of("com.receiver")).valid());
  EXPECT_EQ(receiver->pushes_received(), 1);
}

TEST(PushTest, RadioLightsUpForTransferThenTails) {
  Testbed bed;
  bed.install<DemoApp>(endpoint_spec("com.receiver"));
  DemoAppSpec sender = apps::message_spec();
  sender.package = "com.sender";
  bed.install<DemoApp>(sender);
  bed.start();
  bed.server().ensure_process(bed.uid_of("com.receiver"));
  bed.context_of("com.sender").send_push("com.receiver");
  EXPECT_TRUE(bed.server().wifi().active());
  bed.sim().run_for(sim::seconds(2));
  EXPECT_FALSE(bed.server().wifi().active());
}

TEST(PushTest, DeliveryPublishesEventAndOpensWindow) {
  Testbed bed;
  bed.install<DemoApp>(endpoint_spec("com.receiver"));
  DemoAppSpec sender = apps::message_spec();
  sender.package = "com.sender";
  bed.install<DemoApp>(sender);
  bed.start();
  bed.server().ensure_process(bed.uid_of("com.receiver"));
  bed.context_of("com.sender").send_push("com.receiver");
  EXPECT_TRUE(bed.eandroid()->tracker().has_window(
      core::WindowKind::kPush, bed.uid_of("com.sender"),
      bed.uid_of("com.receiver")));
  // The window is bounded: it closes after the handling period.
  bed.sim().run_for(PushService::kHandlingWindow + sim::millis(1));
  EXPECT_EQ(bed.eandroid()->tracker().open_count(), 0u);
}

TEST(PushTest, UnregisterStopsDelivery) {
  Testbed bed;
  bed.install<DemoApp>(endpoint_spec("com.receiver"));
  DemoAppSpec sender = apps::message_spec();
  sender.package = "com.sender";
  bed.install<DemoApp>(sender);
  bed.start();
  bed.server().ensure_process(bed.uid_of("com.receiver"));
  bed.server().push().unregister_endpoint(bed.uid_of("com.receiver"));
  EXPECT_FALSE(bed.context_of("com.sender").send_push("com.receiver"));
}

TEST(PushTest, FloodScenarioChargesFlooderUnderEAndroid) {
  const apps::ScenarioResult r = apps::run_push_flood();
  const core::EARow* flooder =
      r.ea_view.row_of(apps::PushFlooderMalware::kPackage);
  ASSERT_NE(flooder, nullptr);
  EXPECT_GT(flooder->collateral_mj, 0.0);
  // Stock Android bills the victim for its own wake-ups.
  EXPECT_GT(r.android_view.energy_of("com.example.syncclient"), 0.0);
  EXPECT_GT(flooder->collateral_mj,
            0.5 * r.android_view.energy_of("com.example.syncclient"));
}

TEST(PushTest, FloodDrainsMoreThanIdle) {
  // The Martin et al. claim: repeated requests measurably drain the
  // victim compared with an idle baseline.
  auto drained = [](bool flood) {
    Testbed bed;
    bed.install<DemoApp>(endpoint_spec("com.example.syncclient"));
    auto* flooder = bed.install<apps::PushFlooderMalware>(
        "com.example.syncclient", sim::millis(500));
    bed.start();
    bed.server().ensure_process(bed.uid_of("com.example.syncclient"));
    (void)bed.context_of(apps::PushFlooderMalware::kPackage);
    if (flood) flooder->attack();
    bed.run_for(sim::minutes(2));
    return bed.server().battery().drained_mj();
  };
  EXPECT_GT(drained(true), 1.3 * drained(false));
}

}  // namespace
}  // namespace eandroid::framework
