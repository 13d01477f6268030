#include "energy/power_signature.h"

#include <gtest/gtest.h>

#include "apps/demo_app.h"
#include "apps/malware.h"
#include "apps/testbed.h"

namespace eandroid::energy {
namespace {

using apps::DemoApp;
using apps::Testbed;
using framework::Intent;

TEST(PowerSignatureTest, FlagsDirectEnergyHog) {
  Testbed bed;
  apps::DemoAppSpec hog = apps::message_spec();
  hog.package = "com.hog";
  hog.foreground_cpu = 0.8;  // a busy-loop worm, in effect
  bed.install<DemoApp>(hog);
  PowerSignatureDetector detector(bed.server().packages());
  bed.sampler().add_sink(&detector);
  bed.start();
  bed.server().user_launch("com.hog");
  bed.run_for(sim::seconds(30));

  const auto suspects = detector.suspects(200.0);
  ASSERT_FALSE(suspects.empty());
  EXPECT_EQ(suspects[0].package, "com.hog");
  EXPECT_GT(suspects[0].average_mw, 200.0);
  EXPECT_GE(suspects[0].peak_mw, suspects[0].average_mw);
}

TEST(PowerSignatureTest, QuietAppsNotFlagged) {
  Testbed bed;
  bed.install<DemoApp>(apps::contacts_spec());
  PowerSignatureDetector detector(bed.server().packages());
  bed.sampler().add_sink(&detector);
  bed.start();
  bed.server().user_launch("com.example.contacts");
  bed.run_for(sim::seconds(30));
  EXPECT_TRUE(detector.suspects(200.0).empty());
}

TEST(PowerSignatureTest, MissesCollateralAttackerButEAndroidCatchesIt) {
  // The paper's §VII claim, reproduced end to end: under attack #3 the
  // signature detector flags the *victim* (whose pinned service burns
  // power) and not the malware, while E-Android ranks the malware.
  Testbed bed;
  apps::DemoAppSpec victim = apps::victim_spec();
  victim.wakelock_bug = false;
  victim.exit_dialog = false;
  bed.install<DemoApp>(victim);
  bed.install<apps::BinderMalware>(victim.package, DemoApp::kService);
  PowerSignatureDetector detector(bed.server().packages());
  bed.sampler().add_sink(&detector);
  bed.start();

  bed.server().ensure_process(bed.uid_of(apps::BinderMalware::kPackage));
  bed.server().user_launch(victim.package);
  bed.context_of(victim.package)
      .start_service(Intent::explicit_for(victim.package, DemoApp::kService));
  bed.sim().run_for(sim::seconds(1));
  bed.context_of(victim.package)
      .stop_service(Intent::explicit_for(victim.package, DemoApp::kService));
  bed.server().user_press_home();
  for (int i = 0; i < 3; ++i) {
    bed.sim().run_for(sim::seconds(20));
    bed.server().user_tap(10, 10);
  }
  bed.run_for(sim::Duration(0));

  const auto suspects = detector.suspects(100.0);
  ASSERT_FALSE(suspects.empty());
  EXPECT_EQ(suspects[0].package, victim.package);  // wrong culprit
  for (const auto& suspect : suspects) {
    EXPECT_NE(suspect.package, apps::BinderMalware::kPackage);
  }
  // E-Android's collateral map names the real driver.
  EXPECT_GT(bed.eandroid()->engine().collateral_mj(
                bed.uid_of(apps::BinderMalware::kPackage)),
            0.0);
}

TEST(PowerSignatureTest, AverageTracksObservationWindow) {
  Testbed bed;
  apps::DemoAppSpec app = apps::message_spec();
  app.package = "com.avg";
  app.foreground_cpu = 0.5;
  bed.install<DemoApp>(app);
  PowerSignatureDetector detector(bed.server().packages());
  bed.sampler().add_sink(&detector);
  bed.start();
  bed.server().user_launch("com.avg");
  bed.run_for(sim::seconds(10));
  // 0.5 duty * 1000 mW = 500 mW while observed.
  EXPECT_NEAR(detector.average_mw_of(bed.uid_of("com.avg")), 500.0, 5.0);
  EXPECT_NEAR(detector.observation_seconds(), 10.0, 0.3);
}

TEST(PowerSignatureTest, ResetClears) {
  Testbed bed;
  PowerSignatureDetector detector(bed.server().packages());
  bed.sampler().add_sink(&detector);
  bed.start();
  bed.run_for(sim::seconds(2));
  detector.reset();
  EXPECT_DOUBLE_EQ(detector.observation_seconds(), 0.0);
  EXPECT_TRUE(detector.suspects(0.0).empty());
}

}  // namespace
}  // namespace eandroid::energy
