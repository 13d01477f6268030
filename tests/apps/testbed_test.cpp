#include "apps/testbed.h"

#include <gtest/gtest.h>

#include "apps/demo_app.h"
#include "apps/malware.h"

namespace eandroid::apps {
namespace {

TEST(TestbedTest, WithoutEAndroidIsStockAndroid) {
  TestbedOptions options;
  options.with_eandroid = false;
  Testbed bed(options);
  bed.start();
  EXPECT_EQ(bed.eandroid(), nullptr);
  bed.run_for(sim::seconds(1));
  EXPECT_GT(bed.battery_stats().total_mj(), 0.0);
}

TEST(TestbedTest, ContextOfSpawnsProcess) {
  Testbed bed;
  bed.install<DemoApp>(message_spec());
  bed.start();
  EXPECT_FALSE(bed.server().pid_of(bed.uid_of("com.example.message")).valid());
  const framework::Context& ctx = bed.context_of("com.example.message");
  EXPECT_TRUE(bed.server().pid_of(bed.uid_of("com.example.message")).valid());
  EXPECT_EQ(ctx.uid(), bed.uid_of("com.example.message"));
}

TEST(TestbedTest, ContextOfUnknownPackageIsACheckedError) {
  Testbed bed;
  bed.start();
  EXPECT_THROW((void)bed.context_of("no.such.pkg"), sim::CheckFailure);
}

TEST(TestbedTest, UidOfUnknownPackageInvalid) {
  Testbed bed;
  bed.start();
  EXPECT_FALSE(bed.uid_of("com.missing").valid());
}

TEST(TestbedTest, ResetStatsClearsAccumulationsKeepsWindows) {
  Testbed bed;
  DemoAppSpec victim = victim_spec();
  victim.wakelock_bug = false;
  victim.exit_dialog = false;
  bed.install<DemoApp>(victim);
  bed.install<BinderMalware>(victim.package, DemoApp::kService);
  bed.start();
  (void)bed.context_of(BinderMalware::kPackage);
  bed.context_of(victim.package)
      .start_service(framework::Intent::explicit_for(victim.package,
                                                     DemoApp::kService));
  bed.run_for(sim::seconds(5));  // malware binds; energy accrues
  ASSERT_GT(bed.battery_stats().total_mj(), 0.0);
  ASSERT_EQ(bed.eandroid()->tracker().open_count(), 1u);

  bed.reset_stats();
  EXPECT_DOUBLE_EQ(bed.battery_stats().total_mj(), 0.0);
  EXPECT_DOUBLE_EQ(bed.power_tutor().total_mj(), 0.0);
  EXPECT_DOUBLE_EQ(bed.eandroid()->engine().true_total_mj(), 0.0);
  // The open attack window survives and keeps attributing new energy.
  EXPECT_EQ(bed.eandroid()->tracker().open_count(), 1u);
  bed.run_for(sim::seconds(20));
  EXPECT_GT(bed.eandroid()->engine().collateral_mj(
                bed.uid_of(BinderMalware::kPackage)),
            0.0);
}

TEST(TestbedTest, SamplePeriodOptionHonoured) {
  TestbedOptions options;
  options.sample_period = sim::seconds(1);
  Testbed bed(options);
  bed.start();
  bed.sim().run_for(sim::seconds(10));
  EXPECT_EQ(bed.sampler().slices_emitted(), 10u);
}

TEST(TestbedTest, CustomParamsFlowThrough) {
  TestbedOptions options;
  options.params.screen_base_mw = 500.0;
  Testbed bed(options);
  bed.start();
  EXPECT_DOUBLE_EQ(bed.server().params().screen_base_mw, 500.0);
}

}  // namespace
}  // namespace eandroid::apps
