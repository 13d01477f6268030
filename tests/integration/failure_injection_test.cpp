// Failure injection: processes dying mid-window must leave every subsystem
// consistent (link-to-death paths: wakelocks, bindings, activity stacks,
// tracker windows, accounting).
#include <gtest/gtest.h>

#include "apps/demo_app.h"
#include "apps/malware.h"
#include "apps/testbed.h"
#include "core/invariants.h"
#include "core/window.h"
#include "kernel/types.h"

namespace eandroid::apps {
namespace {

using framework::Intent;
using framework::WakelockType;

TEST(FailureInjectionTest, VictimDeathMidActivityWindow) {
  Testbed bed;
  bed.install<DemoApp>(message_spec());
  bed.install<DemoApp>(camera_spec());
  bed.start();
  bed.server().user_launch("com.example.message");
  bed.context_of("com.example.message")
      .start_activity(Intent::explicit_for("com.example.camera", "Main"));
  bed.sim().run_for(sim::seconds(5));
  ASSERT_EQ(bed.eandroid()->tracker().open_count(), 1u);

  bed.server().kill_app(bed.uid_of("com.example.camera"));
  EXPECT_EQ(bed.eandroid()->tracker().open_count(), 0u);
  EXPECT_FALSE(bed.server().camera().active());  // session cleaned up
  // Collateral charged so far persists.
  bed.run_for(sim::seconds(1));
  EXPECT_GT(bed.eandroid()->engine().collateral_mj(
                bed.uid_of("com.example.message")),
            0.0);
}

TEST(FailureInjectionTest, DriverDeathKeepsWindowOnItsAccount) {
  Testbed bed;
  bed.install<DemoApp>(message_spec());
  bed.install<DemoApp>(camera_spec());
  bed.start();
  bed.server().user_launch("com.example.message");
  bed.context_of("com.example.message")
      .start_activity(Intent::explicit_for("com.example.camera", "Main"));
  bed.sim().run_for(sim::seconds(2));
  bed.server().kill_app(bed.uid_of("com.example.message"));
  // The driven app still runs; the dead driver keeps accruing collateral
  // on its account (the user should still see who started it).
  bed.run_for(sim::seconds(5));
  EXPECT_GT(bed.eandroid()->engine().collateral_mj(
                bed.uid_of("com.example.message")),
            0.0);
}

TEST(FailureInjectionTest, WakelockHolderDeathReleasesScreen) {
  Testbed bed;
  WakelockMalware* malware = bed.install<WakelockMalware>();
  bed.start();
  bed.server().ensure_process(bed.uid_of(WakelockMalware::kPackage));
  malware->attack();
  bed.sim().run_for(sim::minutes(2));
  ASSERT_TRUE(bed.server().power().screen_forced_by_wakelock());

  bed.server().kill_app(bed.uid_of(WakelockMalware::kPackage));
  EXPECT_EQ(bed.server().power().held_count(), 0u);
  EXPECT_FALSE(bed.server().power().screen_on());
  EXPECT_EQ(bed.eandroid()->tracker().open_count(), 0u);
  // After the death the device suspends: near-zero drain.
  const double before = bed.server().battery().drained_mj();
  bed.run_for(sim::minutes(1));
  const double after = bed.server().battery().drained_mj();
  EXPECT_LT(after - before, 1000.0);
}

TEST(FailureInjectionTest, BindingClientDeathFreesService) {
  Testbed bed;
  DemoAppSpec victim = victim_spec();
  victim.wakelock_bug = false;
  bed.install<DemoApp>(victim);
  BinderMalware* malware =
      bed.install<BinderMalware>(victim.package, DemoApp::kService);
  bed.start();
  bed.server().ensure_process(bed.uid_of(BinderMalware::kPackage));
  bed.context_of(victim.package)
      .start_service(Intent::explicit_for(victim.package, DemoApp::kService));
  bed.sim().run_for(sim::seconds(1));
  ASSERT_TRUE(malware->bound());
  bed.context_of(victim.package)
      .stop_service(Intent::explicit_for(victim.package, DemoApp::kService));
  ASSERT_TRUE(
      bed.server().services().running(victim.package, DemoApp::kService));

  // Kill the malware: the pinned service must finally die.
  bed.server().kill_app(bed.uid_of(BinderMalware::kPackage));
  EXPECT_FALSE(
      bed.server().services().running(victim.package, DemoApp::kService));
  EXPECT_EQ(bed.eandroid()->tracker().open_count(), 0u);
  EXPECT_NEAR(bed.server().cpu().instantaneous_utilization(), 0.0, 1e-9);
}

TEST(FailureInjectionTest, ServiceHostDeathClosesWindows) {
  Testbed bed;
  DemoAppSpec victim = victim_spec();
  victim.wakelock_bug = false;
  bed.install<DemoApp>(victim);
  bed.install<BinderMalware>(victim.package, DemoApp::kService);
  bed.start();
  bed.server().ensure_process(bed.uid_of(BinderMalware::kPackage));
  bed.context_of(victim.package)
      .start_service(Intent::explicit_for(victim.package, DemoApp::kService));
  bed.sim().run_for(sim::seconds(1));
  ASSERT_EQ(bed.eandroid()->tracker().open_count(), 1u);
  bed.server().kill_app(bed.uid_of(victim.package));
  EXPECT_EQ(bed.eandroid()->tracker().open_count(), 0u);
}

TEST(FailureInjectionTest, EnergyConservationSurvivesKills) {
  Testbed bed;
  bed.install<DemoApp>(message_spec());
  bed.install<DemoApp>(camera_spec());
  bed.install<DemoApp>(victim_spec());
  bed.start();
  bed.server().user_launch("com.example.victim");
  bed.sim().run_for(sim::seconds(3));
  bed.server().user_launch("com.example.message");
  bed.context_of("com.example.message")
      .start_activity(Intent::explicit_for("com.example.camera", "Main"));
  bed.sim().run_for(sim::seconds(3));
  bed.server().kill_app(bed.uid_of("com.example.camera"));
  bed.sim().run_for(sim::seconds(3));
  bed.server().kill_app(bed.uid_of("com.example.victim"));
  bed.run_for(sim::seconds(3));

  const double drained = bed.server().battery().drained_mj();
  EXPECT_NEAR(bed.battery_stats().total_mj(), drained, 1e-3);
  EXPECT_NEAR(bed.eandroid()->engine().true_total_mj(), drained, 1e-3);
}

/// Runs every invariant check against `bed` and expects a clean report.
void expect_invariants_hold(Testbed& bed) {
  core::InvariantChecker checker(bed.server());
  checker.attach(bed.eandroid());
  checker.attach(&bed.battery_stats());
  checker.attach(&bed.power_tutor());
  const core::InvariantReport report = checker.check();
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(FailureInjectionTest, KillDuringBroadcastDelivery) {
  Testbed bed;
  bed.install<DemoApp>(message_spec());
  bed.install<DemoApp>(camera_spec());
  bed.start();
  const kernelsim::Uid receiver = bed.uid_of("com.example.message");
  bed.context_of("com.example.message").register_receiver("test.PING");

  // Park the delivery on the receiver's main thread, then kill it while
  // the broadcast is still in flight.
  bed.server().set_app_hung(receiver, true);
  bed.server().broadcasts().send_broadcast(kernelsim::kSystemUid, "test.PING",
                                           /*by_system=*/true);
  ASSERT_EQ(bed.server().main_queue_depth(receiver), 1u);
  bed.server().kill_app(receiver);

  EXPECT_EQ(bed.server().main_queue_depth(receiver), 0u);
  bed.run_for(sim::seconds(15));
  EXPECT_EQ(bed.server().anr_kills(), 0u);  // the stale check is disarmed
  expect_invariants_hold(bed);
}

TEST(FailureInjectionTest, KillWithPendingAlarm) {
  Testbed bed;
  bed.install<DemoApp>(message_spec());
  bed.start();
  const kernelsim::Uid owner = bed.uid_of("com.example.message");
  bed.context_of("com.example.message").set_alarm(sim::seconds(5), "tick");
  ASSERT_EQ(bed.server().alarms().pending_count(), 1u);

  bed.server().kill_app(owner);
  ASSERT_FALSE(bed.server().pid_of(owner).valid());
  // Android keeps alarms across process death, and an RTC_WAKEUP fire
  // wakes the dead owner back up; the re-spawn must enter the lifecycle
  // cleanly and leave accounting consistent.
  bed.run_for(sim::seconds(10));
  EXPECT_EQ(bed.server().alarms().fired_total(), 1u);
  EXPECT_TRUE(bed.server().pid_of(owner).valid());
  expect_invariants_hold(bed);
}

TEST(FailureInjectionTest, ChainMemberDeathMidAttack) {
  // The Fig 7/9c chain: malware binds A's service, A's service start
  // chains into B. Killing the middle-of-chain host mid-attack must close
  // B's windows, keep A alive, and leave accounting consistent.
  Testbed bed;
  DemoAppSpec tail = victim_spec();
  tail.package = "com.example.tail";
  tail.wakelock_bug = false;
  DemoAppSpec middle = victim_spec();
  middle.wakelock_bug = false;
  // The chain hop: being driven makes the middle start the tail's root
  // activity (Fig 7's B -> C edge).
  middle.chain_on_service =
      framework::ComponentRef{tail.package, DemoApp::kRootActivity};
  bed.install<DemoApp>(middle);
  bed.install<DemoApp>(tail);
  BinderMalware* malware =
      bed.install<BinderMalware>(middle.package, DemoApp::kService);
  bed.start();
  bed.server().ensure_process(bed.uid_of(BinderMalware::kPackage));
  bed.context_of(middle.package)
      .start_service(Intent::explicit_for(middle.package, DemoApp::kService));
  bed.run_for(sim::seconds(2));
  ASSERT_TRUE(malware->bound());
  ASSERT_TRUE(bed.server().pid_of(bed.uid_of(tail.package)).valid());
  ASSERT_TRUE(bed.eandroid()->tracker().has_window(
      core::WindowKind::kActivity, bed.uid_of(middle.package),
      bed.uid_of(tail.package)));

  bed.server().kill_app(bed.uid_of(tail.package));
  EXPECT_FALSE(bed.eandroid()->tracker().has_window(
      core::WindowKind::kActivity, bed.uid_of(middle.package),
      bed.uid_of(tail.package)));
  EXPECT_TRUE(
      bed.server().services().running(middle.package, DemoApp::kService));
  bed.run_for(sim::seconds(2));
  expect_invariants_hold(bed);
}

TEST(FailureInjectionTest, BatteryExhaustionInsideCollateralWindow) {
  Testbed bed;
  WakelockMalware* malware = bed.install<WakelockMalware>();
  bed.start();
  bed.server().ensure_process(bed.uid_of(WakelockMalware::kPackage));
  malware->attack();
  bed.run_for(sim::minutes(1));
  ASSERT_GE(bed.eandroid()->tracker().open_count(), 1u);

  // The cell collapses mid-attack. The window stays open (the attack is
  // still running), accounting stays conserved, and the battery never
  // goes negative.
  bed.server().battery().deplete_to(0.0, bed.sim().now());
  bed.run_for(sim::minutes(1));
  EXPECT_GE(bed.eandroid()->tracker().open_count(), 1u);
  EXPECT_TRUE(bed.server().battery().empty());
  expect_invariants_hold(bed);
}

TEST(FailureInjectionTest, CrashRestartCannotLaunderCollateral) {
  // A started service whose host crashes and is restarted by the
  // framework keeps charging its collateral to the ORIGINAL starter.
  Testbed bed;
  bed.install<DemoApp>(message_spec());
  DemoAppSpec victim = victim_spec();
  victim.wakelock_bug = false;
  bed.install<DemoApp>(victim);
  bed.start();
  const kernelsim::Uid driver = bed.uid_of("com.example.message");
  const kernelsim::Uid driven = bed.uid_of(victim.package);
  bed.context_of("com.example.message")
      .start_service(Intent::explicit_for(victim.package, DemoApp::kService));
  bed.run_for(sim::seconds(5));
  ASSERT_TRUE(bed.eandroid()->tracker().has_window(core::WindowKind::kService,
                                                   driver, driven));
  const double before = bed.eandroid()->engine().collateral_mj(driver);
  ASSERT_GT(before, 0.0);

  bed.server().kill_app(driven);
  bed.run_for(sim::seconds(10));  // restart fires after the backoff

  // The restarted window is driven by the same account, and collateral
  // kept accruing there across the crash boundary.
  EXPECT_TRUE(bed.eandroid()->tracker().has_window(core::WindowKind::kService,
                                                   driver, driven));
  EXPECT_GT(bed.eandroid()->engine().collateral_mj(driver), before);
  expect_invariants_hold(bed);
}

TEST(FailureInjectionTest, RestartAfterKillWorks) {
  Testbed bed;
  bed.install<DemoApp>(victim_spec());
  bed.start();
  bed.server().user_launch("com.example.victim");
  bed.server().kill_app(bed.uid_of("com.example.victim"));
  // Relaunch spawns a fresh process and the app behaves normally.
  bed.server().user_launch("com.example.victim");
  EXPECT_EQ(bed.server().activities().foreground_uid(),
            bed.uid_of("com.example.victim"));
  EXPECT_EQ(bed.server().power().held_count(), 1u);  // fresh wakelock
}

}  // namespace
}  // namespace eandroid::apps
