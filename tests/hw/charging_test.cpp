#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "apps/demo_app.h"
#include "apps/testbed.h"
#include "core/invariants.h"
#include "framework/broadcast_manager.h"
#include "hw/battery.h"
#include "sim/rng.h"

namespace eandroid::hw {
namespace {

TEST(BatteryChargingTest, ChargeRefillsAndClamps) {
  Battery battery(1.0);  // 3600 mJ
  battery.drain(1800.0, sim::TimePoint());
  EXPECT_EQ(battery.percent(), 50);
  battery.charge(900.0, sim::TimePoint(1));
  EXPECT_EQ(battery.percent(), 75);
  battery.charge(99999.0, sim::TimePoint(2));
  EXPECT_TRUE(battery.full());
  EXPECT_EQ(battery.percent(), 100);
}

TEST(BatteryChargingTest, HistoryRecordsRises) {
  Battery battery(1.0);
  battery.drain(360.0, sim::TimePoint());   // -> 90%
  const std::size_t after_drain = battery.history().size();
  battery.charge(72.0, sim::TimePoint(5));  // -> 92%
  ASSERT_EQ(battery.history().size(), after_drain + 2);
  EXPECT_EQ(battery.history().back().percent, 92);
}

TEST(BatteryChargingTest, ChargingFlagAndRate) {
  Battery battery(1.0);
  EXPECT_FALSE(battery.charging());
  battery.set_charging(true, 4200.0);
  EXPECT_TRUE(battery.charging());
  EXPECT_DOUBLE_EQ(battery.charge_rate_mw(), 4200.0);
  battery.set_charging(false);
  EXPECT_DOUBLE_EQ(battery.charge_rate_mw(), 0.0);
}

TEST(BatteryChargingTest, ChargeWhenFullIsNoop) {
  Battery battery(1.0);
  battery.charge(100.0, sim::TimePoint());
  EXPECT_EQ(battery.percent(), 100);
  EXPECT_EQ(battery.history().size(), 1u);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(ChargingTest, FlowMatchesDrainThenCharge) {
  // One flow per window must do exactly the arithmetic of the separate
  // drain-then-charge calls it replaced: drain, clamp at 0, then charge
  // unless full, clamp at capacity. `reference` is that arithmetic
  // spelled out; `split` issues the two calls; `fused` one flow.
  Battery fused(1.0);  // 3600 mJ
  Battery split(1.0);
  double reference_remaining = fused.capacity_mj();
  double reference_consumed = 0.0;
  sim::Rng rng(20170605);
  bool hit_empty = false;
  bool refilled_after_empty = false;
  for (int window = 0; window < 4000; ++window) {
    // Phases: a heavy drain down through 0%, a heavy charge back up
    // through 100%, then a mixed tail where the two nearly cancel.
    const int phase = window / 1000;
    const double drain = rng.uniform(0.0, phase == 0 ? 40.0 : 10.0);
    const double charge =
        phase == 0 ? 0.0 : rng.uniform(0.0, phase == 1 ? 40.0 : 12.0);
    const sim::TimePoint now(window);

    if (drain > 0.0) {
      reference_consumed += drain;
      if (reference_remaining > 0.0) {
        reference_remaining = std::max(0.0, reference_remaining - drain);
      }
    }
    if (charge > 0.0 && reference_remaining < fused.capacity_mj()) {
      reference_remaining =
          std::min(fused.capacity_mj(), reference_remaining + charge);
    }
    fused.flow(drain, charge, now);
    split.drain(drain, now);
    split.charge(charge, now);

    ASSERT_EQ(bits(fused.remaining_mj()), bits(reference_remaining))
        << "window " << window;
    ASSERT_EQ(bits(fused.consumed_total_mj()), bits(reference_consumed))
        << "window " << window;
    ASSERT_EQ(bits(split.remaining_mj()), bits(reference_remaining))
        << "window " << window;
    ASSERT_EQ(bits(split.consumed_total_mj()), bits(reference_consumed))
        << "window " << window;
    ASSERT_EQ(fused.percent(), split.percent()) << "window " << window;
    hit_empty = hit_empty || fused.empty();
    refilled_after_empty = refilled_after_empty || (hit_empty && fused.full());
  }
  // The sequence really crossed both clamps.
  EXPECT_TRUE(hit_empty);
  EXPECT_TRUE(refilled_after_empty);
  // Both histories end at the same level; the fused one is never longer
  // (it drops a window's dip-and-recover pairs).
  EXPECT_EQ(fused.history().back().percent, split.history().back().percent);
  EXPECT_LE(fused.history().size(), split.history().size());
}

TEST(ChargingTest, FullBatteryOnChargerRecordsNoHistory) {
  // 1 W of consumption against a 5 W charger over 250 ms windows: the
  // level dips below 100% and charges back inside every window. The net
  // change is zero, so neither the history nor the drop callback moves.
  Battery battery(10000.0);  // a 10 Wh phone cell: 250 mJ is < 1%
  int drops = 0;
  battery.set_on_percent_drop([&drops](int) { ++drops; });
  double consumed = 0.0;
  for (int window = 0; window < 10000; ++window) {
    battery.flow(250.0, 1250.0, sim::TimePoint(window));
    consumed += 250.0;
  }
  EXPECT_EQ(battery.history().size(), 1u);
  EXPECT_EQ(drops, 0);
  EXPECT_TRUE(battery.full());
  EXPECT_EQ(battery.consumed_total_mj(), consumed);

  // The separate calls record the flap: one drop and one rise per window.
  battery.drain(250.0, sim::TimePoint(10000));
  battery.charge(1250.0, sim::TimePoint(10000));
  EXPECT_EQ(battery.history().size(), 3u);
  EXPECT_EQ(drops, 1);
}

TEST(ChargerIntegrationTest, PluggedDeviceGainsCharge) {
  apps::Testbed bed;
  bed.start();
  bed.run_for(sim::minutes(5));  // drain a little
  const double before = bed.server().battery().remaining_mj();
  bed.server().plug_charger(5000.0);
  bed.run_for(sim::minutes(5));
  EXPECT_GT(bed.server().battery().remaining_mj(), before);
  bed.server().unplug_charger();
  const double at_unplug = bed.server().battery().remaining_mj();
  bed.run_for(sim::minutes(1));
  EXPECT_LT(bed.server().battery().remaining_mj(), at_unplug);
}

TEST(ChargerIntegrationTest, PowerConnectedBroadcastDelivered) {
  apps::Testbed bed;
  apps::DemoAppSpec spec = apps::message_spec();
  spec.package = "com.charge.listener";
  bed.install<apps::DemoApp>(spec);
  bed.start();
  bed.context_of("com.charge.listener")
      .register_receiver(framework::kActionPowerConnected);
  const std::uint64_t before = bed.server().broadcasts().deliveries();
  bed.server().plug_charger();
  EXPECT_EQ(bed.server().broadcasts().deliveries(), before + 1);
}

TEST(ChargerIntegrationTest, ProfilersKeepConservingWhileCharging) {
  // Conservation is stated over consumption, not net battery flow: the
  // profilers' totals equal what the device consumed even while the
  // charger back-fills.
  apps::Testbed bed;
  apps::DemoAppSpec spec = apps::message_spec();
  spec.foreground_cpu = 0.3;
  bed.install<apps::DemoApp>(spec);
  bed.start();
  bed.server().plug_charger(5000.0);
  bed.server().user_launch("com.example.message");
  bed.run_for(sim::minutes(2));
  EXPECT_NEAR(bed.battery_stats().total_mj(),
              bed.eandroid()->engine().true_total_mj(), 1e-3);
  // The battery itself went UP despite the consumption.
  EXPECT_TRUE(bed.server().battery().full());
}

TEST(ChargerIntegrationTest, FullPhoneOnChargerForADayAddsAtMostTwoPoints) {
  // A full phone left on the charger for a day: consumption never beats
  // the charger, so the battery stays full and its history stays put
  // (at most the plug-in window's edges), while every profiler still
  // conserves against the consumption ledger.
  apps::Testbed bed;
  bed.install<apps::DemoApp>(apps::message_spec());
  bed.start();
  bed.server().plug_charger(5000.0);
  const std::size_t points_at_plug = bed.server().battery().history().size();
  bed.server().user_launch("com.example.message");
  bed.run_for(sim::hours(24));
  bed.sampler().flush();

  EXPECT_TRUE(bed.server().battery().full());
  EXPECT_LE(bed.server().battery().history().size(), points_at_plug + 2);

  core::InvariantChecker checker(bed.server());
  checker.attach(bed.eandroid());
  checker.attach(&bed.battery_stats());
  checker.attach(&bed.power_tutor());
  const core::InvariantReport report = checker.check();
  EXPECT_TRUE(report.ok()) << report.to_string();
}

}  // namespace
}  // namespace eandroid::hw
