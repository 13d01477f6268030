// Fold-stage unit suite (the `metering` ctest label). A sealed slice
// reaches every accumulator through one route: the sampler's ordered
// sink chain, each sink's on_slice. These tests pin that route's
// contracts at the component level, where a violation has a short,
// debuggable witness: the engine's direct fold and the profilers' folds
// reproduce the canonical association bit for bit, and sinks a caller
// adds run after the three built-in profilers on a live testbed.

#include <gtest/gtest.h>

#include <vector>

#include "apps/demo_app.h"
#include "apps/testbed.h"
#include "core/engine.h"
#include "core/window_tracker.h"
#include "energy/battery_stats.h"
#include "energy/power_tutor.h"
#include "energy/timeline.h"
#include "framework/package_manager.h"
#include "framework/system_server.h"
#include "sim/simulator.h"

namespace eandroid::energy {
namespace {

using apps::DemoApp;
using apps::Testbed;

kernelsim::Uid uid(std::int32_t v) { return kernelsim::Uid{v}; }

/// Builds a sealed slice over `slice`'s table with a deterministic cell
/// pattern: three touched apps, staggered parts, two routine tags on the
/// first app, and two interned apps (10004, 10005) between them that
/// this slice never touches — their cells exist but are not on the
/// active list.
void fill_slice(EnergySlice& slice) {
  const kernelsim::AppIdx a = slice.ids().app_of(uid(10001));
  (void)slice.ids().app_of(uid(10004));
  const kernelsim::AppIdx b = slice.ids().app_of(uid(10002));
  (void)slice.ids().app_of(uid(10005));
  const kernelsim::AppIdx c = slice.ids().app_of(uid(10003));
  const kernelsim::RoutineIdx render = slice.ids().routine_of("render");
  const kernelsim::RoutineIdx net = slice.ids().routine_of("net");
  // Values are not dyadic, and app a has three non-zero parts, so a sum
  // in any other association than the canonical part order rounds
  // differently: exact-equality checks below see order bugs.
  slice.system_mj = 3.3;
  slice.screen_mj = 40.1;
  // Touch out of ascending order on purpose — seal() canonicalizes.
  slice.part_at(c, HwPart::kGps) += 0.7;
  slice.part_at(a, HwPart::kCpu) += 12.1;
  slice.part_at(a, HwPart::kGps) += 0.3;
  slice.part_at(a, HwPart::kWifi) += 1.3;
  slice.part_at(b, HwPart::kCamera) += 29.9;
  slice.part_at(b, HwPart::kAudio) += 2.7;
  slice.add_routine_at(a, net, 4.4);
  slice.add_routine_at(a, render, 7.7);
  slice.seal();
}

TEST(MeteringPipelineTest, DirectStoreFoldIsBitIdenticalToTotalMj) {
  // The engine's on_slice folds each touched app's parts into its direct
  // rows and keeps the battery ground truth as total_mj()'s exact running
  // sum (system+screen seed, then apps ascending).
  sim::Simulator sim;
  framework::SystemServer server(sim);
  core::WindowTracker tracker(server);
  core::EAndroidEngine engine(server, tracker);
  EnergySlice slice(server.ids());
  fill_slice(slice);
  engine.on_slice(slice);
  engine.on_slice(slice);  // accumulation across slices

  // EXACT equality, not merely numerically close.
  EXPECT_EQ(engine.true_total_mj(), slice.total_mj() + slice.total_mj());
  const kernelsim::AppIdx a = slice.ids().find_app(uid(10001));
  const AppSliceEnergy* row_a = engine.direct_breakdown(uid(10001));
  ASSERT_NE(row_a, nullptr);
  EXPECT_EQ(row_a->cpu_mj, slice.cpu_mj(a) + slice.cpu_mj(a));
  EXPECT_EQ(row_a->gps_mj, slice.gps_mj(a) + slice.gps_mj(a));
  EXPECT_EQ(row_a->wifi_mj, slice.wifi_mj(a) + slice.wifi_mj(a));
  const kernelsim::RoutineIdx render = slice.ids().find_routine("render");
  EXPECT_EQ(engine.direct_routine_mj(uid(10001), "render"),
            slice.routine_mj_at(a, render) + slice.routine_mj_at(a, render));
  const kernelsim::AppIdx b = slice.ids().find_app(uid(10002));
  const AppSliceEnergy* row_b = engine.direct_breakdown(uid(10002));
  ASSERT_NE(row_b, nullptr);
  EXPECT_EQ(row_b->cpu_mj, 0.0);
  EXPECT_EQ(row_b->camera_mj, slice.camera_mj(b) + slice.camera_mj(b));
  // Interned but untouched apps hold nothing.
  EXPECT_EQ(engine.direct_mj(uid(10004)), 0.0);
  EXPECT_EQ(engine.direct_breakdown(uid(10005)), nullptr);
}

TEST(MeteringPipelineTest, DenseColumnFoldsMatchVirtualFolds) {
  // BatteryStats and PowerTutor fold through their own on_slice. The
  // result must be EXACTLY the spelled-out reference below: per-app part
  // sums in the canonical part order, rows accumulated slice by slice,
  // the interned-but-untouched apps holding nothing, and a slice that
  // touches no app adding only its system and screen rows.
  EnergySlice slice;
  fill_slice(slice);
  ASSERT_EQ(slice.active().size() + 2, slice.ids().app_count());
  EXPECT_FALSE(slice.active_at(slice.ids().find_app(uid(10004))));
  EXPECT_FALSE(slice.active_at(slice.ids().find_app(uid(10005))));

  EnergySlice empty(slice.ids());
  empty.system_mj = 1.5;
  empty.screen_mj = 20.25;
  empty.foreground = uid(10002);
  empty.seal();
  ASSERT_TRUE(empty.active().empty());

  framework::PackageManager packages;
  BatteryStats bs(packages);
  PowerTutor pt(packages);
  const std::vector<const EnergySlice*> slices = {&slice, &empty, &slice};
  for (const EnergySlice* s : slices) {
    bs.on_slice(*s);
    pt.on_slice(*s);
  }

  // Reference accumulators, dense by AppIdx, added in slice order.
  const std::size_t n = slice.ids().app_count();
  std::vector<double> app_sum(n, 0.0);
  std::vector<std::vector<double>> parts(n, std::vector<double>(5, 0.0));
  double screen = 0.0;
  double system = 0.0;
  double unattributed_screen = 0.0;
  double fg_screen = 0.0;  // screen billed to 10002 by PowerTutor
  for (const EnergySlice* s : slices) {
    for (const kernelsim::AppIdx idx : s->active()) {
      app_sum[idx] += s->sum_at(idx);
      parts[idx][0] += s->cpu_mj(idx);
      parts[idx][1] += s->camera_mj(idx);
      parts[idx][2] += s->gps_mj(idx);
      parts[idx][3] += s->wifi_mj(idx);
      parts[idx][4] += s->audio_mj(idx);
    }
    screen += s->screen_mj;
    system += s->system_mj;
    if (s->foreground.valid()) {
      fg_screen += s->screen_mj;
    } else {
      unattributed_screen += s->screen_mj;
    }
  }
  double bs_total = screen + system;
  double pt_total = system + unattributed_screen;
  for (kernelsim::AppIdx idx = 0; idx < n; ++idx) {
    bs_total += app_sum[idx];
    pt_total += parts[idx][0] + parts[idx][1] + parts[idx][2] +
                parts[idx][3] + parts[idx][4];
  }
  pt_total += fg_screen;

  EXPECT_EQ(bs.total_mj(), bs_total);
  EXPECT_EQ(bs.screen_energy_mj(), screen);
  EXPECT_EQ(pt.total_mj(), pt_total);
  for (std::int32_t v = 10001; v <= 10005; ++v) {
    const kernelsim::AppIdx idx = slice.ids().find_app(uid(v));
    const double own = parts[idx][0] + parts[idx][1] + parts[idx][2] +
                       parts[idx][3] + parts[idx][4];
    const double fg = v == 10002 ? fg_screen : 0.0;
    EXPECT_EQ(bs.app_energy_mj(uid(v)), app_sum[idx]) << v;
    EXPECT_EQ(pt.app_energy_mj(uid(v)), own + fg) << v;
    EXPECT_EQ(pt.component_energy_mj(uid(v), HwPart::kCpu), parts[idx][0]);
    EXPECT_EQ(pt.component_energy_mj(uid(v), HwPart::kCamera),
              parts[idx][1]);
    EXPECT_EQ(pt.component_energy_mj(uid(v), HwPart::kGps), parts[idx][2]);
    EXPECT_EQ(pt.component_energy_mj(uid(v), HwPart::kWifi), parts[idx][3]);
    EXPECT_EQ(pt.component_energy_mj(uid(v), HwPart::kAudio),
              parts[idx][4]);
    EXPECT_EQ(pt.component_energy_mj(uid(v), HwPart::kScreen), fg);
  }
  EXPECT_EQ(bs.app_energy_mj(uid(10004)), 0.0);
  EXPECT_EQ(pt.app_energy_mj(uid(10005)), 0.0);
}

/// Caller sink that, on every slice, checks the device's three built-in
/// profilers already folded that slice: each one's accumulator equals the
/// probe's own running sum, accumulated the same way, including it.
struct FoldOrderProbe : AccountingSink {
  Testbed* bed = nullptr;
  kernelsim::Uid victim;
  double true_total = 0.0;
  double victim_sum = 0.0;
  double victim_cpu = 0.0;
  std::uint64_t slices = 0;
  std::uint64_t behind = 0;  // slices a built-in had not folded yet

  void on_slice(const EnergySlice& slice) override {
    ++slices;
    true_total += slice.total_mj();
    const kernelsim::AppIdx idx = slice.ids().find_app(victim);
    if (slice.active_at(idx)) {
      victim_sum += slice.sum_at(idx);
      victim_cpu += slice.cpu_mj(idx);
    }
    if (bed->eandroid()->engine().true_total_mj() != true_total ||
        bed->battery_stats().app_energy_mj(victim) != victim_sum ||
        bed->power_tutor().component_energy_mj(victim, HwPart::kCpu) !=
            victim_cpu) {
      ++behind;
    }
  }
};

TEST(MeteringPipelineTest, UnfusedSinksStillRunAfterThePipeline) {
  // Sinks registered via add_sink (here: the timeline recorder and the
  // probe) must see every slice, each one after the engine, BatteryStats
  // and PowerTutor folded it, and their rows must re-sum to what the
  // profilers charged.
  Testbed bed({.seed = 11});
  apps::DemoAppSpec victim = apps::victim_spec();
  victim.package = "com.chain.victim";
  bed.install<DemoApp>(victim);
  TimelineRecorder timeline(bed.server().packages());
  bed.sampler().add_sink(&timeline);
  FoldOrderProbe probe;
  probe.bed = &bed;
  probe.victim = bed.uid_of("com.chain.victim");
  bed.sampler().add_sink(&probe);
  bed.start();
  bed.server().user_launch("com.chain.victim");
  bed.run_for(sim::seconds(10));

  const auto rows = timeline.rows();
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.size(), bed.sampler().slices_emitted());
  EXPECT_EQ(probe.slices, rows.size());
  EXPECT_EQ(probe.behind, 0u);
  EXPECT_GT(probe.victim_cpu, 0.0);  // the probe saw real app energy
  double total_mj = 0.0;
  for (const auto& row : rows) total_mj += row.total_mj;
  EXPECT_NEAR(total_mj, bed.battery_stats().total_mj(), 1e-6);
  EXPECT_NEAR(total_mj, bed.power_tutor().total_mj(), 1e-6);
}

}  // namespace
}  // namespace eandroid::energy
