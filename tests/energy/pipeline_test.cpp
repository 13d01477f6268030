// MeteringPipeline unit suite (the `metering` ctest label): fold order,
// stage bracketing, the touched-view cell addressing, the fused profiler
// folds against the profilers' own on_slice, and the unfused sink chain
// on a live testbed. These tests pin the pipeline's contracts at the
// component level where a violation has a short, debuggable witness.

#include "energy/pipeline.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/demo_app.h"
#include "apps/testbed.h"
#include "energy/battery_stats.h"
#include "energy/power_tutor.h"
#include "energy/timeline.h"
#include "framework/package_manager.h"

namespace eandroid::energy {
namespace {

using apps::DemoApp;
using apps::Testbed;
using apps::TestbedOptions;

kernelsim::Uid uid(std::int32_t v) { return kernelsim::Uid{v}; }

/// Builds a sealed standalone slice with a deterministic cell pattern:
/// three touched apps, staggered parts, two routine tags on the first app,
/// and two interned apps (10004, 10005) between them that this slice
/// never touches — their cells exist but are not on the active list.
EnergySlice make_slice() {
  EnergySlice slice;
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
  return slice;
}

TEST(MeteringPipelineTest, TouchedViewAddressesTheSameCells) {
  const EnergySlice slice = make_slice();
  const EnergySlice::TouchedView view = slice.touched_view();
  ASSERT_EQ(view.active, &slice.active());
  for (const kernelsim::AppIdx idx : *view.active) {
    EXPECT_EQ(view.parts[0][idx], slice.cpu_mj(idx));
    EXPECT_EQ(view.parts[1][idx], slice.camera_mj(idx));
    EXPECT_EQ(view.parts[2][idx], slice.gps_mj(idx));
    EXPECT_EQ(view.parts[3][idx], slice.wifi_mj(idx));
    EXPECT_EQ(view.parts[4][idx], slice.audio_mj(idx));
  }
}

/// Stage stub that records when it ran relative to the fused cell pass,
/// using the direct store's ground-truth sum as the witness.
struct RecordingStage : SliceFoldStage {
  const DirectStore* store = nullptr;
  std::vector<std::string> events;
  double total_at_prepare = -1.0;
  double total_at_fold = -1.0;

  void prepare_slice(const EnergySlice&) override {
    events.push_back("prepare");
    total_at_prepare = store->true_total_mj;
  }
  void fold_slice(const EnergySlice&) override {
    events.push_back("fold");
    total_at_fold = store->true_total_mj;
  }
};

TEST(MeteringPipelineTest, StagesBracketTheCellPass) {
  const EnergySlice slice = make_slice();
  DirectStore store;
  RecordingStage stage;
  stage.store = &store;
  MeteringPipeline pipeline;
  pipeline.set_engine(&store, &stage);
  pipeline.run(slice);

  ASSERT_EQ(stage.events, (std::vector<std::string>{"prepare", "fold"}));
  // prepare_slice ran before any cell was folded; fold_slice after all.
  EXPECT_EQ(stage.total_at_prepare, 0.0);
  EXPECT_EQ(stage.total_at_fold, slice.total_mj());
  EXPECT_EQ(pipeline.slices_folded(), 1u);
  EXPECT_EQ(pipeline.cells_folded(), slice.active().size());
}

TEST(MeteringPipelineTest, DirectStoreFoldIsBitIdenticalToTotalMj) {
  const EnergySlice slice = make_slice();
  DirectStore store;
  RecordingStage stage;
  stage.store = &store;
  MeteringPipeline pipeline;
  pipeline.set_engine(&store, &stage);
  pipeline.run(slice);
  pipeline.run(slice);  // accumulation across slices

  // EXACT equality: the pipeline must reproduce total_mj()'s association
  // (system+screen seed, then apps ascending) and the canonical part
  // order per cell — not merely be numerically close.
  EXPECT_EQ(store.true_total_mj, slice.total_mj() + slice.total_mj());
  const kernelsim::AppIdx a = slice.ids().find_app(uid(10001));
  ASSERT_LT(a, store.by_app.size());
  EXPECT_EQ(store.by_app[a].cpu_mj, slice.cpu_mj(a) + slice.cpu_mj(a));
  EXPECT_EQ(store.by_app[a].wifi_mj, slice.wifi_mj(a) + slice.wifi_mj(a));
  const kernelsim::RoutineIdx render = slice.ids().find_routine("render");
  EXPECT_EQ(store.by_app[a].routine_mj_of(render),
            slice.routine_mj_at(a, render) + slice.routine_mj_at(a, render));
  // Untouched app rows exist (dense) but hold zero.
  const kernelsim::AppIdx b = slice.ids().find_app(uid(10002));
  EXPECT_EQ(store.by_app[b].cpu_mj, 0.0);
  EXPECT_EQ(store.by_app[b].camera_mj,
            slice.camera_mj(b) + slice.camera_mj(b));
}

TEST(MeteringPipelineTest, DenseColumnFoldsMatchVirtualFolds) {
  // BatteryStats and PowerTutor fold inside the pipeline's one walk over
  // the touched apps. The result must be EXACTLY their own on_slice: the
  // same adds in the same order, with the interned-but-untouched apps
  // never visited, and a slice that touches no app adding only its
  // system and screen rows.
  EnergySlice slice = make_slice();
  const kernelsim::AppIdx idle1 = slice.ids().find_app(uid(10004));
  const kernelsim::AppIdx idle2 = slice.ids().find_app(uid(10005));
  ASSERT_EQ(slice.active().size() + 2, slice.ids().app_count());
  EXPECT_FALSE(slice.active_at(idle1));
  EXPECT_FALSE(slice.active_at(idle2));

  EnergySlice empty(slice.ids());
  empty.system_mj = 1.5;
  empty.screen_mj = 20.25;
  empty.foreground = uid(10002);
  empty.seal();
  ASSERT_TRUE(empty.active().empty());

  framework::PackageManager packages;

  BatteryStats bs_virtual(packages);
  PowerTutor pt_virtual(packages);
  for (const EnergySlice* s : {&slice, &empty, &slice}) {
    bs_virtual.on_slice(*s);
    pt_virtual.on_slice(*s);
  }

  BatteryStats bs_fused(packages);
  PowerTutor pt_fused(packages);
  MeteringPipeline pipeline;
  pipeline.set_battery_stats(&bs_fused);
  pipeline.set_power_tutor(&pt_fused);
  for (const EnergySlice* s : {&slice, &empty, &slice}) pipeline.run(*s);
  EXPECT_EQ(pipeline.cells_folded(), 2 * slice.active().size());

  EXPECT_EQ(bs_fused.total_mj(), bs_virtual.total_mj());
  EXPECT_EQ(bs_fused.screen_energy_mj(), bs_virtual.screen_energy_mj());
  EXPECT_EQ(pt_fused.total_mj(), pt_virtual.total_mj());
  for (std::int32_t v = 10001; v <= 10005; ++v) {
    EXPECT_EQ(bs_fused.app_energy_mj(uid(v)),
              bs_virtual.app_energy_mj(uid(v)));
    EXPECT_EQ(pt_fused.app_energy_mj(uid(v)),
              pt_virtual.app_energy_mj(uid(v)));
    for (const HwPart part : {HwPart::kCpu, HwPart::kCamera, HwPart::kGps,
                              HwPart::kWifi, HwPart::kAudio,
                              HwPart::kScreen}) {
      EXPECT_EQ(pt_fused.component_energy_mj(uid(v), part),
                pt_virtual.component_energy_mj(uid(v), part));
    }
  }
}

/// Unfused sink that records how many slices the device's pipeline had
/// folded when each slice reached it.
struct FoldOrderProbe : AccountingSink {
  const MeteringPipeline* pipeline = nullptr;
  std::vector<std::uint64_t> folded_at_slice;
  void on_slice(const EnergySlice&) override {
    folded_at_slice.push_back(pipeline->slices_folded());
  }
};

TEST(MeteringPipelineTest, UnfusedSinksStillRunAfterThePipeline) {
  // Sinks registered via add_sink (here: the timeline recorder, which
  // stays outside the pipeline) must see every slice, each one after the
  // pipeline folded it, and their rows must re-sum to what the fused
  // profilers charged.
  Testbed bed({.seed = 11});
  apps::DemoAppSpec victim = apps::victim_spec();
  victim.package = "com.pipeline.victim";
  bed.install<DemoApp>(victim);
  TimelineRecorder timeline(bed.server().packages());
  bed.sampler().add_sink(&timeline);
  FoldOrderProbe probe;
  probe.pipeline = &bed.pipeline();
  bed.sampler().add_sink(&probe);
  bed.start();
  bed.server().user_launch("com.pipeline.victim");
  bed.run_for(sim::seconds(10));

  const auto rows = timeline.rows();
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.size(), bed.sampler().slices_emitted());
  ASSERT_EQ(probe.folded_at_slice.size(), rows.size());
  for (std::size_t i = 0; i < probe.folded_at_slice.size(); ++i) {
    EXPECT_EQ(probe.folded_at_slice[i], i + 1) << "slice " << i;
  }
  double total_mj = 0.0;
  for (const auto& row : rows) total_mj += row.total_mj;
  EXPECT_NEAR(total_mj, bed.battery_stats().total_mj(), 1e-6);
  EXPECT_NEAR(total_mj, bed.power_tutor().total_mj(), 1e-6);
}

TEST(MeteringPipelineTest, PipelineCountsSlicesAndCells) {
  Testbed bed({.seed = 3});
  apps::DemoAppSpec victim = apps::victim_spec();
  victim.package = "com.pipeline.victim";
  bed.install<DemoApp>(victim);
  bed.start();
  bed.server().user_launch("com.pipeline.victim");
  bed.run_for(sim::seconds(5));

  EXPECT_EQ(bed.pipeline().slices_folded(), bed.sampler().slices_emitted());
  EXPECT_GT(bed.pipeline().cells_folded(), 0u);

  const obs::MetricsSnapshot snap = bed.metrics_snapshot();
  const obs::MetricRow* folds = snap.find("energy.pipeline.folds");
  ASSERT_NE(folds, nullptr);
  EXPECT_EQ(folds->count, bed.pipeline().slices_folded());
  const obs::MetricRow* cells = snap.find("energy.pipeline.fused_cells");
  ASSERT_NE(cells, nullptr);
  EXPECT_EQ(cells->count, bed.pipeline().cells_folded());
}

}  // namespace
}  // namespace eandroid::energy
