#include "analysis/attack_surface.h"

#include <gtest/gtest.h>

#include "analysis/corpus.h"

namespace eandroid::analysis {
namespace {

framework::Manifest manifest_with(bool exported_activity,
                                  bool exported_service, bool wake_lock,
                                  bool write_settings) {
  framework::Manifest m;
  m.package = "com.example.x";
  m.activities.push_back(
      framework::ActivityDecl{"Main", exported_activity, {}});
  if (exported_service) {
    m.services.push_back(framework::ServiceDecl{"S", true, {}});
  }
  if (wake_lock) m.permissions.push_back(framework::Permission::kWakeLock);
  if (write_settings) {
    m.permissions.push_back(framework::Permission::kWriteSettings);
  }
  return m;
}

TEST(AttackSurfaceTest, CountsEachFactOnce) {
  std::vector<framework::Manifest> corpus;
  corpus.push_back(manifest_with(true, true, true, true));
  corpus.push_back(manifest_with(false, false, false, false));
  const AttackSurface surface = measure_attack_surface(corpus);
  EXPECT_EQ(surface.total_apps, 2);
  EXPECT_EQ(surface.hijackable_activity, 1);
  EXPECT_EQ(surface.bindable_service, 1);
  EXPECT_EQ(surface.wakelock_users, 1);
  EXPECT_EQ(surface.can_write_settings, 1);
  EXPECT_DOUBLE_EQ(surface.pct(surface.hijackable_activity), 50.0);
}

TEST(AttackSurfaceTest, EmptyCorpusIsZero) {
  const AttackSurface surface = measure_attack_surface({});
  EXPECT_EQ(surface.total_apps, 0);
  EXPECT_DOUBLE_EQ(surface.pct(3), 0.0);
  const auto pairs = surface.expected_pairs(30);
  EXPECT_DOUBLE_EQ(pairs.hijack_pairs, 0.0);
}

TEST(AttackSurfaceTest, PairEstimateScalesWithInstallBase) {
  std::vector<framework::Manifest> corpus;
  for (int i = 0; i < 10; ++i) {
    corpus.push_back(manifest_with(i < 5, i < 2, false, false));
  }
  const AttackSurface surface = measure_attack_surface(corpus);
  const auto small = surface.expected_pairs(10);
  const auto large = surface.expected_pairs(100);
  EXPECT_NEAR(small.hijack_pairs, 9 * 0.5, 1e-9);
  EXPECT_NEAR(large.hijack_pairs, 99 * 0.5, 1e-9);
  EXPECT_GT(large.bind_pairs, small.bind_pairs);
}

TEST(AttackSurfaceTest, PaperCorpusMatchesFig2Rates) {
  const AttackSurface surface =
      measure_attack_surface(generate_corpus());
  // Exported-component rate from Fig 2 is 72%; the activity-only rate is
  // necessarily <= that but the same order.
  EXPECT_GT(surface.pct(surface.hijackable_activity), 50.0);
  EXPECT_NEAR(surface.pct(surface.can_hold_wakelock), 81.0, 3.0);
  EXPECT_NEAR(surface.pct(surface.can_write_settings), 21.0, 3.0);
}

TEST(AttackSurfaceTest, RenderContainsTheNumbers) {
  const AttackSurface surface =
      measure_attack_surface(generate_corpus());
  const std::string text = render_attack_surface(surface, 30);
  EXPECT_NE(text.find("attack surface over 1124 manifests"),
            std::string::npos);
  EXPECT_NE(text.find("30 installed apps"), std::string::npos);
}

}  // namespace
}  // namespace eandroid::analysis
