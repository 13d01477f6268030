// BatteryStats: the stock Android battery accounting.
//
// Policy (paper §II): per-app energy from utilization/sessions; screen is
// "treated as an independent part, where the energy consumed by screen is
// always displayed in total" — its own row, never charged to an app. IPC
// and collateral effects are deliberately invisible: this is the baseline
// the attacks sidestep.
#pragma once

#include <vector>

#include "energy/battery_view.h"
#include "energy/slice.h"
#include "framework/package_manager.h"

namespace eandroid::energy {

class BatteryStats : public AccountingSink {
 public:
  explicit BatteryStats(const framework::PackageManager& packages)
      : packages_(packages) {}

  void on_slice(const EnergySlice& slice) override;

  [[nodiscard]] BatteryView view() const;
  [[nodiscard]] double app_energy_mj(kernelsim::Uid uid) const;
  [[nodiscard]] double screen_energy_mj() const { return screen_mj_; }
  [[nodiscard]] double total_mj() const;

  void reset();

 private:
  const framework::PackageManager& packages_;
  /// Identifier table shared by every slice this sink has seen; bound on
  /// the first slice (all slices fed to one sink must share a table).
  const kernelsim::IdTable* ids_ = nullptr;
  /// Accumulated energy, dense by AppIdx — no hashing on the slice path.
  std::vector<double> app_mj_;
  double screen_mj_ = 0.0;
  double system_mj_ = 0.0;
};

}  // namespace eandroid::energy
