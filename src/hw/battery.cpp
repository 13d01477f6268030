#include "hw/battery.h"

#include <algorithm>
#include <cmath>

namespace eandroid::hw {

int Battery::percent() const {
  if (capacity_mj_ <= 0.0) return 0;
  return static_cast<int>(
      std::floor(100.0 * remaining_mj_ / capacity_mj_ + 1e-9));
}

void Battery::flow(double drain_mj, double charge_mj, sim::TimePoint now) {
  const int before = percent();
  if (drain_mj > 0.0) {
    consumed_mj_ += drain_mj;
    if (remaining_mj_ > 0.0) {
      remaining_mj_ = std::max(0.0, remaining_mj_ - drain_mj);
    }
  }
  if (charge_mj > 0.0 && !full()) {
    remaining_mj_ = std::min(capacity_mj_, remaining_mj_ + charge_mj);
  }
  record_levels(before, now);
}

void Battery::deplete_to(double remaining_mj, sim::TimePoint now) {
  remaining_mj = std::max(0.0, remaining_mj);
  if (remaining_mj >= remaining_mj_) return;
  const int before = percent();
  remaining_mj_ = remaining_mj;
  record_levels(before, now);
}

void Battery::record_levels(int before, sim::TimePoint now) {
  const int after = percent();
  for (int level = before - 1; level >= after; --level) {
    history_.push_back(HistoryPoint{now, level});
    if (on_percent_drop_) on_percent_drop_(level);
  }
  for (int level = before + 1; level <= after; ++level) {
    history_.push_back(HistoryPoint{now, level});
  }
}

void Battery::set_charging(bool charging, double rate_mw) {
  charging_ = charging;
  charge_rate_mw_ = charging ? rate_mw : 0.0;
}

}  // namespace eandroid::hw
