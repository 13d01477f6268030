#include <cmath>
#include <cstdio>
#include <string>

#include "workloads.h"

namespace ledger {

void TraceSwitch::report(Outcome& out) const {
  if (!enabled_) return;
  out.check(traced_wall_ns_ > 0 && !untraced_.empty(),
            "traced run recorded traced and untraced blocks");
  if (traced_wall_ns_ <= 0) return;
  const double wall = static_cast<double>(traced_wall_ns_);
  for (std::size_t i = 0; i < static_cast<std::size_t>(Layer::kCount); ++i) {
    const auto layer = static_cast<Layer>(i);
    out.set(std::string("ledger.self_frac.") + layer_name(layer),
            static_cast<double>(spans_.self_ns(layer)) / wall);
  }
  const double resum =
      std::abs(static_cast<double>(spans_.total_self_ns()) - wall) / wall;
  out.set("ledger.resum_err_frac", resum);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "layer self times re-sum to traced wall time within %.2f%% "
                "(off by %.4f%%)",
                100.0 * kResumTolerance, 100.0 * resum);
  out.check(resum <= kResumTolerance, buf);
  out.set("ledger.traced_wall_s", wall / 1e9);
  if (!untraced_.empty()) {
    out.set("ledger.overhead_frac", median(traced_) / median(untraced_) - 1.0);
  }
}

StageDelta take_stage_nanos(eandroid::energy::EnergySampler& sampler) {
  const eandroid::energy::EnergySampler::StageNanos s = sampler.stage_nanos();
  sampler.reset_stage_nanos();
  return {s.gather_ns, s.fold_ns, s.ticks};
}

}  // namespace ledger
