// Shared helpers for the E-Android engine and interface tests.
#pragma once

#include "core/e_android.h"
#include "core/engine.h"
#include "energy/pipeline.h"
#include "energy/slice.h"

namespace eandroid::core::testing {

/// Folds one sealed slice into `engine` through a MeteringPipeline the
/// engine attached itself to.
inline void fold(EAndroidEngine& engine, const energy::EnergySlice& slice) {
  energy::MeteringPipeline pipeline;
  engine.attach(pipeline);
  pipeline.run(slice);
}

/// Folds one sealed slice the way a device does: through a pipeline the
/// EAndroid facade attached. A framework-only EAndroid attaches nothing,
/// so its engine sees no slice.
inline void fold(EAndroid& ea, const energy::EnergySlice& slice) {
  energy::MeteringPipeline pipeline;
  ea.attach(pipeline);
  pipeline.run(slice);
}

}  // namespace eandroid::core::testing
