// Shared helpers for the E-Android engine and interface tests.
#pragma once

#include "core/engine.h"
#include "energy/pipeline.h"
#include "energy/slice.h"

namespace eandroid::core::testing {

/// Folds one sealed slice into `engine` the way a device does: through a
/// MeteringPipeline the engine attached itself to. A framework-only
/// engine attaches nothing, so it sees no slice.
inline void fold(EAndroidEngine& engine, const energy::EnergySlice& slice) {
  energy::MeteringPipeline pipeline;
  engine.attach(pipeline);
  pipeline.run(slice);
}

}  // namespace eandroid::core::testing
