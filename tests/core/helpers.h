// Shared helpers for the E-Android engine and interface tests.
#pragma once

#include "core/e_android.h"
#include "energy/sampler.h"
#include "framework/system_server.h"

namespace eandroid::core::testing {

/// Meters one 250 ms window of `server` the way a device does: through a
/// sampler `ea` attached itself to. A framework-only EAndroid attaches
/// nothing, so its engine sees no slice. Returns the slices the sampler
/// emitted (1: the window was metered).
inline std::uint64_t meter_one_window(EAndroid& ea,
                                      framework::SystemServer& server) {
  energy::EnergySampler sampler(server);
  ea.attach(sampler);
  server.simulator().run_for(sim::millis(250));
  sampler.flush();
  return sampler.slices_emitted();
}

}  // namespace eandroid::core::testing
