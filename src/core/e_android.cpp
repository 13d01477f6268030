#include "core/e_android.h"

namespace eandroid::core {

EAndroid::EAndroid(framework::SystemServer& server, Mode mode,
                   EngineConfig config)
    : tracker_(server),
      engine_(server, tracker_, config),
      interface_(server, engine_),
      mode_(mode) {}

void EAndroid::attach(energy::EnergySampler& sampler) {
  if (mode_ == Mode::kComplete) sampler.add_sink(&engine_);
}

}  // namespace eandroid::core
