// Machine context carried by every output: the facts needed to compare
// two runs (cores, CPU, compiler, build type, tracing, workers).
#pragma once

#include <string>

namespace ledger {

/// Host cores as the process sees them.
[[nodiscard]] unsigned host_cores();

/// One-line JSON object describing the host and this build.
[[nodiscard]] std::string machine_json(unsigned workers);

}  // namespace ledger
