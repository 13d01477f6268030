// Output checks shared by every workload: energy conservation against the
// battery's ground truth and the InvariantChecker at the contract's bar.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"
#include "fleet/device_context.h"

namespace ledger {

/// The contract's conservation bar: every profiler total within 1 mJ of
/// the battery's consumption.
inline constexpr double kContractToleranceMj = 1.0;

struct DeviceCheck {
  /// Largest |profiler total - battery consumed| over BatteryStats,
  /// PowerTutor and E-Android's true total, and |E-Android rows - its
  /// total|, in mJ.
  double conservation_err_mj = 0.0;
  /// InvariantChecker violations at the contract's 1 mJ tolerance.
  std::size_t violations = 0;
  /// Violations at the checker's own default tolerance (1e-3 mJ), which
  /// long single-device runs exceed through rounding drift; reported, not
  /// failed (see ledger/README.md).
  std::size_t violations_default_tolerance = 0;
  std::string first_violation;
  std::string first_default_tolerance_violation;
};

/// Reads the device's profilers and battery; never mutates the device.
/// Flush the sampler first so the trailing partial window is included.
[[nodiscard]] DeviceCheck check_device(eandroid::fleet::DeviceContext& device);

/// Records a DeviceCheck on `out` as checks (conservation and invariants).
void record_device_check(Outcome& out, const DeviceCheck& check,
                         const std::string& what);

/// Layer counters of one device (or a fleet's sum), read at a checkpoint
/// so they repeat exactly for a seed.
struct DeviceCounts {
  std::uint64_t events = 0;
  std::uint64_t ticks = 0;
  /// WindowTracker generation bumps (generation() starts at 1).
  std::uint64_t generations = 0;
  std::uint64_t opened = 0;
  std::uint64_t closed = 0;
  std::uint64_t binder_txns = 0;
  std::uint64_t binder_failed = 0;
  std::uint64_t binder_tokens = 0;
  std::uint64_t battery_history = 0;

  DeviceCounts& operator+=(const DeviceCounts& o);
};

[[nodiscard]] DeviceCounts read_counts(eandroid::fleet::DeviceContext& device);

/// Sets the sim/energy/core/kernel/hw count metrics; `ops` is the number
/// of operations binder transactions are divided by.
void record_counts(Outcome& out, const DeviceCounts& counts, double ops);

}  // namespace ledger
