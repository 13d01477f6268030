// EnergySampler: the periodic metering loop.
//
// At each tick (default 250 ms, the same order as BatteryStats' polling)
// it closes a CPU-utilization window, reads instantaneous component power,
// integrates over the window, moves the battery by the window's net flow
// (one Battery::flow call), and feeds every registered sink. Power is treated as constant within a window — the
// standard assumption of utilization-based models (the paper cites their
// ~20% worst-case error; our interest is attribution, not wattmeter
// accuracy).
//
// The tick runs in three stages: GATHER integrates component power into
// the persistent slice, SEAL fixes the canonical cell-iteration order,
// and FOLD hands the sealed slice to every sink in registration order —
// one ordered chain, the only route a slice takes to any accumulator. A
// device registers the E-Android engine first, then BatteryStats, then
// PowerTutor (fleet/device_context.cpp); observers a caller adds
// (timeline recorders, detectors, eprof, test sinks) run after them.
//
// The tick is allocation-free in steady state: ONE EnergySlice lives for
// the whole run and is reset (not reallocated) per window, component
// breakdowns land in a reused buffer, and the per-tick constants (power
// params, CPU power model, the observability recorder/registry pointers)
// are hoisted out of the loop. The one growing structure is the battery
// history, which takes a point per net percent change: none while a full
// phone sits on the charger, ~100 per discharge or charge swing
// (amortised reallocation once past its reserve).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "energy/slice.h"
#include "framework/system_server.h"
#include "hw/cpu_power_model.h"
#include "sim/simulator.h"

namespace eandroid::energy {

class EnergySampler {
 public:
  EnergySampler(framework::SystemServer& server,
                sim::Duration period = sim::millis(250));
  ~EnergySampler();

  EnergySampler(const EnergySampler&) = delete;
  EnergySampler& operator=(const EnergySampler&) = delete;

  /// Registers a sink. FOLD feeds every slice to the sinks in
  /// registration order.
  void add_sink(AccountingSink* sink) { sinks_.push_back(sink); }

  /// Starts the periodic loop on the simulator.
  void start();
  void stop();

  /// Forces a window to close now (used at scenario boundaries so the
  /// last partial window is accounted).
  void flush();

  [[nodiscard]] std::uint64_t slices_emitted() const { return slices_; }

  // --- Per-stage wall-clock accounting (bench instrumentation) ---------
  // Off by default: the tick takes zero clock reads. The hotpath bench
  // enables it over a profiling window to split tick cost into gather
  // (+seal) vs fold (the sink chain). Timing never touches the
  // simulation's arithmetic — results are bit-identical either way.
  void enable_stage_timing(bool on) { stage_timing_ = on; }
  struct StageNanos {
    std::uint64_t gather_ns = 0;  ///< gather + seal + battery flow
    std::uint64_t fold_ns = 0;    ///< the sink chain
    std::uint64_t ticks = 0;      ///< ticks measured while timing was on
  };
  [[nodiscard]] StageNanos stage_nanos() const { return stage_nanos_; }
  void reset_stage_nanos() { stage_nanos_ = StageNanos{}; }

 private:
  void tick();
  /// GATHER: integrates CPU, session components, and screen state over
  /// the closed window into the persistent slice.
  void gather(sim::TimePoint now, double window_s);
  /// FOLD: every sink, in registration order.
  void fold();

  framework::SystemServer& server_;
  sim::Duration period_;
  std::vector<AccountingSink*> sinks_;
  std::function<void()> stopper_;
  sim::TimePoint window_begin_;
  std::uint64_t slices_ = 0;

  /// Hoisted per-tick constants: the params never change mid-run and the
  /// model is a pure function of them.
  const hw::PowerParams& params_;
  hw::CpuPowerModel model_;

  /// Persistent metering buffers (reset per tick, never reallocated).
  EnergySlice slice_;
  hw::PowerBreakdown breakdown_;

  /// Cached observability sinks (attached before construction, constant
  /// for the device's life) plus pre-interned/registered ids — the tick's
  /// trace/metrics calls neither re-query the simulator nor allocate.
  obs::TraceRecorder* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::uint32_t slice_trace_name_ = 0;
  obs::MetricId slices_metric_ = 0;
  obs::MetricId slice_mj_metric_ = 0;

  bool stage_timing_ = false;
  StageNanos stage_nanos_;
};

}  // namespace eandroid::energy
