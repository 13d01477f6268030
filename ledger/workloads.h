// The three workloads and the pieces of the traced run they share.
//
// Each workload runs in blocks (a simulated day, an episode of Table I ops
// on a fresh phone, one fleet campaign). The untraced run measures every
// block with no span armed; the traced run alternates traced and untraced
// blocks, so the ledger's own overhead is measured against untraced blocks
// of the same process. See ledger/README.md for what each workload
// exercises and why.
#pragma once

#include <cstdint>
#include <vector>

#include "common.h"
#include "energy/sampler.h"
#include "spans.h"

namespace ledger {

[[nodiscard]] Outcome run_metered_day(const Args& args, SpanLedger& spans);
[[nodiscard]] Outcome run_table1_churn(const Args& args, SpanLedger& spans);
[[nodiscard]] Outcome run_push_campaign(const Args& args, SpanLedger& spans);

/// push_campaign's work-stealing workers: the host's cores, at most 4.
[[nodiscard]] unsigned campaign_workers();

/// Arms the span ledger, the sampler stage timers and the allocation
/// counter for the blocks the traced run records, and keeps the per-block
/// host times of traced and untraced blocks apart.
class TraceSwitch {
 public:
  TraceSwitch(const Args& args, SpanLedger& spans)
      : enabled_(args.trace), spans_(spans) {}

  /// Traced runs trace every other block; untraced runs none.
  [[nodiscard]] bool traced(std::size_t block) const {
    return enabled_ && block % 2 == 1;
  }
  void arm(bool on) {
    spans_.set_armed(on);
    count_allocations(on);
  }
  /// Records a finished block's host time per unit of work.
  void record(bool traced, double seconds_per_unit, std::int64_t wall_ns) {
    (traced ? traced_ : untraced_).push_back(seconds_per_unit);
    if (traced) traced_wall_ns_ += wall_ns;
  }

  /// Writes the ledger block: each layer's share of traced wall time, the
  /// re-sum error against that wall time, and the traced blocks' overhead
  /// over untraced ones.
  void report(Outcome& out) const;

 private:
  bool enabled_;
  SpanLedger& spans_;
  std::vector<double> traced_;
  std::vector<double> untraced_;
  std::int64_t traced_wall_ns_ = 0;
};

/// Gather and fold time one advance spent in the sampler, added to the
/// ledger as measured children of the enclosing span.
struct StageDelta {
  std::uint64_t gather_ns = 0;
  std::uint64_t fold_ns = 0;
  std::uint64_t ticks = 0;

  StageDelta& operator+=(const StageDelta& o) {
    gather_ns += o.gather_ns;
    fold_ns += o.fold_ns;
    ticks += o.ticks;
    return *this;
  }
};

/// What traced dispatch spent, across blocks.
struct DispatchTally {
  StageDelta stages;
  std::uint64_t allocations = 0;
  std::uint64_t events = 0;
};

/// Reads and resets a sampler's stage timers.
[[nodiscard]] StageDelta take_stage_nanos(
    eandroid::energy::EnergySampler& sampler);

/// The tolerance within which per-layer self times must re-sum to the
/// traced blocks' wall time.
inline constexpr double kResumTolerance = 0.01;

}  // namespace ledger
