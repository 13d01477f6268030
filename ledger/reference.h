// The host-speed reference.
//
// The host's CPUs run the simulator up to ~40% slower for seconds to
// minutes at a time (load from neighbouring tenants on shared cores; see
// ledger/README.md). Every timed block is therefore paired with a run of a
// fixed reference kernel on the same CPU(s) right before it, and the
// block's host times are expressed at the reference's nominal speed:
//
//   normalized time = measured time * (kNominalNs / reference time)
//
// The kernel is a small discrete-event loop written to resemble the
// simulator's own work (a heap of timed callbacks, hash-map updates,
// floating-point accumulation, small allocations), which is what makes it
// slow down and speed up together with the workloads. It lives entirely in
// this benchmark, so no change to src/ moves it.
#pragma once

namespace ledger {

/// Typical reference time, in ns, on the 4-core Xeon VM the benchmark was
/// written on: for one thread, and for one thread per worker running at
/// once (the CPUs then share caches and cores with each other). They are
/// units only; normalized metrics read close to raw ones on that host.
inline constexpr double kNominalNs = 2.5e6;
inline constexpr double kNominalConcurrentNs = 3.5e6;

/// Runs the kernel once on the calling thread; returns its host time in ns.
[[nodiscard]] double reference_ns();

/// Nominal / measured reference time. With `threads` > 1 the kernel runs
/// on that many threads at once (the mean of their times), for blocks that
/// keep that many CPUs busy.
[[nodiscard]] double speed_factor(unsigned threads = 1);

}  // namespace ledger
