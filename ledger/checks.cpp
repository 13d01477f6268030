#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/invariants.h"

namespace ledger {

using namespace eandroid;

DeviceCheck check_device(eandroid::fleet::DeviceContext& device) {
  DeviceCheck result;
  const double truth = device.server().battery().consumed_total_mj();
  double err = std::max(std::abs(device.battery_stats().total_mj() - truth),
                        std::abs(device.power_tutor().total_mj() - truth));
  core::InvariantChecker contract(
      device.server(), {.energy_tolerance_mj = kContractToleranceMj});
  core::InvariantChecker stock(device.server());
  for (core::InvariantChecker* checker : {&contract, &stock}) {
    checker->attach(&device.battery_stats());
    checker->attach(&device.power_tutor());
  }
  if (const core::EAndroid* ea = device.eandroid(); ea != nullptr) {
    const core::EAndroidEngine& engine = ea->engine();
    double rows = engine.screen_row_mj() + engine.attributed_screen_mj() +
                  engine.system_row_mj();
    for (const kernelsim::Uid uid : engine.known_uids()) {
      rows += engine.direct_mj(uid);
    }
    err = std::max({err, std::abs(engine.true_total_mj() - truth),
                    std::abs(rows - engine.true_total_mj())});
    contract.attach(ea);
    stock.attach(ea);
  }
  result.conservation_err_mj = err;
  const core::InvariantReport report = contract.check();
  result.violations = report.violations.size();
  if (!report.ok()) result.first_violation = report.violations.front();
  const core::InvariantReport stock_report = stock.check();
  result.violations_default_tolerance = stock_report.violations.size();
  if (!stock_report.ok()) {
    result.first_default_tolerance_violation = stock_report.violations.front();
  }
  return result;
}

void record_device_check(Outcome& out, const DeviceCheck& check,
                         const std::string& what) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: conservation error %.3g mJ > %.3g mJ",
                what.c_str(), check.conservation_err_mj, kContractToleranceMj);
  out.check(check.conservation_err_mj <= kContractToleranceMj, buf);
  out.check(check.violations == 0,
            what + ": invariant violated: " + check.first_violation);
}

DeviceCounts& DeviceCounts::operator+=(const DeviceCounts& o) {
  events += o.events;
  ticks += o.ticks;
  generations += o.generations;
  opened += o.opened;
  closed += o.closed;
  binder_txns += o.binder_txns;
  binder_failed += o.binder_failed;
  binder_tokens += o.binder_tokens;
  battery_history += o.battery_history;
  return *this;
}

DeviceCounts read_counts(fleet::DeviceContext& device) {
  const core::WindowTracker& tracker = device.eandroid()->tracker();
  const kernelsim::BinderDriver& binder = device.server().binder();
  DeviceCounts c;
  c.events = device.sim().events_dispatched();
  c.ticks = device.sampler().slices_emitted();
  c.generations = tracker.generation() - 1;
  c.opened = tracker.opened_total();
  c.closed = tracker.closed_total();
  c.binder_txns = binder.total_transactions();
  c.binder_failed = binder.failed_total();
  c.binder_tokens = binder.token_count();
  c.battery_history = device.server().battery().history().size();
  return c;
}

void record_counts(Outcome& out, const DeviceCounts& c, double ops) {
  const auto num = [](std::uint64_t v) { return static_cast<double>(v); };
  out.set("sim.events", num(c.events));
  out.set("energy.ticks", num(c.ticks));
  out.set("core.windows_opened", num(c.opened));
  out.set("core.windows_closed", num(c.closed));
  out.set("core.ticks_per_generation",
          num(c.ticks) / num(std::max<std::uint64_t>(1, c.generations)));
  out.set("kernel.binder_txns_per_op", num(c.binder_txns) / std::max(1.0, ops));
  out.set("kernel.binder_failed", num(c.binder_failed));
  out.set("kernel.binder_tokens_live", num(c.binder_tokens));
  out.set("hw.battery_history_points", num(c.battery_history));
}

}  // namespace ledger
