#include "fuzz/chaos.h"

#include <cstdio>

#include "apps/testbed.h"
#include "fuzz/executor.h"
#include "fuzz/generator.h"

namespace eandroid::fuzz {

namespace {
/// Settle time after the last step: covers the maximum service-restart
/// backoff (64 s) and any pending ANR check.
constexpr std::int64_t kSettleUs = 70'000'000;

void append_u64(std::string& out, const char* key, std::uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%llu ", key,
                static_cast<unsigned long long>(value));
  out += buf;
}

void append_f64(std::string& out, const char* key, double value) {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%s=%.17g ", key, value);
  out += buf;
}
}  // namespace

std::string ChaosResult::digest() const {
  std::string out;
  append_u64(out, "seed", seed);
  append_u64(out, "injected", faults_injected);
  append_u64(out, "restarts", service_restarts);
  append_u64(out, "anr", anr_kills);
  append_u64(out, "binder_fail", binder_failures);
  append_u64(out, "bcast_drop", broadcasts_dropped);
  append_u64(out, "alarm_delay", alarms_delayed);
  append_u64(out, "steps", workload_steps);
  append_u64(out, "win_open", windows_opened);
  append_u64(out, "win_close", windows_closed);
  append_f64(out, "sim_s", sim_seconds);
  append_f64(out, "consumed_mj", consumed_mj);
  append_f64(out, "ea_mj", ea_total_mj);
  append_u64(out, "violations", violations.size());
  return out;
}

ScenarioProgram chaos_program(const ChaosOptions& options) {
  return generate({.seed = options.seed,
                   .min_steps = options.steps,
                   .max_steps = options.steps,
                   .tail_us = kSettleUs});
}

ChaosResult run_chaos(const ChaosOptions& options) {
  return run_chaos(chaos_program(options), options.obs);
}

ChaosResult run_chaos(const ScenarioProgram& program,
                      const obs::ObsOptions& obs) {
  apps::Testbed bed({.seed = program.seed, .obs = obs});
  install_cast(bed);
  bed.start();
  ProgramExecutor executor(bed, program);
  executor.run();
  executor.check_now("end state");

  framework::SystemServer& server = bed.server();
  ChaosResult result;
  result.seed = program.seed;
  result.plan = program.serialize();
  result.faults_injected = executor.faults_applied();
  result.service_restarts = server.services().restarts_total();
  result.anr_kills = server.anr_kills();
  result.binder_failures = server.binder().failed_total();
  result.broadcasts_dropped = server.broadcasts().dropped_total();
  result.alarms_delayed = server.alarms().delayed_total();
  result.workload_steps = executor.steps_applied();
  result.windows_opened = bed.eandroid()->tracker().opened_total();
  result.windows_closed = bed.eandroid()->tracker().closed_total();
  result.sim_seconds = bed.sim().now().seconds();
  result.consumed_mj = server.battery().consumed_total_mj();
  result.ea_total_mj = bed.eandroid()->engine().true_total_mj();
  result.violations = executor.violations();
  result.trace_text = bed.trace_text();
  return result;
}

}  // namespace eandroid::fuzz
