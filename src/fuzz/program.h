// ScenarioProgram: a replayable, serializable framework-API call script.
//
// The scenario fuzzer's unit of work. A program is pure data — a fixed
// four-app cast plus a time-sorted list of Steps, each one framework
// operation (activity lifecycle, service bind/unbind, wakelocks,
// brightness, broadcasts/alarms, pushes, sensor sessions, charger state,
// fault injection) with small integer parameters. Programs are:
//
//   * replayable — ProgramExecutor (executor.h) schedules every step at
//     its absolute virtual instant on any DeviceContext, so the same
//     program runs identically on a Testbed, on every metering shape, and
//     on every device of a fleet;
//   * valid by construction — the Generator (generator.h) and validate()
//     below share one GrammarState abstract machine encoding the
//     grammar's preconditions: no op by a dead uid, no unbind without an
//     outstanding bind, no wakelock release without an acquire, no
//     sensor end without a begin, charger plug/unplug alternation;
//   * serializable — a line-based text form that round-trips exactly,
//     committed under tests/fuzz/corpus/ as regression reproducers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace eandroid::fuzz {

/// Apps in the fixed cast (see executor.h: com.fuzz.a .. com.fuzz.d).
inline constexpr int kCastSize = 4;
/// Cast roles, by index: 0 = victim (exported service + wakelock bug),
/// 1 = messenger (push endpoint, background CPU), 2 = camera app,
/// 3 = settings-privileged music app (brightness writes).
inline constexpr int kVictimApp = 0;
inline constexpr int kPushApp = 1;
inline constexpr int kSettingsApp = 3;

enum class OpKind : std::uint8_t {
  // User actions.
  kUserLaunch,       // launch actor's root activity (revives a dead actor)
  kUserHome,         // press home
  kUserBack,         // press back
  kUserTap,          // tap at (a, b)
  kUserUnlock,       // wake/unlock the screen
  kIncomingCall,     // incoming call for a seconds
  // Activities.
  kStartActivity,    // actor starts `other`'s root activity
  kFinishActivity,   // actor finishes its own root activity
  // Services (all target the victim's exported WorkService).
  kStartService,
  kStopService,
  kBindService,      // push one binding on the actor's stack
  kUnbindService,    // pop the actor's newest binding (requires one)
  kStartForeground,  // victim promotes its own service
  kStopForeground,
  // Power.
  kAcquireWakelock,  // a: 0 = partial, 1 = screen-bright; push on stack
  kReleaseWakelock,  // pop the actor's newest lock (requires one)
  // Screen settings (actor forced to the settings-privileged app).
  kSetBrightness,    // a in [0, 255]
  kSetScreenMode,    // a: 0 = auto, 1 = manual
  // Broadcasts & alarms.
  kRegisterReceiver, // register for com.fuzz.PING
  kSendBroadcast,    // send com.fuzz.PING
  kSetAlarm,         // a: delay seconds, b: 1 = repeating (5 s period)
  kCancelAlarm,      // cancel the actor's newest alarm (requires one)
  // Push & notifications.
  kSendPush,         // actor pushes a bytes to the push-endpoint app
  kPostNotification, // a: 0 = plain, 1 = full-screen; b: 1 = user taps it
  // Workload.
  kCpuBurst,         // a milliseconds of CPU
  kSensorBegin,      // a: 0 camera, 1 gps, 2 wifi, 3 audio; push session
  kSensorEnd,        // pop the actor's newest session of sensor a
  // Charger.
  kPlugCharger,      // requires discharging
  kUnplugCharger,    // requires charging
  // Fault injection (the adversarial corner of the scenario space).
  kKillApp,          // crash the actor's process
  kHangToggle,       // toggle the actor's main-thread hang (ANR bait)
  kBinderFailWindow, // next a binder transactions fail
  kDropBroadcasts,   // next a broadcast deliveries dropped
  kDelayAlarms,      // shift pending alarms a milliseconds later
  kBatteryExhaust,   // collapse the cell to 0% (ledger intact)
};

inline constexpr int kOpKindCount = 35;

/// Canonical token for the serialized form ("user_launch", "bind", ...).
const char* to_string(OpKind op);
/// Inverse of to_string; returns false on an unknown token.
bool op_from_string(const std::string& token, OpKind* out);
/// True when the op's `app` field names an acting cast member (false for
/// global ops — user gestures, charger, fault windows — whose app is 0).
bool op_has_actor(OpKind op);
/// True for the six fault-injection ops (the tail of OpKind, kKillApp on).
inline bool op_is_fault(OpKind op) { return op >= OpKind::kKillApp; }

struct Step {
  /// Absolute virtual instant, strictly increasing along the program.
  std::int64_t at_us = 0;
  OpKind op = OpKind::kUserLaunch;
  /// Primary actor (cast index). Ops with a fixed actor (brightness,
  /// foreground-service) must name it here anyway — validate() checks.
  std::uint8_t app = 0;
  /// Secondary cast index (kStartActivity's target); 0 otherwise.
  std::uint8_t other = 0;
  /// Op-specific small parameters (see OpKind comments); 0 when unused.
  std::int32_t a = 0;
  std::int32_t b = 0;

  bool operator==(const Step&) const = default;
};

/// The grammar's static (state-free) step check: op known, cast indices
/// in range, parameters inside the op's envelope, unused fields zero.
/// Returns false with a short reason in `why` (when non-null).
bool step_in_shape(const Step& step, std::string* why = nullptr);

struct ScenarioProgram {
  /// Generator seed (provenance only; replay never re-draws randomness).
  std::uint64_t seed = 0;
  /// Total run length; must be >= the last step's instant. The executor
  /// runs the tail so trailing asynchronous work (restarts, alarms,
  /// sample windows) settles inside the program, not after it.
  std::int64_t horizon_us = 0;
  std::vector<Step> steps;

  bool operator==(const ScenarioProgram&) const = default;

  /// Canonical text form; serialize(parse(serialize(p))) == serialize(p)
  /// byte for byte.
  [[nodiscard]] std::string serialize() const;
  /// Parses the canonical form. On failure returns false and, when
  /// `error` is non-null, a one-line description with the line number.
  static bool parse(const std::string& text, ScenarioProgram* out,
                    std::string* error = nullptr);
};

/// The grammar's abstract machine: the per-app state a program implies at
/// each step, used by the generator (emit only valid steps), validate()
/// (check a foreign program), and repair() (drop steps a shrink candidate
/// invalidated). Tracks liveness, hang flags, and the outstanding
/// bind/lock/alarm/session balances; deliberately coarser than the
/// simulator (it never predicts ANR kills or service restarts — the
/// executor is safe under any runtime divergence, the machine only
/// enforces the grammar's call discipline).
class GrammarState {
 public:
  GrammarState();

  /// True iff `step` satisfies every precondition in the current state
  /// (ignores Step::at_us — time monotonicity is validate()'s job).
  [[nodiscard]] bool step_valid(const Step& step) const;
  /// Applies a valid step's effects (kill clears the victim's balances,
  /// revival ops resurrect, plug/unplug flips the charger, ...).
  void apply(const Step& step);

  [[nodiscard]] bool alive(int app) const { return apps_[app].alive; }
  [[nodiscard]] bool hung(int app) const { return apps_[app].hung; }
  [[nodiscard]] bool charging() const { return charging_; }
  [[nodiscard]] int bindings(int app) const { return apps_[app].bindings; }
  [[nodiscard]] int locks(int app) const { return apps_[app].locks; }
  [[nodiscard]] int alarms(int app) const { return apps_[app].alarms; }
  [[nodiscard]] int sessions(int app, int sensor) const {
    return apps_[app].sessions[sensor];
  }

 private:
  struct AppState {
    bool alive = true;  // installed uids start eligible (spawn-on-demand)
    bool hung = false;
    int bindings = 0;
    int locks = 0;
    int alarms = 0;
    int sessions[4] = {0, 0, 0, 0};
  };
  AppState apps_[kCastSize];
  bool charging_ = false;
};

/// Full grammar check: cast indices in range, parameters in range, time
/// strictly increasing and positive, horizon covering the last step, and
/// every step valid under the GrammarState machine. Returns true when
/// clean; otherwise false with one "step N: why" line per problem in
/// `problems` (when non-null).
bool validate(const ScenarioProgram& program,
              std::vector<std::string>* problems = nullptr);

/// Drops every step that is invalid in its (possibly shrunken) context,
/// walking the abstract machine forward — the shrinker's candidate
/// normalizer: removing a kBindService drags the now-unmatched
/// kUnbindService out with it instead of producing an invalid program.
/// Also clamps horizon_us to cover the last surviving step. The result
/// always satisfies validate() if the input's times were sorted.
[[nodiscard]] ScenarioProgram repair(const ScenarioProgram& program);

}  // namespace eandroid::fuzz
