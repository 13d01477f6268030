#include "framework/system_server.h"

#include <utility>

#include "sim/check.h"

namespace eandroid::framework {

namespace {
/// Placeholder code object for system packages with no scripted behaviour.
class NoopAppCode : public AppCode {};

std::shared_ptr<const hw::PowerParams> checked_params(
    std::shared_ptr<const hw::PowerParams> params) {
  EANDROID_CHECK(params != nullptr, "SystemServer needs non-null PowerParams");
  return params;
}

obs::TraceCategory trace_category_of(FwEventType type) {
  switch (type) {
    case FwEventType::kBrightnessChange:
    case FwEventType::kScreenModeChange:
    case FwEventType::kScreenOn:
    case FwEventType::kScreenOff:
    case FwEventType::kWakelockAcquire:
    case FwEventType::kWakelockRelease:
      return obs::TraceCategory::kPower;
    case FwEventType::kAnr:
      return obs::TraceCategory::kRecovery;
    default:
      return obs::TraceCategory::kLifecycle;
  }
}
}  // namespace

SystemServer::SystemServer(sim::Simulator& sim,
                           std::shared_ptr<const hw::PowerParams> params,
                           obs::ObsOptions obs)
    : sim_(sim),
      params_(checked_params(std::move(params))),
      obs_(obs),
      obs_binder_(sim_, obs_),
      processes_(),
      binder_(sim_, processes_),
      cpu_(sim_, processes_, params_->cpu_cores, &ids_),
      screen_(*params_),
      camera_(sim_, "camera", params_->camera_active_mw,
              params_->camera_tail_mw, params_->camera_tail),
      gps_(sim_, "gps", params_->gps_active_mw, params_->gps_tail_mw,
           params_->gps_tail),
      wifi_(sim_, "wifi", params_->wifi_active_mw, params_->wifi_tail_mw,
            params_->wifi_tail),
      audio_(sim_, "audio", params_->audio_active_mw, params_->audio_tail_mw,
             params_->audio_tail),
      battery_(params_->battery_capacity_mwh),
      events_(),
      packages_(),
      settings_(sim_, screen_, packages_, events_),
      power_(sim_, *params_, screen_, processes_, binder_, cpu_, packages_,
             events_),
      windows_(sim_),
      services_(sim_, packages_, processes_, binder_, *this, events_),
      activities_(sim_, packages_, processes_, binder_, *this, events_, power_,
                  windows_),
      broadcasts_(sim_, packages_, binder_, cpu_, *this, events_),
      alarms_(sim_, *this, events_),
      push_(sim_, packages_, binder_, cpu_, wifi_, *this, events_),
      lmk_(sim_, processes_, packages_, activities_, services_, power_, *this,
           events_),
      notifications_(sim_, packages_, activities_) {
  // Observability glue: one EventBus subscription mirrors every framework
  // event into the trace (with the event type's interned name, uid =
  // driven app, arg = driving app) and bumps the bus counter. Names are
  // interned up front so the listener itself is allocation-free.
  fw_bus_metric_ = obs_.metrics().counter("fw.bus_events");
  anr_metric_ = obs_.metrics().counter("fw.anr_kills");
  if (obs::TraceRecorder* tr = obs_.trace()) {
    constexpr int kFwTypes = static_cast<int>(FwEventType::kAnr) + 1;
    fw_trace_names_.reserve(kFwTypes);
    std::string name;
    for (int i = 0; i < kFwTypes; ++i) {
      name = "fw.";
      name += to_string(static_cast<FwEventType>(i));
      fw_trace_names_.push_back(tr->intern(name));
    }
    events_.subscribe([this, tr](const FwEvent& event) {
      tr->record(trace_category_of(event.type),
                 fw_trace_names_[static_cast<int>(event.type)],
                 event.driven.value, event.driving.value,
                 event.when.micros());
      obs_.metrics().add(fw_bus_metric_);
    });
  } else {
    events_.subscribe(
        [this](const FwEvent&) { obs_.metrics().add(fw_bus_metric_); });
  }
  windows_.set_foreground_name_provider([this]() -> std::string {
    const ActivityRecord* fg = activities_.foreground_activity();
    return fg == nullptr ? std::string() : fg->package + "/" + fg->name;
  });
  processes_.add_death_observer([this](const kernelsim::ProcessInfo& info) {
    camera_.end_sessions_of(info.uid);
    gps_.end_sessions_of(info.uid);
    wifi_.end_sessions_of(info.uid);
    audio_.end_sessions_of(info.uid);
    auto it = contexts_.find(info.uid);
    if (it != contexts_.end()) it->second->on_process_died();
    process_of_.erase(info.uid);
    // A killed app's queued main-thread work is dropped, and marking all
    // of it drained disarms any in-flight ANR checks so they cannot kill
    // a re-spawned process for its predecessor's hang.
    hung_.erase(info.uid);
    if (auto qit = main_queues_.find(info.uid); qit != main_queues_.end()) {
      qit->second.pending.clear();
      qit->second.drained = qit->second.enqueued;
    }
    if (AppCode* code = packages_.code_for(info.uid)) {
      code->on_process_death();
    }
    // Published last, after every subsystem's death cleanup (binder
    // obituaries, stack teardown, service teardown) has completed.
    FwEvent event;
    event.type = FwEventType::kAppDestroyed;
    event.when = sim_.now();
    event.driving = info.uid;
    event.driven = info.uid;
    events_.publish(event);
  });
}

SystemServer::~SystemServer() {
  // The Simulator may outlive this server (tests build several servers on
  // one sim); its trace/metrics pointers alias obs_, which dies with us.
  sim_.set_observability(nullptr, nullptr);
}

kernelsim::Uid SystemServer::install(Manifest manifest,
                                     std::unique_ptr<AppCode> code) {
  return packages_.install(std::move(manifest), std::move(code),
                           /*system_app=*/false);
}

kernelsim::Uid SystemServer::install(std::shared_ptr<const Manifest> manifest,
                                     std::unique_ptr<AppCode> code) {
  return packages_.install(std::move(manifest), std::move(code),
                           /*system_app=*/false);
}

void SystemServer::boot() {
  Manifest launcher;
  launcher.package = kLauncherPackage;
  launcher.activities.push_back(ActivityDecl{"Home", /*exported=*/true, {}});
  launcher_uid_ = packages_.install(std::move(launcher),
                                    std::make_unique<NoopAppCode>(),
                                    /*system_app=*/true);

  Manifest systemui;
  systemui.package = kSystemUiPackage;
  systemui.activities.push_back(
      ActivityDecl{"StatusBar", /*exported=*/false, {}});
  systemui_uid_ = packages_.install(std::move(systemui),
                                    std::make_unique<NoopAppCode>(),
                                    /*system_app=*/true);

  Manifest phone;
  phone.package = kPhonePackage;
  phone.activities.push_back(ActivityDecl{"InCall", /*exported=*/false, {}});
  phone.permissions.push_back(Permission::kWakeLock);
  phone_uid_ = packages_.install(std::move(phone),
                                 std::make_unique<NoopAppCode>(),
                                 /*system_app=*/true);

  activities_.boot(kLauncherPackage);
  broadcasts_.send_broadcast(kernelsim::kSystemUid, kActionBootCompleted,
                             /*by_system=*/true);
}

void SystemServer::plug_charger(double rate_mw) {
  battery_.set_charging(true, rate_mw);
  power_.user_activity();  // the screen lights up when plugged
  broadcasts_.send_broadcast(kernelsim::kSystemUid, kActionPowerConnected,
                             /*by_system=*/true);
}

void SystemServer::unplug_charger() {
  battery_.set_charging(false);
  broadcasts_.send_broadcast(kernelsim::kSystemUid, kActionPowerDisconnected,
                             /*by_system=*/true);
}

void SystemServer::user_unlock() {
  power_.user_activity();
  broadcasts_.send_broadcast(kernelsim::kSystemUid, kActionUserPresent,
                             /*by_system=*/true);
}

void SystemServer::simulate_incoming_call(sim::Duration duration) {
  ensure_process(phone_uid_);
  // The phone UI pops over whatever is foreground; the prior activity is
  // paused/stopped exactly like any interrupting activity, but since the
  // phone is a system app E-Android opens no attack window for it.
  activities_.start_activity(
      phone_uid_, Intent::explicit_for(kPhonePackage, "InCall"));
  power_.user_activity();  // ringing lights the screen
  sim_.schedule(duration, [this] {
    activities_.finish_activity(phone_uid_, "InCall");
  });
}

void SystemServer::user_tap(int x, int y) {
  power_.user_activity();

  // Touch routing: a transparent top activity wins (it covers the whole
  // screen — attack #4's overlay), then the topmost dialog, then the
  // foreground activity.
  const ActivityRecord* fg = activities_.foreground_activity();
  if (fg != nullptr && fg->transparent) {
    if (AppCode* code = code_of(fg->uid);
        code != nullptr && pid_of(fg->uid).valid()) {
      code->on_touch(context_of(fg->uid), x, y);
    }
    return;
  }
  if (const Dialog* dialog = windows_.top_dialog()) {
    const bool ok = std::abs(x - dialog->ok_x) <= 60 &&
                    std::abs(y - dialog->ok_y) <= 60;
    const Dialog copy = *dialog;
    windows_.dismiss_dialog(copy.id);
    if (AppCode* code = code_of(copy.owner);
        code != nullptr && pid_of(copy.owner).valid()) {
      code->on_dialog_result(context_of(copy.owner), copy.name, ok);
    }
    return;
  }
  if (fg != nullptr) {
    if (AppCode* code = code_of(fg->uid);
        code != nullptr && pid_of(fg->uid).valid()) {
      code->on_touch(context_of(fg->uid), x, y);
    }
  }
}

void SystemServer::user_set_brightness(int value) {
  settings_.set_brightness(systemui_uid_, value, /*by_user=*/true);
}

void SystemServer::user_set_screen_mode(BrightnessMode mode) {
  settings_.set_mode(systemui_uid_, mode, /*by_user=*/true);
}

void SystemServer::post_to_main(kernelsim::Uid uid,
                                std::function<void()> deliver) {
  if (!hung_.contains(uid)) {
    deliver();
    return;
  }
  MainQueue& queue = main_queues_[uid];
  queue.pending.push_back(std::move(deliver));
  const std::uint64_t seq = ++queue.enqueued;
  // One-shot watchdog for this specific delivery: if it is still parked
  // when the timer fires, the app has not responded for the full window.
  sim_.schedule(kAnrTimeout, [this, uid, seq] {
    auto it = main_queues_.find(uid);
    if (it == main_queues_.end() || it->second.drained >= seq) return;
    if (!pid_of(uid).valid()) return;
    ++anr_kills_;
    obs_.metrics().add(anr_metric_);
    FwEvent event;
    event.type = FwEventType::kAnr;
    event.when = sim_.now();
    event.driving = uid;
    event.driven = uid;
    event.component = "anr";
    events_.publish(event);
    kill_app(uid);  // death observer drops the queue and hang mark
  });
}

void SystemServer::set_app_hung(kernelsim::Uid uid, bool hung) {
  EANDROID_CHECK(packages_.find(uid) != nullptr,
                 "set_app_hung for unknown uid " << uid.value);
  if (hung) {
    if (pid_of(uid).valid()) hung_.insert(uid);
    return;
  }
  hung_.erase(uid);
  drain_main_queue(uid);
}

void SystemServer::drain_main_queue(kernelsim::Uid uid) {
  auto it = main_queues_.find(uid);
  if (it == main_queues_.end()) return;
  // Deliveries may enqueue further work (or re-hang the app); loop until
  // the queue is empty or the app is hung again.
  while (!it->second.pending.empty() && !hung_.contains(uid)) {
    std::function<void()> deliver = std::move(it->second.pending.front());
    it->second.pending.erase(it->second.pending.begin());
    ++it->second.drained;
    deliver();
    it = main_queues_.find(uid);
    if (it == main_queues_.end()) return;
  }
}

std::size_t SystemServer::main_queue_depth(kernelsim::Uid uid) const {
  auto it = main_queues_.find(uid);
  return it == main_queues_.end() ? 0 : it->second.pending.size();
}

kernelsim::Pid SystemServer::ensure_process(kernelsim::Uid uid) {
  auto it = process_of_.find(uid);
  if (it != process_of_.end() && processes_.alive(it->second)) {
    return it->second;
  }
  const PackageRecord* pkg = packages_.find(uid);
  EANDROID_CHECK(pkg != nullptr,
                 "ensure_process for unknown uid " << uid.value);
  const kernelsim::Pid pid = processes_.spawn(uid, pkg->manifest->package);
  process_of_[uid] = pid;
  if (!contexts_.contains(uid)) {
    contexts_[uid] =
        std::make_unique<Context>(*this, uid, pkg->manifest->package);
  }
  if (pkg->code != nullptr) {
    pkg->code->on_process_start(*contexts_[uid]);
  }
  // Memory pressure: reclaim cached processes (never the one we just
  // brought up).
  lmk_.maybe_reclaim(uid);
  return pid;
}

kernelsim::Pid SystemServer::pid_of(kernelsim::Uid uid) const {
  auto it = process_of_.find(uid);
  if (it == process_of_.end() || !processes_.alive(it->second)) {
    return kernelsim::Pid{};
  }
  return it->second;
}

AppCode* SystemServer::code_of(kernelsim::Uid uid) {
  return packages_.code_for(uid);
}

Context& SystemServer::context_of(kernelsim::Uid uid) {
  auto it = contexts_.find(uid);
  if (it == contexts_.end()) {
    const PackageRecord* pkg = packages_.find(uid);
    EANDROID_CHECK(pkg != nullptr,
                   "context_of for unknown uid " << uid.value);
    it = contexts_
             .emplace(uid, std::make_unique<Context>(*this, uid,
                                                     pkg->manifest->package))
             .first;
  }
  return *it->second;
}

void SystemServer::kill_app(kernelsim::Uid uid) {
  EANDROID_CHECK(packages_.find(uid) != nullptr,
                 "kill_app for unknown uid " << uid.value);
  // Killing an app with no live process is a no-op, not an error: death
  // races (LMK, ANR, fault injection) make double-kills routine.
  if (!pid_of(uid).valid()) return;
  processes_.kill_uid(uid);
}

}  // namespace eandroid::framework
