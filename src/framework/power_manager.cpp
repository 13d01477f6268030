#include "framework/power_manager.h"

#include <algorithm>
#include <utility>

namespace eandroid::framework {

PowerManagerService::PowerManagerService(
    sim::Simulator& sim, const hw::PowerParams& params, hw::Screen& screen,
    kernelsim::ProcessTable& processes, kernelsim::BinderDriver& binder,
    kernelsim::CpuScheduler& cpu, PackageManager& packages, EventBus& events)
    : sim_(sim),
      params_(params),
      screen_(screen),
      processes_(processes),
      binder_(binder),
      cpu_(cpu),
      packages_(packages),
      events_(events),
      last_user_activity_(sim.now()) {
  screen_.set_on(true);
  arm_timeout();
}

std::optional<WakelockId> PowerManagerService::acquire(
    kernelsim::Uid owner, kernelsim::Pid owner_pid, WakelockType type,
    std::string tag, sim::Duration timeout) {
  if (!packages_.is_system_app(owner) &&
      !packages_.has_permission(owner, Permission::kWakeLock)) {
    return std::nullopt;
  }
  const WakelockId id{next_id_++};
  held_.emplace(id.id, WakelockInfo{id, owner, owner_pid, type,
                                    std::move(tag), sim_.now()});

  // Register the lock against the owner's death: only the kernel Binder
  // driver's obituary (or an explicit release) frees it.
  const kernelsim::BinderToken token = binder_.mint_token(owner_pid);
  tokens_[id.id] = token;
  lock_by_token_[token.id] = id.id;
  binder_.link_to_death(token, [this](kernelsim::BinderToken t) {
    auto it = lock_by_token_.find(t.id);
    if (it == lock_by_token_.end()) return;
    release_internal(WakelockId{it->second}, /*by_death=*/true);
  });

  FwEvent event;
  event.type = FwEventType::kWakelockAcquire;
  event.when = sim_.now();
  event.driving = owner;
  event.handle = id.id;
  event.screen_wakelock = keeps_screen_on(type);
  events_.publish(event);

  if (timeout > sim::Duration(0)) {
    sim_.schedule(timeout, [this, id] {
      release_internal(id, /*by_death=*/false);
    });
  }

  reevaluate();
  return id;
}

bool PowerManagerService::release(kernelsim::Uid owner, WakelockId id) {
  auto it = held_.find(id.id);
  if (it == held_.end() || it->second.owner != owner) return false;
  release_internal(id, /*by_death=*/false);
  return true;
}

void PowerManagerService::release_internal(WakelockId id, bool by_death) {
  auto it = held_.find(id.id);
  if (it == held_.end()) return;
  const WakelockInfo info = it->second;
  held_.erase(it);
  auto tit = tokens_.find(id.id);
  if (tit != tokens_.end()) {
    if (!by_death) binder_.unlink_to_death(tit->second);
    lock_by_token_.erase(tit->second.id);
    tokens_.erase(tit);
  }

  FwEvent event;
  event.type = FwEventType::kWakelockRelease;
  event.when = sim_.now();
  event.driving = info.owner;
  event.handle = id.id;
  event.screen_wakelock = keeps_screen_on(info.type);
  events_.publish(event);

  reevaluate();
}

void PowerManagerService::user_activity() {
  last_user_activity_ = sim_.now();
  arm_timeout();
  reevaluate();
}

bool PowerManagerService::screen_forced_by_wakelock() const {
  if (!screen_.on()) return false;
  const bool user_window_active =
      sim_.now() - last_user_activity_ < params_.screen_timeout;
  if (user_window_active) return false;
  for (const auto& [id, info] : held_) {
    if (keeps_screen_on(info.type)) return true;
  }
  return false;
}

const WakelockInfo* PowerManagerService::find(WakelockId id) const {
  auto it = held_.find(id.id);
  return it == held_.end() ? nullptr : &it->second;
}

std::vector<const WakelockInfo*> PowerManagerService::held_by(
    kernelsim::Uid uid) const {
  std::vector<const WakelockInfo*> out;
  for (const auto& [id, info] : held_) {
    if (info.owner == uid) out.push_back(&info);
  }
  return out;
}

std::vector<kernelsim::Uid> PowerManagerService::screen_wakelock_owners()
    const {
  std::vector<kernelsim::Uid> out;
  screen_wakelock_owners_into(out);
  return out;
}

void PowerManagerService::screen_wakelock_owners_into(
    std::vector<kernelsim::Uid>& out) const {
  out.clear();
  for (const auto& [id, info] : held_) {
    if (keeps_screen_on(info.type)) out.push_back(info.owner);
  }
  std::sort(out.begin(), out.end());
}

void PowerManagerService::arm_timeout() {
  sim_.cancel(timeout_event_);
  timeout_event_ =
      sim_.schedule(params_.screen_timeout, [this] { reevaluate(); });
}

void PowerManagerService::reevaluate() {
  const bool user_window_active =
      sim_.now() - last_user_activity_ < params_.screen_timeout;
  bool any_screen_lock = false;
  bool any_lock = !held_.empty();
  for (const auto& [id, info] : held_) {
    if (keeps_screen_on(info.type)) any_screen_lock = true;
  }

  const bool want_screen = user_window_active || any_screen_lock;
  if (want_screen != screen_.on()) {
    screen_.set_on(want_screen);
    FwEvent event;
    event.type = want_screen ? FwEventType::kScreenOn : FwEventType::kScreenOff;
    event.when = sim_.now();
    event.driving = kernelsim::kSystemUid;
    events_.publish(event);
  }

  // Deep sleep: screen off and nobody holding the CPU awake.
  const bool want_suspend = !want_screen && !any_lock;
  if (want_suspend != cpu_.suspended()) {
    cpu_.set_suspended(want_suspend);
  }
}

}  // namespace eandroid::framework
