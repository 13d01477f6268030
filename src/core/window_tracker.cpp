#include "core/window_tracker.h"

#include <algorithm>

#include "framework/push_service.h"

namespace eandroid::core {

namespace {
constexpr std::size_t kTraceCap = 4096;
}

const char* to_string(WindowKind kind) {
  switch (kind) {
    case WindowKind::kActivity: return "activity";
    case WindowKind::kInterrupt: return "interrupt";
    case WindowKind::kService: return "service";
    case WindowKind::kScreen: return "screen";
    case WindowKind::kWakelock: return "wakelock";
    case WindowKind::kPush: return "push";
  }
  return "?";
}

WindowTracker::WindowTracker(framework::SystemServer& server)
    : server_(server) {
  server_.events().subscribe(
      [this](const framework::FwEvent& event) { handle(event); });
}

bool WindowTracker::is_system(kernelsim::Uid uid) const {
  return !uid.valid() || server_.packages().is_system_app(uid);
}

kernelsim::Uid WindowTracker::foreground() const {
  return server_.activities().foreground_uid();
}

Window& WindowTracker::open_window(WindowKind kind, kernelsim::Uid driver,
                                   kernelsim::Uid driven,
                                   const char* reason) {
  const std::uint64_t id = next_window_++;
  Window window;
  window.id = id;
  window.kind = kind;
  window.driver = driver;
  window.driven = driven;
  window.opened = server_.simulator().now();
  auto [it, inserted] = windows_.emplace(id, std::move(window));
  ++opened_total_;
  ++generation_;
  if (trace_.size() < kTraceCap) {
    trace_.push_back(WindowTrace{true, kind, driver, driven,
                                 server_.simulator().now(), reason});
  }
  return it->second;
}

void WindowTracker::close_window(std::uint64_t id, const char* reason) {
  auto it = windows_.find(id);
  if (it == windows_.end()) return;
  const Window window = it->second;
  windows_.erase(it);
  ++closed_total_;
  ++generation_;
  if (trace_.size() < kTraceCap) {
    trace_.push_back(WindowTrace{false, window.kind, window.driver,
                                 window.driven, server_.simulator().now(),
                                 reason});
  }
}

bool WindowTracker::has_window(WindowKind kind, kernelsim::Uid driver,
                               kernelsim::Uid driven) const {
  return find_window(kind, driver, driven) != nullptr;
}

const Window* WindowTracker::find_window(WindowKind kind,
                                         kernelsim::Uid driver,
                                         kernelsim::Uid driven) const {
  for (const auto& [id, window] : windows_) {
    if (window.kind == kind && window.driver == driver &&
        window.driven == driven) {
      return &window;
    }
  }
  return nullptr;
}

void WindowTracker::handle(const framework::FwEvent& event) {
  if (!enabled_) return;
  using framework::FwEventType;
  switch (event.type) {
    case FwEventType::kActivityStart: on_activity_start(event); break;
    case FwEventType::kActivityMoveToFront: on_move_to_front(event); break;
    case FwEventType::kActivityInterrupt: on_interrupt(event); break;
    case FwEventType::kForegroundChange: on_foreground_change(event); break;
    case FwEventType::kServiceStart:
    case FwEventType::kServiceStop:
    case FwEventType::kServiceStopSelf:
    case FwEventType::kServiceBind:
    case FwEventType::kServiceUnbind: on_service_event(event); break;
    case FwEventType::kBrightnessChange: on_brightness_change(event); break;
    case FwEventType::kScreenModeChange: on_mode_change(event); break;
    case FwEventType::kWakelockAcquire: on_wakelock_acquire(event); break;
    case FwEventType::kWakelockRelease: on_wakelock_release(event); break;
    case FwEventType::kAppDestroyed: on_app_destroyed(event); break;
    case FwEventType::kPushDelivered: on_push(event); break;
    default: break;
  }
}

void WindowTracker::on_activity_start(const framework::FwEvent& event) {
  // Fig 5a: any (re)start of the driven app ends running activity windows
  // on it — "the attack period lasts till the next time the driven app is
  // started".
  std::vector<std::uint64_t> to_close;
  for (const auto& [id, window] : windows_) {
    if (window.kind == WindowKind::kActivity && window.driven == event.driven) {
      to_close.push_back(id);
    }
  }
  for (std::uint64_t id : to_close) close_window(id, "driven app restarted");

  // A new window opens when a *different, non-system* app drives the
  // start and the driven app is a normal app.
  if (event.by_user) return;
  if (event.driving == event.driven) return;
  if (is_system(event.driving) || is_system(event.driven)) return;
  Window& window = open_window(WindowKind::kActivity, event.driving,
                               event.driven, "cross-app startActivity");
  window.component = event.component;
}

void WindowTracker::on_move_to_front(const framework::FwEvent& event) {
  // Fig 5a: "the attack ends when the app is moved to front"; a non-user,
  // cross-app reorder immediately opens a fresh window.
  std::vector<std::uint64_t> to_close;
  for (const auto& [id, window] : windows_) {
    if (window.kind == WindowKind::kActivity && window.driven == event.driven) {
      to_close.push_back(id);
    }
  }
  for (std::uint64_t id : to_close) close_window(id, "driven moved to front");

  if (event.by_user) return;
  if (event.driving == event.driven) return;
  if (is_system(event.driving) || is_system(event.driven)) return;
  open_window(WindowKind::kActivity, event.driving, event.driven,
              "cross-app moveTaskToFront");
}

void WindowTracker::on_interrupt(const framework::FwEvent& event) {
  if (event.by_user) return;
  if (is_system(event.driving) || is_system(event.driven)) return;
  if (event.driving == event.driven) return;
  if (has_window(WindowKind::kInterrupt, event.driving, event.driven)) return;
  open_window(WindowKind::kInterrupt, event.driving, event.driven,
              "foreground app interrupted");
}

void WindowTracker::on_foreground_change(const framework::FwEvent& event) {
  const kernelsim::Uid new_fg = event.driven;
  const kernelsim::Uid old_fg = event.driving;

  // Fig 5b: interrupt windows end when the driven app is back in front.
  std::vector<std::uint64_t> to_close;
  for (const auto& [id, window] : windows_) {
    if (window.kind == WindowKind::kInterrupt && window.driven == new_fg) {
      to_close.push_back(id);
    }
  }
  for (std::uint64_t id : to_close) close_window(id, "driven app resumed");

  // Fig 5e: a wakelock not released before its holder enters background
  // starts a wakelock collateral window.
  if (old_fg.valid() && !is_system(old_fg)) {
    for (const auto& [handle, lock] : held_locks_) {
      if (lock.owner != old_fg || !lock.screen) continue;
      const bool already =
          std::any_of(windows_.begin(), windows_.end(), [&](const auto& kv) {
            return kv.second.kind == WindowKind::kWakelock &&
                   kv.second.wakelock_handle == handle;
          });
      if (already) continue;
      Window& window = open_window(WindowKind::kWakelock, old_fg,
                                   kernelsim::Uid{}, "holder left foreground");
      window.wakelock_handle = handle;
    }
  }
}

void WindowTracker::on_service_event(const framework::FwEvent& event) {
  using framework::FwEventType;
  const bool cross = event.driving != event.driven &&
                     !is_system(event.driving) && !is_system(event.driven);

  auto find_service_window = [&](kernelsim::Uid driver) -> Window* {
    for (auto& [id, window] : windows_) {
      if (window.kind == WindowKind::kService && window.driver == driver &&
          window.driven == event.driven &&
          window.component == event.component) {
        return &window;
      }
    }
    return nullptr;
  };

  switch (event.type) {
    case FwEventType::kServiceStart: {
      if (!cross) return;
      Window* window = find_service_window(event.driving);
      if (window == nullptr) {
        window = &open_window(WindowKind::kService, event.driving,
                              event.driven, "cross-app startService");
        window->component = event.component;
      }
      window->started = true;
      break;
    }
    case FwEventType::kServiceStop:
    case FwEventType::kServiceStopSelf: {
      // stopService/stopSelf clears the started leg on every driver's
      // window for this service; bindings keep the window open (Fig 5c).
      std::vector<std::uint64_t> to_close;
      for (auto& [id, window] : windows_) {
        if (window.kind != WindowKind::kService ||
            window.driven != event.driven ||
            window.component != event.component) {
          continue;
        }
        window.started = false;
        if (window.bindings.empty()) to_close.push_back(id);
      }
      for (std::uint64_t id : to_close) close_window(id, "service stopped");
      break;
    }
    case FwEventType::kServiceBind: {
      if (!cross) return;
      Window* window = find_service_window(event.driving);
      if (window == nullptr) {
        window = &open_window(WindowKind::kService, event.driving,
                              event.driven, "cross-app bindService");
        window->component = event.component;
      }
      window->bindings.insert(event.handle);
      break;
    }
    case FwEventType::kServiceUnbind: {
      std::vector<std::uint64_t> to_close;
      for (auto& [id, window] : windows_) {
        if (window.kind != WindowKind::kService) continue;
        window.bindings.erase(event.handle);
        if (window.driven == event.driven &&
            window.component == event.component && !window.started &&
            window.bindings.empty()) {
          to_close.push_back(id);
        }
      }
      for (std::uint64_t id : to_close) close_window(id, "unbound");
      break;
    }
    default: break;
  }
}

void WindowTracker::on_brightness_change(const framework::FwEvent& event) {
  if (event.by_user || is_system(event.driving)) {
    // "Brightness changed by system UI (i.e., operated by users)" closes
    // every screen window — the user has taken control back.
    std::vector<std::uint64_t> to_close;
    for (const auto& [id, window] : windows_) {
      if (window.kind == WindowKind::kScreen) to_close.push_back(id);
    }
    for (std::uint64_t id : to_close) close_window(id, "user set brightness");
    return;
  }

  Window* mine = nullptr;
  for (auto& [id, window] : windows_) {
    if (window.kind == WindowKind::kScreen && window.driver == event.driving) {
      mine = &window;
      break;
    }
  }

  if (event.brightness_after > event.brightness_before) {
    // Fig 5d begin: enhance brightness under manual mode.
    if (mine == nullptr) {
      Window& window = open_window(WindowKind::kScreen, event.driving,
                                   kernelsim::Uid{}, "brightness increased");
      window.baseline_brightness = event.brightness_before;
    }
    return;
  }

  // Decrease by the attacking app: over once back at (or below) baseline.
  if (mine != nullptr && event.brightness_after <= mine->baseline_brightness) {
    close_window(mine->id, "attacker restored brightness");
  }
}

void WindowTracker::on_mode_change(const framework::FwEvent& event) {
  if (!event.to_manual_mode) {
    // Switching into auto ends all screen windows.
    std::vector<std::uint64_t> to_close;
    for (const auto& [id, window] : windows_) {
      if (window.kind == WindowKind::kScreen) to_close.push_back(id);
    }
    for (std::uint64_t id : to_close) close_window(id, "switched to auto");
    return;
  }
  if (event.by_user || is_system(event.driving)) return;
  // An app forcing manual mode is the second Fig 5d begin event. The
  // baseline is the panel level at this instant (the mode-change event is
  // published before the stored manual value is applied).
  const bool already =
      std::any_of(windows_.begin(), windows_.end(), [&](const auto& kv) {
        return kv.second.kind == WindowKind::kScreen &&
               kv.second.driver == event.driving;
      });
  if (already) return;
  Window& window = open_window(WindowKind::kScreen, event.driving,
                               kernelsim::Uid{}, "forced manual mode");
  window.baseline_brightness = server_.screen().brightness();
}

void WindowTracker::on_wakelock_acquire(const framework::FwEvent& event) {
  held_locks_[event.handle] =
      HeldLock{event.driving, event.screen_wakelock};
  if (!event.screen_wakelock) return;
  if (is_system(event.driving)) return;
  // Fig 5e begin: acquiring while not in foreground (e.g. from a service).
  if (foreground() == event.driving) return;
  Window& window = open_window(WindowKind::kWakelock, event.driving,
                               kernelsim::Uid{}, "acquired in background");
  window.wakelock_handle = event.handle;
}

void WindowTracker::on_wakelock_release(const framework::FwEvent& event) {
  held_locks_.erase(event.handle);
  std::vector<std::uint64_t> to_close;
  for (const auto& [id, window] : windows_) {
    if (window.kind == WindowKind::kWakelock &&
        window.wakelock_handle == event.handle) {
      to_close.push_back(id);
    }
  }
  for (std::uint64_t id : to_close) close_window(id, "wakelock released");
}

void WindowTracker::on_push(const framework::FwEvent& event) {
  // Extension: a push wakes the receiver; its handling cost (CPU burst,
  // radio tail) is collateral to the sender for a bounded window.
  if (event.by_user) return;
  if (event.driving == event.driven) return;
  if (is_system(event.driving) || is_system(event.driven)) return;
  Window& window = open_window(WindowKind::kPush, event.driving, event.driven,
                               "push delivered");
  const std::uint64_t id = window.id;
  server_.simulator().schedule(framework::PushService::kHandlingWindow,
                               [this, id] {
                                 close_window(id, "push handling done");
                               });
}

void WindowTracker::on_app_destroyed(const framework::FwEvent& event) {
  // The driven side is gone: windows targeting it can no longer accrue
  // energy; close them. Windows *driven by* the dead app stay — its past
  // collateral remains charged, and wakelock windows end via the
  // link-to-death release event.
  std::vector<std::uint64_t> to_close;
  for (const auto& [id, window] : windows_) {
    if (window.driven == event.driven &&
        (window.kind == WindowKind::kActivity ||
         window.kind == WindowKind::kInterrupt ||
         window.kind == WindowKind::kService ||
         window.kind == WindowKind::kPush)) {
      to_close.push_back(id);
    }
  }
  for (std::uint64_t id : to_close) close_window(id, "driven app destroyed");
}

}  // namespace eandroid::core
