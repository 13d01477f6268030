#include "framework/activity_manager.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "framework/power_manager.h"
#include "framework/window_manager.h"

namespace eandroid::framework {

const char* to_string(ActivityRecord::State state) {
  switch (state) {
    case ActivityRecord::State::kResumed: return "resumed";
    case ActivityRecord::State::kPaused: return "paused";
    case ActivityRecord::State::kStopped: return "stopped";
    case ActivityRecord::State::kDestroyed: return "destroyed";
  }
  return "?";
}

ActivityManager::ActivityManager(sim::Simulator& sim, PackageManager& packages,
                                 kernelsim::ProcessTable& processes,
                                 kernelsim::BinderDriver& binder, AppHost& host,
                                 EventBus& events, PowerManagerService& power,
                                 WindowManager& windows)
    : sim_(sim),
      packages_(packages),
      processes_(processes),
      binder_(binder),
      host_(host),
      events_(events),
      power_(power),
      windows_(windows) {
  processes_.add_death_observer(
      [this](const kernelsim::ProcessInfo& info) { on_process_death(info); });
}

void ActivityManager::boot(const std::string& launcher_package) {
  const PackageRecord* launcher = packages_.find(launcher_package);
  assert(launcher != nullptr && launcher->manifest->root_activity() != nullptr);
  launcher_uid_ = launcher->uid;
  launcher_package_ = launcher_package;
  host_.ensure_process(launcher_uid_);
  Task task;
  task.id = next_task_++;
  tasks_.push_back(std::move(task));
  push_record(tasks_.back(), *launcher, *launcher->manifest->root_activity());
  sync_stacks(launcher_uid_, /*by_user=*/false);
}

const ActivityRecord* ActivityManager::top_of(const Task& task) const {
  for (auto it = task.stack.rbegin(); it != task.stack.rend(); ++it) {
    if (it->state != ActivityRecord::State::kDestroyed) return &*it;
  }
  return nullptr;
}

Task* ActivityManager::find_task_of_package(const std::string& package) {
  for (auto& task : tasks_) {
    if (!task.stack.empty() && task.stack.front().package == package) {
      return &task;
    }
  }
  return nullptr;
}

ActivityRecord& ActivityManager::push_record(Task& task,
                                             const PackageRecord& pkg,
                                             const ActivityDecl& decl) {
  ActivityRecord record;
  record.id = next_record_++;
  record.uid = pkg.uid;
  record.package = pkg.manifest->package;
  record.name = decl.name;
  record.transparent = decl.transparent;
  record.state = ActivityRecord::State::kStopped;
  task.stack.push_back(record);
  return task.stack.back();
}

void ActivityManager::publish_start(kernelsim::Uid driving,
                                    kernelsim::Uid driven,
                                    const std::string& component,
                                    bool by_user) {
  FwEvent event;
  event.type = FwEventType::kActivityStart;
  event.when = sim_.now();
  event.driving = driving;
  event.driven = driven;
  event.component = component;
  event.by_user = by_user;
  events_.publish(event);
}

bool ActivityManager::start_activity_for_result(kernelsim::Uid caller,
                                                const Intent& intent,
                                                int request_code) {
  if (!start_activity(caller, intent)) return false;
  // The record just pushed is the foreground top; tag it.
  if (tasks_.empty()) return false;
  Task& front = tasks_.back();
  for (auto it = front.stack.rbegin(); it != front.stack.rend(); ++it) {
    if (it->state != ActivityRecord::State::kDestroyed) {
      it->requester = caller;
      it->request_code = request_code;
      break;
    }
  }
  return true;
}

bool ActivityManager::finish_activity_with_result(kernelsim::Uid caller,
                                                  const std::string& name,
                                                  bool ok) {
  for (auto& task : tasks_) {
    for (auto it = task.stack.rbegin(); it != task.stack.rend(); ++it) {
      if (it->uid == caller && it->name == name &&
          it->state != ActivityRecord::State::kDestroyed) {
        it->result_ok = ok;
        return finish_activity(caller, name);
      }
    }
  }
  return false;
}

bool ActivityManager::start_activity(kernelsim::Uid caller,
                                     const Intent& intent) {
  std::optional<ComponentRef> ref;
  if (intent.is_explicit()) {
    ref = packages_.resolve_activity(caller, intent);
  } else {
    // Implicit: the system shows resolverActivity and the user picks.
    // E-Android "tracks both intents and ignores the Android system's UI,
    // and records both apps' user IDs after the choice is made" — so the
    // published event is driving=caller, driven=chosen app directly.
    const auto matches = packages_.query_implicit_activities(intent.action);
    if (matches.empty()) return false;
    ref = chooser_ ? chooser_(matches)
                   : std::optional<ComponentRef>(matches.front());
  }
  if (!ref) return false;

  const PackageRecord* pkg = packages_.find(ref->package);
  const ActivityDecl* decl = pkg->manifest->find_activity(ref->component);
  assert(pkg != nullptr && decl != nullptr);

  const kernelsim::Pid from = host_.pid_of(caller);
  const kernelsim::Pid to = host_.ensure_process(pkg->uid);
  binder_.transact(from, to, intent.extras_bytes);

  if (intent.new_task) {
    Task* task = find_task_of_package(ref->package);
    if (task == nullptr) {
      Task fresh;
      fresh.id = next_task_++;
      tasks_.push_back(std::move(fresh));
      task = &tasks_.back();
      push_record(*task, *pkg, *decl);
    } else {
      // Bring the existing task forward; relaunch the activity on top if
      // it is not already there.
      auto it = std::find_if(tasks_.begin(), tasks_.end(),
                             [task](const Task& t) { return t.id == task->id; });
      std::rotate(it, it + 1, tasks_.end());
      task = &tasks_.back();
      const ActivityRecord* top = top_of(*task);
      if (top == nullptr || top->name != decl->name) {
        push_record(*task, *pkg, *decl);
      }
    }
  } else {
    push_record(front_task(), *pkg, *decl);
  }

  publish_start(caller, pkg->uid, decl->name, /*by_user=*/false);
  sync_stacks(caller, /*by_user=*/false);
  return true;
}

bool ActivityManager::user_launch(const std::string& package) {
  const PackageRecord* pkg = packages_.find(package);
  if (pkg == nullptr || pkg->manifest->root_activity() == nullptr) return false;
  power_.user_activity();
  host_.ensure_process(pkg->uid);

  Task* task = find_task_of_package(package);
  if (task == nullptr) {
    Task fresh;
    fresh.id = next_task_++;
    tasks_.push_back(std::move(fresh));
    push_record(tasks_.back(), *pkg, *pkg->manifest->root_activity());
  } else {
    auto it = std::find_if(tasks_.begin(), tasks_.end(),
                           [task](const Task& t) { return t.id == task->id; });
    std::rotate(it, it + 1, tasks_.end());
    if (top_of(tasks_.back()) == nullptr) {
      push_record(tasks_.back(), *pkg, *pkg->manifest->root_activity());
    }
  }
  publish_start(launcher_uid_, pkg->uid,
                pkg->manifest->root_activity()->name, /*by_user=*/true);
  sync_stacks(launcher_uid_, /*by_user=*/true);
  return true;
}

void ActivityManager::user_press_home() {
  power_.user_activity();
  Task* launcher_task = find_task_of_package(launcher_package_);
  assert(launcher_task != nullptr);
  auto it = std::find_if(
      tasks_.begin(), tasks_.end(),
      [launcher_task](const Task& t) { return t.id == launcher_task->id; });
  std::rotate(it, it + 1, tasks_.end());
  sync_stacks(launcher_uid_, /*by_user=*/true);
}

bool ActivityManager::start_home(kernelsim::Uid caller) {
  Task* launcher_task = find_task_of_package(launcher_package_);
  if (launcher_task == nullptr) return false;
  auto it = std::find_if(
      tasks_.begin(), tasks_.end(),
      [launcher_task](const Task& t) { return t.id == launcher_task->id; });
  std::rotate(it, it + 1, tasks_.end());
  sync_stacks(caller, /*by_user=*/false);
  return true;
}

bool ActivityManager::user_switch_to(const std::string& package) {
  Task* task = find_task_of_package(package);
  if (task == nullptr) return false;
  power_.user_activity();
  auto it = std::find_if(tasks_.begin(), tasks_.end(),
                         [task](const Task& t) { return t.id == task->id; });
  std::rotate(it, it + 1, tasks_.end());
  const ActivityRecord* top = top_of(tasks_.back());
  if (top != nullptr) {
    FwEvent event;
    event.type = FwEventType::kActivityMoveToFront;
    event.when = sim_.now();
    event.driving = launcher_uid_;
    event.driven = top->uid;
    event.component = top->name;
    event.by_user = true;
    events_.publish(event);
  }
  sync_stacks(launcher_uid_, /*by_user=*/true);
  return true;
}

bool ActivityManager::move_task_to_front(kernelsim::Uid caller,
                                         const std::string& package) {
  if (!packages_.is_system_app(caller) &&
      !packages_.has_permission(caller, Permission::kReorderTasks)) {
    return false;
  }
  Task* task = find_task_of_package(package);
  if (task == nullptr) return false;
  auto it = std::find_if(tasks_.begin(), tasks_.end(),
                         [task](const Task& t) { return t.id == task->id; });
  std::rotate(it, it + 1, tasks_.end());
  const ActivityRecord* top = top_of(tasks_.back());
  if (top != nullptr) {
    FwEvent event;
    event.type = FwEventType::kActivityMoveToFront;
    event.when = sim_.now();
    event.driving = caller;
    event.driven = top->uid;
    event.component = top->name;
    events_.publish(event);
  }
  sync_stacks(caller, /*by_user=*/false);
  return true;
}

bool ActivityManager::finish_activity(kernelsim::Uid caller,
                                      const std::string& name) {
  for (auto task_it = tasks_.rbegin(); task_it != tasks_.rend(); ++task_it) {
    for (auto rec_it = task_it->stack.rbegin();
         rec_it != task_it->stack.rend(); ++rec_it) {
      if (rec_it->uid == caller && rec_it->name == name &&
          rec_it->state != ActivityRecord::State::kDestroyed) {
        rec_it->state = ActivityRecord::State::kDestroyed;
        const kernelsim::Uid requester = rec_it->requester;
        const int request_code = rec_it->request_code;
        const bool result_ok = rec_it->result_ok;
        if (AppCode* code = host_.code_of(caller);
            code != nullptr && host_.pid_of(caller).valid()) {
          code->on_activity_destroy(host_.context_of(caller), name);
        }
        FwEvent event;
        event.type = FwEventType::kActivityFinish;
        event.when = sim_.now();
        event.driving = caller;
        event.driven = caller;
        event.component = name;
        events_.publish(event);
        sync_stacks(caller, /*by_user=*/false);
        deliver_result(requester, request_code, result_ok);
        return true;
      }
    }
  }
  return false;
}

void ActivityManager::user_press_back() {
  power_.user_activity();
  const ActivityRecord* top = top_of(front_task());
  if (top == nullptr || top->uid == launcher_uid_) return;
  const kernelsim::Uid uid = top->uid;
  const std::string name = top->name;
  if (AppCode* code = host_.code_of(uid);
      code != nullptr && host_.pid_of(uid).valid()) {
    if (code->on_back_pressed(host_.context_of(uid), name)) return;
  }
  // Default: finish the top activity (result: cancelled).
  kernelsim::Uid requester{};
  int request_code = 0;
  Task& task = front_task();
  for (auto it = task.stack.rbegin(); it != task.stack.rend(); ++it) {
    if (it->state != ActivityRecord::State::kDestroyed) {
      it->state = ActivityRecord::State::kDestroyed;
      requester = it->requester;
      request_code = it->request_code;
      break;
    }
  }
  if (AppCode* code = host_.code_of(uid);
      code != nullptr && host_.pid_of(uid).valid()) {
    code->on_activity_destroy(host_.context_of(uid), name);
  }
  FwEvent event;
  event.type = FwEventType::kActivityFinish;
  event.when = sim_.now();
  event.driving = launcher_uid_;
  event.driven = uid;
  event.component = name;
  event.by_user = true;
  events_.publish(event);
  sync_stacks(launcher_uid_, /*by_user=*/true);
  deliver_result(requester, request_code, /*ok=*/false);
}

void ActivityManager::deliver_result(kernelsim::Uid requester,
                                     int request_code, bool ok) {
  if (!requester.valid()) return;
  if (AppCode* code = host_.code_of(requester);
      code != nullptr && host_.pid_of(requester).valid()) {
    code->on_activity_result(host_.context_of(requester), request_code, ok);
  }
}

kernelsim::Uid ActivityManager::foreground_uid() const {
  if (tasks_.empty()) return kernelsim::Uid{};
  const ActivityRecord* top = top_of(tasks_.back());
  return top == nullptr ? kernelsim::Uid{} : top->uid;
}

const ActivityRecord* ActivityManager::foreground_activity() const {
  return tasks_.empty() ? nullptr : top_of(tasks_.back());
}

ActivityRecord::State ActivityManager::activity_state(
    const std::string& package, const std::string& name) const {
  for (auto task_it = tasks_.rbegin(); task_it != tasks_.rend(); ++task_it) {
    for (auto rec_it = task_it->stack.rbegin();
         rec_it != task_it->stack.rend(); ++rec_it) {
      if (rec_it->package == package && rec_it->name == name &&
          rec_it->state != ActivityRecord::State::kDestroyed) {
        return rec_it->state;
      }
    }
  }
  return ActivityRecord::State::kDestroyed;
}

std::vector<kernelsim::Uid> ActivityManager::background_uids() const {
  std::vector<kernelsim::Uid> out;
  for (const auto& task : tasks_) {
    const bool front = &task == &tasks_.back();
    for (const auto& record : task.stack) {
      if (record.state == ActivityRecord::State::kDestroyed) continue;
      const bool is_foreground =
          front && &record == top_of(task) &&
          record.state == ActivityRecord::State::kResumed;
      if (is_foreground) continue;
      if (std::find(out.begin(), out.end(), record.uid) == out.end()) {
        out.push_back(record.uid);
      }
    }
  }
  return out;
}

bool ActivityManager::has_activity_in_state(
    kernelsim::Uid uid, ActivityRecord::State state) const {
  for (const auto& task : tasks_) {
    for (const auto& record : task.stack) {
      if (record.uid == uid && record.state == state) return true;
    }
  }
  return false;
}

void ActivityManager::sync_stacks(kernelsim::Uid driving, bool by_user) {
  // Garbage-collect destroyed records and empty tasks (launcher task keeps
  // its root and never empties).
  for (auto& task : tasks_) {
    auto& s = task.stack;
    s.erase(std::remove_if(s.begin(), s.end(),
                           [](const ActivityRecord& r) {
                             return r.state ==
                                    ActivityRecord::State::kDestroyed;
                           }),
            s.end());
  }
  tasks_.erase(std::remove_if(tasks_.begin(), tasks_.end(),
                              [](const Task& t) { return t.stack.empty(); }),
               tasks_.end());
  if (tasks_.empty()) return;

  // Desired state per record: front task top = resumed; records visible
  // under transparent tops = paused; everything else = stopped.
  struct Transition {
    ActivityRecord* record;
    ActivityRecord::State to;
  };
  std::vector<Transition> pauses;
  std::vector<Transition> resumes;
  std::vector<Transition> stops;

  for (auto& task : tasks_) {
    const bool front = &task == &tasks_.back();
    bool top_found = false;
    bool visible_chain = true;  // still visible through transparent tops
    for (auto it = task.stack.rbegin(); it != task.stack.rend(); ++it) {
      ActivityRecord& record = *it;
      ActivityRecord::State desired;
      if (front && !top_found) {
        desired = ActivityRecord::State::kResumed;
        top_found = true;
        visible_chain = record.transparent;
      } else if (front && visible_chain) {
        desired = ActivityRecord::State::kPaused;
        visible_chain = record.transparent && visible_chain;
      } else {
        desired = ActivityRecord::State::kStopped;
      }
      if (desired == record.state) continue;
      if (desired == ActivityRecord::State::kResumed) {
        resumes.push_back({&record, desired});
      } else if (desired == ActivityRecord::State::kPaused) {
        pauses.push_back({&record, desired});
      } else {
        stops.push_back({&record, desired});
      }
    }
  }

  // Fire lifecycle callbacks in Android's order: pause the outgoing,
  // resume the incoming, then stop what is no longer visible.
  auto deliver = [this](ActivityRecord& record, ActivityRecord::State to) {
    AppCode* code = host_.code_of(record.uid);
    const bool can_call = code != nullptr && host_.pid_of(record.uid).valid();
    Context* ctx = can_call ? &host_.context_of(record.uid) : nullptr;
    const ActivityRecord::State from = record.state;
    record.state = to;
    if (!can_call) return;
    switch (to) {
      case ActivityRecord::State::kResumed:
        if (!record.created) {
          record.created = true;
          code->on_activity_create(*ctx, record.name);
        }
        code->on_activity_resume(*ctx, record.name);
        break;
      case ActivityRecord::State::kPaused:
        if (from == ActivityRecord::State::kResumed) {
          code->on_activity_pause(*ctx, record.name);
        }
        break;
      case ActivityRecord::State::kStopped:
        if (from == ActivityRecord::State::kResumed) {
          code->on_activity_pause(*ctx, record.name);
        }
        if (from != ActivityRecord::State::kStopped) {
          code->on_activity_stop(*ctx, record.name);
        }
        break;
      case ActivityRecord::State::kDestroyed:
        break;
    }
  };

  const kernelsim::Uid prev_fg = last_foreground_;
  for (auto& t : pauses) deliver(*t.record, t.to);
  for (auto& t : resumes) deliver(*t.record, t.to);
  for (auto& t : stops) deliver(*t.record, t.to);

  const kernelsim::Uid new_fg = foreground_uid();
  if (new_fg != prev_fg) {
    last_foreground_ = new_fg;
    FwEvent change;
    change.type = FwEventType::kForegroundChange;
    change.when = sim_.now();
    change.driving = prev_fg;
    change.driven = new_fg;
    change.by_user = by_user;
    events_.publish(change);

    // Interruption: the previous foreground app was pushed to background
    // (its activity still exists) by someone else's operation.
    const bool prev_still_alive =
        prev_fg.valid() &&
        std::any_of(tasks_.begin(), tasks_.end(), [&](const Task& t) {
          return std::any_of(
              t.stack.begin(), t.stack.end(), [&](const ActivityRecord& r) {
                return r.uid == prev_fg &&
                       r.state != ActivityRecord::State::kDestroyed;
              });
        });
    if (prev_still_alive && driving != prev_fg) {
      FwEvent interrupt;
      interrupt.type = FwEventType::kActivityInterrupt;
      interrupt.when = sim_.now();
      interrupt.driving = driving;
      interrupt.driven = prev_fg;
      interrupt.by_user = by_user;
      events_.publish(interrupt);
    }
  }
}

void ActivityManager::on_process_death(const kernelsim::ProcessInfo& info) {
  bool touched = false;
  for (auto& task : tasks_) {
    for (auto& record : task.stack) {
      if (record.uid == info.uid &&
          record.state != ActivityRecord::State::kDestroyed) {
        record.state = ActivityRecord::State::kDestroyed;
        touched = true;
      }
    }
  }
  windows_.dismiss_dialogs_of(info.uid);
  if (touched) {
    sync_stacks(kernelsim::kSystemUid, /*by_user=*/false);
  }
  // kAppDestroyed itself is published by SystemServer once every
  // subsystem's cleanup has run.
}

}  // namespace eandroid::framework
