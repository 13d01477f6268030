#include "framework/alarm_manager.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace eandroid::framework {

AlarmId AlarmManager::set(kernelsim::Uid uid, sim::Duration delay,
                          std::string tag, bool repeating,
                          sim::Duration period) {
  const std::uint64_t id = next_id_++;
  Alarm alarm{uid, std::move(tag), repeating, period, {}, sim_.now() + delay};
  alarm.event = sim_.schedule(delay, [this, id] { fire(id); });
  alarms_.emplace(id, std::move(alarm));
  return AlarmId{id};
}

bool AlarmManager::cancel(AlarmId id) {
  auto it = alarms_.find(id.id);
  if (it == alarms_.end()) return false;
  sim_.cancel(it->second.event);
  alarms_.erase(it);
  return true;
}

int AlarmManager::cancel_all_of(kernelsim::Uid uid) {
  int n = 0;
  for (auto it = alarms_.begin(); it != alarms_.end();) {
    if (it->second.owner == uid) {
      sim_.cancel(it->second.event);
      it = alarms_.erase(it);
      ++n;
    } else {
      ++it;
    }
  }
  return n;
}

int AlarmManager::delay_pending(sim::Duration by) {
  if (by <= sim::Duration(0)) return 0;
  // Id order, not map order: rescheduling inserts queue entries, and the
  // queue breaks same-instant ties by insertion order.
  std::vector<std::uint64_t> ids;
  ids.reserve(alarms_.size());
  for (const auto& [id, alarm] : alarms_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  int moved = 0;
  for (std::uint64_t id : ids) {
    auto it = alarms_.find(id);
    if (it == alarms_.end()) continue;
    Alarm& alarm = it->second;
    if (!sim_.cancel(alarm.event)) continue;  // firing right now; leave it
    alarm.when = alarm.when + by;
    alarm.event = sim_.schedule_at(alarm.when, [this, id] { fire(id); });
    ++moved;
    ++delayed_;
  }
  return moved;
}

void AlarmManager::fire(std::uint64_t id) {
  auto it = alarms_.find(id);
  if (it == alarms_.end()) return;
  // Copy what we need: the handler may set/cancel alarms re-entrantly.
  const kernelsim::Uid owner = it->second.owner;
  const std::string tag = it->second.tag;
  const bool repeating = it->second.repeating;
  const sim::Duration period = it->second.period;
  if (repeating && period > sim::Duration(0)) {
    it->second.event = sim_.schedule(period, [this, id] { fire(id); });
    it->second.when = sim_.now() + period;
  } else {
    alarms_.erase(it);
  }
  ++fired_;

  FwEvent event;
  event.type = FwEventType::kAlarmFired;
  event.when = sim_.now();
  event.driving = owner;
  event.driven = owner;
  event.component = tag;
  events_.publish(event);

  // RTC_WAKEUP: the handler runs even out of suspend; it is the app's
  // job to grab a wakelock if it needs the CPU to stay up. The handler
  // itself runs on the app's main thread, so a hung app parks it (and
  // eventually ANRs) instead of running it.
  host_.ensure_process(owner);
  host_.post_to_main(owner, [this, owner, tag] {
    if (!host_.pid_of(owner).valid()) return;
    if (AppCode* code = host_.code_of(owner)) {
      code->on_alarm(host_.context_of(owner), tag);
    }
  });
}

}  // namespace eandroid::framework
