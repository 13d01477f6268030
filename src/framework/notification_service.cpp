#include "framework/notification_service.h"

#include <algorithm>

namespace eandroid::framework {

std::uint64_t NotificationService::post(kernelsim::Uid poster,
                                        std::string title,
                                        std::string activity) {
  const std::uint64_t id = next_id_++;
  notifications_.push_back(
      Notification{id, poster, std::move(title), std::move(activity)});
  return id;
}

std::uint64_t NotificationService::post_full_screen(kernelsim::Uid poster,
                                                    std::string title,
                                                    std::string activity) {
  const PackageRecord* pkg = packages_.find(poster);
  if (pkg == nullptr || pkg->manifest->find_activity(activity) == nullptr) {
    return 0;
  }
  const std::uint64_t id = post(poster, std::move(title), activity);
  // The poster's activity takes the screen right now — app-driven, so the
  // previous foreground app is "interrupted" in the Fig 5b sense.
  activities_.start_activity(
      poster, Intent::explicit_for(pkg->manifest->package, activity));
  return id;
}

bool NotificationService::user_tap_notification(std::uint64_t id) {
  auto it = std::find_if(notifications_.begin(), notifications_.end(),
                         [id](const Notification& n) { return n.id == id; });
  if (it == notifications_.end()) return false;
  const Notification notification = *it;
  notifications_.erase(it);
  const PackageRecord* pkg = packages_.find(notification.poster);
  if (pkg == nullptr) return false;
  // User-driven: launch-or-foreground the poster's task.
  return activities_.user_launch(pkg->manifest->package);
}

void NotificationService::cancel(std::uint64_t id) {
  notifications_.erase(
      std::remove_if(notifications_.begin(), notifications_.end(),
                     [id](const Notification& n) { return n.id == id; }),
      notifications_.end());
}

void NotificationService::cancel_all_of(kernelsim::Uid poster) {
  notifications_.erase(
      std::remove_if(
          notifications_.begin(), notifications_.end(),
          [poster](const Notification& n) { return n.poster == poster; }),
      notifications_.end());
}

std::size_t NotificationService::count_of(kernelsim::Uid poster) const {
  return static_cast<std::size_t>(
      std::count_if(notifications_.begin(), notifications_.end(),
                    [poster](const Notification& n) {
                      return n.poster == poster;
                    }));
}

}  // namespace eandroid::framework
