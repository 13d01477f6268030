#include "apps/report.h"

#include <cstdio>

namespace eandroid::apps {

std::string render_device_report(fleet::DeviceContext& bed,
                                 const energy::Eprof* eprof,
                                 const energy::PowerSignatureDetector*
                                     detector,
                                 const ReportOptions& options) {
  std::string out;
  char line[200];
  auto& server = bed.server();

  out += "================ device report ================\n";
  std::snprintf(line, sizeof(line), "virtual time: %s\n",
                sim::format_time(server.simulator().now()).c_str());
  out += line;

  if (options.include_battery) {
    std::snprintf(line, sizeof(line),
                  "battery: %d%% (%.0f mJ drained, %s)\n",
                  server.battery().percent(), server.battery().drained_mj(),
                  server.battery().charging() ? "charging" : "discharging");
    out += line;
    std::snprintf(line, sizeof(line),
                  "screen: %s, brightness %d%s; device %s\n",
                  server.screen().on() ? "on" : "off",
                  server.screen().brightness(),
                  server.power().screen_forced_by_wakelock()
                      ? " (forced by wakelock)"
                      : "",
                  server.power().suspended() ? "suspended" : "awake");
    out += line;
  }

  if (options.include_android_view) {
    out += '\n';
    out += bed.battery_stats().view().render("Android BatteryStats");
  }
  if (options.include_powertutor_view) {
    out += '\n';
    out += bed.power_tutor().view().render("PowerTutor");
  }
  if (options.include_eandroid_view && bed.eandroid() != nullptr) {
    out += '\n';
    out += bed.eandroid()->view().render("collateral accounting");
  }

  if (options.include_open_windows && bed.eandroid() != nullptr) {
    const auto& windows = bed.eandroid()->tracker().open_windows();
    std::snprintf(line, sizeof(line), "\nopen collateral windows: %zu\n",
                  windows.size());
    out += line;
    for (const auto& [id, window] : windows) {
      std::snprintf(line, sizeof(line),
                    "  [%s since %s] driver uid%d -> driven uid%d %s\n",
                    core::to_string(window.kind),
                    sim::format_time(window.opened).c_str(),
                    window.driver.value, window.driven.value,
                    window.component.c_str());
      out += line;
    }
  }

  if (eprof != nullptr && bed.eandroid() != nullptr) {
    out += "\nper-routine profiles (eprof):\n";
    for (kernelsim::Uid uid : bed.eandroid()->engine().known_uids()) {
      if (eprof->app_cpu_mj(uid) > 0.0) out += eprof->render(uid);
    }
  }

  if (detector != nullptr && options.suspect_threshold_mw > 0.0) {
    out += "\npower-signature suspects:\n";
    const auto suspects = detector->suspects(options.suspect_threshold_mw);
    if (suspects.empty()) {
      out += "  (none above threshold)\n";
    }
    for (const auto& suspect : suspects) {
      std::snprintf(line, sizeof(line), "  %-30s avg %7.1f mW peak %7.1f mW\n",
                    suspect.package.c_str(), suspect.average_mw,
                    suspect.peak_mw);
      out += line;
    }
  }
  out += "===============================================\n";
  return out;
}

}  // namespace eandroid::apps
