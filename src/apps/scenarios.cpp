#include "apps/scenarios.h"

#include <sstream>

#include "apps/demo_app.h"
#include "apps/malware.h"

namespace eandroid::apps {

using framework::Intent;

namespace {

ScenarioResult collect(Testbed& bed, std::string name) {
  ScenarioResult result;
  result.name = std::move(name);
  result.android_view = bed.battery_stats().view();
  result.powertutor_view = bed.power_tutor().view();
  if (core::EAndroid* ea = bed.eandroid()) {
    result.ea_view = ea->view();
    result.windows_opened = ea->tracker().opened_total();
    result.windows_closed = ea->tracker().closed_total();
  }
  result.battery_drained_mj = bed.server().battery().drained_mj();
  result.trace_text = bed.trace_text();
  result.trace_json = bed.chrome_trace();
  return result;
}

/// A victim whose point is to burn CPU in the background (attack #2).
DemoAppSpec background_hog_spec(const std::string& package, double bg_cpu) {
  DemoAppSpec spec;
  spec.package = package;
  spec.category = "news";
  spec.foreground_cpu = 0.15;
  spec.background_cpu = bg_cpu;
  return spec;
}

}  // namespace

ScenarioResult run_scene1(std::uint64_t seed,
                         const TestbedOptions& base) {
  TestbedOptions options = base;
  options.seed = seed;
  Testbed bed(options);
  bed.install<DemoApp>(message_spec());
  bed.install<DemoApp>(camera_spec());
  bed.start();

  bed.server().user_launch("com.example.message");
  bed.sim().run_for(sim::seconds(15));
  bed.server().user_tap(200, 300);  // typing keeps the screen awake
  bed.sim().run_for(sim::seconds(15));
  // The user taps "Record Video" inside the Message UI: Message sends the
  // implicit capture intent, the Camera app answers and films for 30 s.
  bed.server().user_tap(200, 800);
  bed.context_of("com.example.message")
      .start_activity(Intent::implicit("android.media.action.VIDEO_CAPTURE"));
  bed.sim().run_for(sim::seconds(20));
  bed.server().user_tap(300, 300);  // watching the capture
  bed.sim().run_for(sim::seconds(11));
  bed.run_for(sim::seconds(9));  // back in Message
  return collect(bed, "scene1_message_films_video");
}

ScenarioResult run_scene2(std::uint64_t seed,
                         const TestbedOptions& base) {
  TestbedOptions options = base;
  options.seed = seed;
  Testbed bed(options);
  bed.install<DemoApp>(contacts_spec());
  bed.install<DemoApp>(message_spec());
  bed.install<DemoApp>(camera_spec());
  bed.start();

  bed.server().user_launch("com.example.contacts");
  bed.sim().run_for(sim::seconds(10));
  // Contacts opens the Message app (cross-app explicit intent)...
  bed.server().user_tap(400, 500);
  bed.context_of("com.example.contacts")
      .start_activity(Intent::explicit_for("com.example.message", "Main"));
  bed.sim().run_for(sim::seconds(20));
  // ...and Message films exactly like the hybrid-attack example.
  bed.server().user_tap(200, 800);
  bed.context_of("com.example.message")
      .start_activity(Intent::implicit("android.media.action.VIDEO_CAPTURE"));
  bed.sim().run_for(sim::seconds(20));
  bed.server().user_tap(300, 300);
  bed.sim().run_for(sim::seconds(11));
  bed.run_for(sim::seconds(9));
  return collect(bed, "scene2_contacts_message_camera");
}

ScenarioResult run_attack1(std::uint64_t seed,
                          const TestbedOptions& base) {
  TestbedOptions options = base;
  options.seed = seed;
  Testbed bed(options);
  bed.install<DemoApp>(camera_spec());
  bed.install<HijackMalware>("com.example.camera", "Main");
  bed.start();

  // The malware looks like a normal app launch; its onResume immediately
  // hijacks the Camera's exported capture component.
  bed.server().user_launch(HijackMalware::kPackage);
  for (int i = 0; i < 3; ++i) {
    bed.sim().run_for(sim::seconds(20));
    bed.server().user_tap(10, 10);  // the user keeps using the phone
  }
  bed.run_for(sim::Duration(0));
  return collect(bed, "attack1_component_hijack");
}

ScenarioResult run_attack2(std::uint64_t seed,
                          const TestbedOptions& base) {
  TestbedOptions options = base;
  options.seed = seed;
  Testbed bed(options);
  bed.install<DemoApp>(background_hog_spec("com.example.newsfeed", 0.25));
  bed.install<DemoApp>(background_hog_spec("com.example.game", 0.15));
  bed.install<SpawnerMalware>(std::vector<std::string>{
      "com.example.newsfeed", "com.example.game"});
  bed.start();

  bed.server().user_launch(SpawnerMalware::kPackage);
  for (int i = 0; i < 3; ++i) {
    bed.sim().run_for(sim::seconds(20));
    bed.server().user_tap(10, 10);  // playing the "game"
  }
  bed.run_for(sim::Duration(0));
  return collect(bed, "attack2_background_spawn");
}

ScenarioResult run_attack3(std::uint64_t seed,
                          const TestbedOptions& base) {
  TestbedOptions options = base;
  options.seed = seed;
  Testbed bed(options);
  DemoAppSpec victim = victim_spec();
  victim.wakelock_bug = false;  // isolate the service effect, as in Fig 9c
  victim.exit_dialog = false;
  bed.install<DemoApp>(victim);
  bed.install<BinderMalware>(victim.package, DemoApp::kService);
  bed.start();

  // The malware camps in the background, polling getRunningServices().
  bed.server().ensure_process(bed.uid_of(BinderMalware::kPackage));
  bed.sim().run_for(sim::seconds(1));

  // The victim starts its own service...
  bed.server().user_launch(victim.package);
  bed.context_of(victim.package)
      .start_service(Intent::explicit_for(victim.package, DemoApp::kService));
  bed.sim().run_for(sim::seconds(1));  // malware's poll fires and binds
  // ...and stops it immediately; the malicious binding keeps it alive.
  bed.context_of(victim.package)
      .stop_service(Intent::explicit_for(victim.package, DemoApp::kService));
  bed.server().user_press_home();
  for (int i = 0; i < 3; ++i) {
    bed.sim().run_for(sim::seconds(20));
    bed.server().user_tap(10, 10);  // browsing the home screen
  }
  bed.run_for(sim::Duration(0));
  return collect(bed, "attack3_bind_service");
}

ScenarioResult run_attack4(std::uint64_t seed,
                          const TestbedOptions& base) {
  TestbedOptions options = base;
  options.seed = seed;
  Testbed bed(options);
  const DemoAppSpec victim = victim_spec();
  bed.install<DemoApp>(victim);
  bed.install<InterrupterMalware>(victim.package);
  bed.start();

  // Arm the shm poller.
  bed.server().ensure_process(bed.uid_of(InterrupterMalware::kPackage));
  bed.server().user_launch(victim.package);
  bed.sim().run_for(sim::seconds(5));

  // The user tries to quit: back raises the exit dialog; within 100 ms the
  // malware covers it with a transparent overlay.
  bed.server().user_press_back();
  bed.sim().run_for(sim::millis(200));
  // The user taps "OK" — actually the overlay — and lands on the home
  // screen; the victim is stopped with its wakelock leaked.
  bed.server().user_tap(540, 960);
  bed.run_for(sim::seconds(60));
  return collect(bed, "attack4_interrupt_to_background");
}

ScenarioResult run_attack5(std::uint64_t seed, int brightness,
                           const TestbedOptions& base) {
  TestbedOptions options = base;
  options.seed = seed;
  Testbed bed(options);
  bed.install<DemoApp>(music_spec());
  auto* malware = bed.install<BrightnessMalware>(brightness);
  bed.start();

  bed.server().user_launch("com.example.music");
  bed.server().ensure_process(bed.uid_of(BrightnessMalware::kPackage));
  bed.sim().run_for(sim::seconds(5));
  malware->attack();
  // The user keeps using the phone; taps keep the screen on.
  for (int i = 0; i < 3; ++i) {
    bed.sim().run_for(sim::seconds(20));
    bed.server().user_tap(10, 10);
  }
  bed.run_for(sim::Duration(0));
  return collect(bed, "attack5_brightness_escalation");
}

ScenarioResult run_attack6(std::uint64_t seed, bool release_lock,
                           const TestbedOptions& base) {
  TestbedOptions options = base;
  options.seed = seed;
  Testbed bed(options);
  auto* malware = bed.install<WakelockMalware>();
  bed.start();

  bed.server().ensure_process(bed.uid_of(WakelockMalware::kPackage));
  malware->attack();
  if (release_lock) {
    bed.sim().schedule(sim::seconds(5), [malware] { malware->release(); });
  }
  // No user interaction: after the 30 s timeout the screen stays on only
  // if the malicious wakelock is still held.
  bed.run_for(sim::seconds(60));
  return collect(bed, release_lock ? "attack6_wakelock_released"
                                   : "attack6_wakelock_leaked");
}

ScenarioResult run_chain_attack(std::uint64_t seed,
                               const TestbedOptions& base) {
  TestbedOptions options = base;
  options.seed = seed;
  Testbed bed(options);

  // B: exported service; when driven, starts C (the man in the middle).
  DemoAppSpec b = victim_spec();
  b.package = "com.example.middleman";
  b.wakelock_bug = false;
  b.exit_dialog = false;
  b.service_cpu = 0.20;
  b.chain_on_service =
      framework::ComponentRef{"com.example.brightapp", DemoApp::kRootActivity};
  bed.install<DemoApp>(b);

  // C: escalates brightness when its activity comes up.
  DemoAppSpec c = message_spec();
  c.package = "com.example.brightapp";
  c.brightness_on_resume = 255;
  c.permissions = {framework::Permission::kWriteSettings};
  bed.install<DemoApp>(c);

  // A: the malware binding B.
  bed.install<BinderMalware>(b.package, DemoApp::kService);
  bed.start();

  bed.server().ensure_process(bed.uid_of(BinderMalware::kPackage));  // arm
  bed.context_of(b.package)
      .start_service(Intent::explicit_for(b.package, DemoApp::kService));
  bed.sim().run_for(sim::seconds(1));
  bed.context_of(b.package)
      .stop_service(Intent::explicit_for(b.package, DemoApp::kService));
  for (int i = 0; i < 3; ++i) {
    bed.sim().run_for(sim::seconds(20));
    bed.server().user_tap(10, 10);
  }
  bed.run_for(sim::Duration(0));
  return collect(bed, "chain_attack_fig7");
}

ScenarioResult run_multi_attack(std::uint64_t seed,
                               const TestbedOptions& base) {
  TestbedOptions options = base;
  options.seed = seed;
  Testbed bed(options);
  DemoAppSpec victim = victim_spec();
  victim.wakelock_bug = false;
  victim.exit_dialog = false;
  bed.install<DemoApp>(victim);
  bed.install<HybridMalware>(victim.package, DemoApp::kService, 255);
  bed.start();

  // The user unlocks the phone: the malware auto-launches off
  // ACTION_USER_PRESENT — it is never opened by hand.
  bed.server().user_unlock();
  bed.sim().run_for(sim::seconds(2));

  // The victim runs its service briefly; the malware pins it.
  bed.server().user_launch(victim.package);
  bed.context_of(victim.package)
      .start_service(Intent::explicit_for(victim.package, DemoApp::kService));
  bed.sim().run_for(sim::seconds(1));
  bed.context_of(victim.package)
      .stop_service(Intent::explicit_for(victim.package, DemoApp::kService));
  for (int i = 0; i < 3; ++i) {
    bed.sim().run_for(sim::seconds(20));
    bed.server().user_tap(10, 10);
  }
  bed.run_for(sim::Duration(0));
  return collect(bed, "multi_hybrid_attack");
}

ScenarioResult run_push_flood(std::uint64_t seed,
                             const TestbedOptions& base) {
  TestbedOptions options = base;
  options.seed = seed;
  Testbed bed(options);
  DemoAppSpec victim = message_spec();
  victim.package = "com.example.syncclient";
  victim.push_endpoint = true;
  bed.install<DemoApp>(victim);
  auto* flooder =
      bed.install<PushFlooderMalware>(victim.package, sim::millis(500));
  bed.start();

  // The victim has run at least once (registered its endpoint), then
  // sits in background like any sync client.
  bed.server().ensure_process(bed.uid_of(victim.package));
  (void)bed.context_of(PushFlooderMalware::kPackage);
  flooder->attack();
  for (int i = 0; i < 3; ++i) {
    bed.sim().run_for(sim::seconds(20));
    bed.server().user_tap(10, 10);
  }
  bed.run_for(sim::Duration(0));
  return collect(bed, "push_flood_attack");
}

ScenarioResult run_benign_interruption(std::uint64_t seed,
                                      const TestbedOptions& base) {
  TestbedOptions options = base;
  options.seed = seed;
  Testbed bed(options);
  bed.install<DemoApp>(victim_spec());  // the wakelock-bug app, no malware
  bed.start();

  bed.server().user_launch("com.example.victim");
  bed.sim().run_for(sim::seconds(5));
  // An incoming call interrupts it (the app is stopped, its wakelock
  // leaks); when the call ends the user goes straight to the home screen
  // and pockets the phone.
  bed.server().simulate_incoming_call(sim::seconds(15));
  bed.sim().run_for(sim::seconds(16));
  bed.server().user_press_home();
  bed.run_for(sim::seconds(90));
  return collect(bed, "benign_interruption_leaked_wakelock");
}

std::string render_comparison(const ScenarioResult& result) {
  std::ostringstream os;
  os << "--- " << result.name << " ---\n";
  os << result.android_view.render("Android BatteryStats");
  os << result.powertutor_view.render("PowerTutor");
  os << result.ea_view.render("revised battery interface");
  os << "battery drained: " << result.battery_drained_mj << " mJ; windows "
     << result.windows_opened << " opened / " << result.windows_closed
     << " closed\n";
  return os.str();
}

}  // namespace eandroid::apps
