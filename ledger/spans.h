// The traced run's span ledger.
//
// Spans are opened by the benchmark's own code around each call it makes
// into a simulator layer, so nothing inside src/ is instrumented. A span's
// self time is its duration minus the time its children cover; self times
// are folded into per-layer totals as spans close, so memory stays bounded
// however long the run. The first `keep` spans are also kept verbatim and
// written out as a Chrome trace when the run ends.
//
// Some layers run inside a single public call and cannot be wrapped from
// outside: the sampler's gather and fold run inside Simulator::run_until.
// Their durations come from the sampler's public stage timers and are
// added as measured children of the span that enclosed them (child()).
// If such a measurement ever exceeded its parent, the excess would show
// up as a re-sum error, which the run checks against a stated tolerance.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace ledger {

enum class Layer : std::uint8_t {
  kApps,  // the benchmark's own code (root spans)
  kSim,
  kEnergy,
  kFramework,
  kCore,
  kFleet,
  kObs,
  kCount
};

[[nodiscard]] const char* layer_name(Layer layer);

class SpanLedger {
 public:
  /// Spans kept verbatim for the Chrome trace by default.
  static constexpr std::size_t kDefaultKeep = 1u << 17;

  explicit SpanLedger(std::size_t keep = kDefaultKeep);

  /// Spans are recorded only while armed; Span objects cost one branch
  /// otherwise, so the same benchmark code serves traced and untraced blocks.
  void set_armed(bool armed) { armed_ = armed; }
  [[nodiscard]] bool armed() const { return armed_; }

  void open(Layer layer);
  void close();
  /// Adds a measured sub-interval of `ns` to the innermost open span.
  void child(Layer layer, std::int64_t ns);

  [[nodiscard]] std::int64_t self_ns(Layer layer) const {
    return self_[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] std::int64_t total_self_ns() const;

  /// Writes the kept spans as Chrome trace_event JSON. Returns false if
  /// the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  struct Open {
    Layer layer;
    std::int64_t t0;
    std::int64_t child_ns;
  };
  struct Kept {
    Layer layer;
    std::uint8_t depth;
    std::int64_t t0;
    std::int64_t t1;
  };

  void keep(Layer layer, std::size_t depth, std::int64_t t0,
            std::int64_t t1);

  bool armed_ = false;
  std::size_t keep_limit_;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)> self_{};
};

/// RAII span; records nothing when the ledger is not armed.
class Span {
 public:
  Span(SpanLedger& ledger, Layer layer)
      : ledger_(ledger.armed() ? &ledger : nullptr) {
    if (ledger_ != nullptr) ledger_->open(layer);
  }
  ~Span() {
    if (ledger_ != nullptr) ledger_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLedger* ledger_;
};

}  // namespace ledger
