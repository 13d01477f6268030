#include "spans.h"

#include <algorithm>
#include <cstdio>

#include "common.h"

namespace ledger {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kApps: return "apps";
    case Layer::kSim: return "sim";
    case Layer::kEnergy: return "energy";
    case Layer::kFramework: return "framework";
    case Layer::kCore: return "core";
    case Layer::kFleet: return "fleet";
    case Layer::kObs: return "obs";
    case Layer::kCount: break;
  }
  return "?";
}

SpanLedger::SpanLedger(std::size_t keep) : keep_limit_(keep) {
  stack_.reserve(16);
  kept_.reserve(keep);
}

void SpanLedger::open(Layer layer) {
  stack_.push_back({layer, now_ns(), 0});
}

void SpanLedger::close() {
  const std::int64_t t1 = now_ns();
  const Open span = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = t1 - span.t0;
  self_[static_cast<std::size_t>(span.layer)] +=
      std::max<std::int64_t>(0, duration - span.child_ns);
  if (!stack_.empty()) stack_.back().child_ns += duration;
  keep(span.layer, stack_.size(), span.t0, t1);
}

void SpanLedger::child(Layer layer, std::int64_t ns) {
  if (!armed_ || stack_.empty() || ns <= 0) return;
  self_[static_cast<std::size_t>(layer)] += ns;
  stack_.back().child_ns += ns;
  const std::int64_t t1 = now_ns();
  keep(layer, stack_.size(), t1 - ns, t1);
}

void SpanLedger::keep(Layer layer, std::size_t depth, std::int64_t t0,
                      std::int64_t t1) {
  if (kept_.size() < keep_limit_) {
    kept_.push_back({layer, static_cast<std::uint8_t>(depth), t0, t1});
  }
}

std::int64_t SpanLedger::total_self_ns() const {
  std::int64_t total = 0;
  for (const std::int64_t ns : self_) total += ns;
  return total;
}

bool SpanLedger::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = kept_.empty() ? 0 : kept_.front().t0;
  for (const Kept& s : kept_) origin = std::min(origin, s.t0);
  std::fputs("{\"traceEvents\":[", f);
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Kept& s = kept_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"depth\":%d}}",
                 i == 0 ? "" : ",\n", layer_name(s.layer),
                 static_cast<double>(s.t0 - origin) / 1e3,
                 static_cast<double>(s.t1 - s.t0) / 1e3, s.depth);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace ledger
