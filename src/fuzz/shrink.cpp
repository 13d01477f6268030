#include "fuzz/shrink.h"

#include <algorithm>
#include <vector>

#include "sim/check.h"

namespace eandroid::fuzz {

namespace {

class Shrinker {
 public:
  Shrinker(const std::function<bool(const ScenarioProgram&)>& still_fails,
           ShrinkStats* stats, const ShrinkOptions& options)
      : still_fails_(still_fails), stats_(stats), options_(options) {}

  /// Repair + validate + predicate, with bookkeeping and the candidate
  /// budget. Returns true iff `candidate` is a valid program that still
  /// fails; on true, *candidate holds its repaired form.
  bool attempt(ScenarioProgram* candidate) {
    if (stats_ != nullptr &&
        stats_->candidates >= options_.max_candidates) {
      return false;
    }
    ScenarioProgram repaired = repair(*candidate);
    if (!validate(repaired)) return false;
    if (stats_ != nullptr) ++stats_->candidates;
    if (!still_fails_(repaired)) return false;
    if (stats_ != nullptr) ++stats_->still_failing;
    *candidate = std::move(repaired);
    return true;
  }

  /// Classic ddmin over the step list.
  ScenarioProgram ddmin(ScenarioProgram program) {
    std::size_t chunks = 2;
    while (program.steps.size() >= 2) {
      const std::size_t n = program.steps.size();
      chunks = std::min(chunks, n);
      const std::size_t chunk = (n + chunks - 1) / chunks;
      bool reduced = false;
      for (std::size_t begin = 0; begin < n; begin += chunk) {
        ScenarioProgram candidate = program;
        const auto first =
            candidate.steps.begin() + static_cast<std::ptrdiff_t>(begin);
        const auto last =
            candidate.steps.begin() +
            static_cast<std::ptrdiff_t>(std::min(n, begin + chunk));
        candidate.steps.erase(first, last);
        if (candidate.steps.empty()) continue;
        // repair() may drop dependents too, so require genuine progress.
        if (attempt(&candidate) &&
            candidate.steps.size() < program.steps.size()) {
          program = std::move(candidate);
          chunks = std::max<std::size_t>(2, chunks - 1);
          reduced = true;
          break;
        }
      }
      if (!reduced) {
        if (chunks >= program.steps.size()) break;
        chunks = std::min(program.steps.size(), chunks * 2);
      }
    }
    return program;
  }

  /// Walks each step's a/b toward zero: try 0, then 1, then binary
  /// descent from the current value, keeping anything that still fails.
  /// Range legality is delegated to validate() inside attempt(); an
  /// accepted candidate's repair() may drop steps — step i included — so
  /// the bound is re-checked after every one.
  ScenarioProgram minimize_params(ScenarioProgram program) {
    for (std::size_t i = 0; i < program.steps.size(); ++i) {
      for (const bool is_a : {true, false}) {
        while (i < program.steps.size()) {
          const std::int32_t current =
              is_a ? program.steps[i].a : program.steps[i].b;
          if (current <= 0) break;
          bool lowered = false;
          for (const std::int32_t value :
               {std::int32_t{0}, std::int32_t{1}, current / 2}) {
            if (value >= current) continue;
            ScenarioProgram candidate = program;
            (is_a ? candidate.steps[i].a : candidate.steps[i].b) = value;
            if (attempt(&candidate)) {
              program = std::move(candidate);
              lowered = true;
              break;
            }
          }
          if (!lowered) break;
        }
      }
    }
    return program;
  }

  /// Moves steps earlier. For each step in order, the gap before it (from
  /// the previous step, or from time zero) shrinks by shifting that step,
  /// every later step and the horizon back together, so the gaps after it
  /// and the settle tail are kept: the earliest legal instant first (1 us
  /// after its predecessor), then binary descent between the latest
  /// instant seen passing and the earliest seen failing, down to a 1 ms
  /// gap. Order stays strictly increasing by construction.
  ScenarioProgram minimize_times(ScenarioProgram program) {
    constexpr std::int64_t kGrainUs = 1'000;
    const auto shifted = [](ScenarioProgram p, std::size_t from,
                            std::int64_t at_us) {
      const std::int64_t by = p.steps[from].at_us - at_us;
      for (std::size_t j = from; j < p.steps.size(); ++j) {
        p.steps[j].at_us -= by;
      }
      p.horizon_us -= by;
      return p;
    };
    for (std::size_t i = 0; i < program.steps.size(); ++i) {
      const std::int64_t floor_us =
          i == 0 ? 1 : program.steps[i - 1].at_us + 1;
      if (program.steps[i].at_us <= floor_us) continue;
      ScenarioProgram candidate = shifted(program, i, floor_us);
      if (attempt(&candidate)) {
        program = std::move(candidate);
        continue;
      }
      std::int64_t passing = floor_us;
      while (i < program.steps.size() &&
             program.steps[i].at_us - passing > kGrainUs) {
        const std::int64_t at_us =
            passing + (program.steps[i].at_us - passing) / 2;
        candidate = shifted(program, i, at_us);
        if (attempt(&candidate)) {
          program = std::move(candidate);
        } else {
          passing = at_us;
        }
      }
    }
    return program;
  }

  /// Lowers horizon_us toward the earliest value validate() accepts (the
  /// last step's instant): that instant first, then binary descent
  /// between the highest horizon seen passing and the lowest seen
  /// failing, down to a 1 ms gap.
  ScenarioProgram minimize_horizon(ScenarioProgram program) {
    constexpr std::int64_t kGrainUs = 1'000;
    const std::int64_t floor_us =
        program.steps.empty() ? 1 : program.steps.back().at_us;
    if (program.horizon_us <= floor_us) return program;
    ScenarioProgram candidate = program;
    candidate.horizon_us = floor_us;
    if (attempt(&candidate)) return candidate;
    std::int64_t passing = floor_us;
    while (program.horizon_us - passing > kGrainUs) {
      candidate = program;
      candidate.horizon_us = passing + (program.horizon_us - passing) / 2;
      if (attempt(&candidate)) {
        program = std::move(candidate);
      } else {
        passing = candidate.horizon_us;
      }
    }
    return program;
  }

 private:
  const std::function<bool(const ScenarioProgram&)>& still_fails_;
  ShrinkStats* stats_;
  const ShrinkOptions& options_;
};

}  // namespace

ScenarioProgram shrink(
    const ScenarioProgram& program,
    const std::function<bool(const ScenarioProgram&)>& still_fails,
    ShrinkStats* stats, const ShrinkOptions& options) {
  EANDROID_CHECK(validate(program), "shrink input fails the grammar");
  EANDROID_CHECK(still_fails(program),
                 "shrink asked to reduce a PASSING program");
  ShrinkStats local;
  ShrinkStats* tracked = stats != nullptr ? stats : &local;
  *tracked = ShrinkStats{};
  tracked->initial_steps = static_cast<int>(program.steps.size());

  Shrinker shrinker(still_fails, tracked, options);
  ScenarioProgram reduced = shrinker.ddmin(program);
  reduced = shrinker.minimize_params(std::move(reduced));
  reduced = shrinker.minimize_times(std::move(reduced));
  reduced = shrinker.minimize_horizon(std::move(reduced));

  tracked->final_steps = static_cast<int>(reduced.steps.size());
  return reduced;
}

}  // namespace eandroid::fuzz
