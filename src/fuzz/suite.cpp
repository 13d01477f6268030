#include "fuzz/suite.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "exp/parallel_runner.h"
#include "fuzz/generator.h"
#include "sim/check.h"

namespace eandroid::fuzz {

namespace {

bool parse_bool(const std::string& value, bool* out) {
  if (value == "1" || value == "true") {
    *out = true;
    return true;
  }
  if (value == "0" || value == "false") {
    *out = false;
    return true;
  }
  return false;
}

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

bool SweepConfig::parse(const std::string& text, SweepConfig* out,
                        std::string* error) {
  const auto fail = [error](int line, const std::string& why) {
    if (error != nullptr) {
      std::ostringstream msg;
      msg << "line " << line << ": " << why;
      *error = msg.str();
    }
    return false;
  };
  SweepConfig config;
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string line = trim(raw);
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) return fail(line_no, "expected key = value");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (value.empty()) return fail(line_no, "empty value for " + key);
    try {
      if (key == "first_seed") {
        config.first_seed = std::stoull(value);
      } else if (key == "seeds") {
        config.seeds = std::stoi(value);
      } else if (key == "min_steps") {
        config.min_steps = std::stoi(value);
      } else if (key == "max_steps") {
        config.max_steps = std::stoi(value);
      } else if (key == "tail_us") {
        config.tail_us = std::stoll(value);
      } else if (key == "single_legs") {
        if (!parse_bool(value, &config.single_legs)) {
          return fail(line_no, "expected 0/1 for " + key);
        }
      } else if (key == "fleet_legs") {
        if (!parse_bool(value, &config.fleet_legs)) {
          return fail(line_no, "expected 0/1 for " + key);
        }
      } else if (key == "trace") {
        if (!parse_bool(value, &config.trace)) {
          return fail(line_no, "expected 0/1 for " + key);
        }
      } else if (key == "time_budget_s") {
        config.time_budget_s = std::stod(value);
      } else if (key == "threads") {
        config.threads = static_cast<unsigned>(std::stoul(value));
      } else if (key == "shrink_failures") {
        if (!parse_bool(value, &config.shrink_failures)) {
          return fail(line_no, "expected 0/1 for " + key);
        }
      } else if (key == "max_shrink_candidates") {
        config.max_shrink_candidates = std::stoi(value);
      } else if (key == "artifacts_dir") {
        config.artifacts_dir = value;
      } else {
        return fail(line_no, "unknown key: " + key);
      }
    } catch (const std::exception&) {
      return fail(line_no, "bad number for " + key + ": " + value);
    }
  }
  *out = config;
  return true;
}

ScenarioProgram SweepConfig::program_for(std::uint64_t seed) const {
  GeneratorOptions gen;
  gen.seed = seed;
  gen.min_steps = min_steps;
  gen.max_steps = max_steps;
  gen.tail_us = tail_us;
  return generate(gen);
}

SweepResult run_sweep(const SweepConfig& config) {
  EANDROID_CHECK(config.seeds >= 0, "sweep seed count negative");
  OracleOptions oracle_options;
  oracle_options.single_legs = config.single_legs;
  oracle_options.fleet_legs = config.fleet_legs;
  oracle_options.trace = config.trace;

  struct SeedOutcome {
    std::uint64_t seed = 0;
    ScenarioProgram program;
    OracleVerdict verdict;
  };

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  SweepResult result;
  std::map<std::string, double> leg_totals;
  const unsigned threads = config.threads != 0
                               ? config.threads
                               : std::thread::hardware_concurrency();
  const int batch = static_cast<int>(std::max(1u, threads)) * 4;

  for (int done = 0; done < config.seeds; done += batch) {
    if (config.time_budget_s > 0.0 && done > 0 &&
        elapsed() >= config.time_budget_s) {
      result.budget_exhausted = true;
      break;
    }
    const int count = std::min(batch, config.seeds - done);
    exp::RunnerOptions runner;
    runner.threads = config.threads;
    std::vector<SeedOutcome> outcomes = exp::run_indexed<SeedOutcome>(
        static_cast<std::size_t>(count),
        [&](std::size_t i) {
          SeedOutcome outcome;
          outcome.seed = config.first_seed +
                         static_cast<std::uint64_t>(done) +
                         static_cast<std::uint64_t>(i);
          outcome.program = config.program_for(outcome.seed);
          outcome.verdict = run_oracle(outcome.program, oracle_options);
          return outcome;
        },
        runner);

    for (SeedOutcome& outcome : outcomes) {
      ++result.scenarios_run;
      result.steps_total += outcome.verdict.steps_applied;
      for (const Step& step : outcome.program.steps) {
        ++result.op_steps[static_cast<std::size_t>(step.op)];
      }
      result.metrics.merge(outcome.verdict.metrics);
      for (const LegTiming& t : outcome.verdict.timings) {
        leg_totals[t.leg] += t.seconds;
      }
      if (outcome.verdict.ok()) continue;

      SweepFailure failure;
      failure.seed = outcome.seed;
      failure.original = std::move(outcome.program);
      failure.what = outcome.verdict.failures;
      failure.what.insert(failure.what.end(),
                          outcome.verdict.invariant_violations.begin(),
                          outcome.verdict.invariant_violations.end());
      failure.shrunk = failure.original;
      if (config.shrink_failures) {
        ShrinkOptions shrink_options;
        shrink_options.max_candidates = config.max_shrink_candidates;
        failure.shrunk = shrink(
            failure.original,
            [&oracle_options](const ScenarioProgram& candidate) {
              return !run_oracle(candidate, oracle_options).ok();
            },
            &failure.shrink_stats, shrink_options);
      }
      if (!config.artifacts_dir.empty()) {
        std::filesystem::create_directories(config.artifacts_dir);
        std::ostringstream name;
        name << "shrunk_seed" << failure.seed << ".prog";
        const std::filesystem::path path =
            std::filesystem::path(config.artifacts_dir) / name.str();
        std::ofstream file(path);
        file << "# fuzz reproducer: seed " << failure.seed << "\n";
        for (const std::string& what : failure.what) {
          file << "# " << what << "\n";
        }
        file << failure.shrunk.serialize();
        failure.artifact_path = path.string();
      }
      result.failures.push_back(std::move(failure));
    }
  }

  for (const auto& [leg, seconds] : leg_totals) {
    result.leg_seconds.push_back({leg, seconds});
  }
  result.elapsed_s = elapsed();
  return result;
}

}  // namespace eandroid::fuzz
