#include "exp/parallel_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace eandroid::exp {
namespace {

TEST(ParallelRunnerTest, CollectsResultsInSubmissionOrder) {
  // Jobs finish in scrambled order (later jobs are cheaper), but the
  // result vector must follow submission order.
  const std::vector<int> results = run_indexed<int>(
      32,
      [](std::size_t i) {
        // Busy-work inversely proportional to the index.
        volatile std::uint64_t sink = 0;
        for (std::size_t k = 0; k < (32 - i) * 10000; ++k) {
          sink = sink + k;
        }
        return static_cast<int>(i * i);
      },
      {.threads = 4});
  ASSERT_EQ(results.size(), 32u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i * i)) << "slot " << i;
  }
}

TEST(ParallelRunnerTest, RethrowsJobExceptionAfterAllJobsFinish) {
  std::atomic<int> finished{0};
  ParallelRunner<int> runner({.threads = 2});
  std::vector<ParallelRunner<int>::Job> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back([i, &finished]() -> int {
      if (i == 3) throw std::runtime_error("seed 3 diverged");
      ++finished;
      return i;
    });
  }
  EXPECT_THROW(runner.run(std::move(jobs)), std::runtime_error);
  // No job was abandoned because of the failing one.
  EXPECT_EQ(finished.load(), 7);
}

TEST(ParallelRunnerTest, SerialPathMatchesParallelPath) {
  const auto square = [](std::size_t i) { return static_cast<int>(i * 3); };
  std::vector<ParallelRunner<int>::Job> jobs;
  for (std::size_t i = 0; i < 16; ++i) jobs.push_back([=] { return square(i); });
  const auto serial = ParallelRunner<int>::run_serial(std::move(jobs));
  const auto parallel =
      run_indexed<int>(16, square, {.threads = 4});
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelRunnerTest, ResultNeedNotBeDefaultConstructible) {
  struct Tagged {
    explicit Tagged(std::size_t v) : value(v) {}
    std::size_t value;
  };
  const std::vector<Tagged> results = run_indexed<Tagged>(
      40, [](std::size_t i) { return Tagged(i + 1); }, {.threads = 4});
  ASSERT_EQ(results.size(), 40u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].value, i + 1) << "slot " << i;
  }
}

// A chunked run is a caller batching many small jobs into blocks, one
// runner job per block, instead of one runner job per item.
std::vector<std::string> run_in_blocks(
    const std::vector<ParallelRunner<std::string>::Job>& jobs,
    std::size_t block, unsigned threads) {
  const std::size_t blocks = (jobs.size() + block - 1) / block;
  const std::vector<std::vector<std::string>> parts =
      run_indexed<std::vector<std::string>>(
          blocks,
          [&jobs, block](std::size_t b) {
            std::vector<std::string> part;
            for (std::size_t i = b * block;
                 i < std::min(jobs.size(), (b + 1) * block); ++i) {
              part.push_back(jobs[i]());
            }
            return part;
          },
          {.threads = threads});
  std::vector<std::string> flat;
  for (const std::vector<std::string>& part : parts) {
    flat.insert(flat.end(), part.begin(), part.end());
  }
  return flat;
}

TEST(ParallelRunnerChunkTest, ChunkedRunMatchesSerialBitwise) {
  constexpr std::size_t kJobs = 512;
  std::vector<ParallelRunner<std::string>::Job> jobs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    jobs.push_back([i] { return "job-" + std::to_string(i * i); });
  }
  const std::vector<std::string> serial =
      ParallelRunner<std::string>::run_serial(jobs);
  EXPECT_EQ(ParallelRunner<std::string>({.threads = 4}).run(jobs), serial);
  EXPECT_EQ(run_in_blocks(jobs, 16, 4), serial);
  EXPECT_EQ(run_in_blocks(jobs, 1000, 4), serial);  // one block holds all
}

TEST(ParallelRunnerChunkTest, ChunkedRunRethrowsLowestIndexError) {
  std::atomic<int> finished{0};
  std::vector<ParallelRunner<std::string>::Job> jobs;
  for (int i = 0; i < 64; ++i) {
    jobs.push_back([i, &finished]() -> std::string {
      if (i == 11 || i == 50) throw std::runtime_error(std::to_string(i));
      ++finished;
      return std::to_string(i);
    });
  }
  try {
    ParallelRunner<std::string>({.threads = 3}).run(jobs);
    FAIL() << "expected a job exception";
  } catch (const std::runtime_error& e) {
    // The lowest-index failure wins, whichever job threw first in time.
    EXPECT_STREQ(e.what(), "11");
  }
  // No job was abandoned because of the failing ones.
  EXPECT_EQ(finished.load(), 62);
  try {
    run_in_blocks(jobs, 8, 3);
    FAIL() << "expected a block exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "11");
  }
}

}  // namespace
}  // namespace eandroid::exp
