// Corpus replay: every committed reproducer under tests/fuzz/corpus/ is
// parsed, grammar-checked, and replayed through the FULL stacked oracle,
// forever. A program lands here because it once broke (or was hand-built
// to stress) an equivalence leg — this suite is the regression ratchet
// that keeps those scenarios green.
//
// The same files, cut and corrupted, also drive the parser robustness
// sweep: ScenarioProgram::parse reads untrusted text (a reproducer pasted
// from a CI artifact, a hand-edited corpus file), so on ANY input it must
// either return false with a "line N: why" message, or return a program
// that validate() then judges — never throw, never crash. The sweep runs
// in tier-1, and so under ASan+UBSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/oracle.h"
#include "fuzz/program.h"
#include "sim/rng.h"

namespace eandroid::fuzz {
namespace {

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(EANDROID_FUZZ_CORPUS_DIR)) {
    if (entry.path().extension() == ".prog") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(CorpusReplayTest, CorpusIsPresentAndGrammatical) {
  const auto files = corpus_files();
  ASSERT_GE(files.size(), 5u) << "corpus went missing from "
                              << EANDROID_FUZZ_CORPUS_DIR;
  for (const auto& path : files) {
    ScenarioProgram program;
    std::string error;
    ASSERT_TRUE(ScenarioProgram::parse(slurp(path), &program, &error))
        << path << ": " << error;
    std::vector<std::string> problems;
    EXPECT_TRUE(validate(program, &problems))
        << path << ": " << problems.front();
    // The canonical-form contract: committed reproducers re-serialize to
    // the bytes on disk minus leading comment lines.
    std::string text = slurp(path);
    std::string body;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      if (!line.empty() && line[0] == '#') continue;
      body += line + "\n";
    }
    EXPECT_EQ(program.serialize(), body) << path;
  }
}

TEST(CorpusReplayTest, EveryReproducerPassesTheFullOracle) {
  for (const auto& path : corpus_files()) {
    ScenarioProgram program;
    std::string error;
    ASSERT_TRUE(ScenarioProgram::parse(slurp(path), &program, &error))
        << path << ": " << error;
    const OracleVerdict verdict = run_oracle(program);
    EXPECT_TRUE(verdict.ok()) << path << ":\n" << verdict.to_string();
    EXPECT_EQ(verdict.steps_applied, program.steps.size()) << path;
  }
}

/// "line N: why" with N a real (1-based) line number.
bool line_numbered(const std::string& error) {
  if (error.rfind("line ", 0) != 0) return false;
  std::size_t i = 5;
  if (i >= error.size() || error[i] < '1' || error[i] > '9') return false;
  while (i < error.size() &&
         std::isdigit(static_cast<unsigned char>(error[i])) != 0) {
    ++i;
  }
  return error.compare(i, 2, ": ") == 0;
}

/// Parses `text`; on failure requires a line-numbered message, on success
/// runs validate(). Returns true iff the parse succeeded. Any exception
/// escapes into the test as a failure.
bool judge(const std::string& text, const std::string& what) {
  ScenarioProgram program;
  std::string error;
  if (!ScenarioProgram::parse(text, &program, &error)) {
    EXPECT_TRUE(line_numbered(error)) << what << ": '" << error << "'";
    return false;
  }
  std::vector<std::string> problems;
  (void)validate(program, &problems);
  return true;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line + "\n");
  return lines;
}

TEST(ProgramTest, ParseNamesTheMissingLineAtEndOfInput) {
  // Input that ends early names the line that is missing (one past the
  // last), never "line 0".
  ScenarioProgram out;
  std::string error;
  EXPECT_FALSE(ScenarioProgram::parse("", &out, &error));
  EXPECT_EQ(error.rfind("line 1: ", 0), 0u) << error;
  EXPECT_FALSE(
      ScenarioProgram::parse("eandroid-fuzz-program v1\nseed 1\n", &out,
                             &error));
  EXPECT_EQ(error.rfind("line 3: ", 0), 0u) << error;
}

TEST(ProgramTest, TruncatedAndMutatedCorpusNeverThrows) {
  const auto files = corpus_files();
  ASSERT_EQ(files.size(), 6u) << EANDROID_FUZZ_CORPUS_DIR;
  sim::Rng rng(0xC0FFEE);
  int parsed = 0;
  int rejected = 0;
  for (const auto& path : files) {
    const std::string text = slurp(path);
    const std::string name = path.filename().string();
    ASSERT_TRUE(judge(text, name));

    // Every truncated prefix, including the empty one.
    for (std::size_t n = 0; n < text.size(); ++n) {
      (judge(text.substr(0, n), name + " prefix " + std::to_string(n))
           ? parsed
           : rejected)++;
    }

    // Byte flips: XOR one byte with a non-zero mask.
    for (int i = 0; i < 150; ++i) {
      std::string mutated = text;
      const std::size_t at = rng.below(mutated.size());
      mutated[at] = static_cast<char>(
          static_cast<unsigned char>(mutated[at]) ^ (1 + rng.below(255)));
      (judge(mutated, name + " flip@" + std::to_string(at)) ? parsed
                                                             : rejected)++;
    }

    // Deletions: drop a run of 1..8 bytes.
    for (int i = 0; i < 100; ++i) {
      std::string mutated = text;
      const std::size_t at = rng.below(mutated.size());
      const std::size_t len = 1 + rng.below(8);
      mutated.erase(at, len);
      (judge(mutated, name + " erase@" + std::to_string(at) + "+" +
                          std::to_string(len))
           ? parsed
           : rejected)++;
    }

    // Duplicated lines: repeat one line in place.
    const std::vector<std::string> lines = lines_of(text);
    for (int i = 0; i < 50; ++i) {
      const std::size_t dup = rng.below(lines.size());
      std::string mutated;
      for (std::size_t l = 0; l < lines.size(); ++l) {
        mutated += lines[l];
        if (l == dup) mutated += lines[l];
      }
      (judge(mutated, name + " dup line " + std::to_string(dup + 1))
           ? parsed
           : rejected)++;
    }
  }
  // Both outcomes occur: the sweep reaches the parser's error paths and
  // hands accepted programs to validate().
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace eandroid::fuzz
