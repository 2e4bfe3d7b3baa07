// The study registry and StudyMain, the ac3_study command line
// (bench/study.{h,cc}). Every registered study runs at --smoke through
// StudyMain, as the binary does, one ctest case each, so a study whose
// own claim fails exits non-zero here: the §5.3 gap (topology_matrix),
// the blocking/nonblocking separation (commit_study), the closed-form
// message counts (message_overhead), zero witnessed violations
// (atomicity_failures) and PoW dispatch invariance (engine_hotpaths). The
// CI floors compare timings, which do not hold under the sanitizers, so
// no case here reads a committed envelope; the floor cases use baselines
// no host can meet or miss.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/study.h"
#include "src/runner/json.h"

namespace ac3 {
namespace {

/// Runs StudyMain on `args`, as `ac3_study args...` would.
int StudyCli(std::vector<std::string> args) {
  args.insert(args.begin(), "ac3_study");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return bench::StudyMain(static_cast<int>(argv.size()), argv.data());
}

/// A fresh, empty directory under the test temp dir.
std::string ScratchDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / ("ac3_study_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<const char*> StudyNames() {
  std::vector<const char*> names;
  for (const bench::Study& study : bench::Studies()) {
    names.push_back(study.name);
  }
  return names;
}

class StudySmokeTest : public testing::TestWithParam<const char*> {};

TEST_P(StudySmokeTest, ClaimsHold) {
  const std::string name = GetParam();
  const std::string out = ScratchDir(name);
  ASSERT_EQ(StudyCli({name, "--smoke", "--out", out}), 0);
  const auto envelope =
      runner::Json::Parse(ReadFile(out + "/BENCH_" + name + ".json"));
  ASSERT_TRUE(envelope.ok()) << envelope.status();
  EXPECT_EQ(envelope->at("bench").AsString(), name);
  EXPECT_TRUE(envelope->at("smoke").AsBool());
  EXPECT_TRUE(envelope->at("wall").Has("wall_ms_total"));
  std::filesystem::remove_all(out);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, StudySmokeTest, testing::ValuesIn(StudyNames()),
    [](const testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

TEST(StudyCliTest, ListPrintsEveryStudyInNameOrder) {
  testing::internal::CaptureStdout();
  EXPECT_EQ(StudyCli({"--list"}), 0);
  const std::string listed = testing::internal::GetCapturedStdout();
  const std::vector<const char*> names = StudyNames();
  std::string expected;
  for (const char* name : names) expected += std::string(name) + "\n";
  EXPECT_EQ(listed, expected);
  EXPECT_TRUE(std::is_sorted(
      names.begin(), names.end(),
      [](const char* a, const char* b) { return std::string(a) < b; }));
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end(),
                               [](const char* a, const char* b) {
                                 return std::string(a) == b;
                               }),
            names.end());
}

TEST(StudyCliTest, BadCommandLinesFailWithoutRunningAStudy) {
  testing::internal::CaptureStdout();
  EXPECT_NE(StudyCli({"--smoke"}), 0);  // No NAME.
  EXPECT_NE(StudyCli({"no_such_study", "--smoke"}), 0);
  EXPECT_NE(StudyCli({"scalability", "--smoke", "--seed", "5"}), 0);
  EXPECT_NE(StudyCli({"scalability", "fig8_herlihy_timeline", "--smoke"}),
            0);
  EXPECT_NE(StudyCli({"fig8_herlihy_timeline", "--smoke", "--out",
                      "/nonexistent/ac3_study"}),
            0);
  // No study printed its banner.
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
}

TEST(StudyCliTest, MissingOrMalformedBaselineFailsBeforeTheRun) {
  const std::string out = ScratchDir("baseline_errors_out");
  const std::string baseline = ScratchDir("baseline_errors");
  const std::vector<std::string> args = {"message_overhead", "--smoke",
                                         "--out",            out,
                                         "--baseline",       baseline};
  const std::string path = baseline + "/BENCH_message_overhead.json";
  testing::internal::CaptureStdout();
  EXPECT_NE(StudyCli(args), 0);  // No file.
  std::ofstream(path) << R"({"wall": {"worlds_per_sec": )";
  EXPECT_NE(StudyCli(args), 0);  // Not JSON.
  std::ofstream(path) << R"({"wall": {"wall_ms_total": 5}})";
  EXPECT_NE(StudyCli(args), 0);  // No worlds_per_sec.
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
  EXPECT_FALSE(std::filesystem::exists(out + "/BENCH_message_overhead.json"));
  std::filesystem::remove_all(out);
  std::filesystem::remove_all(baseline);
}

TEST(StudyCliTest, MissedFloorFailsTheRunAndIsNamed) {
  const std::string out = ScratchDir("floors_out");
  const std::string baseline = ScratchDir("floors");
  // No host grows a chain at 1e12 blocks/s, and every host mines above
  // 0.1 evals/s.
  std::ofstream(baseline + "/BENCH_engine_hotpaths.json") << R"({"wall": {
      "chain_growth_segments": [{"blocks_per_sec": 3e12},
                                {"blocks_per_sec": 1e12}],
      "pow": {"evals_per_sec": 1}}})";
  testing::internal::CaptureStdout();
  EXPECT_EQ(StudyCli({"engine_hotpaths", "--smoke", "--out", out,
                      "--baseline", baseline}),
            1);
  const std::string printed = testing::internal::GetCapturedStdout();
  EXPECT_NE(printed.find("chain growth (blocks/s): fresh "),
            std::string::npos);
  EXPECT_NE(printed.find(" vs floor 500000000000 (0.5 x committed "
                         "1000000000000) -> REGRESSION\n"),
            std::string::npos);
  EXPECT_NE(printed.find("pow (evals/s): fresh "), std::string::npos);
  EXPECT_NE(printed.find(" vs floor 0 (0.1 x committed 1) -> OK\n"),
            std::string::npos);
  // The envelope is written whatever the verdict.
  EXPECT_TRUE(std::filesystem::exists(out + "/BENCH_engine_hotpaths.json"));
  std::filesystem::remove_all(out);
  std::filesystem::remove_all(baseline);
}

}  // namespace
}  // namespace ac3
