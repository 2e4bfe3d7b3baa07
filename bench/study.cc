// The study registry and StudyMain, the ac3_study command line (see
// study.h).

#include "bench/study.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include "src/runner/bench_output.h"

namespace ac3::bench {
namespace {

// The floors' factors absorb the gap between a CI runner's smoke run and
// the host of the committed full run. PoW's is lower because the committed
// rate rides the AVX-512 nonce scan, which a runner may lack: its SHA-NI
// or AVX2 rung clears a tenth of it, a scalar-only runner does not.
constexpr double kGrowthFactor = 0.5;
constexpr double kPowFactor = 0.1;
constexpr double kWorldsFactor = 0.05;

/// The number at `key` in `object`.
Result<double> NumberAt(const runner::Json& object, const char* key) {
  const runner::Json* value = object.Find(key);
  if (value == nullptr || !value->is_number()) {
    return Status::InvalidArgument(std::string("no numeric ") + key);
  }
  return value->AsDouble();
}

/// engine_hotpaths: the slowest chain-growth segment's blocks/sec.
Result<double> SlowestGrowthRate(const runner::Json& wall) {
  const runner::Json* segments = wall.Find("chain_growth_segments");
  if (segments == nullptr || segments->items().empty()) {
    return Status::InvalidArgument("no chain_growth_segments");
  }
  double slowest = std::numeric_limits<double>::infinity();
  for (const runner::Json& segment : segments->items()) {
    Result<double> rate = NumberAt(segment, "blocks_per_sec");
    if (!rate.ok()) return rate;
    slowest = std::min(slowest, *rate);
  }
  return slowest;
}

/// engine_hotpaths: the PoW workload's evals/sec on the active rung.
Result<double> PowRate(const runner::Json& wall) {
  const runner::Json* pow = wall.Find("pow");
  if (pow == nullptr) return Status::InvalidArgument("no pow section");
  Result<double> rate = NumberAt(*pow, "evals_per_sec");
  if (rate.ok() && *rate <= 0) {
    return Status::InvalidArgument("non-positive pow evals_per_sec");
  }
  return rate;
}

/// A grid study's worlds/sec.
Result<double> WorldsPerSec(const runner::Json& wall) {
  return NumberAt(wall, "worlds_per_sec");
}

/// The rate each of `study`'s floors reads in DIR/BENCH_<name>.json.
Result<std::vector<double>> BaselineRates(const Study& study,
                                          const std::string& dir) {
  const std::string path = dir + "/BENCH_" + study.name + ".json";
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read baseline " + path);
  const std::string text{std::istreambuf_iterator<char>(in), {}};
  Result<runner::Json> envelope = runner::Json::Parse(text);
  if (!envelope.ok()) {
    return Status::InvalidArgument(path + ": " + envelope.status().message());
  }
  const runner::Json* wall = envelope->Find("wall");
  if (wall == nullptr) return Status::InvalidArgument(path + ": no wall");
  std::vector<double> rates;
  for (const Floor& floor : study.floors) {
    Result<double> rate = floor.rate(*wall);
    if (!rate.ok()) {
      return Status::InvalidArgument(path + ": " + rate.status().message());
    }
    rates.push_back(*rate);
  }
  return rates;
}

/// Prints one verdict line per floor; false when the fresh run misses a
/// floor or lacks its rate.
bool FloorsHold(const Study& study, const runner::Json& wall,
                const std::vector<double>& committed) {
  bool held = true;
  for (size_t i = 0; i < study.floors.size(); ++i) {
    const Floor& floor = study.floors[i];
    const Result<double> fresh = floor.rate(wall);
    if (!fresh.ok()) {
      std::fprintf(stderr, "%s: %s\n", floor.label,
                   fresh.status().ToString().c_str());
      held = false;
      continue;
    }
    const double bound = floor.factor * committed[i];
    const bool ok = *fresh >= bound;
    std::printf("%s: fresh %.0f vs floor %.0f (%g x committed %.0f) -> %s\n",
                floor.label, *fresh, bound, floor.factor, committed[i],
                ok ? "OK" : "REGRESSION");
    held = held && ok;
  }
  return held;
}

}  // namespace

const std::vector<Study>& Studies() {
  static const std::vector<Study> studies = {
      {"ablation_validation", AblationValidation, {}},
      {"atomicity_failures", AtomicityFailures, {}},
      {"commit_study",
       CommitStudy,
       {{"commit-study grid throughput (worlds/s)", kWorldsFactor,
         WorldsPerSec}}},
      {"engine_hotpaths",
       EngineHotpaths,
       {{"chain growth (blocks/s)", kGrowthFactor, SlowestGrowthRate},
        {"pow (evals/s)", kPowFactor, PowRate}}},
      {"fig10_latency_vs_diameter", Fig10LatencyVsDiameter, {}},
      {"fig8_herlihy_timeline", Fig8HerlihyTimeline, {}},
      {"fig9_ac3wn_timeline", Fig9Ac3wnTimeline, {}},
      {"fork_resolution", ForkResolution, {}},
      {"message_overhead",
       MessageOverhead,
       {{"message-overhead grid throughput (worlds/s)", kWorldsFactor,
         WorldsPerSec}}},
      {"scalability", Scalability, {}},
      {"sec62_cost_overhead", Sec62CostOverhead, {}},
      {"sec63_witness_choice", Sec63WitnessChoice, {}},
      {"table1_throughput", Table1Throughput, {}},
      {"topology_matrix", TopologyMatrix, {}},
  };
  return studies;
}

int StudyMain(int argc, char** argv) {
  const Options options = Options::Parse(argc, argv);
  if (options.exit_early) return options.exit_code;
  if (options.list) {
    for (const Study& study : Studies()) std::printf("%s\n", study.name);
    return 0;
  }
  const auto found = std::find_if(
      Studies().begin(), Studies().end(),
      [&](const Study& study) { return options.study == study.name; });
  if (found == Studies().end()) {
    if (options.study.empty()) {
      std::fprintf(stderr, "missing study name (see --list)\n");
    } else {
      std::fprintf(stderr, "unknown study: %s (see --list)\n",
                   options.study.c_str());
    }
    internal::PrintUsage(argv[0]);
    return 1;
  }
  const Study& study = *found;

  // Everything that can refuse the run does so before it starts.
  std::error_code error;
  if (!std::filesystem::is_directory(options.out_dir, error) ||
      ::access(options.out_dir.c_str(), W_OK | X_OK) != 0) {
    std::fprintf(stderr, "--out %s: not a writable directory\n",
                 options.out_dir.c_str());
    return 1;
  }
  const bool check_floors =
      !options.baseline_dir.empty() && !study.floors.empty();
  std::vector<double> committed;
  if (check_floors) {
    Result<std::vector<double>> rates =
        BaselineRates(study, options.baseline_dir);
    if (!rates.ok()) {
      std::fprintf(stderr, "%s\n", rates.status().ToString().c_str());
      return 1;
    }
    committed = std::move(*rates);
  }

  StudyRun run = study.run(options);
  const auto written = runner::WriteBenchJson(
      options, study.name, std::move(run.results), run.wall);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.status().ToString().c_str());
  }
  const bool floors_held =
      !check_floors || FloorsHold(study, run.wall, committed);
  return run.claims_held && written.ok() && floors_held ? 0 : 1;
}

}  // namespace ac3::bench
