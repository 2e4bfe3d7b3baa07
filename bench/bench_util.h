// Shared scaffolding for the studies behind ac3_study: the uniform
// study CLI (bench::Options), fixed-width table printing, and the
// grid-study helpers the sweep studies share. Studies build engines with
// their default configs, the swap-world profile (protocols::EngineConfig).
// Measurement, parallel sweeping, and machine-readable output live in
// src/runner/; the registry and StudyMain in bench/study.{h,cc}.

#ifndef AC3_BENCH_BENCH_UTIL_H_
#define AC3_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/scenario.h"
#include "src/graph/ac2t_graph.h"
#include "src/runner/bench_output.h"
#include "src/runner/sweep_runner.h"

namespace ac3::bench {

namespace internal {

/// One row of the shared flag table — the single source for parsing AND
/// the generated --help text, so the two cannot drift.
struct FlagSpec {
  const char* name;        ///< e.g. "--out".
  const char* value_name;  ///< Operand placeholder; nullptr = boolean flag.
  const char* help;        ///< One usage line.
};

inline constexpr FlagSpec kFlags[] = {
    {"--list", nullptr, "print the study names, one a line, and exit"},
    {"--smoke", nullptr, "tiny grid (<10s), for CI bit-rot checks"},
    {"--out", "DIR", "directory for BENCH_<name>.json (default: .)"},
    {"--threads", "N", "sweep worker threads (default: all cores)"},
    {"--protocols", "LIST", "e.g. herlihy,ac3tw,ac3wn (sweep studies)"},
    {"--topologies", "LIST", "e.g. ring,path,star,complete,random_feasible"},
    {"--failures", "LIST", "e.g. none,crash_participant"},
    {"--baseline", "DIR", "check floors against DIR/BENCH_<name>.json"},
    {"--help", nullptr, "print this usage text and exit"},
};

/// Usage text generated from the flag table.
inline void PrintUsage(const char* argv0) {
  std::fprintf(stderr, "usage: %s --list\n       %s NAME [flags]\n", argv0,
               argv0);
  for (const FlagSpec& flag : kFlags) {
    char left[32];
    std::snprintf(left, sizeof(left), "%s%s%s", flag.name,
                  flag.value_name != nullptr ? " " : "",
                  flag.value_name != nullptr ? flag.value_name : "");
    std::fprintf(stderr, "  %-19s %s\n", left, flag.help);
  }
}

inline std::vector<std::string> SplitCommaList(const std::string& list) {
  std::vector<std::string> out;
  size_t begin = 0;
  while (begin <= list.size()) {
    size_t end = list.find(',', begin);
    if (end == std::string::npos) end = list.size();
    if (end > begin) out.push_back(list.substr(begin, end - begin));
    begin = end + 1;
  }
  return out;
}

}  // namespace internal

/// The ac3_study command line, parsed once by StudyMain.
/// Extends runner::BenchContext (which the JSON envelope writer consumes)
/// with the study name, --list and --baseline, and folds the old
/// free-standing runner::ApplyAxisOverrides into a member.
///
/// The axis flags parse through the same name tables the JSON output uses
/// (runner::Parse*), so the CLI, the printers, and the files cannot drift.
struct Options : runner::BenchContext {
  /// The positional NAME: which study to run.
  std::string study;
  /// --list: print the registered names instead of running a study.
  bool list = false;
  /// --baseline DIR; empty = check no floors.
  std::string baseline_dir;

  /// Overwrites the grid's protocol/topology/failure axes with any
  /// non-empty override this CLI carried.
  void ApplyAxisOverrides(runner::SweepGridConfig* grid) const {
    if (!protocols.empty()) grid->protocols = protocols;
    if (!topologies.empty()) grid->topologies = topologies;
    if (!failures.empty()) grid->failures = failures;
  }

  /// Parses the CLI strictly: an unknown flag, a bad value or a second
  /// positional argument prints usage to stderr and sets exit_early with a
  /// non-zero exit_code; --help sets exit_early with exit_code 0.
  static Options Parse(int argc, char** argv) {
    Options options;
    for (int i = 1; i < argc; ++i) {
      const char* arg =
          std::strcmp(argv[i], "-h") == 0 ? "--help" : argv[i];
      if (arg[0] != '-' && options.study.empty()) {
        options.study = arg;
        continue;
      }
      const internal::FlagSpec* spec = nullptr;
      for (const internal::FlagSpec& flag : internal::kFlags) {
        if (std::strcmp(arg, flag.name) == 0) {
          spec = &flag;
          break;
        }
      }
      if (spec == nullptr) {
        std::fprintf(stderr, "%s: %s\n",
                     arg[0] == '-' ? "unknown flag" : "unexpected argument",
                     arg);
        internal::PrintUsage(argv[0]);
        options.exit_early = true;
        options.exit_code = 1;
        return options;
      }
      if (std::strcmp(arg, "--help") == 0) {
        internal::PrintUsage(argv[0]);
        options.exit_early = true;
        return options;
      }
      if (std::strcmp(arg, "--list") == 0) {
        options.list = true;
        continue;
      }
      if (std::strcmp(arg, "--smoke") == 0) {
        options.smoke = true;
        continue;
      }
      // Every remaining flag takes a value.
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", arg);
        internal::PrintUsage(argv[0]);
        options.exit_early = true;
        options.exit_code = 1;
        return options;
      }
      const std::string value = argv[++i];
      if (std::strcmp(arg, "--out") == 0) {
        options.out_dir = value;
      } else if (std::strcmp(arg, "--baseline") == 0) {
        options.baseline_dir = value;
      } else if (std::strcmp(arg, "--threads") == 0) {
        options.threads = std::atoi(value.c_str());
      } else if (std::strcmp(arg, "--protocols") == 0) {
        ParseAxisList("--protocols", value, runner::ParseProtocol,
                      &options.protocols, &options, argv[0]);
      } else if (std::strcmp(arg, "--topologies") == 0) {
        ParseAxisList("--topologies", value, runner::ParseTopology,
                      &options.topologies, &options, argv[0]);
      } else {
        ParseAxisList("--failures", value, runner::ParseFailureMode,
                      &options.failures, &options, argv[0]);
      }
      if (options.exit_early) return options;
    }
    return options;
  }

 private:
  /// Parses a comma list through the shared axis-name table `parse`; on
  /// failure prints the status and flags a non-zero exit.
  template <typename E, typename ParseFn>
  static void ParseAxisList(const char* flag, const std::string& list,
                            ParseFn parse, std::vector<E>* out,
                            Options* options, const char* argv0) {
    for (const std::string& token : internal::SplitCommaList(list)) {
      auto parsed = parse(token);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s: %s\n", flag,
                     parsed.status().ToString().c_str());
        internal::PrintUsage(argv0);
        options->exit_early = true;
        options->exit_code = 1;
        return;
      }
      out->push_back(*parsed);
    }
  }
};

}  // namespace ac3::bench

namespace ac3::benchutil {

/// printf-style row helpers so every harness prints aligned tables.
inline void PrintRule(int width = 72) {
  std::string rule(static_cast<size_t>(width), '-');
  std::printf("%s\n", rule.c_str());
}

inline void PrintHeader(const std::string& title, int width = 72) {
  PrintRule(width);
  std::printf("%s\n", title.c_str());
  PrintRule(width);
}

}  // namespace ac3::benchutil

// ---- the grid-study helpers ------------------------------------------------
//
// The grid studies (fig10, topology_matrix, commit_study, message_overhead)
// share one skeleton, spelled out once here:
//
//   runner::SweepGridConfig grid = ...;               // the study's grid
//   const double delta_ms = bench::BeginStudy(options, &grid, "title");
//   const bench::GridRun run = bench::RunStudyGrid(options, grid);
//   ... bench::Select / bench::AggregateWhere per row, checks, table ...
//   return {std::move(results), run.WallJson(), claims_held};
//
// Each study keeps its own grid, acceptance checks, row fields, printed
// table and verdict.

namespace ac3::bench {

/// Δ measured the way every study grounds "latency in Δs": one publish +
/// public recognition, `confirm_depth` blocks deep, on a fresh seed-999
/// world.
inline double MeasureStudyDelta(uint32_t confirm_depth) {
  core::ScenarioOptions delta_world;
  delta_world.seed = 999;
  return runner::MeasureDeltaMs(delta_world, confirm_depth);
}

/// The preamble of a grid study: applies the CLI's axis overrides to
/// `grid`, prints `title` as the banner, then measures Δ at
/// grid->confirm_depth and prints it. Returns Δ in ms.
inline double BeginStudy(const Options& options, runner::SweepGridConfig* grid,
                         const char* title) {
  options.ApplyAxisOverrides(grid);
  benchutil::PrintHeader(title);
  const double delta_ms = MeasureStudyDelta(grid->confirm_depth);
  std::printf("measured delta (publish + public recognition): %.0f ms\n\n",
              delta_ms);
  return delta_ms;
}

/// One pooled run of a study grid: outcomes in GridPoints() order plus the
/// grid's wall-clock totals.
struct GridRun {
  std::vector<runner::RunOutcome> outcomes;
  runner::GridWallStats wall;

  /// The envelope "wall" section for this run.
  runner::Json WallJson() const { return runner::GridWallJson(wall, outcomes); }
};

/// Runs `grid` on options.threads workers (RunGridTimed).
inline GridRun RunStudyGrid(const Options& options,
                            const runner::SweepGridConfig& grid) {
  GridRun run;
  run.outcomes =
      runner::SweepRunner(options.threads).RunGridTimed(grid, &run.wall);
  return run;
}

/// The outcomes `keep` accepts, in grid order.
template <typename Keep>
std::vector<runner::RunOutcome> Select(
    const std::vector<runner::RunOutcome>& outcomes, Keep keep) {
  std::vector<runner::RunOutcome> out;
  for (const runner::RunOutcome& outcome : outcomes) {
    if (keep(outcome)) out.push_back(outcome);
  }
  return out;
}

/// runner::Aggregate over the outcomes `keep` accepts.
template <typename Keep>
runner::SweepAggregate AggregateWhere(
    const std::vector<runner::RunOutcome>& outcomes, double delta_ms,
    Keep keep) {
  return runner::Aggregate(Select(outcomes, keep), delta_ms);
}

/// The `outcomes` array of a study's results: OutcomeToJson per cell, plus
/// the typed-message counters (which the shared OutcomeToJson leaves out)
/// on every cell that ran when `message_counters` is set.
inline runner::Json OutcomesJson(
    const std::vector<runner::RunOutcome>& outcomes, bool message_counters) {
  runner::Json list = runner::Json::Array();
  for (const runner::RunOutcome& outcome : outcomes) {
    runner::Json cell = runner::OutcomeToJson(outcome);
    if (message_counters && outcome.ok) {
      cell.Set("messages_sent", outcome.messages_sent);
      cell.Set("message_bytes_sent", outcome.message_bytes_sent);
    }
    list.Push(std::move(cell));
  }
  return list;
}

/// Determinism contract: re-runs `grid` on one thread and reports whether
/// every cell — including the message counters — matches the pooled
/// `outcomes` bit for bit. Fault draws ride each world's own forked RNG
/// stream, so this also certifies thread-invariant fault injection.
inline bool ThreadInvariant(const runner::SweepGridConfig& grid,
                            const std::vector<runner::RunOutcome>& outcomes) {
  const std::vector<runner::RunOutcome> rerun =
      runner::SweepRunner(1).RunGrid(grid);
  return OutcomesJson(outcomes, true).Serialize() ==
         OutcomesJson(rerun, true).Serialize();
}

}  // namespace ac3::bench

#endif  // AC3_BENCH_BENCH_UTIL_H_
