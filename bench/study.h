// The study registry behind the ac3_study binary. Every experiment in
// bench/ is one function from the parsed CLI to its envelope sections and
// a verdict, listed by name in one table (Studies(), in study.cc).
// StudyMain alone parses flags, writes BENCH_<name>.json, holds the run
// to the study's floors under --baseline and sets the exit code.

#ifndef AC3_BENCH_STUDY_H_
#define AC3_BENCH_STUDY_H_

#include <vector>

#include "bench/bench_util.h"
#include "src/common/status.h"
#include "src/runner/json.h"

namespace ac3::bench {

/// What one study run hands StudyMain.
struct StudyRun {
  runner::Json results;     ///< The envelope's deterministic section.
  runner::Json wall;        ///< Members merged into "wall"; null for none.
  bool claims_held = true;  ///< False when a self-check failed (exit 1).
};

/// A CI regression floor on one wall-clock rate: the fresh run must reach
/// `factor` times the rate the baseline envelope records.
struct Floor {
  const char* label;  ///< Names the floor in its verdict line.
  double factor;
  /// Reads the rate from an envelope's "wall" section.
  Result<double> (*rate)(const runner::Json& wall);
};

/// One row of the registry.
struct Study {
  const char* name;  ///< The envelope name: BENCH_<name>.json.
  StudyRun (*run)(const Options& options);
  std::vector<Floor> floors;  ///< Checked only under --baseline.
};

/// Every study, in name order.
const std::vector<Study>& Studies();

/// The ac3_study command line: `--list`, or `NAME [flags]`. Returns the
/// process exit code: non-zero on a bad command line, an unwritable
/// --out, an unreadable baseline, a failed claim, an envelope that could
/// not be written, or a missed floor.
int StudyMain(int argc, char** argv);

// The studies, each in bench/bench_<name>.cc.
StudyRun AblationValidation(const Options& options);
StudyRun AtomicityFailures(const Options& options);
StudyRun CommitStudy(const Options& options);
StudyRun EngineHotpaths(const Options& options);
StudyRun Fig10LatencyVsDiameter(const Options& options);
StudyRun Fig8HerlihyTimeline(const Options& options);
StudyRun Fig9Ac3wnTimeline(const Options& options);
StudyRun ForkResolution(const Options& options);
StudyRun MessageOverhead(const Options& options);
StudyRun Scalability(const Options& options);
StudyRun Sec62CostOverhead(const Options& options);
StudyRun Sec63WitnessChoice(const Options& options);
StudyRun Table1Throughput(const Options& options);
StudyRun TopologyMatrix(const Options& options);

}  // namespace ac3::bench

#endif  // AC3_BENCH_STUDY_H_
