// SweepRunner: the parallel experiment substrate.
//
// The discrete-event kernel (src/sim/simulation.h) is deterministic and
// single-threaded, so the road to multi-core throughput is running *many
// independent seeded worlds at once*: a sweep is a protocol × topology ×
// failure-mode × seed grid where every point builds its own ScenarioWorld,
// runs one swap engine to a verdict, and reduces the SwapReport to a
// RunOutcome. A worker pool executes points in parallel; results are
// stored by point index, so the output is bit-for-bit identical whatever
// the thread count — the determinism contract tests/runner_test.cc pins.
//
// Aggregation turns a bag of outcomes into the numbers the paper's
// evaluation (Section 6) reports: commit/abort/atomicity-violation counts,
// mean/p50/p99 latency both in milliseconds and in Δs (normalized by a
// measured Δ), fees, and throughput.

#ifndef AC3_RUNNER_SWEEP_RUNNER_H_
#define AC3_RUNNER_SWEEP_RUNNER_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/worker_pool.h"
#include "src/core/scenario.h"
#include "src/graph/ac2t_graph.h"
#include "src/protocols/ac3wn_swap.h"
#include "src/protocols/swap_report.h"
#include "src/runner/json.h"

/// The parallel sweep substrate: grid axes, per-world outcomes,
/// aggregation, and the worker-pool runner.
namespace ac3::runner {

// ---- the sweep grid -------------------------------------------------------

/// The swap protocols under evaluation.
enum class Protocol {
  kHerlihy,  ///< Nolan/Herlihy HTLC baseline (single-leader spanning order).
  kAc3tw,    ///< AC3 with a centralized trusted witness (Trent).
  kAc3wn,    ///< AC3 with a permissionless witness network.
  kQuorum,   ///< Nonblocking quorum-commit (3PC-style) engine.
};
/// Stable lowercase name (the JSON/CLI spelling), e.g. "ac3wn".
const char* ProtocolName(Protocol protocol);
/// Round-trip of ProtocolName (same table); InvalidArgument on unknown
/// names.
Result<Protocol> ParseProtocol(const std::string& name);

/// Failure schedules a sweep cell may inject into its world.
enum class FailureMode {
  kNone,  ///< Fault-free run.
  /// Participant 1 crashes shortly after the swap starts and recovers
  /// later — the paper's motivating "Bob crashes" scenario.
  kCrashParticipant,
  /// Participant 1 is partitioned from every chain for the same window.
  kPartitionParticipant,
  /// The protocol's coordinator (leader / Trent / requester / quorum
  /// coordinator) crashes at its prepare anchor — after contracts are
  /// set up but before any decision round starts. Engine-driven (see
  /// protocols::CoordinatorCrashPlan); recovery is governed by
  /// SweepGridConfig::coordinator_recovery_deltas.
  kCrashCoordinatorAtPrepare,
  /// The coordinator crashes at its commit anchor — the instant it would
  /// sign/request/submit the decision, the worst window for 2PC-style
  /// blocking.
  kCrashCoordinatorAtCommit,
  /// Every typed message (protocol exchanges AND transaction gossip) is
  /// independently lost with SweepGridConfig::message_drop_prob — the
  /// lossy-network axis of the message-overhead study. Engines recover by
  /// resending on their resubmit heartbeats.
  kDropMessages,
  /// Every typed message is independently delivered twice with
  /// SweepGridConfig::message_duplicate_prob; receivers must fence the
  /// second copy (seq fencing in SwapEngineBase, tx-id dedup in mempools).
  kDuplicateMessages,
};
/// Stable lowercase name (the JSON/CLI spelling), e.g. "crash_participant".
const char* FailureModeName(FailureMode mode);
/// Round-trip of FailureModeName; InvalidArgument on unknown names.
Result<FailureMode> ParseFailureMode(const std::string& name);

/// The swap-graph families of the evaluation (Sections 5.3 / 6): the
/// single-leader-feasible shapes the HTLC baselines can run, plus the
/// shapes only AC3WN can commit (complete digraphs and the Figure 7
/// family reject every single leader).
enum class Topology {
  kRing,            ///< 0 -> 1 -> ... -> n-1 -> 0 (diameter = size).
  kPath,            ///< 0 -> 1 -> ... -> n-1.
  kStar,            ///< hub 0 <-> each leaf.
  kComplete,        ///< every ordered pair; infeasible for size >= 3.
  kRandomFeasible,  ///< ring + seeded forward chords; always feasible.
  kFig7aCyclic,     ///< Figure 7(a): bidirectional ring, infeasible.
  kFig7bDisconnected,  ///< Figure 7(b): disjoint 2-swaps, infeasible.
};
/// Stable lowercase name (the JSON/CLI spelling), e.g. "fig7a_cyclic".
const char* TopologyName(Topology topology);
/// Round-trip of TopologyName; InvalidArgument on unknown names.
Result<Topology> ParseTopology(const std::string& name);
/// True when the Herlihy/Nolan baselines can execute the family at `size`
/// participants (the Section 5.3 feasibility boundary).
bool TopologySingleLeaderFeasible(Topology topology, int size);

/// One cell of the grid: which engine, on which graph family over how many
/// participants, under which failure, with which world seed.
struct SweepPoint {
  Protocol protocol = Protocol::kAc3wn;   ///< Engine under test.
  Topology topology = Topology::kRing;    ///< Swap-graph family.
  int size = 2;  ///< Participants in the swap graph.
  FailureMode failure = FailureMode::kNone;  ///< Injected failure schedule.
  uint64_t seed = 1;  ///< World seed (all randomness derives from it).
};

/// The cross-product axes plus the world and engine parameters. Seven
/// members can be set: the five axes, `deadline` and
/// `coordinator_recovery_deltas`. The rest are the swap-world profile,
/// constants no study varies: the engine knobs read the engine structs'
/// defaults (protocols::EngineConfig and the configs deriving from it), so
/// each number is written once. They stay members so code holding a config
/// reads them like the settable ones (`config.delta`).
struct SweepGridConfig {
  std::vector<Protocol> protocols = {Protocol::kHerlihy, Protocol::kAc3wn};
      ///< Protocol axis.
  std::vector<Topology> topologies = {Topology::kRing};  ///< Topology axis.
  std::vector<int> sizes = {2};                          ///< Graph sizes.
  std::vector<FailureMode> failures = {FailureMode::kNone};  ///< Failure axis.
  std::vector<uint64_t> seeds = {1};                     ///< Seed axis.

  Duration deadline = Minutes(60);  ///< Hard per-world deadline.

  /// Recovery delay (in Δs) for the coordinator-crash failure modes:
  /// < 0 means the coordinator never recovers — the schedule the
  /// commit study uses to expose 2PC-style blocking.
  double coordinator_recovery_deltas = -1.0;

  /// Asset chains in each world: min(size, max_asset_chains).
  static constexpr int max_asset_chains = 4;
  static constexpr chain::Amount funding = 5000;  ///< Per participant.
  static constexpr chain::Amount edge_amount = 100;  ///< Swapped per edge.

  /// Extra-chord probability for Topology::kRandomFeasible.
  static constexpr double random_chord_prob = 0.3;

  /// The engine knobs every protocol shares, and AC3WN's depth d.
  static constexpr Duration delta = protocols::EngineConfig{}.delta;
  static constexpr uint32_t confirm_depth =
      protocols::EngineConfig{}.confirm_depth;  ///< "Publicly recognized".
  static constexpr uint32_t witness_depth_d =
      protocols::Ac3wnConfig{}.witness_depth_d;  ///< AC3WN evidence depth.
  static constexpr Duration resubmit_interval =
      protocols::EngineConfig{}.resubmit_interval;  ///< Re-gossip heartbeat.
  static constexpr Duration publish_patience =
      protocols::VerdictConfig{}.publish_patience;  ///< Publish patience.

  /// Crash/partition onset and length for the failure modes, in Δs.
  static constexpr double failure_onset_deltas = 1.0;
  static constexpr double failure_length_deltas = 6.0;

  /// P(any typed message is lost) under FailureMode::kDropMessages.
  static constexpr double message_drop_prob = 0.10;
  /// P(any typed message is delivered twice) under
  /// FailureMode::kDuplicateMessages.
  static constexpr double message_duplicate_prob = 0.25;
};

/// The grid flattened in deterministic order:
/// protocols × topologies × sizes × failures × seeds (seed innermost).
std::vector<SweepPoint> GridPoints(const SweepGridConfig& config);

/// Builds the `topology` family over the world's first `size` participants,
/// cycling through the available asset chains. `seed` only matters for
/// Topology::kRandomFeasible (a private Rng stream, so the world's own
/// randomness is untouched).
graph::Ac2tGraph TopologyOverWorld(
    core::ScenarioWorld* world, Topology topology, int size,
    chain::Amount amount, uint64_t seed,
    double chord_prob = SweepGridConfig::random_chord_prob);

/// A directed ring over the world's first `n` participants (diameter = n) —
/// the shape every ring sweep and timeline bench shares.
graph::Ac2tGraph RingOverWorld(
    core::ScenarioWorld* world, int n,
    chain::Amount amount = SweepGridConfig::edge_amount);

// ---- per-run results ------------------------------------------------------

/// A SwapReport reduced to the numbers sweeps aggregate.
struct RunOutcome {
  SweepPoint point;  ///< The grid cell this outcome belongs to.
  /// Engine constructed and ran to its verdict (or deadline).
  bool ok = false;
  std::string error;  ///< Set when !ok.
  /// The engine refused the graph at Start() (single-leader infeasible) —
  /// the paper's Section 5.3 functional gap, distinct from a world error.
  bool infeasible = false;

  bool finished = false;   ///< Engine reached a verdict before the deadline.
  bool committed = false;  ///< Verdict was commit (all edges redeemed).
  bool aborted = false;    ///< Verdict was abort (all edges refunded).
  bool atomicity_violated = false;  ///< Mixed redeem/refund: the §3 violation.

  double latency_ms = -1;   ///< end_time - start_time when finished.
  double decision_ms = -1;  ///< decision_time - start_time when decided.
  int64_t total_fees = 0;      ///< Fees paid across every edge (and SCw).
  int edges_redeemed = 0;      ///< Edges whose asset moved to the recipient.
  int edges_refunded = 0;      ///< Edges returned to the sender.
  int edges_stranded = 0;      ///< Edges locked past the deadline.
  int edges_unpublished = 0;   ///< Edges whose deploy never confirmed.

  /// Simulation events executed by this cell's world — deterministic, and
  /// the direct measure of the reactive-substrate win (the fixed-poll
  /// engines executed O(duration / poll_interval) events per run).
  int64_t sim_events = 0;

  /// Typed protocol messages the engine sent (SwapReport::messages_sent);
  /// deterministic, but deliberately excluded from OutcomeToJson so the
  /// pinned sweep fingerprints certify the message-layer migration — the
  /// message-overhead bench publishes these through its own rows.
  int64_t messages_sent = 0;
  /// Wire bytes of those messages (SwapReport::message_bytes_sent); same
  /// exclusion rule as messages_sent.
  int64_t message_bytes_sent = 0;

  /// Wall-clock cost of this cell's world (machine-dependent; excluded
  /// from OutcomeToJson so the determinism contract stays intact — see
  /// GridWallJson for publishing it).
  double wall_ms = 0;
};

/// Reduces an engine's SwapReport (already run) to a RunOutcome.
RunOutcome ReduceReport(const SweepPoint& point,
                        const protocols::SwapReport& report);

/// Builds a fresh seeded world for `point` and runs one swap to a verdict,
/// returning the engine's full SwapReport (phase markers included) rather
/// than the reduced RunOutcome — the hook property/unit tests use to
/// assert on phase-level behavior. `sim_events_out`, when non-null,
/// receives the world's executed-event count. Thread-safe for distinct
/// points (each call owns its world).
Result<protocols::SwapReport> RunSwapReport(const SweepGridConfig& config,
                                            const SweepPoint& point,
                                            int64_t* sim_events_out = nullptr);

/// Builds a fresh seeded world for `point` and runs one swap to a verdict.
/// Thread-safe for distinct points (each call owns its world).
RunOutcome RunSwapPoint(const SweepGridConfig& config, const SweepPoint& point);

// ---- aggregation ----------------------------------------------------------

/// Order statistics over a latency sample (nearest-rank percentiles).
struct LatencyStats {
  int samples = 0;     ///< Sample count the statistics are over.
  double mean_ms = 0;  ///< Arithmetic mean.
  double p50_ms = 0;   ///< Median (nearest rank).
  double p99_ms = 0;   ///< 99th percentile (nearest rank).
};
/// Reduces a latency sample to its order statistics.
LatencyStats ComputeLatencyStats(std::vector<double> samples_ms);

/// A bag of RunOutcomes reduced to the paper's evaluation numbers.
struct SweepAggregate {
  int runs = 0;    ///< Total grid cells aggregated.
  int errors = 0;  ///< Worlds that failed to run (infrastructure errors).
  /// Graphs the protocol refused at Start() (subset of neither errors nor
  /// finished: the engine never ran).
  int infeasible = 0;
  int finished = 0;             ///< Engines that reached a verdict.
  int committed = 0;            ///< Commit verdicts.
  int aborted = 0;              ///< Abort verdicts.
  int atomicity_violations = 0; ///< Runs with mixed edge outcomes.

  /// Latency over committed runs only (the paper's Section 6.1 metric).
  LatencyStats commit_latency;
  /// The measured Δ used to normalize, and the normalized statistics.
  double delta_ms = 0;
  double mean_latency_deltas = 0;  ///< commit_latency.mean_ms / delta_ms.
  double p50_latency_deltas = 0;   ///< commit_latency.p50_ms / delta_ms.
  double p99_latency_deltas = 0;   ///< commit_latency.p99_ms / delta_ms.

  double mean_fees = 0;  ///< Mean total fees over finished runs.
  /// Committed swaps per simulated second of end-to-end latency: the
  /// steady-state rate one sequential coordinator would sustain.
  double throughput_swaps_per_sec = 0;
};

/// `delta_ms <= 0` leaves the Δ-normalized fields at zero.
SweepAggregate Aggregate(const std::vector<RunOutcome>& outcomes,
                         double delta_ms);

/// Deterministic JSON for one outcome (wall_ms deliberately excluded).
Json OutcomeToJson(const RunOutcome& outcome);
/// Deterministic JSON for an aggregate.
Json AggregateToJson(const SweepAggregate& aggregate);

/// Wall-clock stats of one RunGrid invocation.
struct GridWallStats {
  /// Elapsed wall time of the whole grid (across all workers).
  double wall_ms = 0;
  /// Grid cells completed per wall-clock second (the sweep substrate's
  /// own throughput metric — worlds, not swaps).
  double worlds_per_sec = 0;
};

/// The envelope "wall" payload for a grid run: wall_ms_grid,
/// worlds_per_sec, and one {point, wall_ms} record per cell. Everything
/// here is machine-dependent by design; deterministic values belong in
/// OutcomeToJson / AggregateToJson.
Json GridWallJson(const GridWallStats& stats,
                  const std::vector<RunOutcome>& outcomes);

/// Measures Δ empirically: the time for one participant to publish a
/// transaction and have it publicly recognized (confirm_depth blocks deep)
/// on asset chain 0 of a fresh world built from `options`. Grounds the
/// "latency in Δs" columns. Returns 0 on failure.
double MeasureDeltaMs(const core::ScenarioOptions& options,
                      uint32_t confirm_depth);

// ---- the runner -----------------------------------------------------------

/// The worker-pool executor for sweep grids (see the file comment): runs
/// every grid point on `threads` workers with outcomes stored by grid
/// index, so results are bit-for-bit identical whatever the thread count.
///
/// One runner owns one persistent common::WorkerPool, so a single
/// SweepRunner instance must not execute RunGrid/RunGridTimed/Map from
/// two threads at once (const-ness notwithstanding — the pool runs one
/// round at a time). Callers that want concurrent grids should use one
/// runner per driving thread.
class SweepRunner {
 public:
  /// `threads <= 0` resolves through common::WorkerPool::ResolveThreads
  /// (hardware_concurrency clamped to >= 1). The pool is persistent: one
  /// runner reuses its spawned workers across RunGrid / Map calls.
  explicit SweepRunner(int threads = 0);
  /// Joins the pool's workers (out-of-line for the unique_ptr member).
  ~SweepRunner();

  /// The resolved worker count (>= 1).
  int threads() const;

  /// Runs every grid point; outcomes are in GridPoints() order regardless
  /// of the thread count.
  std::vector<RunOutcome> RunGrid(const SweepGridConfig& config) const;

  /// RunGrid plus wall-clock accounting (per-cell wall_ms is always
  /// filled in; `stats` receives the grid totals when non-null).
  std::vector<RunOutcome> RunGridTimed(const SweepGridConfig& config,
                                       GridWallStats* stats) const;

  /// Generic escape hatch for sweeps that are not single-swap grids (e.g.
  /// chain-saturation throughput runs): a deterministic parallel map over
  /// `n` independent simulations, on the runner's persistent pool.
  template <typename T>
  std::vector<T> Map(int n, const std::function<T(int)>& fn) const {
    std::vector<T> out(static_cast<size_t>(std::max(n, 0)));
    PoolFor(n, [&](size_t i) { out[i] = fn(static_cast<int>(i)); });
    return out;
  }

 private:
  /// Runs one WorkerPool::ParallelFor round on the persistent pool
  /// (out-of-line so the template above stays header-only without
  /// touching pool state).
  void PoolFor(int n, const std::function<void(size_t)>& fn) const;

  /// The shared fan-out primitive; unique_ptr so const methods can run
  /// rounds. Mutable round state lives here, which is why one runner
  /// must not execute grids from two threads at once (see class doc).
  std::unique_ptr<common::WorkerPool> pool_;
};

}  // namespace ac3::runner

#endif  // AC3_RUNNER_SWEEP_RUNNER_H_
