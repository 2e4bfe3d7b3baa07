#include "src/runner/sweep_runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

#include "src/common/worker_pool.h"
#include "src/graph/ac2t_graph.h"
#include "src/protocols/ac3tw_swap.h"
#include "src/protocols/ac3wn_swap.h"
#include "src/protocols/herlihy_swap.h"
#include "src/protocols/quorum_commit.h"
#include "src/protocols/trent.h"

namespace ac3::runner {

namespace {

/// One shared name table per enum: the printers and the Parse* round-trips
/// read the same rows, so they cannot drift apart (and the bench CLI
/// resolves the same spellings the JSON files carry).
template <typename E>
struct NameRow {
  E value;
  const char* name;
};

constexpr NameRow<Protocol> kProtocolNames[] = {
    {Protocol::kHerlihy, "herlihy"},
    {Protocol::kAc3tw, "ac3tw"},
    {Protocol::kAc3wn, "ac3wn"},
    {Protocol::kQuorum, "quorum"},
};

constexpr NameRow<FailureMode> kFailureModeNames[] = {
    {FailureMode::kNone, "none"},
    {FailureMode::kCrashParticipant, "crash_participant"},
    {FailureMode::kPartitionParticipant, "partition_participant"},
    {FailureMode::kCrashCoordinatorAtPrepare, "crash_coordinator_at_prepare"},
    {FailureMode::kCrashCoordinatorAtCommit, "crash_coordinator_at_commit"},
    {FailureMode::kDropMessages, "drop_messages"},
    {FailureMode::kDuplicateMessages, "duplicate_messages"},
};

constexpr NameRow<Topology> kTopologyNames[] = {
    {Topology::kRing, "ring"},
    {Topology::kPath, "path"},
    {Topology::kStar, "star"},
    {Topology::kComplete, "complete"},
    {Topology::kRandomFeasible, "random_feasible"},
    {Topology::kFig7aCyclic, "fig7a_cyclic"},
    {Topology::kFig7bDisconnected, "fig7b_disconnected"},
};

template <typename E, size_t N>
const char* NameOf(const NameRow<E> (&table)[N], E value) {
  for (const NameRow<E>& row : table) {
    if (row.value == value) return row.name;
  }
  return "?";
}

template <typename E, size_t N>
Result<E> ParseOf(const NameRow<E> (&table)[N], const std::string& name,
                  const char* what) {
  for (const NameRow<E>& row : table) {
    if (name == row.name) return row.value;
  }
  std::string known;
  for (const NameRow<E>& row : table) {
    if (!known.empty()) known += ", ";
    known += row.name;
  }
  return Status::InvalidArgument("unknown " + std::string(what) + " '" +
                                 name + "' (known: " + known + ")");
}

}  // namespace

const char* ProtocolName(Protocol protocol) {
  return NameOf(kProtocolNames, protocol);
}

Result<Protocol> ParseProtocol(const std::string& name) {
  return ParseOf(kProtocolNames, name, "protocol");
}

const char* FailureModeName(FailureMode mode) {
  return NameOf(kFailureModeNames, mode);
}

Result<FailureMode> ParseFailureMode(const std::string& name) {
  return ParseOf(kFailureModeNames, name, "failure mode");
}

const char* TopologyName(Topology topology) {
  return NameOf(kTopologyNames, topology);
}

Result<Topology> ParseTopology(const std::string& name) {
  return ParseOf(kTopologyNames, name, "topology");
}

bool TopologySingleLeaderFeasible(Topology topology, int size) {
  switch (topology) {
    case Topology::kRing:
    case Topology::kPath:
    case Topology::kStar:
    case Topology::kRandomFeasible:
      return true;
    case Topology::kComplete:
      return size <= 2;  // n = 2 is the plain two-party swap.
    case Topology::kFig7aCyclic:
      return size <= 2;  // Two parties make one bidirectional pair.
    case Topology::kFig7bDisconnected:
      return size <= 3;  // A single pair (plus an isolated vertex) is fine.
  }
  return false;
}

std::vector<SweepPoint> GridPoints(const SweepGridConfig& config) {
  std::vector<SweepPoint> points;
  points.reserve(config.protocols.size() * config.topologies.size() *
                 config.sizes.size() * config.failures.size() *
                 config.seeds.size());
  for (Protocol protocol : config.protocols) {
    for (Topology topology : config.topologies) {
      for (int size : config.sizes) {
        for (FailureMode failure : config.failures) {
          for (uint64_t seed : config.seeds) {
            points.push_back(
                SweepPoint{protocol, topology, size, failure, seed});
          }
        }
      }
    }
  }
  return points;
}

graph::Ac2tGraph TopologyOverWorld(core::ScenarioWorld* world,
                                   Topology topology, int size,
                                   chain::Amount amount, uint64_t seed,
                                   double chord_prob) {
  std::vector<crypto::PublicKey> pks;
  std::vector<chain::ChainId> chains;
  pks.reserve(static_cast<size_t>(size));
  chains.reserve(static_cast<size_t>(size));
  for (int i = 0; i < size; ++i) {
    pks.push_back(world->participant(i)->pk());
    chains.push_back(world->asset_chain(
        i % static_cast<int>(world->asset_chains().size())));
  }
  const TimePoint now = world->env()->sim()->Now();
  switch (topology) {
    case Topology::kRing:
      return graph::MakeRing(pks, chains, amount, now);
    case Topology::kPath:
      return graph::MakePath(pks, chains, amount, now);
    case Topology::kStar:
      return graph::MakeStar(pks, chains, amount, now);
    case Topology::kComplete:
      return graph::MakeCompleteDigraph(pks, chains, amount, now);
    case Topology::kRandomFeasible: {
      // A private stream keyed on the cell seed: the graph shape is a pure
      // function of (seed, size), and the world's RNG is untouched.
      Rng rng(seed ^ 0x70706f6cull);
      return graph::MakeRandomFeasibleGraph(pks, chains, amount, chord_prob,
                                            &rng, now);
    }
    case Topology::kFig7aCyclic:
      return graph::MakeFigure7aCyclic(pks, chains, amount, now);
    case Topology::kFig7bDisconnected:
      return graph::MakeFigure7bDisconnected(pks, chains, amount, now);
  }
  return graph::MakeRing(pks, chains, amount, now);
}

graph::Ac2tGraph RingOverWorld(core::ScenarioWorld* world, int n,
                               chain::Amount amount) {
  return TopologyOverWorld(world, Topology::kRing, n, amount, /*seed=*/0);
}

RunOutcome ReduceReport(const SweepPoint& point,
                        const protocols::SwapReport& report) {
  RunOutcome outcome;
  outcome.point = point;
  outcome.ok = true;
  outcome.finished = report.finished;
  outcome.committed = report.committed;
  outcome.aborted = report.aborted;
  outcome.atomicity_violated = report.AtomicityViolated();
  if (report.end_time >= report.start_time) {
    outcome.latency_ms = static_cast<double>(report.Latency());
  }
  if (report.decision_time >= report.start_time) {
    outcome.decision_ms =
        static_cast<double>(report.decision_time - report.start_time);
  }
  outcome.total_fees = static_cast<int64_t>(report.total_fees);
  outcome.edges_redeemed =
      report.CountOutcome(protocols::EdgeOutcome::kRedeemed);
  outcome.edges_refunded =
      report.CountOutcome(protocols::EdgeOutcome::kRefunded);
  outcome.edges_stranded =
      report.CountOutcome(protocols::EdgeOutcome::kPublished);
  outcome.edges_unpublished =
      report.CountOutcome(protocols::EdgeOutcome::kUnpublished);
  outcome.messages_sent = report.messages_sent;
  outcome.message_bytes_sent = report.message_bytes_sent;
  return outcome;
}

namespace {

core::ScenarioOptions WorldOptionsFor(const SweepGridConfig& config,
                                      const SweepPoint& point) {
  core::ScenarioOptions options;
  options.participants = point.size;
  options.asset_chains = std::min(point.size, config.max_asset_chains);
  options.funding = config.funding;
  options.seed = point.seed;
  options.witness_chain = point.protocol == Protocol::kAc3wn;
  return options;
}

/// Translates the coordinator-crash failure modes into the engine-driven
/// CoordinatorCrashPlan (the crash is phase-precise, so it cannot be
/// injected by wall-clock schedule the way kCrashParticipant is).
protocols::CoordinatorCrashPlan CoordinatorPlanFor(
    const SweepGridConfig& config, const SweepPoint& point) {
  protocols::CoordinatorCrashPlan plan;
  switch (point.failure) {
    case FailureMode::kCrashCoordinatorAtPrepare:
      plan.phase = protocols::CoordinatorCrashPhase::kAtPrepare;
      break;
    case FailureMode::kCrashCoordinatorAtCommit:
      plan.phase = protocols::CoordinatorCrashPhase::kAtCommit;
      break;
    default:
      return plan;
  }
  if (config.coordinator_recovery_deltas >= 0) {
    plan.recover_after = static_cast<Duration>(
        config.coordinator_recovery_deltas *
        static_cast<double>(config.delta));
  }
  return plan;
}

void InjectFailure(const SweepGridConfig& config, const SweepPoint& point,
                   core::ScenarioWorld* world) {
  if (point.failure == FailureMode::kNone || point.size < 2) return;
  const sim::NodeId victim = world->participant(1)->node();
  const auto onset = static_cast<TimePoint>(
      config.failure_onset_deltas * static_cast<double>(config.delta));
  const auto length = static_cast<Duration>(
      config.failure_length_deltas * static_cast<double>(config.delta));
  switch (point.failure) {
    case FailureMode::kCrashParticipant:
      world->env()->failures()->CrashFor(victim, onset, length);
      break;
    case FailureMode::kPartitionParticipant:
      world->env()->failures()->SchedulePartition(
          sim::PartitionWindow{victim, onset, onset + length});
      break;
    case FailureMode::kCrashCoordinatorAtPrepare:
    case FailureMode::kCrashCoordinatorAtCommit:
      // Engine-driven (phase-precise): see CoordinatorPlanFor.
      break;
    case FailureMode::kDropMessages: {
      sim::MessageFaults faults;
      faults.drop_prob = config.message_drop_prob;
      world->env()->network()->set_message_faults(faults);
      break;
    }
    case FailureMode::kDuplicateMessages: {
      sim::MessageFaults faults;
      faults.duplicate_prob = config.message_duplicate_prob;
      world->env()->network()->set_message_faults(faults);
      break;
    }
    case FailureMode::kNone:
      break;
  }
}

RunOutcome ErrorOutcome(const SweepPoint& point, const Status& status) {
  RunOutcome outcome;
  outcome.point = point;
  outcome.ok = false;
  outcome.error = status.ToString();
  // Start() refuses single-leader-infeasible graphs with FailedPrecondition
  // — the Section 5.3 boundary, reported distinctly from world errors.
  outcome.infeasible = status.code() == StatusCode::kFailedPrecondition;
  return outcome;
}

}  // namespace

namespace {

/// Wraps RunSwapPoint with per-cell wall-clock accounting.
RunOutcome TimedSwapPoint(const SweepGridConfig& config,
                          const SweepPoint& point) {
  const auto start = std::chrono::steady_clock::now();
  RunOutcome outcome = RunSwapPoint(config, point);
  outcome.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  return outcome;
}

}  // namespace

Result<protocols::SwapReport> RunSwapReport(const SweepGridConfig& config,
                                            const SweepPoint& point,
                                            int64_t* sim_events_out) {
  core::ScenarioWorld world(WorldOptionsFor(config, point));
  InjectFailure(config, point, &world);
  world.StartMining();
  graph::Ac2tGraph graph = TopologyOverWorld(
      &world, point.topology, point.size, config.edge_amount, point.seed);
  const TimePoint deadline = world.env()->sim()->Now() + config.deadline;

  auto finish = [&](Result<protocols::SwapReport> report) {
    if (sim_events_out != nullptr) {
      *sim_events_out =
          static_cast<int64_t>(world.env()->sim()->events_executed());
    }
    return report;
  };

  // Every engine runs the profile (the config structs' defaults); only the
  // crash plan varies per point.
  protocols::VerdictConfig shared;
  shared.coordinator_crash = CoordinatorPlanFor(config, point);

  switch (point.protocol) {
    case Protocol::kHerlihy: {
      protocols::HerlihySwapEngine engine(world.env(), graph,
                                          world.all_participants(), shared);
      return finish(engine.Run(deadline));
    }
    case Protocol::kAc3tw: {
      protocols::TrustedWitness trent("Trent", 0x7e27 + point.seed,
                                      world.env(), config.confirm_depth);
      protocols::Ac3twSwapEngine engine(world.env(), graph,
                                        world.all_participants(), &trent,
                                        shared);
      return finish(engine.Run(deadline));
    }
    case Protocol::kAc3wn: {
      protocols::Ac3wnSwapEngine engine(
          world.env(), graph, world.all_participants(), world.witness_chain(),
          protocols::Ac3wnConfig{shared});
      return finish(engine.Run(deadline));
    }
    case Protocol::kQuorum: {
      protocols::QuorumCommitEngine engine(world.env(), graph,
                                           world.all_participants(),
                                           protocols::QuorumConfig{shared});
      return finish(engine.Run(deadline));
    }
  }
  return finish(Status::Internal("unknown protocol"));
}

RunOutcome RunSwapPoint(const SweepGridConfig& config,
                        const SweepPoint& point) {
  int64_t sim_events = 0;
  Result<protocols::SwapReport> report =
      RunSwapReport(config, point, &sim_events);
  if (!report.ok()) return ErrorOutcome(point, report.status());
  RunOutcome outcome = ReduceReport(point, *report);
  outcome.sim_events = sim_events;
  return outcome;
}

LatencyStats ComputeLatencyStats(std::vector<double> samples_ms) {
  LatencyStats stats;
  if (samples_ms.empty()) return stats;
  std::sort(samples_ms.begin(), samples_ms.end());
  stats.samples = static_cast<int>(samples_ms.size());
  double sum = 0;
  for (double v : samples_ms) sum += v;
  stats.mean_ms = sum / static_cast<double>(samples_ms.size());
  auto nearest_rank = [&](double q) {
    const auto n = static_cast<double>(samples_ms.size());
    auto rank = static_cast<size_t>(std::ceil(q * n));
    if (rank == 0) rank = 1;
    return samples_ms[rank - 1];
  };
  stats.p50_ms = nearest_rank(0.50);
  stats.p99_ms = nearest_rank(0.99);
  return stats;
}

SweepAggregate Aggregate(const std::vector<RunOutcome>& outcomes,
                         double delta_ms) {
  SweepAggregate agg;
  agg.delta_ms = delta_ms;
  std::vector<double> commit_latencies;
  double fee_sum = 0;
  int fee_samples = 0;
  for (const RunOutcome& outcome : outcomes) {
    ++agg.runs;
    if (!outcome.ok) {
      if (outcome.infeasible) {
        ++agg.infeasible;
      } else {
        ++agg.errors;
      }
      continue;
    }
    if (outcome.finished) ++agg.finished;
    if (outcome.committed) ++agg.committed;
    if (outcome.aborted) ++agg.aborted;
    if (outcome.atomicity_violated) ++agg.atomicity_violations;
    if (outcome.committed && outcome.latency_ms >= 0) {
      commit_latencies.push_back(outcome.latency_ms);
    }
    fee_sum += static_cast<double>(outcome.total_fees);
    ++fee_samples;
  }
  agg.commit_latency = ComputeLatencyStats(std::move(commit_latencies));
  if (delta_ms > 0 && agg.commit_latency.samples > 0) {
    agg.mean_latency_deltas = agg.commit_latency.mean_ms / delta_ms;
    agg.p50_latency_deltas = agg.commit_latency.p50_ms / delta_ms;
    agg.p99_latency_deltas = agg.commit_latency.p99_ms / delta_ms;
  }
  if (fee_samples > 0) agg.mean_fees = fee_sum / fee_samples;
  if (agg.commit_latency.samples > 0 && agg.commit_latency.mean_ms > 0) {
    agg.throughput_swaps_per_sec = 1000.0 / agg.commit_latency.mean_ms;
  }
  return agg;
}

Json OutcomeToJson(const RunOutcome& outcome) {
  Json j = Json::Object();
  j.Set("protocol", ProtocolName(outcome.point.protocol));
  j.Set("topology", TopologyName(outcome.point.topology));
  j.Set("size", outcome.point.size);
  j.Set("failure", FailureModeName(outcome.point.failure));
  j.Set("seed", outcome.point.seed);
  j.Set("ok", outcome.ok);
  if (!outcome.ok) {
    j.Set("error", outcome.error);
    j.Set("infeasible", outcome.infeasible);
    return j;
  }
  j.Set("sim_events", outcome.sim_events);
  j.Set("finished", outcome.finished);
  j.Set("committed", outcome.committed);
  j.Set("aborted", outcome.aborted);
  j.Set("atomicity_violated", outcome.atomicity_violated);
  j.Set("latency_ms", outcome.latency_ms);
  j.Set("decision_ms", outcome.decision_ms);
  j.Set("total_fees", outcome.total_fees);
  Json edges = Json::Object();
  edges.Set("redeemed", outcome.edges_redeemed);
  edges.Set("refunded", outcome.edges_refunded);
  edges.Set("stranded", outcome.edges_stranded);
  edges.Set("unpublished", outcome.edges_unpublished);
  j.Set("edges", std::move(edges));
  return j;
}

Json AggregateToJson(const SweepAggregate& aggregate) {
  Json j = Json::Object();
  j.Set("runs", aggregate.runs);
  j.Set("errors", aggregate.errors);
  j.Set("infeasible", aggregate.infeasible);
  j.Set("finished", aggregate.finished);
  j.Set("committed", aggregate.committed);
  j.Set("aborted", aggregate.aborted);
  j.Set("atomicity_violations", aggregate.atomicity_violations);
  Json latency = Json::Object();
  latency.Set("samples", aggregate.commit_latency.samples);
  latency.Set("mean_ms", aggregate.commit_latency.mean_ms);
  latency.Set("p50_ms", aggregate.commit_latency.p50_ms);
  latency.Set("p99_ms", aggregate.commit_latency.p99_ms);
  latency.Set("delta_ms", aggregate.delta_ms);
  latency.Set("mean_deltas", aggregate.mean_latency_deltas);
  latency.Set("p50_deltas", aggregate.p50_latency_deltas);
  latency.Set("p99_deltas", aggregate.p99_latency_deltas);
  j.Set("latency", std::move(latency));
  j.Set("mean_fees", aggregate.mean_fees);
  j.Set("throughput_swaps_per_sec", aggregate.throughput_swaps_per_sec);
  return j;
}

double MeasureDeltaMs(const core::ScenarioOptions& options,
                      uint32_t confirm_depth) {
  core::ScenarioWorld world(options);
  world.StartMining();
  protocols::Participant* alice = world.participant(0);
  const TimePoint start = world.env()->sim()->Now();
  auto tx_id = alice->SubmitTransfer(world.asset_chain(0),
                                     world.participant(1)->pk(), 1, 1);
  if (!tx_id.ok()) return 0.0;
  chain::Blockchain* chain = world.env()->blockchain(world.asset_chain(0));
  chain->Watch(*tx_id);  // Before the simulation can mine it.
  Status confirmed = world.env()->sim()->RunUntilCondition(
      [&]() { return chain->TxConfirmedAtDepth(*tx_id, confirm_depth); },
      Minutes(5));
  if (!confirmed.ok()) return 0.0;
  return static_cast<double>(world.env()->sim()->Now() - start);
}

SweepRunner::SweepRunner(int threads)
    : pool_(std::make_unique<common::WorkerPool>(threads)) {}

SweepRunner::~SweepRunner() = default;

int SweepRunner::threads() const { return pool_->threads(); }

void SweepRunner::PoolFor(int n,
                          const std::function<void(size_t)>& fn) const {
  pool_->ParallelFor(static_cast<size_t>(std::max(n, 0)), fn);
}

std::vector<RunOutcome> SweepRunner::RunGrid(
    const SweepGridConfig& config) const {
  return RunGridTimed(config, nullptr);
}

std::vector<RunOutcome> SweepRunner::RunGridTimed(const SweepGridConfig& config,
                                                  GridWallStats* stats) const {
  const std::vector<SweepPoint> points = GridPoints(config);
  const auto start = std::chrono::steady_clock::now();
  std::vector<RunOutcome> outcomes = Map<RunOutcome>(
      static_cast<int>(points.size()), [&](int i) {
        return TimedSwapPoint(config, points[static_cast<size_t>(i)]);
      });
  if (stats != nullptr) {
    stats->wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    stats->worlds_per_sec =
        stats->wall_ms > 0
            ? static_cast<double>(outcomes.size()) / (stats->wall_ms / 1000.0)
            : 0;
  }
  return outcomes;
}

Json GridWallJson(const GridWallStats& stats,
                  const std::vector<RunOutcome>& outcomes) {
  Json wall = Json::Object();
  wall.Set("wall_ms_grid", stats.wall_ms);
  wall.Set("worlds_per_sec", stats.worlds_per_sec);
  Json cells = Json::Array();
  for (const RunOutcome& outcome : outcomes) {
    Json cell = Json::Object();
    cell.Set("protocol", ProtocolName(outcome.point.protocol));
    cell.Set("topology", TopologyName(outcome.point.topology));
    cell.Set("size", outcome.point.size);
    cell.Set("failure", FailureModeName(outcome.point.failure));
    cell.Set("seed", outcome.point.seed);
    cell.Set("wall_ms", outcome.wall_ms);
    cells.Push(std::move(cell));
  }
  wall.Set("cells", std::move(cells));
  return wall;
}

}  // namespace ac3::runner
