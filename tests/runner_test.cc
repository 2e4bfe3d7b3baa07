// Tests for the parallel sweep substrate: the JSON model round-trips, the
// worker pool is deterministic (N threads reproduce 1 thread bit-for-bit),
// and aggregation computes the statistics the benches publish.

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/runner/bench_output.h"
#include "src/runner/json.h"
#include "src/runner/sweep_runner.h"

namespace ac3::runner {
namespace {

// ---- JSON ----------------------------------------------------------------

TEST(JsonTest, SerializesScalars) {
  EXPECT_EQ(Json(true).Serialize(), "true\n");
  EXPECT_EQ(Json(false).Serialize(), "false\n");
  EXPECT_EQ(Json().Serialize(), "null\n");
  EXPECT_EQ(Json(42).Serialize(), "42\n");
  EXPECT_EQ(Json(int64_t{-7}).Serialize(), "-7\n");
  EXPECT_EQ(Json("hi").Serialize(), "\"hi\"\n");
  // Integral-valued doubles keep a ".0" so the type survives a parse.
  EXPECT_EQ(Json(2.0).Serialize(), "2.0\n");
}

TEST(JsonTest, EscapesStrings) {
  EXPECT_EQ(JsonEscape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  Json j = Json::Object();
  j.Set("zulu", 1);
  j.Set("alpha", 2);
  ASSERT_EQ(j.members().size(), 2u);
  EXPECT_EQ(j.members()[0].first, "zulu");
  EXPECT_EQ(j.members()[1].first, "alpha");
  // Overwrite keeps the original slot.
  j.Set("zulu", 3);
  ASSERT_EQ(j.members().size(), 2u);
  EXPECT_EQ(j.at("zulu").AsInt(), 3);
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("nul").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("{} trailing").ok());
}

TEST(JsonTest, ParseHandlesEscapesAndNumbers) {
  auto parsed = Json::Parse(R"({"s": "a\nbA", "i": -12, "d": 2.5e3})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->at("s").AsString(), "a\nbA");
  EXPECT_EQ(parsed->at("i").type(), Json::Type::kInt);
  EXPECT_EQ(parsed->at("i").AsInt(), -12);
  EXPECT_EQ(parsed->at("d").type(), Json::Type::kDouble);
  EXPECT_DOUBLE_EQ(parsed->at("d").AsDouble(), 2500.0);
}

TEST(JsonTest, SerializeParseRoundTrip) {
  Json doc = Json::Object();
  doc.Set("name", "sweep \"x\"\n");
  doc.Set("count", 3);
  doc.Set("ratio", 0.1);
  doc.Set("flag", true);
  doc.Set("nothing", Json());
  Json arr = Json::Array();
  arr.Push(1);
  arr.Push(2.5);
  arr.Push("three");
  Json nested = Json::Object();
  nested.Set("empty_array", Json::Array());
  nested.Set("empty_object", Json::Object());
  arr.Push(std::move(nested));
  doc.Set("items", std::move(arr));

  const std::string text = doc.Serialize();
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, doc);
  // The fixed point: serialize(parse(serialize(x))) == serialize(x).
  EXPECT_EQ(parsed->Serialize(), text);
}

TEST(JsonTest, DoubleRoundTripIsExact) {
  for (double v : {0.1, 1.0 / 3.0, 123456.789, -2.2250738585072014e-308}) {
    auto parsed = Json::Parse(Json(v).Serialize());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->AsDouble(), v);
  }
}

// ---- bench envelope -------------------------------------------------------

// NOTE: the shared bench CLI (bench::Options::Parse) is covered by
// tests/bench_cli_test.cc; this file covers the envelope itself.

TEST(BenchOutputTest, EnvelopeShape) {
  BenchContext context;
  context.smoke = true;
  Json results = Json::Object();
  results.Set("answer", 42);
  Json envelope = BenchEnvelope(context, "unit", std::move(results));
  EXPECT_EQ(envelope.at("schema_version").AsInt(), 2);
  EXPECT_EQ(envelope.at("bench").AsString(), "unit");
  EXPECT_TRUE(envelope.at("smoke").AsBool());
  EXPECT_EQ(envelope.at("results").at("answer").AsInt(), 42);
  // Every envelope carries the wall-clock section, outside "results" so
  // the deterministic section stays machine-independent.
  ASSERT_TRUE(envelope.Has("wall"));
  EXPECT_GE(envelope.at("wall").at("wall_ms_total").AsDouble(), 0.0);
}

TEST(BenchOutputTest, EnvelopeMergesWallExtras) {
  BenchContext context;
  Json wall_extra = Json::Object();
  wall_extra.Set("worlds_per_sec", 12.5);
  Json envelope =
      BenchEnvelope(context, "unit", Json::Object(), std::move(wall_extra));
  const Json& wall = envelope.at("wall");
  EXPECT_TRUE(wall.Has("wall_ms_total"));
  EXPECT_DOUBLE_EQ(wall.at("worlds_per_sec").AsDouble(), 12.5);
}

TEST(BenchOutputTest, WriteBenchJsonRoundTripsThroughDisk) {
  BenchContext context;
  context.out_dir = ::testing::TempDir();
  Json results = Json::Object();
  results.Set("value", 7);
  auto path = WriteBenchJson(context, "roundtrip", std::move(results));
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  std::FILE* f = std::fopen(path->c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->at("bench").AsString(), "roundtrip");
  EXPECT_EQ(parsed->at("results").at("value").AsInt(), 7);
}

// ---- worker pool ----------------------------------------------------------

// Regression: a throwing grid cell used to escape its worker thread and
// take the whole process down with std::terminate. The runner's
// common::WorkerPool captures the first exception and rethrows it on the
// caller.
TEST(SweepRunnerTest, MapRethrowsWorldFailureAndSurvives) {
  SweepRunner runner(3);
  EXPECT_THROW(runner.Map<int>(16,
                               [](int i) -> int {
                                 if (i == 7) {
                                   throw std::runtime_error("world failed");
                                 }
                                 return i;
                               }),
               std::runtime_error);
  // The runner's persistent pool stays usable after the failed grid.
  std::vector<int> out = runner.Map<int>(8, [](int i) { return i * 2; });
  ASSERT_EQ(out.size(), 8u);
  EXPECT_EQ(out[7], 14);
}

TEST(SweepRunnerTest, MapCoversEveryIndexAtAnyThreadCount) {
  // out[i] = fn(i) whatever the width, on the inline 1-thread path and on
  // pools both narrower and wider than the grid; one runner serves grids
  // of different sizes in turn.
  for (int threads : {1, 2, 7}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SweepRunner runner(threads);
    for (int n : {3, 100}) {
      std::vector<int> out = runner.Map<int>(n, [](int i) { return i * i; });
      ASSERT_EQ(out.size(), static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(out[static_cast<size_t>(i)], i * i) << "index " << i;
      }
    }
  }
}

TEST(SweepRunnerTest, MapHandlesEmptyAndSingletonGrids) {
  // Degenerate grids call fn for exactly the indices they have: none for
  // n = 0 (or a negative n), index 0 alone for n = 1.
  SweepRunner runner(4);
  int calls = 0;
  EXPECT_TRUE(runner.Map<int>(0, [&](int) { return ++calls; }).empty());
  EXPECT_TRUE(runner.Map<int>(-3, [&](int) { return ++calls; }).empty());
  EXPECT_EQ(calls, 0);
  const std::vector<int> one = runner.Map<int>(1, [](int i) { return i + 5; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 5);
}

// ---- grid + aggregation ---------------------------------------------------

TEST(SweepGridTest, PointsEnumerateInDeterministicOrder) {
  SweepGridConfig config;
  config.protocols = {Protocol::kHerlihy, Protocol::kAc3wn};
  config.topologies = {Topology::kRing, Topology::kStar};
  config.sizes = {2, 3};
  config.failures = {FailureMode::kNone, FailureMode::kCrashParticipant};
  config.seeds = {1, 2, 3};
  std::vector<SweepPoint> points = GridPoints(config);
  ASSERT_EQ(points.size(), 2u * 2u * 2u * 2u * 3u);
  EXPECT_EQ(points[0].protocol, Protocol::kHerlihy);
  EXPECT_EQ(points[0].topology, Topology::kRing);
  EXPECT_EQ(points[0].seed, 1u);
  EXPECT_EQ(points[1].seed, 2u);  // Seeds are the innermost axis.
  EXPECT_EQ(points.back().protocol, Protocol::kAc3wn);
  EXPECT_EQ(points.back().topology, Topology::kStar);
  EXPECT_EQ(points.back().size, 3);
  EXPECT_EQ(points.back().seed, 3u);
}

TEST(SweepGridTest, NameTablesRoundTripThroughParse) {
  for (Protocol protocol : {Protocol::kHerlihy, Protocol::kAc3tw,
                            Protocol::kAc3wn, Protocol::kQuorum}) {
    auto parsed = ParseProtocol(ProtocolName(protocol));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, protocol);
  }
  for (FailureMode mode :
       {FailureMode::kNone, FailureMode::kCrashParticipant,
        FailureMode::kPartitionParticipant,
        FailureMode::kCrashCoordinatorAtPrepare,
        FailureMode::kCrashCoordinatorAtCommit, FailureMode::kDropMessages,
        FailureMode::kDuplicateMessages}) {
    auto parsed = ParseFailureMode(FailureModeName(mode));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, mode);
  }
  for (Topology topology :
       {Topology::kRing, Topology::kPath, Topology::kStar,
        Topology::kComplete, Topology::kRandomFeasible,
        Topology::kFig7aCyclic, Topology::kFig7bDisconnected}) {
    auto parsed = ParseTopology(TopologyName(topology));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, topology);
  }
  // The JSON/CLI spellings of the quorum-commit additions are pinned: a
  // rename would silently orphan committed BENCH files and CI flags.
  EXPECT_STREQ(ProtocolName(Protocol::kQuorum), "quorum");
  EXPECT_STREQ(FailureModeName(FailureMode::kCrashCoordinatorAtPrepare),
               "crash_coordinator_at_prepare");
  EXPECT_STREQ(FailureModeName(FailureMode::kCrashCoordinatorAtCommit),
               "crash_coordinator_at_commit");
  EXPECT_STREQ(FailureModeName(FailureMode::kDropMessages), "drop_messages");
  EXPECT_STREQ(FailureModeName(FailureMode::kDuplicateMessages),
               "duplicate_messages");
  EXPECT_FALSE(ParseProtocol("bitcoin").ok());
  EXPECT_FALSE(ParseTopology("mesh").ok());
  EXPECT_FALSE(ParseFailureMode("byzantine").ok());
}

TEST(AggregateTest, LatencyPercentilesUseNearestRank) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(static_cast<double>(i));
  LatencyStats stats = ComputeLatencyStats(samples);
  EXPECT_EQ(stats.samples, 100);
  EXPECT_DOUBLE_EQ(stats.mean_ms, 50.5);
  EXPECT_DOUBLE_EQ(stats.p50_ms, 50.0);
  EXPECT_DOUBLE_EQ(stats.p99_ms, 99.0);
}

TEST(AggregateTest, CountsOutcomesAndNormalizesByDelta) {
  std::vector<RunOutcome> outcomes(3);
  outcomes[0].ok = true;
  outcomes[0].finished = true;
  outcomes[0].committed = true;
  outcomes[0].latency_ms = 4000;
  outcomes[0].total_fees = 10;
  outcomes[1].ok = true;
  outcomes[1].finished = true;
  outcomes[1].aborted = true;
  outcomes[1].total_fees = 2;
  outcomes[2].ok = false;
  outcomes[2].error = "boom";

  SweepAggregate agg = Aggregate(outcomes, /*delta_ms=*/2000);
  EXPECT_EQ(agg.runs, 3);
  EXPECT_EQ(agg.errors, 1);
  EXPECT_EQ(agg.finished, 2);
  EXPECT_EQ(agg.committed, 1);
  EXPECT_EQ(agg.aborted, 1);
  EXPECT_EQ(agg.commit_latency.samples, 1);
  EXPECT_DOUBLE_EQ(agg.mean_latency_deltas, 2.0);
  EXPECT_DOUBLE_EQ(agg.mean_fees, 6.0);
  EXPECT_DOUBLE_EQ(agg.throughput_swaps_per_sec, 0.25);
}

// ---- end-to-end determinism ----------------------------------------------

std::string OutcomesFingerprint(const std::vector<RunOutcome>& outcomes) {
  Json arr = Json::Array();
  for (const RunOutcome& outcome : outcomes) {
    arr.Push(OutcomeToJson(outcome));
  }
  return arr.Serialize();
}

// The acceptance-criteria test: the same grid run on 1 thread and on N>1
// threads must produce bit-for-bit identical results (every world is an
// independent deterministic simulation; the pool only changes scheduling).
TEST(SweepRunnerTest, ThreadCountDoesNotChangeResults) {
  SweepGridConfig config;
  config.protocols = {Protocol::kHerlihy, Protocol::kAc3tw, Protocol::kAc3wn};
  config.topologies = {Topology::kRing};
  config.sizes = {2};
  config.failures = {FailureMode::kNone};
  config.seeds = {11};
  config.deadline = Minutes(20);

  SweepRunner serial(1);
  SweepRunner pooled(4);
  EXPECT_EQ(serial.threads(), 1);
  EXPECT_EQ(pooled.threads(), 4);

  std::vector<RunOutcome> a = serial.RunGrid(config);
  std::vector<RunOutcome> b = pooled.RunGrid(config);
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(b.size(), a.size());
  EXPECT_EQ(OutcomesFingerprint(a), OutcomesFingerprint(b));

  // The happy-path grid commits everywhere — and a second serial run
  // reproduces the first (the worlds are deterministic, not just ordered).
  for (const RunOutcome& outcome : a) {
    EXPECT_TRUE(outcome.ok) << outcome.error;
    EXPECT_TRUE(outcome.committed)
        << ProtocolName(outcome.point.protocol) << " did not commit";
    EXPECT_FALSE(outcome.atomicity_violated);
  }
  std::vector<RunOutcome> c = serial.RunGrid(config);
  EXPECT_EQ(OutcomesFingerprint(a), OutcomesFingerprint(c));
}

TEST(SweepRunnerTest, CrashFailureModeRunsToAVerdict) {
  SweepGridConfig config;
  config.protocols = {Protocol::kAc3wn};
  config.topologies = {Topology::kRing};
  config.sizes = {2};
  config.failures = {FailureMode::kCrashParticipant};
  config.seeds = {5};
  config.deadline = Minutes(20);

  std::vector<RunOutcome> outcomes = SweepRunner(2).RunGrid(config);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
  EXPECT_TRUE(outcomes[0].finished);
  // AC3WN's whole point: even under a participant crash the verdict is
  // atomic — never "some redeemed, some refunded".
  EXPECT_FALSE(outcomes[0].atomicity_violated);
}

}  // namespace
}  // namespace ac3::runner
