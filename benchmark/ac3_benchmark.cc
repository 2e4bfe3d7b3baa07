// End-to-end benchmark harness: runs one workload for a wall-clock budget
// and prints one JSON object with every metric (value and unit), the op
// count and a results digest. benchmark/run.py builds and drives it; the
// workloads, the metric definitions and the layer map are documented in
// benchmark/README.md.
//
// Per-layer spans are taken only here, around calls into each module's
// public functions, so the library carries no instrumentation. Open-world
// rounds call the chain layers directly; swap worlds replay the steps
// runner::RunSwapReport takes, with a RunUntilCondition predicate that
// timestamps every simulation event. A traced run interleaves the
// untraced and the traced path over exactly the same ops (round by round,
// or chunk by chunk, alternating which goes first) and fails unless both
// produce the same digest.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/chain/blockchain.h"
#include "src/chain/mempool.h"
#include "src/chain/pow.h"
#include "src/core/scenario.h"
#include "src/protocols/ac3tw_swap.h"
#include "src/protocols/ac3wn_swap.h"
#include "src/protocols/herlihy_swap.h"
#include "src/protocols/quorum_commit.h"
#include "src/protocols/trent.h"
#include "src/runner/json.h"
#include "src/runner/sweep_runner.h"
#include "src/sim/workload.h"

namespace ac3 {
namespace {

using Clock = std::chrono::steady_clock;
using runner::Json;

/// Set-up is repeated this often per run; setup_s is the median.
constexpr int kSetupRepeats = 15;
/// A traced run must account for at least this share of op wall time.
constexpr double kMinCoverage = 0.9;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double PeakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(
                 std::strtoull(line.c_str() + 6, nullptr, 10)) /
             1024.0;
    }
  }
  return 0;
}

/// Nearest-rank percentile (0 for an empty sample).
template <typename T>
double Percentile(std::vector<T> sample, double q) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sample.size())));
  rank = std::clamp<size_t>(rank, 1, sample.size());
  return static_cast<double>(sample[rank - 1]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

int Threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hw), 1, 4);
}

// ------------------------------------------------------------------ digest

/// FNV-1a over the deterministic outputs of a run, fed in op order.
class Digest {
 public:
  void AddBytes(std::span<const uint8_t> bytes) {
    for (const uint8_t b : bytes) hash_ = (hash_ ^ b) * 1099511628211ull;
  }
  void AddU64(uint64_t value) {
    std::array<uint8_t, 8> bytes{};
    for (size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<uint8_t>(value >> (8 * i));
    }
    AddBytes(bytes);
  }
  void AddText(const std::string& text) {
    AddBytes(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(text.data()), text.size()));
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

// ------------------------------------------------------------------- spans

/// The public layer calls a span can wrap.
enum Layer : size_t {
  kNextBatch,
  kSubmit,
  kCandidates,
  kAssembly,
  kPow,
  kValidate,
  kPrune,
  kWorldBuild,
  kFailureArm,
  kStartMining,
  kTopology,
  kEngineBuild,
  kEngineStart,
  kSimRun,
  kFinalize,
  kTeardown,
  kLayerCount,
};

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "workload.next_batch",   "chain.mempool.submit",
    "chain.mempool.candidates", "chain.assembly",
    "crypto.pow",            "chain.validate",
    "chain.mempool.prune",   "core.world_build",
    "sim.failure_arm",       "core.start_mining",
    "graph.topology",        "protocols.engine_build",
    "protocols.engine_start", "sim.run",
    "protocols.finalize",    "core.world_teardown",
};

Clock::time_point TraceOrigin() {
  static const Clock::time_point origin = Clock::now();
  return origin;
}

/// Small dense id of the calling thread, for the trace's tid column.
int ThreadSlot() {
  static std::atomic<int> next{0};
  thread_local const int slot = next.fetch_add(1);
  return slot;
}

struct SpanRecord {
  Layer layer;
  int64_t request;  ///< Round id (open world) or world id (swap worlds).
  int tid;
  double start_us;   ///< Since TraceOrigin().
  double dur_us;
  std::string args;  ///< Extra JSON members, without braces; may be empty.
};

/// Busy time per layer plus the spans that produced it.
struct LayerTrace {
  std::array<double, kLayerCount> busy_ms{};
  std::vector<SpanRecord> spans;

  void Record(Layer layer, int64_t request, Clock::time_point start,
              Clock::time_point end, std::string args = {}) {
    const double ms = MsBetween(start, end);
    busy_ms[layer] += ms;
    spans.push_back(SpanRecord{layer, request, ThreadSlot(),
                               MsBetween(TraceOrigin(), start) * 1000.0,
                               ms * 1000.0, std::move(args)});
  }

  void Merge(LayerTrace* other) {
    for (size_t i = 0; i < kLayerCount; ++i) busy_ms[i] += other->busy_ms[i];
    spans.insert(spans.end(), std::make_move_iterator(other->spans.begin()),
                 std::make_move_iterator(other->spans.end()));
    other->spans.clear();
  }

  double TotalMs() const {
    double total = 0;
    for (const double ms : busy_ms) total += ms;
    return total;
  }
};

/// Runs fn(), recording it as one `layer` span when `trace` is non-null.
template <typename Fn>
auto Timed(LayerTrace* trace, Layer layer, int64_t request, Fn&& fn) {
  if (trace == nullptr) return fn();
  const Clock::time_point start = Clock::now();
  if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
    fn();
    trace->Record(layer, request, start, Clock::now());
  } else {
    auto result = fn();
    trace->Record(layer, request, start, Clock::now());
    return result;
  }
}

/// Chrome trace-event JSON (load it in Perfetto or chrome://tracing).
bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", out);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    const std::string name = kLayerNames[span.layer];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"request\":%lld%s%s}}",
                 i == 0 ? "" : ",\n", name.c_str(),
                 name.substr(0, name.find('.')).c_str(), span.tid,
                 span.start_us, span.dur_us,
                 static_cast<long long>(span.request),
                 span.args.empty() ? "" : ",", span.args.c_str());
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

// ----------------------------------------------------------------- reports

/// What one harness process prints.
struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ops = 0;
  std::string digest;
  std::vector<std::string> problems;
  Json details = Json::Object();
  Json metrics = Json::Object();
  std::vector<SpanRecord> spans;

  void Fail(std::string problem) {
    correct = false;
    if (problems.size() < 20) problems.push_back(std::move(problem));
  }
  void Metric(const char* name, double value, const char* unit) {
    Json metric = Json::Object();
    metric.Set("value", value);
    metric.Set("unit", unit);
    metrics.Set(name, std::move(metric));
  }
};

/// Everything the per-layer metrics are computed from. Fields of layers a
/// workload does not run stay zero.
struct LayerSummary {
  LayerTrace trace;
  double op_wall_ms = 0;    ///< Summed op wall time of the traced pass.
  double traced_ms = 0;     ///< Wall time of the traced pass.
  double untraced_ms = 0;   ///< Wall time of the same ops, tracing off.
  // Open world.
  uint64_t txs = 0;
  uint64_t assembled = 0;
  uint64_t assembled_txs = 0;
  uint64_t blocks = 0;
  uint64_t block_txs = 0;
  uint64_t evals = 0;
  uint64_t winner_evals = 0;
  std::vector<size_t> depths;
  // Swap worlds.
  uint64_t worlds = 0;
  uint64_t block_events = 0;
  uint64_t other_events = 0;
  double block_ms = 0;
  double other_ms = 0;
  uint64_t delivered = 0;
  uint64_t dropped = 0;
  uint64_t messages = 0;
  uint64_t message_bytes = 0;
  uint64_t messages_handled = 0;
  uint64_t messages_fenced = 0;
  uint64_t chain_blocks = 0;
  uint64_t orphans = 0;
  uint64_t anomalies = 0;
  double utilization = 0;
};

void EmitLayerMetrics(const LayerSummary& s, RunReport* report) {
  const auto share = [&](Layer layer) {
    return Ratio(s.trace.busy_ms[layer], s.op_wall_ms);
  };
  const auto per_second = [&](double count, double ms) {
    return Ratio(count, ms / 1000.0);
  };
  const double worlds = static_cast<double>(s.worlds);
  const std::array<double, kLayerCount>& busy = s.trace.busy_ms;

  report->Metric("workload.next_batch.share", share(kNextBatch), "fraction");
  report->Metric("workload.txs_per_s",
                 per_second(static_cast<double>(s.txs), busy[kNextBatch]),
                 "tx/s");
  report->Metric("chain.mempool.submit.share", share(kSubmit), "fraction");
  report->Metric("chain.mempool.submit.txs_per_s",
                 per_second(static_cast<double>(s.txs), busy[kSubmit]),
                 "tx/s");
  report->Metric("chain.mempool.candidates.share", share(kCandidates),
                 "fraction");
  report->Metric("chain.mempool.prune.share", share(kPrune), "fraction");
  report->Metric("chain.mempool.depth_p50", Percentile(s.depths, 0.50),
                 "count");
  report->Metric("chain.mempool.depth_p99", Percentile(s.depths, 0.99),
                 "count");
  report->Metric("chain.assembly.share", share(kAssembly), "fraction");
  report->Metric(
      "chain.assembly.txs_per_s",
      per_second(static_cast<double>(s.assembled_txs), busy[kAssembly]),
      "tx/s");
  report->Metric("chain.assembly.useful_ratio",
                 Ratio(static_cast<double>(s.blocks),
                       static_cast<double>(s.assembled)),
                 "fraction");
  report->Metric("chain.block_txs_mean",
                 Ratio(static_cast<double>(s.block_txs),
                       static_cast<double>(s.blocks)),
                 "count");
  report->Metric("crypto.pow.share", share(kPow), "fraction");
  report->Metric("crypto.pow.mevals_per_s",
                 per_second(static_cast<double>(s.evals), busy[kPow]) / 1e6,
                 "Mevals/s");
  report->Metric("crypto.pow.evals_per_block",
                 Ratio(static_cast<double>(s.evals),
                       static_cast<double>(s.blocks)),
                 "count");
  report->Metric("crypto.pow.useful_ratio",
                 Ratio(static_cast<double>(s.winner_evals),
                       static_cast<double>(s.evals)),
                 "fraction");
  report->Metric("chain.validate.share", share(kValidate), "fraction");
  report->Metric(
      "chain.validate.txs_per_s",
      per_second(static_cast<double>(s.block_txs), busy[kValidate]), "tx/s");

  report->Metric("core.world_build.share", share(kWorldBuild), "fraction");
  report->Metric("graph.topology.share", share(kTopology), "fraction");
  report->Metric("protocols.engine_build.share", share(kEngineBuild),
                 "fraction");
  report->Metric("protocols.engine_start.share", share(kEngineStart),
                 "fraction");
  report->Metric("protocols.finalize.share", share(kFinalize), "fraction");
  report->Metric("core.world_teardown.share", share(kTeardown), "fraction");
  report->Metric("sim.block_events.share", Ratio(s.block_ms, s.op_wall_ms),
                 "fraction");
  report->Metric("sim.other_events.share", Ratio(s.other_ms, s.op_wall_ms),
                 "fraction");
  report->Metric(
      "sim.block_events_per_s",
      per_second(static_cast<double>(s.block_events), s.block_ms), "1/s");
  report->Metric(
      "sim.other_events_per_s",
      per_second(static_cast<double>(s.other_events), s.other_ms), "1/s");
  report->Metric("sim.block_events_per_swap",
                 Ratio(static_cast<double>(s.block_events), worlds), "count");
  report->Metric("sim.other_events_per_swap",
                 Ratio(static_cast<double>(s.other_events), worlds), "count");
  report->Metric("sim.network.delivered_per_swap",
                 Ratio(static_cast<double>(s.delivered), worlds), "count");
  report->Metric("sim.network.dropped_per_swap",
                 Ratio(static_cast<double>(s.dropped), worlds), "count");
  report->Metric("protocols.messages_per_swap",
                 Ratio(static_cast<double>(s.messages), worlds), "count");
  report->Metric("protocols.message_bytes_per_swap",
                 Ratio(static_cast<double>(s.message_bytes), worlds),
                 "bytes");
  report->Metric("protocols.fenced_ratio",
                 Ratio(static_cast<double>(s.messages_fenced),
                       static_cast<double>(s.messages_handled +
                                           s.messages_fenced)),
                 "fraction");
  report->Metric("protocols.anomaly_share",
                 Ratio(static_cast<double>(s.anomalies), worlds), "fraction");
  report->Metric("chain.orphan_ratio",
                 Ratio(static_cast<double>(s.orphans),
                       static_cast<double>(s.chain_blocks)),
                 "fraction");
  report->Metric("runner.utilization", s.utilization, "fraction");

  const double coverage = Ratio(s.trace.TotalMs(), s.op_wall_ms);
  report->Metric("trace.coverage", coverage, "fraction");
  report->Metric("trace.overhead", Ratio(s.traced_ms, s.untraced_ms),
                 "ratio");
  if (coverage < kMinCoverage) {
    report->Fail("trace.coverage " + std::to_string(coverage) +
                 " is below " + std::to_string(kMinCoverage));
  }
}

/// Builds kSetupRepeats times, destroying each build before the next, and
/// returns the last; `*setup_s` receives the median build time.
template <typename Build>
auto RepeatedSetup(const Build& build, double* setup_s) {
  std::vector<double> seconds;
  decltype(build()) built;
  for (int i = 0; i < kSetupRepeats; ++i) {
    built.reset();
    const Clock::time_point start = Clock::now();
    built = build();
    seconds.push_back(MsBetween(start, Clock::now()) / 1000.0);
  }
  *setup_s = Percentile(seconds, 0.5);
  return built;
}

// -------------------------------------------------------------- open world

constexpr size_t kChains = 2;
constexpr size_t kMinersPerChain = 4;
constexpr Duration kRoundMs = 200;
constexpr size_t kMaxBlockTxs = 512;
/// Rounds allowed after arrivals stop; reaching it means the pipeline
/// stopped making progress.
constexpr uint64_t kDrainRounds = 2000;

struct OpenWorldSpec {
  sim::ArrivalProcess process;
  uint64_t accounts;
  double arrivals_per_sec;
  uint32_t difficulty_bits;
  /// Offered swaps that end the checked prefix, which every run
  /// completes: results_digest and peak_rss_mib are taken at the end of
  /// the round that reaches it, so neither depends on how many rounds the
  /// wall-clock budget allowed nor on how bursty a seed's traffic is.
  uint64_t prefix_swaps;
};

sim::WorkloadConfig WorkloadConfigFor(const OpenWorldSpec& spec) {
  sim::WorkloadConfig config;
  config.chains = kChains;
  config.accounts = spec.accounts;
  config.arrivals_per_sec = spec.arrivals_per_sec;
  config.process = spec.process;
  // Bursts keep the generator's 4x on-rate and 25% duty cycle but with
  // phases a quarter as long, so one run sees dozens of bursts: seeds then
  // differ in where the bursts fall, not in how much load a run carried.
  config.burst_on_mean_ms = 500.0;
  config.burst_off_mean_ms = 1'500.0;
  return config;
}

/// Everything an open-world run builds before its first round: the traffic
/// generator, genesis chains bound to it, empty mempools and miner keys.
struct OpenWorld {
  OpenWorld(const OpenWorldSpec& spec, uint64_t seed)
      : gen(WorkloadConfigFor(spec), seed), pools(kChains), pow_rng(seed + 1) {
    for (size_t c = 0; c < kChains; ++c) {
      chain::ChainParams params = chain::TestChainParams();
      params.id = static_cast<chain::ChainId>(c + 1);
      params.name = "open-" + std::to_string(c);
      params.difficulty_bits = spec.difficulty_bits;
      params.max_block_txs = kMaxBlockTxs;
      chains.push_back(std::make_unique<chain::Blockchain>(
          params, gen.GenesisAllocations(c)));
      gen.BindChain(c, chains[c]->id(), chains[c]->genesis_tx());
    }
    for (size_t m = 0; m < kChains * kMinersPerChain; ++m) {
      miner_keys.push_back(crypto::KeyPair::FromSeed(9'000'000 + m));
    }
  }

  sim::WorkloadGenerator gen;
  std::vector<std::unique_ptr<chain::Blockchain>> chains;
  std::vector<chain::Mempool> pools;
  std::vector<crypto::KeyPair> miner_keys;
  Rng pow_rng;
};

struct OpenWorldRun {
  std::string error;
  uint64_t rounds = 0;
  uint64_t arrival_rounds = 0;
  uint64_t offered = 0;
  uint64_t included = 0;
  uint64_t txs = 0;
  uint64_t assembled = 0;
  uint64_t assembled_txs = 0;
  uint64_t blocks = 0;
  uint64_t block_txs = 0;
  uint64_t evals = 0;
  uint64_t winner_evals = 0;
  double wall_ms = 0;                ///< Every round, drain included.
  std::vector<double> op_ms;         ///< Rounds that submitted a block.
  std::vector<TimePoint> latencies;  ///< Arrival to slower leg, sim ms.
  std::vector<size_t> depths;        ///< Pool depth before each assembly.
  std::string digest;                ///< The checked prefix.
  double prefix_rss_mib = 0;         ///< VmHWM at the end of the prefix.
  std::string run_digest;            ///< Every round so far.
};

/// One open-world traffic stream, advanced a 200 ms round at a time. Each
/// round submits the arrivals, lets every miner assemble a candidate,
/// mines all candidates in one batch and submits each chain's
/// fewest-evals winner.
class OpenWorldStream {
 public:
  OpenWorldStream(const OpenWorldSpec& spec, std::unique_ptr<OpenWorld> world)
      : spec_(spec), w_(std::move(world)) {}

  const OpenWorldRun& run() const { return run_; }

  bool Drained() const {
    return std::all_of(
        w_->pools.begin(), w_->pools.end(),
        [](const chain::Mempool& pool) { return pool.size() == 0; });
  }

  /// Runs one round, with arrivals when `arrive`; on failure sets
  /// run().error and leaves the stream where it stopped.
  void Round(bool arrive, LayerTrace* trace) {
    const Clock::time_point round_start = Clock::now();
    now_ += kRoundMs;
    const auto round = static_cast<int64_t>(run_.rounds++);
    if (arrive && !Arrive(round, trace)) return;

    struct Candidate {
      size_t chain;
      chain::Block block;
    };
    std::vector<Candidate> candidates;
    for (size_t c = 0; c < kChains; ++c) {
      chain::Mempool& pool = w_->pools[c];
      if (pool.size() == 0) continue;
      run_.depths.push_back(pool.size());
      const std::vector<const chain::Transaction*> pointers =
          Timed(trace, kCandidates, round, [&] {
            return pool.CandidatePointersAt(now_, chain::Mempool::TxFilter());
          });
      const chain::Blockchain& bc = *w_->chains[c];
      for (size_t m = 0; m < kMinersPerChain; ++m) {
        Result<chain::Block> block = Timed(trace, kAssembly, round, [&] {
          return bc.AssembleBlock(
              bc.head()->hash,
              std::span<const chain::Transaction* const>(pointers),
              w_->miner_keys[c * kMinersPerChain + m].public_key(), now_,
              &w_->pow_rng, /*mine=*/false);
        });
        if (!block.ok()) {
          run_.error = "assembly failed: " + block.status().ToString();
          return;
        }
        ++run_.assembled;
        if (block->txs.size() <= 1) continue;  // Nothing visible yet.
        run_.assembled_txs += block->txs.size() - 1;
        candidates.push_back(Candidate{c, std::move(*block)});
      }
    }

    std::vector<chain::BlockHeader*> headers;
    headers.reserve(candidates.size());
    for (Candidate& candidate : candidates) {
      headers.push_back(&candidate.block.header);
    }
    const std::vector<uint64_t> evals = Timed(trace, kPow, round, [&] {
      return chain::MineHeaderBatch(
          std::span<chain::BlockHeader* const>(headers), &w_->pow_rng);
    });
    uint64_t round_evals = 0;
    for (const uint64_t e : evals) round_evals += e;
    run_.evals += round_evals;
    digest_.AddU64(static_cast<uint64_t>(round));
    digest_.AddU64(round_evals);

    bool submitted = false;
    for (size_t c = 0; c < kChains; ++c) {
      // The miner whose search finished first (fewest evals, ties to the
      // lowest index) wins the chain's extension.
      size_t winner = candidates.size();
      for (size_t i = 0; i < candidates.size(); ++i) {
        if (candidates[i].chain != c) continue;
        if (winner == candidates.size() || evals[i] < evals[winner]) {
          winner = i;
        }
      }
      if (winner == candidates.size()) continue;
      const chain::Block& block = candidates[winner].block;
      const Status status = Timed(trace, kValidate, round, [&] {
        return w_->chains[c]->SubmitBlock(block, now_);
      });
      if (!status.ok()) {
        run_.error = "winning block failed validation: " + status.ToString();
        return;
      }
      submitted = true;
      ++run_.blocks;
      run_.block_txs += block.txs.size() - 1;
      run_.winner_evals += evals[winner];
      std::vector<crypto::Hash256> included;
      included.reserve(block.txs.size() - 1);
      for (size_t i = 1; i < block.txs.size(); ++i) {
        included.push_back(block.txs[i].Id());
        const auto leg = leg_to_swap_.find(included.back());
        if (leg == leg_to_swap_.end()) continue;  // A faucet grant.
        SwapSlot& swap = swaps_[leg->second];
        leg_to_swap_.erase(leg);
        if (--swap.legs_left == 0) {
          ++run_.included;
          run_.latencies.push_back(now_ - swap.arrival);
          digest_.AddU64(static_cast<uint64_t>(now_ - swap.arrival));
        }
      }
      Timed(trace, kPrune, round, [&] {
        w_->pools[c].Prune(std::span<const crypto::Hash256>(included));
      });
      digest_.AddBytes(w_->chains[c]->head()->hash.data());
    }

    const double round_ms = MsBetween(round_start, Clock::now());
    run_.wall_ms += round_ms;
    if (submitted) run_.op_ms.push_back(round_ms);
    run_.run_digest = digest_.Hex();
    if (run_.digest.empty() && run_.offered >= spec_.prefix_swaps) {
      run_.digest = run_.run_digest;
      run_.prefix_rss_mib = PeakRssMib();
    }
  }

 private:
  struct SwapSlot {
    TimePoint arrival;
    int legs_left;
  };

  bool Arrive(int64_t round, LayerTrace* trace) {
    ++run_.arrival_rounds;
    sim::WorkloadBatch batch = Timed(trace, kNextBatch, round,
                                     [&] { return w_->gen.NextBatch(now_); });
    std::array<std::vector<chain::Transaction>, kChains> per_chain;
    for (sim::GeneratedTx& gtx : batch.txs) {
      per_chain[gtx.chain].push_back(std::move(gtx.tx));
    }
    for (size_t c = 0; c < kChains; ++c) {
      const size_t accepted = Timed(trace, kSubmit, round, [&] {
        return w_->pools[c]
            .SubmitBatch(std::span<const chain::Transaction>(per_chain[c]),
                         now_)
            .accepted;
      });
      if (accepted != per_chain[c].size()) {
        run_.error = "SubmitBatch rejected a generated transaction";
        return false;
      }
    }
    run_.txs += batch.txs.size();
    for (const sim::SwapRecord& swap : batch.swaps) {
      leg_to_swap_.emplace(swap.leg_a_id, swaps_.size());
      leg_to_swap_.emplace(swap.leg_b_id, swaps_.size());
      swaps_.push_back(SwapSlot{swap.arrival, 2});
    }
    run_.offered += batch.swaps.size();
    return true;
  }

  OpenWorldSpec spec_;
  std::unique_ptr<OpenWorld> w_;
  OpenWorldRun run_;
  std::vector<SwapSlot> swaps_;
  std::unordered_map<crypto::Hash256, size_t> leg_to_swap_;
  Digest digest_;
  TimePoint now_ = 0;
};

/// Drives `streams` — identical inputs — in lockstep, alternating which
/// goes first each round so machine drift hits every stream alike. Rounds
/// carry arrivals until `seconds` of wall time passed and the checked
/// prefix ran; then the pools drain. Returns the first problem, or "".
std::string DriveOpenWorld(const std::vector<OpenWorldStream*>& streams,
                           const std::vector<LayerTrace*>& traces,
                           double seconds) {
  const OpenWorldStream& lead = *streams.front();
  const Clock::time_point t0 = Clock::now();
  bool arriving = true;
  while (true) {
    arriving = arriving && (lead.run().digest.empty() ||
                            MsBetween(t0, Clock::now()) < seconds * 1000.0);
    if (!arriving && lead.Drained()) return "";
    if (lead.run().rounds - lead.run().arrival_rounds >= kDrainRounds) {
      return "pools failed to drain within " + std::to_string(kDrainRounds) +
             " rounds";
    }
    const bool reverse = lead.run().rounds % 2 == 1;
    for (size_t k = 0; k < streams.size(); ++k) {
      const size_t i = reverse ? streams.size() - 1 - k : k;
      streams[i]->Round(arriving, traces[i]);
      if (!streams[i]->run().error.empty()) return streams[i]->run().error;
    }
  }
}

void CheckOpenWorld(const OpenWorldRun& run, const std::string& problem,
                    RunReport* report) {
  if (!problem.empty()) report->Fail(problem);
  if (run.included != run.offered) {
    report->Fail(std::to_string(run.offered - run.included) +
                 " offered swaps were never included");
  }
  report->attempted = run.offered;
  report->failed = run.offered - run.included;
  report->ops = run.op_ms.size();
  report->digest = run.digest;
  report->details.Set("rounds", run.rounds);
  report->details.Set("arrival_rounds", run.arrival_rounds);
  report->details.Set("offered_swaps", run.offered);
  report->details.Set("included_swaps", run.included);
  report->details.Set("blocks", run.blocks);
  report->details.Set("pow_evals", run.evals);
  report->details.Set("swap_latency_sim_ms_p50",
                      Percentile(run.latencies, 0.50));
  report->details.Set("swap_latency_sim_ms_p99",
                      Percentile(run.latencies, 0.99));
}

void RunOpenWorldWorkload(const OpenWorldSpec& spec, uint64_t seed,
                          double seconds, bool traced, RunReport* report) {
  if (!traced) {
    double setup_s = 0;
    OpenWorldStream stream(
        spec, RepeatedSetup(
                  [&] { return std::make_unique<OpenWorld>(spec, seed); },
                  &setup_s));
    const std::string problem = DriveOpenWorld({&stream}, {nullptr}, seconds);
    const OpenWorldRun& run = stream.run();
    CheckOpenWorld(run, problem, report);
    report->Metric("setup_s", setup_s, "s");
    report->Metric("swaps_per_s",
                   Ratio(static_cast<double>(run.included),
                         run.wall_ms / 1000.0),
                   "swaps/s");
    report->Metric("op_ms_p50", Percentile(run.op_ms, 0.50), "ms");
    report->Metric("peak_rss_mib", run.prefix_rss_mib, "MiB");
    // Reported, not gated: too noisy on a shared host (README).
    report->details.Set("op_ms_p90", Percentile(run.op_ms, 0.90));
    return;
  }

  OpenWorldStream plain(spec, std::make_unique<OpenWorld>(spec, seed));
  OpenWorldStream traced_stream(spec, std::make_unique<OpenWorld>(spec, seed));
  LayerSummary summary;
  const std::string problem = DriveOpenWorld(
      {&plain, &traced_stream}, {nullptr, &summary.trace}, seconds);
  const OpenWorldRun& run = traced_stream.run();
  CheckOpenWorld(run, problem, report);
  if (run.run_digest != plain.run().run_digest) {
    report->Fail("traced digest " + run.run_digest +
                 " differs from untraced " + plain.run().run_digest);
  }
  summary.op_wall_ms = run.wall_ms;
  summary.traced_ms = run.wall_ms;
  summary.untraced_ms = plain.run().wall_ms;
  summary.txs = run.txs;
  summary.assembled = run.assembled;
  summary.assembled_txs = run.assembled_txs;
  summary.blocks = run.blocks;
  summary.block_txs = run.block_txs;
  summary.evals = run.evals;
  summary.winner_evals = run.winner_evals;
  summary.depths = run.depths;
  EmitLayerMetrics(summary, report);
  report->spans = std::move(summary.trace.spans);
}

// ------------------------------------------------------------- swap worlds

struct SweepSpec {
  std::vector<int> sizes;
  std::vector<runner::FailureMode> failures;
  /// Seeds per grid chunk: chunk k covers seeds S + k·n … S + (k+1)·n − 1.
  uint64_t seeds_per_chunk;
  /// Chunks of the checked prefix, which every run completes:
  /// results_digest and peak_rss_mib are taken at its end.
  uint64_t prefix_chunks;
  double coordinator_recovery_deltas;
  Duration deadline;
};

runner::SweepGridConfig ChunkConfig(const SweepSpec& spec, uint64_t seed,
                                    uint64_t chunk) {
  runner::SweepGridConfig config;
  config.protocols = {runner::Protocol::kHerlihy, runner::Protocol::kAc3tw,
                      runner::Protocol::kAc3wn, runner::Protocol::kQuorum};
  config.topologies = {runner::Topology::kRing};
  config.sizes = spec.sizes;
  config.failures = spec.failures;
  config.seeds.clear();
  for (uint64_t i = 0; i < spec.seeds_per_chunk; ++i) {
    config.seeds.push_back(seed + chunk * spec.seeds_per_chunk + i);
  }
  config.coordinator_recovery_deltas = spec.coordinator_recovery_deltas;
  config.deadline = spec.deadline;
  return config;
}

// The next three helpers restate what runner::RunSwapReport does
// privately, so the traced replay builds the identical world.

core::ScenarioOptions WorldOptionsFor(const runner::SweepGridConfig& config,
                                      const runner::SweepPoint& point) {
  core::ScenarioOptions options;
  options.participants = point.size;
  options.asset_chains = std::min(point.size, config.max_asset_chains);
  options.funding = config.funding;
  options.seed = point.seed;
  options.witness_chain = point.protocol == runner::Protocol::kAc3wn;
  return options;
}

protocols::CoordinatorCrashPlan CoordinatorPlanFor(
    const runner::SweepGridConfig& config, const runner::SweepPoint& point) {
  protocols::CoordinatorCrashPlan plan;
  if (point.failure == runner::FailureMode::kCrashCoordinatorAtPrepare) {
    plan.phase = protocols::CoordinatorCrashPhase::kAtPrepare;
  } else if (point.failure == runner::FailureMode::kCrashCoordinatorAtCommit) {
    plan.phase = protocols::CoordinatorCrashPhase::kAtCommit;
  } else {
    return plan;
  }
  if (config.coordinator_recovery_deltas >= 0) {
    plan.recover_after = static_cast<Duration>(
        config.coordinator_recovery_deltas *
        static_cast<double>(config.delta));
  }
  return plan;
}

void InjectFailure(const runner::SweepGridConfig& config,
                   const runner::SweepPoint& point,
                   core::ScenarioWorld* world) {
  if (point.failure == runner::FailureMode::kNone || point.size < 2) return;
  const sim::NodeId victim = world->participant(1)->node();
  const auto onset = static_cast<TimePoint>(
      config.failure_onset_deltas * static_cast<double>(config.delta));
  const auto length = static_cast<Duration>(
      config.failure_length_deltas * static_cast<double>(config.delta));
  sim::MessageFaults faults;
  switch (point.failure) {
    case runner::FailureMode::kCrashParticipant:
      world->env()->failures()->CrashFor(victim, onset, length);
      break;
    case runner::FailureMode::kPartitionParticipant:
      world->env()->failures()->SchedulePartition(
          sim::PartitionWindow{victim, onset, onset + length});
      break;
    case runner::FailureMode::kDropMessages:
      faults.drop_prob = config.message_drop_prob;
      world->env()->network()->set_message_faults(faults);
      break;
    case runner::FailureMode::kDuplicateMessages:
      faults.duplicate_prob = config.message_duplicate_prob;
      world->env()->network()->set_message_faults(faults);
      break;
    default:
      break;  // Coordinator crashes are engine-driven.
  }
}

runner::RunOutcome ErrorOutcome(const runner::SweepPoint& point,
                                const Status& status) {
  runner::RunOutcome outcome;
  outcome.point = point;
  outcome.error = status.ToString();
  outcome.infeasible = status.code() == StatusCode::kFailedPrecondition;
  return outcome;
}

/// One world's engine plus the trusted witness AC3TW needs, which must
/// outlive the engine.
struct WorldEngine {
  std::unique_ptr<protocols::TrustedWitness> trent;
  std::unique_ptr<protocols::SwapEngineBase> engine;
};

WorldEngine BuildEngine(const runner::SweepGridConfig& config,
                        const runner::SweepPoint& point,
                        core::ScenarioWorld* world,
                        const graph::Ac2tGraph& graph) {
  WorldEngine built;
  const protocols::CoordinatorCrashPlan crash =
      CoordinatorPlanFor(config, point);
  switch (point.protocol) {
    case runner::Protocol::kHerlihy: {
      protocols::HtlcConfig cfg;
      cfg.delta = config.delta;
      cfg.confirm_depth = config.confirm_depth;
      cfg.resubmit_interval = config.resubmit_interval;
      cfg.coordinator_crash = crash;
      built.engine = std::make_unique<protocols::HerlihySwapEngine>(
          world->env(), graph, world->all_participants(), cfg);
      break;
    }
    case runner::Protocol::kAc3tw: {
      protocols::Ac3twConfig cfg;
      cfg.delta = config.delta;
      cfg.confirm_depth = config.confirm_depth;
      cfg.resubmit_interval = config.resubmit_interval;
      cfg.publish_patience = config.publish_patience;
      cfg.coordinator_crash = crash;
      built.trent = std::make_unique<protocols::TrustedWitness>(
          "Trent", 0x7e27 + point.seed, world->env(), config.confirm_depth);
      built.engine = std::make_unique<protocols::Ac3twSwapEngine>(
          world->env(), graph, world->all_participants(), built.trent.get(),
          cfg);
      break;
    }
    case runner::Protocol::kAc3wn: {
      protocols::Ac3wnConfig cfg;
      cfg.delta = config.delta;
      cfg.confirm_depth = config.confirm_depth;
      cfg.witness_depth_d = config.witness_depth_d;
      cfg.resubmit_interval = config.resubmit_interval;
      cfg.publish_patience = config.publish_patience;
      cfg.coordinator_crash = crash;
      built.engine = std::make_unique<protocols::Ac3wnSwapEngine>(
          world->env(), graph, world->all_participants(),
          world->witness_chain(), cfg);
      break;
    }
    case runner::Protocol::kQuorum: {
      protocols::QuorumConfig cfg;
      cfg.delta = config.delta;
      cfg.confirm_depth = config.confirm_depth;
      cfg.resubmit_interval = config.resubmit_interval;
      cfg.publish_patience = config.publish_patience;
      cfg.takeover_timeout = 2 * config.delta;
      cfg.coordinator_crash = crash;
      built.engine = std::make_unique<protocols::QuorumCommitEngine>(
          world->env(), graph, world->all_participants(), cfg);
      break;
    }
  }
  return built;
}

/// Counters and spans of one replayed world.
struct WorldStats {
  LayerTrace trace;
  uint64_t block_events = 0;
  uint64_t other_events = 0;
  double block_ms = 0;
  double other_ms = 0;
  uint64_t delivered = 0;
  uint64_t dropped = 0;
  int64_t messages = 0;
  int64_t message_bytes = 0;
  int64_t messages_handled = 0;
  int64_t messages_fenced = 0;
  uint64_t chain_blocks = 0;
  uint64_t orphans = 0;
};

/// runner::RunSwapReport + ReduceReport, one span per step. An event is a
/// block event when some chain's block count grew during it (a block was
/// produced: candidates, assembly, PoW, validation); every other event —
/// engine steps, deliveries, timers — is an other event.
runner::RunOutcome ReplayWorld(const runner::SweepGridConfig& config,
                               const runner::SweepPoint& point,
                               int64_t world_id, WorldStats* stats) {
  LayerTrace* trace = &stats->trace;
  const Clock::time_point t0 = Clock::now();
  const core::ScenarioOptions options = WorldOptionsFor(config, point);
  std::unique_ptr<core::ScenarioWorld> world =
      Timed(trace, kWorldBuild, world_id, [&] {
        return std::make_unique<core::ScenarioWorld>(options);
      });
  Timed(trace, kFailureArm, world_id,
        [&] { InjectFailure(config, point, world.get()); });
  Timed(trace, kStartMining, world_id, [&] { world->StartMining(); });
  const graph::Ac2tGraph graph = Timed(trace, kTopology, world_id, [&] {
    return runner::TopologyOverWorld(world.get(), point.topology, point.size,
                                     config.edge_amount, point.seed,
                                     config.random_chord_prob);
  });
  sim::Simulation* sim = world->env()->sim();
  const TimePoint deadline = sim->Now() + config.deadline;
  WorldEngine engine = Timed(trace, kEngineBuild, world_id, [&] {
    return BuildEngine(config, point, world.get(), graph);
  });

  std::vector<const chain::Blockchain*> chains;
  for (const chain::ChainId id : world->asset_chains()) {
    chains.push_back(world->env()->blockchain(id));
  }
  if (options.witness_chain) {
    chains.push_back(world->env()->blockchain(world->witness_chain()));
  }

  runner::RunOutcome outcome;
  const Status started = Timed(trace, kEngineStart, world_id,
                               [&] { return engine.engine->Start(); });
  if (!started.ok()) {
    outcome = ErrorOutcome(point, started);
  } else {
    std::vector<size_t> counts;
    for (const chain::Blockchain* bc : chains) {
      counts.push_back(bc->block_count());
    }
    const Clock::time_point run_start = Clock::now();
    Clock::time_point last = run_start;
    uint64_t block_events = 0;
    uint64_t other_events = 0;
    double block_ms = 0;
    double other_ms = 0;
    bool before_first_event = true;
    (void)sim->RunUntilCondition(
        [&] {
          const Clock::time_point now = Clock::now();
          bool grew = false;
          for (size_t i = 0; i < chains.size(); ++i) {
            const size_t count = chains[i]->block_count();
            if (count != counts[i]) {
              counts[i] = count;
              grew = true;
            }
          }
          if (!before_first_event) {
            const double ms = MsBetween(last, now);
            if (grew) {
              ++block_events;
              block_ms += ms;
            } else {
              ++other_events;
              other_ms += ms;
            }
          }
          before_first_event = false;
          last = now;
          return engine.engine->Done();
        },
        deadline);
    char args[160];
    std::snprintf(args, sizeof(args),
                  "\"block_events\":%llu,\"block_us\":%.1f,"
                  "\"other_events\":%llu,\"other_us\":%.1f",
                  static_cast<unsigned long long>(block_events),
                  block_ms * 1000.0,
                  static_cast<unsigned long long>(other_events),
                  other_ms * 1000.0);
    trace->Record(kSimRun, world_id, run_start, Clock::now(), args);
    stats->block_events += block_events;
    stats->other_events += other_events;
    stats->block_ms += block_ms;
    stats->other_ms += other_ms;

    Result<protocols::SwapReport> report =
        Timed(trace, kFinalize, world_id,
              [&] { return engine.engine->Run(deadline); });
    if (!report.ok()) {
      outcome = ErrorOutcome(point, report.status());
    } else {
      outcome = runner::ReduceReport(point, *report);
      outcome.sim_events = static_cast<int64_t>(sim->events_executed());
      stats->messages += report->messages_sent;
      stats->message_bytes += report->message_bytes_sent;
      stats->messages_handled += report->messages_delivered;
      stats->messages_fenced += report->messages_fenced;
    }
  }
  stats->delivered += world->env()->network()->delivered_count();
  stats->dropped += world->env()->network()->dropped_count();
  for (const chain::Blockchain* bc : chains) {
    const uint64_t mined = bc->block_count() - 1;  // Genesis is not mined.
    stats->chain_blocks += mined;
    stats->orphans += mined - bc->height();
  }

  Timed(trace, kTeardown, world_id, [&] {
    engine.engine.reset();
    engine.trent.reset();
    world.reset();
  });
  outcome.wall_ms = MsBetween(t0, Clock::now());
  return outcome;
}

/// Outcomes of a sequence of grid chunks, with their digests.
struct SweepRun {
  std::vector<runner::RunOutcome> outcomes;  ///< Grid order, chunk by chunk.
  double grid_ms = 0;                        ///< Summed chunk wall time.
  uint64_t chunks = 0;
  std::string digest;         ///< The checked prefix.
  double prefix_rss_mib = 0;  ///< VmHWM at the end of the prefix.
  std::string run_digest;     ///< Every chunk so far.
  Digest folded;              ///< OutcomeToJson of every outcome so far.

  void Append(const SweepSpec& spec, std::vector<runner::RunOutcome> chunk,
              double wall_ms) {
    for (runner::RunOutcome& outcome : chunk) {
      folded.AddText(runner::OutcomeToJson(outcome).Serialize());
      outcomes.push_back(std::move(outcome));
    }
    grid_ms += wall_ms;
    run_digest = folded.Hex();
    if (++chunks == spec.prefix_chunks) {
      digest = run_digest;
      prefix_rss_mib = PeakRssMib();
    }
  }
};

/// Replays every world of one chunk with spans, on the same pool
/// SweepRunner::RunGridTimed uses; one WorldStats per world lands in
/// `stats`, indexed by world id.
void RunTracedChunk(const SweepSpec& spec,
                    const runner::SweepGridConfig& config,
                    const runner::SweepRunner& pool, SweepRun* run,
                    std::vector<WorldStats>* stats) {
  const std::vector<runner::SweepPoint> points = runner::GridPoints(config);
  const size_t base = stats->size();
  stats->resize(base + points.size());
  const Clock::time_point start = Clock::now();
  std::vector<runner::RunOutcome> outcomes = pool.Map<runner::RunOutcome>(
      static_cast<int>(points.size()), [&](int i) {
        const auto index = static_cast<size_t>(i);
        return ReplayWorld(config, points[index],
                           static_cast<int64_t>(base + index),
                           &(*stats)[base + index]);
      });
  run->Append(spec, std::move(outcomes), MsBetween(start, Clock::now()));
}

/// Runs grid chunks through SweepRunner::RunGridTimed until `seconds` of
/// wall time passed and the checked prefix ran. With `traced` set, every
/// chunk is also replayed with spans, alternating which goes first so
/// machine drift hits both alike.
void DriveSweep(const SweepSpec& spec, uint64_t seed,
                const runner::SweepRunner& pool, double seconds,
                SweepRun* plain, SweepRun* traced,
                std::vector<WorldStats>* stats) {
  const Clock::time_point t0 = Clock::now();
  while (plain->chunks < spec.prefix_chunks ||
         MsBetween(t0, Clock::now()) < seconds * 1000.0) {
    const runner::SweepGridConfig config =
        ChunkConfig(spec, seed, plain->chunks);
    const bool traced_first = traced != nullptr && plain->chunks % 2 == 1;
    if (traced_first) RunTracedChunk(spec, config, pool, traced, stats);
    runner::GridWallStats wall;
    std::vector<runner::RunOutcome> outcomes = pool.RunGridTimed(config, &wall);
    plain->Append(spec, std::move(outcomes), wall.wall_ms);
    if (traced != nullptr && !traced_first) {
      RunTracedChunk(spec, config, pool, traced, stats);
    }
  }
}

/// Every world must run; AC3TW, AC3WN and quorum worlds must finish
/// atomically (the paper's claim). Herlihy worlds that end unfinished or
/// non-atomic are the paper's counter-result: counted, not rejected.
uint64_t CheckSweep(const SweepRun& run, RunReport* report) {
  uint64_t finished = 0;
  uint64_t anomalies = 0;
  std::vector<double> commit_latency;
  for (const runner::RunOutcome& outcome : run.outcomes) {
    const runner::SweepPoint& p = outcome.point;
    const std::string cell =
        std::string(runner::ProtocolName(p.protocol)) + "/" +
        runner::FailureModeName(p.failure) + "/size " +
        std::to_string(p.size) + "/seed " + std::to_string(p.seed);
    if (!outcome.ok) {
      ++report->failed;
      report->Fail(cell + ": " + outcome.error);
      continue;
    }
    if (outcome.finished) ++finished;
    if (outcome.committed) commit_latency.push_back(outcome.latency_ms);
    if (outcome.finished && !outcome.atomicity_violated) continue;
    if (p.protocol == runner::Protocol::kHerlihy) {
      ++anomalies;
    } else {
      ++report->failed;
      report->Fail(cell + (outcome.atomicity_violated
                               ? ": atomicity violated"
                               : ": no verdict by the deadline"));
    }
  }
  report->attempted = run.outcomes.size();
  report->ops = run.outcomes.size();
  report->digest = run.digest;
  report->details.Set("chunks", run.chunks);
  report->details.Set("worlds", run.outcomes.size());
  report->details.Set("finished", finished);
  report->details.Set("herlihy_anomalies", anomalies);
  report->details.Set("swap_latency_sim_ms_p50",
                      Percentile(commit_latency, 0.50));
  report->details.Set("swap_latency_sim_ms_p99",
                      Percentile(commit_latency, 0.99));
  return anomalies;
}

void RunSweepWorkload(const SweepSpec& spec, uint64_t seed, double seconds,
                      bool traced, RunReport* report) {
  if (!traced) {
    double setup_s = 0;
    const std::unique_ptr<runner::SweepRunner> pool = RepeatedSetup(
        [&] {
          auto built = std::make_unique<runner::SweepRunner>(Threads());
          // Spawn the workers now rather than inside the first timed chunk.
          (void)built->Map<int>(built->threads(), [](int i) { return i; });
          (void)runner::GridPoints(ChunkConfig(spec, seed, 0));
          return built;
        },
        &setup_s);
    SweepRun run;
    DriveSweep(spec, seed, *pool, seconds, &run, nullptr, nullptr);
    CheckSweep(run, report);
    uint64_t finished = 0;
    std::vector<double> op_ms;
    for (const runner::RunOutcome& outcome : run.outcomes) {
      if (outcome.ok && outcome.finished) ++finished;
      op_ms.push_back(outcome.wall_ms);
    }
    report->Metric("setup_s", setup_s, "s");
    report->Metric(
        "swaps_per_s",
        Ratio(static_cast<double>(finished), run.grid_ms / 1000.0),
        "swaps/s");
    report->Metric("op_ms_p50", Percentile(op_ms, 0.50), "ms");
    report->Metric("peak_rss_mib", run.prefix_rss_mib, "MiB");
    report->details.Set("op_ms_p90", Percentile(op_ms, 0.90));
    return;
  }

  const runner::SweepRunner pool(Threads());
  SweepRun plain;
  SweepRun run;
  std::vector<WorldStats> stats;
  DriveSweep(spec, seed, pool, seconds, &plain, &run, &stats);
  LayerSummary summary;
  summary.anomalies = CheckSweep(run, report);
  if (run.run_digest != plain.run_digest) {
    report->Fail("traced digest " + run.run_digest +
                 " differs from untraced " + plain.run_digest +
                 ": the replay drifted from runner::RunSwapReport");
  }
  double plain_world_ms = 0;
  for (const runner::RunOutcome& outcome : plain.outcomes) {
    plain_world_ms += outcome.wall_ms;
  }
  for (const runner::RunOutcome& outcome : run.outcomes) {
    summary.op_wall_ms += outcome.wall_ms;
  }
  for (WorldStats& world : stats) {
    summary.trace.Merge(&world.trace);
    summary.block_events += world.block_events;
    summary.other_events += world.other_events;
    summary.block_ms += world.block_ms;
    summary.other_ms += world.other_ms;
    summary.delivered += world.delivered;
    summary.dropped += world.dropped;
    summary.messages += static_cast<uint64_t>(world.messages);
    summary.message_bytes += static_cast<uint64_t>(world.message_bytes);
    summary.messages_handled += static_cast<uint64_t>(world.messages_handled);
    summary.messages_fenced += static_cast<uint64_t>(world.messages_fenced);
    summary.chain_blocks += world.chain_blocks;
    summary.orphans += world.orphans;
  }
  summary.worlds = run.outcomes.size();
  summary.traced_ms = run.grid_ms;
  summary.untraced_ms = plain.grid_ms;
  summary.utilization =
      Ratio(plain_world_ms, pool.threads() * plain.grid_ms);
  EmitLayerMetrics(summary, report);
  report->spans = std::move(summary.trace.spans);
}

// -------------------------------------------------------------- workloads

struct WorkloadSpec {
  std::string name;
  bool open_world;
  OpenWorldSpec open;
  SweepSpec sweep;
};

/// The four workloads (see benchmark/README.md for why each exists).
/// `smoke` shrinks every one to a few seconds of work.
std::vector<WorkloadSpec> Workloads(bool smoke) {
  using runner::FailureMode;
  const uint32_t difficulty = smoke ? 8 : 12;
  const double rate = smoke ? 200.0 : 1000.0;
  const uint64_t prefix_swaps = smoke ? 500 : 20'000;
  const uint64_t prefix_chunks = smoke ? 1 : 4;
  std::vector<WorkloadSpec> specs;
  specs.push_back(WorkloadSpec{
      "openworld-poisson", true,
      OpenWorldSpec{sim::ArrivalProcess::kPoisson, 10'000, rate, difficulty,
                    prefix_swaps},
      {}});
  specs.push_back(WorkloadSpec{
      "openworld-bursty-2m", true,
      OpenWorldSpec{sim::ArrivalProcess::kBursty, 2'000'000, rate,
                    difficulty, prefix_swaps},
      {}});
  specs.push_back(WorkloadSpec{
      "swaps-clean", false, {},
      SweepSpec{{2, 4, 8}, {FailureMode::kNone}, smoke ? 2u : 25u,
                prefix_chunks, -1.0,
                runner::SweepGridConfig{}.deadline}});
  specs.push_back(WorkloadSpec{
      "swaps-faults", false, {},
      SweepSpec{{4},
                {FailureMode::kCrashParticipant,
                 FailureMode::kPartitionParticipant,
                 FailureMode::kDropMessages, FailureMode::kDuplicateMessages,
                 FailureMode::kCrashCoordinatorAtCommit},
                smoke ? 2u : 10u, prefix_chunks, 6.0, Seconds(120)}});
  return specs;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

int Usage(const char* problem) {
  std::fprintf(stderr,
               "%s\nusage: ac3_benchmark --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out FILE] [--smoke]\n",
               problem);
  return 2;
}

}  // namespace
}  // namespace ac3

int main(int argc, char** argv) {
  using namespace ac3;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--smoke") {
      options.smoke = true;
    } else if (!has_value) {
      return Usage(("missing value for " + flag).c_str());
    } else if (flag == "--workload") {
      options.workload = argv[++i];
    } else if (flag == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace") {
      options.trace = std::string(argv[++i]) != "0";
    } else if (flag == "--trace-out") {
      options.trace_out = argv[++i];
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  const std::vector<WorkloadSpec> specs = Workloads(options.smoke);
  const auto spec = std::find_if(
      specs.begin(), specs.end(),
      [&](const WorkloadSpec& s) { return s.name == options.workload; });
  if (spec == specs.end()) {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }

  TraceOrigin();
  RunReport report;
  if (spec->open_world) {
    RunOpenWorldWorkload(spec->open, options.seed, options.seconds,
                         options.trace, &report);
  } else {
    RunSweepWorkload(spec->sweep, options.seed, options.seconds,
                     options.trace, &report);
  }
  if (options.trace && !options.trace_out.empty() &&
      !WriteChromeTrace(options.trace_out, report.spans)) {
    report.Fail("cannot write " + options.trace_out);
  }

  Json out = Json::Object();
  out.Set("workload", spec->name);
  out.Set("seed", options.seed);
  out.Set("trace", options.trace);
  out.Set("correct", report.correct);
  out.Set("attempted", report.attempted);
  out.Set("failed", report.failed);
  out.Set("ops", report.ops);
  out.Set("results_digest", report.digest);
  Json problems = Json::Array();
  for (const std::string& problem : report.problems) problems.Push(problem);
  out.Set("problems", std::move(problems));
  out.Set("details", std::move(report.details));
  out.Set("metrics", std::move(report.metrics));
  std::fputs(out.Serialize().c_str(), stdout);
  return report.correct ? 0 : 1;
}
