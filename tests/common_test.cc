// Unit tests for src/common: Status/Result, byte codec, RNG, sim time,
// and the shared WorkerPool fan-out primitive.

#include <array>
#include <atomic>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/common/random.h"
#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/common/worker_pool.h"

namespace ac3 {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kVerificationFailed),
               "VerificationFailed");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "Unavailable");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> DoubleOfPositive(int x) {
  AC3_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  AC3_ASSIGN_OR_RETURN(int w, ParsePositive(v * 2));
  return w;
}

TEST(ResultTest, AssignOrReturnMacroPropagates) {
  Result<int> ok = DoubleOfPositive(3);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 6);
  Result<int> err = DoubleOfPositive(-1);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(BytesTest, HexRoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff};
  std::string hex = ToHex(data);
  EXPECT_EQ(hex, "0001abff");
  auto back = FromHex(hex);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST(BytesTest, HexRejectsOddLength) {
  EXPECT_FALSE(FromHex("abc").ok());
}

TEST(BytesTest, HexRejectsNonHexChars) {
  EXPECT_FALSE(FromHex("zz").ok());
}

TEST(BytesTest, HexAcceptsUppercase) {
  auto r = FromHex("ABCD");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ToHex(*r), "abcd");
}

enum class Shade : uint8_t { kLight = 1, kDark = 2 };

constexpr EnumRange<Shade> WireRange(Shade) {
  return {Shade::kLight, Shade::kDark};
}

/// One field of every codec rule.
struct AllRules {
  uint8_t u8 = 0x12;
  uint16_t u16 = 0x3456;
  uint32_t u32 = 0x789abcde;
  uint64_t u64 = 0x0123456789abcdefULL;
  int64_t i64 = -42;
  bool flag = true;
  Shade shade = Shade::kDark;
  Bytes bytes = {1, 2, 3};
  std::string text = "hello";
  std::array<uint8_t, 2> raw = {0xaa, 0xbb};
  std::vector<uint32_t> counted = {4, 5};
  uint32_t nested = 6;
  std::vector<Bytes> nested_each = {{7}, {}};
  std::variant<uint8_t, std::string> choice = std::string("alt");

  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.u8, self.u16, self.u32, self.u64, self.i64, self.flag,
          self.shade, self.bytes, self.text, self.raw, self.counted,
          Nested(self.nested), NestedEach(self.nested_each),
          VariantIndex(self.choice), self.choice);
  }

  bool operator==(const AllRules&) const = default;
};

/// One byte behind a length prefix.
struct Wrapped {
  uint8_t inner = 0;

  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(Nested(self.inner));
  }
};

TEST(ByteCodecTest, RoundTripAllTypes) {
  const AllRules sample;
  const Bytes encoded = Encode(sample);
  EXPECT_EQ(EncodedSize(sample), encoded.size());
  auto decoded = Decode<AllRules>(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, sample);
  EXPECT_EQ(Encode(*decoded), encoded);
}

TEST(ByteCodecTest, UnderrunReturnsOutOfRange) {
  const Bytes encoded = Encode(AllRules());
  for (size_t len = 0; len < encoded.size(); ++len) {
    auto cut = Decode<AllRules>(std::span(encoded).first(len));
    ASSERT_FALSE(cut.ok()) << len;
    EXPECT_EQ(cut.status().code(), StatusCode::kOutOfRange) << len;
  }
}

TEST(ByteCodecTest, EncodingIsLittleEndian) {
  EXPECT_EQ(Encode(uint32_t{0x01020304}), Bytes({0x04, 0x03, 0x02, 0x01}));
}

TEST(ByteCodecTest, RejectsEveryNonCanonicalByte) {
  EXPECT_FALSE(Decode<bool>(Bytes{2}).ok());
  EXPECT_FALSE(Decode<Shade>(Bytes{0}).ok());
  EXPECT_FALSE(Decode<Shade>(Bytes{3}).ok());
  EXPECT_TRUE(Decode<Shade>(Bytes{2}).ok());
  EXPECT_FALSE(Decode<uint8_t>(Bytes{1, 0}).ok());  // Trailing byte.
  // A nested field must fill its length prefix exactly.
  EXPECT_TRUE(Decode<Wrapped>(Bytes{1, 0, 0, 0, 9}).ok());
  EXPECT_FALSE(Decode<Wrapped>(Bytes{2, 0, 0, 0, 9, 0}).ok());
  // A variant tag outside its alternatives.
  AllRules rules;
  Bytes encoded = Encode(rules);
  const size_t tag_at = encoded.size() - EncodedSize(rules.choice) - 1;
  ASSERT_EQ(encoded[tag_at], 2);
  encoded[tag_at] = 3;
  EXPECT_FALSE(Decode<AllRules>(encoded).ok());
  encoded[tag_at] = 0;
  EXPECT_FALSE(Decode<AllRules>(encoded).ok());
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(10), 10u);
  }
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBelow(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanApproximate) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(600.0);
  double mean = sum / n;
  EXPECT_NEAR(mean, 600.0, 25.0);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(RngTest, NextBytesLengthAndDeterminism) {
  Rng a(21), b(21);
  Bytes x = a.NextBytes(37);
  Bytes y = b.NextBytes(37);
  EXPECT_EQ(x.size(), 37u);
  EXPECT_EQ(x, y);
}

TEST(RngTest, ForkIndependence) {
  Rng parent(31);
  Rng child = parent.Fork();
  // Child stream should not equal the parent's continued stream.
  EXPECT_NE(child.NextU64(), parent.NextU64());
}

TEST(SimTimeTest, UnitConversions) {
  EXPECT_EQ(Seconds(2), 2000);
  EXPECT_EQ(Minutes(3), 180000);
  EXPECT_EQ(Hours(1), 3600000);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(5)), 5.0);
}

// ---- WorkerPool ------------------------------------------------------------

TEST(WorkerPoolTest, ResolveThreadsPolicy) {
  EXPECT_EQ(common::WorkerPool::ResolveThreads(1), 1);
  EXPECT_EQ(common::WorkerPool::ResolveThreads(7), 7);
  // hardware_concurrency() may legally report 0; the resolved count must
  // still be a usable pool width.
  EXPECT_GE(common::WorkerPool::ResolveThreads(0), 1);
  EXPECT_GE(common::WorkerPool::ResolveThreads(-3), 1);
  EXPECT_GE(common::WorkerPool(0).threads(), 1);
}

TEST(WorkerPoolTest, CoversEveryIndexExactlyOnceAcrossRounds) {
  for (int threads : {1, 2, 5}) {
    common::WorkerPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    // Several rounds on one pool, including widths that grow (exercising
    // the gang rebuild) and degenerate widths 0 and 1.
    for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{64}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.ParallelFor(n, [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
      }
    }
  }
}

TEST(WorkerPoolTest, RethrowsTaskExceptionOnCaller) {
  // A throwing task must not escape a worker thread (std::terminate);
  // the first exception surfaces on the calling thread instead — for the
  // inline 1-thread round and the parallel round alike.
  for (int threads : {1, 4}) {
    common::WorkerPool pool(threads);
    EXPECT_THROW(pool.ParallelFor(32,
                                  [](size_t i) {
                                    if (i == 17) {
                                      throw std::runtime_error("boom");
                                    }
                                  }),
                 std::runtime_error);
    // The pool survives a failed round and runs clean ones afterwards.
    std::atomic<int> sum{0};
    pool.ParallelFor(10, [&](size_t i) {
      sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 45);
  }
}

TEST(WorkerPoolTest, StopsClaimingAfterFailure) {
  // Indices claimed after the failure flag is raised must not run: with
  // one worker lane (2 threads) a failure at the first index keeps the
  // executed count well below n.
  common::WorkerPool pool(2);
  std::atomic<int> executed{0};
  EXPECT_THROW(pool.ParallelFor(10000,
                                [&](size_t) {
                                  executed.fetch_add(
                                      1, std::memory_order_relaxed);
                                  throw std::runtime_error("first");
                                }),
               std::runtime_error);
  EXPECT_LT(executed.load(), 10000);
}

TEST(WorkerPoolTest, RoundInsideATaskRunsInlineOnThatThread) {
  // A task that starts a round on the shared pool (as a sweep world that
  // checks a block does) gets every index in order on its own
  // thread, on a pooled outer round and an inline one alike; an inner
  // task's exception surfaces at the outer round's caller.
  for (int threads : {1, 4}) {
    common::WorkerPool outer(threads);
    constexpr size_t kTasks = 8;
    constexpr size_t kInner = 16;
    std::vector<std::vector<size_t>> order(kTasks);
    std::vector<uint8_t> off_thread(kTasks, 0);
    outer.ParallelFor(kTasks, [&](size_t task) {
      const std::thread::id self = std::this_thread::get_id();
      common::WorkerPool::ForThisThread().ParallelFor(kInner, [&](size_t i) {
        order[task].push_back(i);
        if (std::this_thread::get_id() != self) off_thread[task] = 1;
      });
    });
    for (size_t task = 0; task < kTasks; ++task) {
      ASSERT_EQ(order[task].size(), kInner) << "task " << task;
      for (size_t i = 0; i < kInner; ++i) {
        EXPECT_EQ(order[task][i], i) << "task " << task;
      }
      EXPECT_EQ(off_thread[task], 0) << "task " << task;
    }

    EXPECT_THROW(
        outer.ParallelFor(kTasks,
                          [](size_t task) {
                            common::WorkerPool::ForThisThread().ParallelFor(
                                kInner, [task](size_t i) {
                                  if (task == 5 && i == 9) {
                                    throw std::runtime_error("inner");
                                  }
                                });
                          }),
        std::runtime_error)
        << threads << " threads";
  }
}

TEST(WorkerPoolTest, BackToBackRoundsEachRunTheirOwnTask) {
  // The caller returns once every claimed index has finished, so a worker
  // may wake after its round closed and meet the next one. Many short
  // rounds in a row, each with its own task, must each run every index
  // exactly once with that task.
  common::WorkerPool pool(4);
  constexpr size_t kRounds = 2000;
  constexpr size_t kWidest = 7;
  std::vector<std::array<std::atomic<int>, kWidest>> hits(kRounds);
  for (size_t round = 0; round < kRounds; ++round) {
    pool.ParallelFor(2 + round % (kWidest - 1), [&hits, round](size_t i) {
      hits[round][i].fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (size_t round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < kWidest; ++i) {
      EXPECT_EQ(hits[round][i].load(), i < 2 + round % (kWidest - 1) ? 1 : 0)
          << "round " << round << " index " << i;
    }
  }
}

}  // namespace
}  // namespace ac3
