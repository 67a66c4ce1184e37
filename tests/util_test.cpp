#include <gtest/gtest.h>

#include <set>

#include "util/rng.hpp"
#include "util/small_fn.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"

namespace psf::util {
namespace {

// ---- Rng -------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.uniform_u64(3, 7);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values appear
}

TEST(RngTest, UniformSingleton) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform_u64(9, 9), 9u);
  EXPECT_EQ(rng.uniform_i64(-4, -4), -4);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, ExponentialMeanApproximatesInverseRate) {
  Rng rng(123);
  double total = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) total += rng.exponential(4.0);
  EXPECT_NEAR(total / n, 0.25, 0.01);
}

TEST(RngTest, ForkedStreamsAreIndependent) {
  Rng parent(9);
  Rng child = parent.fork();
  // Child should not replay the parent's stream.
  Rng parent_copy(9);
  parent_copy.fork();
  EXPECT_NE(child.next_u64(), parent.next_u64());
}

// ---- strings ----------------------------------------------------------------

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t\na b\n"), "a b");
}

TEST(StringsTest, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split(",x,", ','), (std::vector<std::string>{"", "x", ""}));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(StringsTest, Predicates) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(ends_with("foobar", "bar"));
  EXPECT_FALSE(ends_with("ar", "bar"));
  EXPECT_EQ(to_lower("MiXeD"), "mixed");
}

TEST(StringsTest, Formatting) {
  EXPECT_EQ(format_bytes(512), "512.00 B");
  EXPECT_EQ(format_bytes(1536), "1.50 KB");
  EXPECT_EQ(format_duration_us(500), "500.0 us");
  EXPECT_EQ(format_duration_us(2500), "2.50 ms");
  EXPECT_EQ(format_duration_us(3.2e6), "3.200 s");
}

// ---- status / expected ------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.is_ok());
  EXPECT_EQ(st.to_string(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = unsatisfiable("no mapping");
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), ErrorCode::kUnsatisfiable);
  EXPECT_EQ(st.to_string(), "unsatisfiable: no mapping");
}

TEST(ExpectedTest, HoldsValue) {
  Expected<int> e = 5;
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, 5);
  EXPECT_TRUE(e.status().is_ok());
}

TEST(ExpectedTest, HoldsError) {
  Expected<int> e = not_found("missing");
  EXPECT_FALSE(e.has_value());
  EXPECT_EQ(e.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(e.value_or(-1), -1);
}

TEST(ExpectedTest, MoveOutValue) {
  Expected<std::string> e = std::string("payload");
  std::string s = std::move(e).value();
  EXPECT_EQ(s, "payload");
}

// ---- stats ------------------------------------------------------------------

TEST(StatsTest, RunningStatsBasics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StatsTest, EmptyStatsAreZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(StatsTest, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(95), 95.05, 0.1);
}

TEST(StatsTest, PercentileAfterMoreSamples) {
  SampleSet s;
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 10.0);
  s.add(20.0);  // re-sorts lazily
  EXPECT_DOUBLE_EQ(s.percentile(100), 20.0);
}

// ---- SmallFn ---------------------------------------------------------------

TEST(SmallFnTest, InlineCaptureAvoidsHeapFallback) {
  SmallFn::reset_counters();
  const std::uint64_t base = SmallFn::constructed_count();
  int hits = 0;
  std::uint64_t a = 1, b = 2, c = 3;  // 24-byte capture + int* fits inline
  SmallFn fn([&hits, a, b, c] { hits += static_cast<int>(a + b + c); });
  EXPECT_TRUE(static_cast<bool>(fn));
  fn();
  EXPECT_EQ(hits, 6);
  EXPECT_EQ(SmallFn::constructed_count() - base, 1u);
  EXPECT_EQ(SmallFn::heap_fallback_count(), 0u);
}

TEST(SmallFnTest, OversizedCaptureFallsBackToHeapOnce) {
  SmallFn::reset_counters();
  struct Big {
    unsigned char bytes[SmallFn::kInlineBytes + 8] = {};
  } big;
  big.bytes[0] = 7;
  int seen = 0;
  SmallFn fn([big, &seen] { seen = big.bytes[0]; });
  EXPECT_EQ(SmallFn::heap_fallback_count(), 1u);
  // Moving a heap-backed SmallFn steals the pointer — no second fallback.
  SmallFn moved(std::move(fn));
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  moved();
  EXPECT_EQ(seen, 7);
  EXPECT_EQ(SmallFn::heap_fallback_count(), 1u);
  EXPECT_EQ(SmallFn::constructed_count(), 1u);  // moves don't count
}

TEST(SmallFnTest, MoveRelocatesInlineStateAndEmptiesSource) {
  auto owner = std::make_shared<int>(41);
  SmallFn fn([owner] { ++*owner; });
  EXPECT_EQ(owner.use_count(), 2);
  SmallFn moved(std::move(fn));
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(owner.use_count(), 2);  // relocated, not copied
  moved();
  EXPECT_EQ(*owner, 42);
  SmallFn assigned;
  assigned = std::move(moved);
  assigned();
  EXPECT_EQ(*owner, 43);
  assigned = SmallFn([] {});  // overwrite destroys the old capture
  EXPECT_EQ(owner.use_count(), 1);
}

TEST(SmallFnTest, CallingEmptyFnDies) {
  SmallFn empty;
  EXPECT_DEATH(empty(), "empty SmallFn");
}

}  // namespace
}  // namespace psf::util
