// Tests for the sliding-window helpers (ts/rolling.h): TailWindow, and
// the RollingCrossSums accumulator against exact recomputation.

#include "ts/rolling.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "ts/generators.h"

namespace affinity::ts {
namespace {

TEST(TailWindowFn, ExtractsLastRows) {
  la::Matrix values = la::Matrix::FromRows({{1, 10}, {2, 20}, {3, 30}, {4, 40}});
  DataMatrix dm(values, {"a", "b"});
  auto tail = TailWindow(dm, 2);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->m(), 2u);
  EXPECT_EQ(tail->n(), 2u);
  EXPECT_DOUBLE_EQ(tail->matrix()(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(tail->matrix()(1, 1), 40.0);
  EXPECT_EQ(tail->name(1), "b");
}

TEST(TailWindowFn, FullWindowIsIdentity) {
  const Dataset ds = MakeSensorData(
      {.num_series = 5, .num_samples = 30, .num_clusters = 2, .noise_level = 0.02, .seed = 1});
  auto tail = TailWindow(ds.matrix, 30);
  ASSERT_TRUE(tail.ok());
  EXPECT_NEAR(tail->matrix().MaxAbsDiff(ds.matrix.matrix()), 0.0, 0.0);
}

TEST(TailWindowFn, ValidatesWindow) {
  DataMatrix dm(la::Matrix::FromRows({{1.0}, {2.0}}));
  EXPECT_FALSE(TailWindow(dm, 0).ok());
  EXPECT_FALSE(TailWindow(dm, 3).ok());
}

TEST(RollingCrossSums, AddEvictTracksExactWindowSums) {
  // Slide a window of 16 over a random stream; after every slide the
  // accumulators must match sums recomputed from scratch.
  constexpr std::size_t kWin = 16;
  Xoshiro256 rng(77);
  std::vector<double> c1, c2, t;
  for (std::size_t i = 0; i < kWin + 64; ++i) {
    c1.push_back(rng.Uniform(-2.0, 2.0));
    c2.push_back(rng.Uniform(-2.0, 2.0));
    t.push_back(rng.Uniform(-2.0, 2.0));
  }
  RollingCrossSums sums;
  sums.Reset(c1.data(), c2.data(), t.data(), kWin);
  for (std::size_t start = 1; start + kWin <= c1.size(); ++start) {
    sums.Evict(c1[start - 1], c2[start - 1], t[start - 1]);
    sums.Add(c1[start + kWin - 1], c2[start + kWin - 1], t[start + kWin - 1]);
    RollingCrossSums exact;
    exact.Reset(c1.data() + start, c2.data() + start, t.data() + start, kWin);
    EXPECT_NEAR(sums.c1t, exact.c1t, 1e-12);
    EXPECT_NEAR(sums.c2t, exact.c2t, 1e-12);
    EXPECT_NEAR(sums.t, exact.t, 1e-12);
  }
  // Reset re-materializes exactly.
  const std::size_t last = c1.size() - kWin;
  RollingCrossSums exact;
  exact.Reset(c1.data() + last, c2.data() + last, t.data() + last, kWin);
  sums.Reset(c1.data() + last, c2.data() + last, t.data() + last, kWin);
  EXPECT_EQ(sums.c1t, exact.c1t);
  EXPECT_EQ(sums.c2t, exact.c2t);
  EXPECT_EQ(sums.t, exact.t);
}

}  // namespace
}  // namespace affinity::ts
