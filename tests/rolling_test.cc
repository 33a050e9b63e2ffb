// Tests for the sliding-window helper of ts/rolling.h: TailWindow.

#include "ts/rolling.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace affinity::ts
