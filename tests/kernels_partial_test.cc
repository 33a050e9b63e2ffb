// Retained block-partial cache tests (core/kernels BlockChain, DESIGN.md
// §10): a chain slid along a stream must reproduce the cold anchored
// kernels bit for bit at every step — including window lengths straddling
// the block size {1023, 1024, 1025}, slides larger than the window, and
// multi-refresh gaps — while actually reusing interior block partials.
// Also covers the satellite fixes this cache depends on: the sorted-input
// mode estimator's bitwise equality, and DataMatrixTable::CompactBefore's
// anchor bookkeeping (snapshots keep their absolute grid position).

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/kernels.h"
#include "storage/table.h"
#include "ts/rolling.h"
#include "ts/stats.h"

namespace affinity::core::kernels {
namespace {

/// An unbounded synthetic stream; Window(S, w) materializes [S, S+w).
struct Stream {
  explicit Stream(std::uint64_t seed) : rng(seed) {}

  double At(std::size_t i) {
    while (values.size() <= i) values.push_back(rng.Uniform(-2.0, 2.0));
    return values[i];
  }

  std::vector<double> Window(std::size_t start, std::size_t w) {
    std::vector<double> out(w);
    for (std::size_t i = 0; i < w; ++i) out[i] = At(start + i);
    return out;
  }

  Xoshiro256 rng;
  std::vector<double> values;
};

TEST(BlockChain, SlidesMatchColdKernelsAtStraddlingWindows) {
  for (const std::size_t w : {std::size_t{100}, std::size_t{1023}, std::size_t{1024},
                              std::size_t{1025}, std::size_t{4096}}) {
    for (const std::size_t interval :
         {std::size_t{1}, std::size_t{3}, std::size_t{1024}, w + 7}) {
      Stream xs(17 * w + interval), ys(91 * w + interval);
      BlockChain<1> dot_chain;
      BlockChain<2> marg_chain;
      BlockSpanStats stats;
      std::size_t anchor = 0;
      for (int refresh = 0; refresh < 12; ++refresh) {
        const std::vector<double> x = xs.Window(anchor, w);
        const std::vector<double> y = ys.Window(anchor, w);
        double dot;
        dot_chain.SlideTo(anchor, w,
                          [&](std::size_t i, double* v) { v[0] = x[i] * y[i]; }, &dot, &stats);
        EXPECT_EQ(dot, BlockedDot(x.data(), y.data(), w, anchor))
            << "w=" << w << " interval=" << interval << " anchor=" << anchor;
        double marg[2];
        marg_chain.SlideTo(anchor, w,
                           [&](std::size_t i, double* v) {
                             v[0] = x[i];
                             v[1] = x[i] * x[i];
                           },
                           marg, &stats);
        const Marginals cold = ColumnMarginals(x.data(), w, anchor);
        EXPECT_EQ(marg[0], cold.sum);
        EXPECT_EQ(marg[1], cold.sumsq);
        anchor += interval;
      }
      if (w >= 3 * kBlockElems && interval < kBlockElems) {
        // Real retention happened: interior blocks were served from the
        // cache, not recomputed.
        EXPECT_GT(stats.reused, 0u) << "w=" << w << " interval=" << interval;
      }
    }
  }
}

TEST(BlockChain, LeadingPrefixResumesMatchColdPassAndAreCounted) {
  // Steady-state slides inside one leading block must serve the leading
  // span from the checkpointed prefix state — an O(kPrefixStride) resume,
  // counted in prefix_resumes — and still match the cold anchored kernel
  // bit for bit at every step.
  const std::size_t w = 4096;
  for (const std::size_t interval : {std::size_t{1}, std::size_t{3}, std::size_t{129}}) {
    Stream xs(7 * interval + 1), ys(9 * interval + 2);
    BlockChain<1> chain;
    BlockSpanStats stats;
    std::size_t anchor = 1;  // off-grid from the first refresh
    const int refreshes = 200;
    for (int refresh = 0; refresh < refreshes; ++refresh) {
      const std::vector<double> x = xs.Window(anchor, w);
      const std::vector<double> y = ys.Window(anchor, w);
      double dot;
      chain.SlideTo(anchor, w, [&](std::size_t i, double* v) { v[0] = x[i] * y[i]; }, &dot,
                    &stats);
      EXPECT_EQ(dot, BlockedDot(x.data(), y.data(), w, anchor))
          << "interval=" << interval << " anchor=" << anchor;
      anchor += interval;
    }
    // Every warm refresh except the ones around a grid crossing (one cold
    // re-walk per block entered, plus a possible on-grid landing with no
    // leading span at all) must have resumed from a checkpoint.
    const std::size_t crossings = (1 + interval * (refreshes - 1)) / kBlockElems;
    EXPECT_GE(stats.prefix_resumes + 1 + 2 * crossings, static_cast<std::size_t>(refreshes))
        << "interval=" << interval;
    EXPECT_GT(stats.prefix_resumes, static_cast<std::size_t>(refreshes) / 2)
        << "interval=" << interval;
  }
  // A window that never reaches the grid has nothing to retain: the
  // whole window is one reversed span, recomputed cold every time, and
  // the totals still match.
  Stream xs(55);
  BlockChain<1> small;
  BlockSpanStats small_stats;
  std::size_t anchor = 10;
  for (int refresh = 0; refresh < 5; ++refresh) {
    const std::vector<double> x = xs.Window(anchor, 100);
    double sum;
    small.SlideTo(anchor, 100, [&](std::size_t i, double* v) { v[0] = x[i]; }, &sum,
                  &small_stats);
    EXPECT_EQ(sum, BlockedSum(x.data(), 100, anchor));
    anchor += 7;
  }
  EXPECT_EQ(small_stats.prefix_resumes, 0u);
}

TEST(BlockChain, ThreeChainSlideMatchesFusedCross3) {
  const std::size_t w = 2048;
  Stream c1s(5), c2s(6), ts_(7);
  BlockChain<3> chain;
  std::size_t anchor = 3;  // off-grid from the start
  for (int refresh = 0; refresh < 8; ++refresh) {
    const std::vector<double> c1 = c1s.Window(anchor, w);
    const std::vector<double> c2 = c2s.Window(anchor, w);
    const std::vector<double> t = ts_.Window(anchor, w);
    double sums[3];
    chain.SlideTo(anchor, w,
                  [&](std::size_t i, double* v) {
                    v[0] = c1[i] * t[i];
                    v[1] = c2[i] * t[i];
                    v[2] = t[i];
                  },
                  sums);
    double cold[3];
    FusedCross3(c1.data(), c2.data(), t.data(), w, cold, anchor);
    EXPECT_EQ(sums[0], cold[0]);
    EXPECT_EQ(sums[1], cold[1]);
    EXPECT_EQ(sums[2], cold[2]);
    anchor += 5;
  }
}

TEST(BlockChain, MultiRefreshGapsAndBackwardAnchorsFallBackExactly) {
  const std::size_t w = 3000;
  Stream xs(23);
  BlockChain<1> chain;
  // Gaps larger than the window, equal anchors, and a backwards jump all
  // must serve exact totals (cold fallback where retention is impossible).
  const std::size_t anchors[] = {0, 1, 1 + w, 1 + w, 1 + w + 512, 400, 401};
  for (const std::size_t anchor : anchors) {
    const std::vector<double> x = xs.Window(anchor, w);
    double sum;
    chain.SlideTo(anchor, w, [&](std::size_t i, double* v) { v[0] = x[i]; }, &sum);
    EXPECT_EQ(sum, BlockedSum(x.data(), w, anchor)) << "anchor=" << anchor;
  }
  // A window-length change rebuilds rather than reusing stale geometry.
  const std::size_t w2 = 1500;
  const std::vector<double> x = xs.Window(500, w2);
  double sum;
  chain.SlideTo(500, w2, [&](std::size_t i, double* v) { v[0] = x[i]; }, &sum);
  EXPECT_EQ(sum, BlockedSum(x.data(), w2, 500));
}

TEST(AnchoredKernels, ChainEqualityHoldsAtEveryPhase) {
  const std::size_t m = 2600;
  Stream xs(31), ys(32);
  const std::vector<double> x = xs.Window(0, m);
  const std::vector<double> y = ys.Window(0, m);
  for (const std::size_t anchor : {std::size_t{0}, std::size_t{1}, std::size_t{511},
                                   std::size_t{1024}, std::size_t{1025}, std::size_t{99999}}) {
    double dot_xy, dot_xx, dot_yy;
    FusedDot3(x.data(), y.data(), m, &dot_xy, &dot_xx, &dot_yy, anchor);
    EXPECT_EQ(dot_xx, BlockedDot(x.data(), x.data(), m, anchor));
    EXPECT_EQ(dot_yy, BlockedDot(y.data(), y.data(), m, anchor));
    EXPECT_EQ(dot_xy, BlockedDot(x.data(), y.data(), m, anchor));
    const Marginals mx = ColumnMarginals(x.data(), m, anchor);
    EXPECT_EQ(mx.sum, BlockedSum(x.data(), m, anchor));
    EXPECT_EQ(mx.sumsq, BlockedDot(x.data(), x.data(), m, anchor));
    double gram[5];
    FusedGram5(x.data(), y.data(), m, gram, anchor);
    EXPECT_EQ(gram[0], mx.sumsq);
    EXPECT_EQ(gram[1], dot_xy);
    EXPECT_EQ(gram[3], mx.sum);
  }
  // Anchors in the same grid phase produce the same bits.
  EXPECT_EQ(BlockedSum(x.data(), m, 7), BlockedSum(x.data(), m, 7 + 3 * kBlockElems));
  // The default anchor is the historic phase-0 order.
  EXPECT_EQ(BlockedSum(x.data(), m), BlockedSum(x.data(), m, 0));
}

TEST(ModeSorted, BitwiseEqualToHistogramModeOnAnyPermutation) {
  Xoshiro256 rng(77);
  std::vector<std::uint32_t> hist_a, hist_b;
  const auto expect_same = [&](const std::vector<double>& x, const char* what) {
    std::vector<double> sorted = x;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t m = x.size();
    EXPECT_EQ(ts::stats::ModeSortedWithScratch(sorted.data(), m, ts::stats::kModeBins, &hist_a),
              ts::stats::ModeWithScratch(x.data(), m, ts::stats::kModeBins, &hist_b))
        << what << " m=" << m;
    EXPECT_EQ(hist_a, hist_b) << what << " m=" << m << ": bin populations must match exactly";
  };
  // Fewer values than bins (m = 100), about as many, and many more (m =
  // 4096).
  for (const std::size_t m : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                              std::size_t{100}, std::size_t{1025}, std::size_t{4096}}) {
    std::vector<double> x(m);
    for (double& v : x) v = rng.Uniform(-3.0, 3.0);
    // Duplicate runs so bin-boundary ties are exercised.
    for (std::size_t i = 2; i + 1 < m; i += 5) x[i + 1] = x[i];
    expect_same(x, "uniform");
    if (m < 8) continue;
    // Several values equal to the maximum: each takes the top clamp into
    // the last bin.
    const double hi = *std::max_element(x.begin(), x.end());
    for (const std::size_t i : {std::size_t{0}, m / 4, m / 2, 3 * m / 4}) x[i] = hi;
    expect_same(x, "top clamp");
    EXPECT_GE(hist_a.back(), 4u);
  }
  // Two distinct values: everything lands in the first and the last bin.
  std::vector<double> two(300, -1.5);
  for (std::size_t i = 0; i < two.size(); i += 3) two[i] = 2.25;
  expect_same(two, "two values");
  EXPECT_EQ(hist_a.front(), 200u);
  EXPECT_EQ(hist_a.back(), 100u);
  // Constant series short-circuit.
  const std::vector<double> flat(9, 4.25);
  EXPECT_EQ(ts::stats::ModeSortedWithScratch(flat.data(), 9, 16, &hist_a), 4.25);
}

TEST(TableAnchors, SnapshotsKeepAbsoluteGridPositionAcrossCompaction) {
  // Capacity 24 deliberately does not divide kBlockElems: the absolute
  // anchor, not segment alignment, is what keeps blocked sums stable.
  storage::DataMatrixTable table(/*segment_capacity=*/24);
  ASSERT_TRUE(table.RegisterSeries("a", "s", 1.0).ok());
  ASSERT_TRUE(table.RegisterSeries("b", "s", 1.0).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(table.AppendRow({static_cast<double>(i), 0.5 * i}).ok());
  }
  // Rows 0..47 lie in the first two whole segments below row 60.
  EXPECT_EQ(table.CompactBefore(60), 48u);
  EXPECT_EQ(table.first_retained_row(), 48u);
  EXPECT_EQ(table.first_retained_row() % 24, 0u) << "whole-segment reclamation";
  auto snap = table.Snapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->anchor_row(), 48u);
  EXPECT_EQ(snap->m(), 52u);
  // TailWindow advances the anchor to the absolute stream position, so a
  // rebuild window lands on the same grid as the maintained one.
  auto tail = ts::TailWindow(*snap, 20);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->anchor_row(), 80u);  // = row_count() - window
  EXPECT_EQ(tail->anchor_row(), table.row_count() - 20u);
  // Repeated compaction keeps advancing on segment multiples; overshoot
  // clamps to the appended rows.
  EXPECT_EQ(table.CompactBefore(table.row_count() + 1000), 48u);  // rows 48..95
  EXPECT_EQ(table.first_retained_row(), 96u);
  EXPECT_EQ(table.retained_row_count(), 4u);  // the partial tail segment survives
  auto snap2 = table.Snapshot();
  ASSERT_TRUE(snap2.ok());
  EXPECT_EQ(snap2->anchor_row(), 96u);
  EXPECT_DOUBLE_EQ(snap2->matrix()(0, 0), 96.0);
  // The partial tail keeps filling seamlessly after compaction, and a
  // partial (not-yet-full) segment is never reclaimed even when every
  // row it holds lies below the requested frontier.
  ASSERT_TRUE(table.AppendRow({100.0, 50.0}).ok());
  EXPECT_EQ(table.retained_row_count(), 5u);
  EXPECT_EQ(table.CompactBefore(table.row_count()), 0u);
  EXPECT_EQ(table.first_retained_row(), 96u);
}

}  // namespace
}  // namespace affinity::core::kernels
