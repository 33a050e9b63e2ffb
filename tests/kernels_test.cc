// Tests for the blocked summation kernel layer (core/kernels.h,
// DESIGN.md §10): property tests of every kernel against sequential
// scalar oracles, the bitwise chain-equality contract that marginal
// hoisting relies on, and thread-count invariance of the rewritten naive
// sweeps.

#include "core/kernels.h"

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/fit_kernels.h"
#include "core/measures.h"
#include "core/query.h"
#include "ts/generators.h"

namespace affinity::core {
namespace {

// The lengths of the ISSUE checklist: empty, sub-lane, around one lane
// group, around one block, and past it.
const std::size_t kLengths[] = {0, 1, 7, 8, 9, 63, 1023, 1024, 1025};

// Sequential scalar oracles (the seed accumulation order).
double SeqSum(const std::vector<double>& x) {
  double acc = 0;
  for (const double v : x) acc += v;
  return acc;
}
double SeqDot(const std::vector<double>& x, const std::vector<double>& y) {
  double acc = 0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

struct Column {
  const char* name;
  std::vector<double> x;
  std::vector<double> y;
};

std::vector<Column> MakeColumns(std::size_t m) {
  Xoshiro256 rng(m * 31 + 7);
  Column random{"random", std::vector<double>(m), std::vector<double>(m)};
  for (auto& v : random.x) v = rng.Uniform(-3.0, 3.0);
  for (auto& v : random.y) v = rng.Gaussian(10.0, 2.5);
  Column constant{"constant", std::vector<double>(m, 2.5), std::vector<double>(m, -1.25)};
  Column zero{"zero", std::vector<double>(m, 0.0), std::vector<double>(m, 0.0)};
  Column huge{"huge", std::vector<double>(m), std::vector<double>(m)};
  for (auto& v : huge.x) v = rng.Uniform(0.5, 2.0) * 1e140;
  for (auto& v : huge.y) v = rng.Uniform(-2.0, -0.5) * 1e140;
  return {random, constant, zero, huge};
}

double RelTol(double reference) { return 1e-12 * (1.0 + std::fabs(reference)); }

TEST(BlockedKernels, SumAndDotMatchScalarOracle) {
  for (const std::size_t m : kLengths) {
    for (const Column& c : MakeColumns(m)) {
      EXPECT_NEAR(kernels::BlockedSum(c.x.data(), m), SeqSum(c.x), RelTol(SeqSum(c.x)))
          << c.name << " m=" << m;
      const double dot = SeqDot(c.x, c.y);
      EXPECT_NEAR(kernels::BlockedDot(c.x.data(), c.y.data(), m), dot, RelTol(dot))
          << c.name << " m=" << m;
    }
  }
}

TEST(BlockedKernels, MarginalsMatchOraclesAndExtremes) {
  for (const std::size_t m : kLengths) {
    for (const Column& c : MakeColumns(m)) {
      const kernels::Marginals marg = kernels::ColumnMarginals(c.x.data(), m);
      EXPECT_NEAR(marg.sum, SeqSum(c.x), RelTol(SeqSum(c.x))) << c.name << " m=" << m;
      const double sumsq = SeqDot(c.x, c.x);
      EXPECT_NEAR(marg.sumsq, sumsq, RelTol(sumsq)) << c.name << " m=" << m;
      if (m == 0) {
        EXPECT_EQ(marg.min, 0.0);
        EXPECT_EQ(marg.max, 0.0);
      } else {
        double lo = c.x[0], hi = c.x[0];
        for (const double v : c.x) {
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
        EXPECT_EQ(marg.min, lo) << c.name << " m=" << m;
        EXPECT_EQ(marg.max, hi) << c.name << " m=" << m;
      }
    }
  }
}

// The load-bearing contract: every fused kernel's chains are bitwise
// equal to the standalone kernels over the same data, so hoisted
// marginals + one cross dot reproduce a fused per-pair pass exactly.
TEST(BlockedKernels, FusedChainsAreBitwiseEqualToStandaloneKernels) {
  for (const std::size_t m : kLengths) {
    for (const Column& c : MakeColumns(m)) {
      const double* x = c.x.data();
      const double* y = c.y.data();
      const double sum_x = kernels::BlockedSum(x, m);
      const double sum_y = kernels::BlockedSum(y, m);
      const double dot_xx = kernels::BlockedDot(x, x, m);
      const double dot_yy = kernels::BlockedDot(y, y, m);
      const double dot_xy = kernels::BlockedDot(x, y, m);

      double d3_xy, d3_xx, d3_yy;
      kernels::FusedDot3(x, y, m, &d3_xy, &d3_xx, &d3_yy);
      EXPECT_EQ(d3_xy, dot_xy) << c.name << " m=" << m;
      EXPECT_EQ(d3_xx, dot_xx) << c.name << " m=" << m;
      EXPECT_EQ(d3_yy, dot_yy) << c.name << " m=" << m;

      double cross[3];
      kernels::FusedCross3(x, y, y, m, cross);  // c1=x, c2=y, t=y
      EXPECT_EQ(cross[0], dot_xy);
      EXPECT_EQ(cross[1], dot_yy);
      EXPECT_EQ(cross[2], sum_y);

      double gram[5];
      kernels::FusedGram5(x, y, m, gram);
      EXPECT_EQ(gram[0], dot_xx);
      EXPECT_EQ(gram[1], dot_xy);
      EXPECT_EQ(gram[2], dot_yy);
      EXPECT_EQ(gram[3], sum_x);
      EXPECT_EQ(gram[4], sum_y);

      double pm[5];
      kernels::FusedPairMoments(x, y, m, pm);
      EXPECT_EQ(pm[0], sum_x);
      EXPECT_EQ(pm[1], dot_xx);
      EXPECT_EQ(pm[2], sum_y);
      EXPECT_EQ(pm[3], dot_yy);
      EXPECT_EQ(pm[4], dot_xy);

      const kernels::Marginals mx = kernels::ColumnMarginals(x, m);
      EXPECT_EQ(mx.sum, sum_x);
      EXPECT_EQ(mx.sumsq, dot_xx);
    }
  }
}

// The incremental solve assembles each right-hand side from three chains
// kept apart: the pair's co-moment BlockedDot(s_u, s_v) and the target
// series' Σ r·t and Σ t (DESIGN.md §8). Placed as the solve places them,
// they must equal the SYMEX+ build rhs bitwise, for both pivot
// orientations and at off-grid anchors.
TEST(BlockedKernels, SeparateChainsAssembleFitRhsBitwise) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const std::size_t anchor : {std::size_t{0}, std::size_t{1}, std::size_t{1000}}) {
    for (const std::size_t m : kLengths) {
      const Column c = MakeColumns(m)[0];
      const double* su = c.x.data();
      const double* sv = c.y.data();
      std::vector<double> center(m);
      Xoshiro256 rng(m + 5);
      for (auto& v : center) v = rng.Gaussian(1.0, 4.0);
      const double* r = center.data();
      const double co_moment = kernels::BlockedDot(su, sv, m, anchor);
      for (const bool series_first : {true, false}) {
        // Series first: design [s_u, r], target s_v; else [r, s_v], target s_u.
        const double* t = series_first ? sv : su;
        const double center_dot = kernels::BlockedDot(r, t, m, anchor);
        const double assembled[3] = {series_first ? co_moment : center_dot,
                                     series_first ? center_dot : co_moment,
                                     kernels::BlockedSum(t, m, anchor)};
        double rhs[3];
        fit::ComputeRhs(series_first ? su : r, series_first ? r : sv, t, m, rhs, anchor);
        for (int i = 0; i < 3; ++i) {
          EXPECT_EQ(bits(assembled[i]), bits(rhs[i]))
              << "entry " << i << " series_first=" << series_first << " m=" << m
              << " anchor=" << anchor;
        }
      }
    }
  }
}

TEST(PairMomentsFn, FusedPassEqualsMarginalAssemblyBitwise) {
  for (const std::size_t m : kLengths) {
    for (const Column& c : MakeColumns(m)) {
      const PairMoments fused = ComputePairMoments(c.x.data(), c.y.data(), m);
      const PairMoments assembled = PairMomentsFromMarginals(
          kernels::ColumnMarginals(c.x.data(), m), kernels::ColumnMarginals(c.y.data(), m),
          kernels::BlockedDot(c.x.data(), c.y.data(), m), m);
      EXPECT_EQ(fused.sum_x, assembled.sum_x) << c.name << " m=" << m;
      EXPECT_EQ(fused.sumsq_x, assembled.sumsq_x) << c.name << " m=" << m;
      EXPECT_EQ(fused.sum_y, assembled.sum_y) << c.name << " m=" << m;
      EXPECT_EQ(fused.sumsq_y, assembled.sumsq_y) << c.name << " m=" << m;
      EXPECT_EQ(fused.dot_xy, assembled.dot_xy) << c.name << " m=" << m;
    }
  }
}

TEST(PairMomentsFn, MeasuresMatchScalarOracleWithinTolerance) {
  for (const std::size_t m : kLengths) {
    if (m < 2) continue;
    for (const Column& c : MakeColumns(m)) {
      if (c.x[0] > 1e100) continue;  // the oracle's centered covariance overflows products
      for (const Measure measure :
           {Measure::kCovariance, Measure::kDotProduct, Measure::kCorrelation, Measure::kCosine,
            Measure::kJaccard, Measure::kDice}) {
        const double fused = *NaivePairMeasure(measure, c.x.data(), c.y.data(), m);
        const double oracle = *NaivePairMeasureScalar(measure, c.x.data(), c.y.data(), m);
        EXPECT_NEAR(fused, oracle, 1e-9 * (1.0 + std::fabs(oracle)))
            << MeasureName(measure) << " " << c.name << " m=" << m;
      }
    }
  }
}

TEST(PairMomentsFn, DegenerateColumnsAreDefinedAsZero) {
  const PairMoments zero = ComputePairMoments(nullptr, nullptr, 0);
  for (const Measure measure : {Measure::kCovariance, Measure::kCorrelation, Measure::kCosine,
                                Measure::kJaccard, Measure::kDice}) {
    EXPECT_EQ(*PairMeasureFromMoments(measure, zero), 0.0) << MeasureName(measure);
  }
  EXPECT_FALSE(PairMeasureFromMoments(Measure::kMean, zero).ok());
}

// ---------------------------------------------------------------------------
// Sweep equivalence: the marginal-hoisted naive sweeps must return
// bitwise-identical results at 1/2/8 threads, and per-value agree with
// NaivePairMeasure exactly.
// ---------------------------------------------------------------------------

class HoistedSweeps : public ::testing::Test {
 protected:
  void SetUp() override {
    ts::DatasetSpec spec;
    spec.num_series = 18;
    spec.num_samples = 80;
    spec.num_clusters = 3;
    spec.seed = 11;
    dataset_ = std::make_unique<ts::Dataset>(ts::MakeSensorData(spec));
  }

  std::unique_ptr<ts::Dataset> dataset_;
};

TEST_F(HoistedSweeps, NaiveResultsAreThreadCountInvariant) {
  for (const Measure measure : {Measure::kCovariance, Measure::kCorrelation, Measure::kCosine,
                                Measure::kJaccard}) {
    std::vector<SelectionResult> met_runs;
    std::vector<TopKResult> topk_runs;
    std::vector<MecResponse> mec_runs;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      std::unique_ptr<ThreadPool> pool;
      QueryEngine engine(&dataset_->matrix);
      if (threads > 1) {
        pool = std::make_unique<ThreadPool>(threads);
        engine.SetExec(ExecContext{pool.get()});
      }
      met_runs.push_back(*engine.Met({measure, 0.1, true}, QueryMethod::kNaive));
      topk_runs.push_back(*engine.TopK({measure, 9, true}, QueryMethod::kNaive));
      MecRequest mec;
      mec.measure = measure;
      mec.ids = {0, 3, 7, 11};
      mec_runs.push_back(*engine.Mec(mec, QueryMethod::kNaive));
    }
    for (std::size_t t = 1; t < met_runs.size(); ++t) {
      EXPECT_EQ(met_runs[t].pairs, met_runs[0].pairs) << MeasureName(measure);
      ASSERT_EQ(topk_runs[t].entries.size(), topk_runs[0].entries.size());
      for (std::size_t i = 0; i < topk_runs[0].entries.size(); ++i) {
        EXPECT_EQ(topk_runs[t].entries[i].pair, topk_runs[0].entries[i].pair);
        EXPECT_EQ(topk_runs[t].entries[i].value, topk_runs[0].entries[i].value);
      }
      EXPECT_EQ(mec_runs[t].pair_values.MaxAbsDiff(mec_runs[0].pair_values), 0.0);
    }
  }
}

TEST_F(HoistedSweeps, SweepValuesEqualNaivePairMeasureBitwise) {
  QueryEngine engine(&dataset_->matrix);
  MecRequest mec;
  mec.measure = Measure::kCorrelation;
  mec.ids = {1, 4, 9};
  const MecResponse resp = *engine.Mec(mec, QueryMethod::kNaive);
  for (std::size_t i = 0; i < mec.ids.size(); ++i) {
    for (std::size_t j = 0; j < mec.ids.size(); ++j) {
      if (i == j) continue;
      const double direct = *NaivePairMeasure(
          mec.measure, dataset_->matrix.ColumnData(mec.ids[i]),
          dataset_->matrix.ColumnData(mec.ids[j]), dataset_->matrix.m());
      EXPECT_EQ(resp.pair_values(i, j), direct) << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace affinity::core
