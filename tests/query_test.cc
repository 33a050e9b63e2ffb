// Tests for the query engine (core/query.h): strategy dispatch, input
// validation, and agreement between strategies.

#include "core/query.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/framework.h"
#include "ts/generators.h"
#include "ts/stats.h"

namespace affinity::core {
namespace {

class QueryEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ts::DatasetSpec spec;
    spec.num_series = 24;
    spec.num_samples = 90;
    spec.num_clusters = 3;
    spec.noise_level = 0.02;
    spec.seed = 31;
    dataset_ = new ts::Dataset(ts::MakeSensorData(spec));
    auto fw = Affinity::Build(dataset_->matrix);
    ASSERT_TRUE(fw.ok());
    framework_ = new Affinity(std::move(fw).value());
  }

  static void TearDownTestSuite() {
    delete framework_;
    delete dataset_;
    framework_ = nullptr;
    dataset_ = nullptr;
  }

  static ts::Dataset* dataset_;
  static Affinity* framework_;
};

ts::Dataset* QueryEngineTest::dataset_ = nullptr;
Affinity* QueryEngineTest::framework_ = nullptr;

TEST_F(QueryEngineTest, MecValidatesIds) {
  MecRequest req;
  req.measure = Measure::kMean;
  req.ids = {};
  EXPECT_FALSE(framework_->engine().Mec(req, QueryMethod::kNaive).ok());
  req.ids = {0, 99};
  EXPECT_EQ(framework_->engine().Mec(req, QueryMethod::kNaive).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(QueryEngineTest, MecLocationNaiveMatchesKernels) {
  MecRequest req;
  req.measure = Measure::kMedian;
  req.ids = {3, 7, 11};
  auto resp = framework_->engine().Mec(req, QueryMethod::kNaive);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->location.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(resp->location[i],
                     ts::stats::Median(dataset_->matrix.ColumnData(req.ids[i]), 90));
  }
}

TEST_F(QueryEngineTest, MecPairNaiveMatchesKernels) {
  MecRequest req;
  req.measure = Measure::kCovariance;
  req.ids = {1, 4, 9, 15};
  auto resp = framework_->engine().Mec(req, QueryMethod::kNaive);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->pair_values.rows(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(resp->pair_values(i, j),
                  ts::stats::Covariance(dataset_->matrix.ColumnData(req.ids[i]),
                                        dataset_->matrix.ColumnData(req.ids[j]), 90),
                  1e-10);
    }
  }
}

TEST_F(QueryEngineTest, MecMatrixIsSymmetricWithCorrectDiagonal) {
  MecRequest req;
  req.measure = Measure::kCorrelation;
  req.ids = {0, 5, 10};
  for (QueryMethod method : {QueryMethod::kNaive, QueryMethod::kAffine}) {
    auto resp = framework_->engine().Mec(req, method);
    ASSERT_TRUE(resp.ok());
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_NEAR(resp->pair_values(i, i), 1.0, 1e-9);
      for (std::size_t j = 0; j < 3; ++j) {
        EXPECT_DOUBLE_EQ(resp->pair_values(i, j), resp->pair_values(j, i));
      }
    }
  }
}

TEST_F(QueryEngineTest, MecAffineAgreesWithNaive) {
  MecRequest req;
  req.ids = {2, 6, 13, 20};
  for (Measure m : {Measure::kCovariance, Measure::kDotProduct, Measure::kCorrelation,
                    Measure::kCosine, Measure::kJaccard, Measure::kDice}) {
    req.measure = m;
    auto naive = framework_->engine().Mec(req, QueryMethod::kNaive);
    auto affine = framework_->engine().Mec(req, QueryMethod::kAffine);
    ASSERT_TRUE(naive.ok());
    ASSERT_TRUE(affine.ok());
    EXPECT_LT(naive->pair_values.MaxAbsDiff(affine->pair_values),
              1e-4 * (1.0 + naive->pair_values.FrobeniusNorm()))
        << MeasureName(m);
  }
}

TEST_F(QueryEngineTest, MecDftOnlySupportsCorrelation) {
  MecRequest req;
  req.ids = {0, 1};
  req.measure = Measure::kCovariance;
  EXPECT_FALSE(framework_->engine().Mec(req, QueryMethod::kDft).ok());
  req.measure = Measure::kCorrelation;
  auto resp = framework_->engine().Mec(req, QueryMethod::kDft);
  ASSERT_TRUE(resp.ok());
  EXPECT_DOUBLE_EQ(resp->pair_values(0, 0), 1.0);
}

TEST_F(QueryEngineTest, MecScapeIsRejected) {
  MecRequest req;
  req.measure = Measure::kCovariance;
  req.ids = {0, 1};
  EXPECT_FALSE(framework_->engine().Mec(req, QueryMethod::kScape).ok());
}

TEST_F(QueryEngineTest, MetNaiveVsAffineCloseOnCleanData) {
  MetRequest req;
  req.measure = Measure::kCorrelation;
  req.tau = 0.9;
  auto naive = framework_->engine().Met(req, QueryMethod::kNaive);
  auto affine = framework_->engine().Met(req, QueryMethod::kAffine);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(affine.ok());
  // On low-noise clustered data the approximate result set is nearly the
  // exact one: symmetric difference below 2% of the union.
  std::vector<ts::SequencePair> a = naive->pairs, b = affine->pairs;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<ts::SequencePair> sym_diff;
  std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                std::back_inserter(sym_diff));
  EXPECT_LE(sym_diff.size(), 1 + (a.size() + b.size()) / 50);
}

TEST_F(QueryEngineTest, MetScapeEqualsAffine) {
  for (Measure m : {Measure::kCovariance, Measure::kDotProduct, Measure::kCorrelation,
                    Measure::kMean, Measure::kMedian}) {
    MetRequest req;
    req.measure = m;
    req.tau = m == Measure::kCorrelation ? 0.7 : 1.0;
    auto scape = framework_->engine().Met(req, QueryMethod::kScape);
    auto affine = framework_->engine().Met(req, QueryMethod::kAffine);
    ASSERT_TRUE(scape.ok()) << MeasureName(m);
    ASSERT_TRUE(affine.ok());
    std::vector<ts::SequencePair> a = scape->pairs, b = affine->pairs;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << MeasureName(m);
    std::vector<ts::SeriesId> sa = scape->series, sb = affine->series;
    std::sort(sa.begin(), sa.end());
    std::sort(sb.begin(), sb.end());
    EXPECT_EQ(sa, sb) << MeasureName(m);
  }
}

TEST_F(QueryEngineTest, MetLesserDirection) {
  MetRequest req;
  req.measure = Measure::kCorrelation;
  req.tau = 0.0;
  req.greater = false;
  auto scape = framework_->engine().Met(req, QueryMethod::kScape);
  auto naive = framework_->engine().Met(req, QueryMethod::kNaive);
  ASSERT_TRUE(scape.ok());
  ASSERT_TRUE(naive.ok());
  // Greater + lesser partitions all pairs (ties measure exactly 0 are rare).
  MetRequest gt = req;
  gt.greater = true;
  auto scape_gt = framework_->engine().Met(gt, QueryMethod::kScape);
  ASSERT_TRUE(scape_gt.ok());
  EXPECT_EQ(scape->pairs.size() + scape_gt->pairs.size(),
            ts::SequencePairCount(dataset_->matrix.n()));
}

TEST_F(QueryEngineTest, MetDftCorrelationWorks) {
  MetRequest req;
  req.measure = Measure::kCorrelation;
  req.tau = 0.95;
  auto wf = framework_->engine().Met(req, QueryMethod::kDft);
  ASSERT_TRUE(wf.ok());
  auto wn = framework_->engine().Met(req, QueryMethod::kNaive);
  ASSERT_TRUE(wn.ok());
  // WF overestimates correlation, so its result set is a superset.
  EXPECT_GE(wf->pairs.size(), wn->pairs.size());
}

TEST_F(QueryEngineTest, MerValidatesBounds) {
  MerRequest req;
  req.measure = Measure::kCovariance;
  req.lo = 1.0;
  req.hi = 0.0;
  EXPECT_FALSE(framework_->engine().Mer(req, QueryMethod::kNaive).ok());
}

TEST_F(QueryEngineTest, MerScapeEqualsAffine) {
  MerRequest req;
  req.measure = Measure::kCorrelation;
  req.lo = 0.3;
  req.hi = 0.9;
  auto scape = framework_->engine().Mer(req, QueryMethod::kScape);
  auto affine = framework_->engine().Mer(req, QueryMethod::kAffine);
  ASSERT_TRUE(scape.ok());
  ASSERT_TRUE(affine.ok());
  std::vector<ts::SequencePair> a = scape->pairs, b = affine->pairs;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST_F(QueryEngineTest, MerLocationMeasure) {
  MerRequest req;
  req.measure = Measure::kMean;
  req.lo = 0.0;
  req.hi = 15.0;
  auto naive = framework_->engine().Mer(req, QueryMethod::kNaive);
  ASSERT_TRUE(naive.ok());
  for (ts::SeriesId v : naive->series) {
    const double mean = ts::stats::Mean(dataset_->matrix.ColumnData(v), 90);
    EXPECT_GT(mean, 0.0);
    EXPECT_LT(mean, 15.0);
  }
}

TEST(QueryEngineStandalone, StrategiesRequireAttachment) {
  ts::DatasetSpec spec;
  spec.num_series = 6;
  spec.num_samples = 30;
  spec.num_clusters = 2;
  spec.seed = 1;
  const ts::Dataset ds = ts::MakeSensorData(spec);
  QueryEngine engine(&ds.matrix);

  MecRequest mec;
  mec.measure = Measure::kCovariance;
  mec.ids = {0, 1};
  EXPECT_TRUE(engine.Mec(mec, QueryMethod::kNaive).ok());
  EXPECT_EQ(engine.Mec(mec, QueryMethod::kAffine).status().code(),
            StatusCode::kFailedPrecondition);
  mec.measure = Measure::kCorrelation;
  EXPECT_EQ(engine.Mec(mec, QueryMethod::kDft).status().code(),
            StatusCode::kFailedPrecondition);

  MetRequest met;
  met.measure = Measure::kCovariance;
  met.tau = 0.0;
  EXPECT_TRUE(engine.Met(met, QueryMethod::kNaive).ok());
  EXPECT_EQ(engine.Met(met, QueryMethod::kScape).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(QueryMethodNameFn, Names) {
  EXPECT_EQ(QueryMethodName(QueryMethod::kNaive), "WN");
  EXPECT_EQ(QueryMethodName(QueryMethod::kAffine), "WA");
  EXPECT_EQ(QueryMethodName(QueryMethod::kDft), "WF");
  EXPECT_EQ(QueryMethodName(QueryMethod::kScape), "SCAPE");
}

}  // namespace
}  // namespace affinity::core
