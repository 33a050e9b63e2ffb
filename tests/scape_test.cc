// Tests for the SCAPE index (core/scape.h): result-set equivalence with the
// WA strategy, §5.3 pruning correctness, and degenerate-input handling.

#include "core/scape.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/measures.h"
#include "core/symex.h"
#include "ts/generators.h"

namespace affinity::core {
namespace {

AffinityModel BuildModel(std::size_t n = 30, std::size_t m = 100, std::uint64_t seed = 13) {
  ts::DatasetSpec spec;
  spec.num_series = n;
  spec.num_samples = m;
  spec.num_clusters = 3;
  spec.noise_level = 0.015;
  spec.seed = seed;
  const ts::Dataset ds = ts::MakeSensorData(spec);
  auto model = BuildAffinityModel(ds.matrix, AfclstOptions{.k = 3}, SymexOptions{});
  EXPECT_TRUE(model.ok());
  return std::move(model).value();
}

/// WA reference answer for a MET query.
std::vector<ts::SequencePair> WaThresholdPairs(const AffinityModel& model, Measure measure,
                                               double tau, bool greater) {
  std::vector<ts::SequencePair> out;
  for (const auto& e : ts::AllSequencePairs(model.data().n())) {
    const double v = *model.PairMeasure(measure, e);
    if (greater ? v > tau : v < tau) out.push_back(e);
  }
  return out;
}

std::vector<ts::SeriesId> WaThresholdSeries(const AffinityModel& model, Measure measure,
                                            double tau, bool greater) {
  std::vector<ts::SeriesId> out;
  for (ts::SeriesId v = 0; v < model.data().n(); ++v) {
    const double x = *model.SeriesMeasure(measure, v);
    if (greater ? x > tau : x < tau) out.push_back(v);
  }
  return out;
}

std::vector<ts::SequencePair> Sorted(std::vector<ts::SequencePair> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<ts::SeriesId> Sorted(std::vector<ts::SeriesId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(ScapeBuild, CountsMatchModel) {
  const AffinityModel model = BuildModel();
  auto index = ScapeIndex::Build(model);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->pair_entry_count(), model.relationship_count());
  EXPECT_EQ(index->series_entry_count(), model.data().n());
  EXPECT_EQ(index->pair_pivot_count(), model.pivot_count());
  EXPECT_GE(index->build_seconds(), 0.0);
}

TEST(ScapeQuery, RejectsNonIndexableMeasures) {
  const AffinityModel model = BuildModel();
  auto index = ScapeIndex::Build(model);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->MeasureThreshold(Measure::kJaccard, 0.5).status().code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(index->MeasureRange(Measure::kDice, 0.0, 1.0).status().code(),
            StatusCode::kUnimplemented);
}

TEST(ScapeQuery, RejectsInvertedRange) {
  const AffinityModel model = BuildModel();
  auto index = ScapeIndex::Build(model);
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(index->MeasureRange(Measure::kCovariance, 1.0, -1.0).ok());
}

// MET equivalence with WA across measures, thresholds, and directions.
struct MetCase {
  Measure measure;
  double tau;
  bool greater;
};

class ScapeMetEquivalence : public ::testing::TestWithParam<MetCase> {};

TEST_P(ScapeMetEquivalence, MatchesWaExactly) {
  const MetCase c = GetParam();
  const AffinityModel model = BuildModel();
  auto index = ScapeIndex::Build(model);
  ASSERT_TRUE(index.ok());
  auto result = index->MeasureThreshold(c.measure, c.tau, c.greater);
  ASSERT_TRUE(result.ok());
  if (IsLocation(c.measure)) {
    EXPECT_EQ(Sorted(result->series), Sorted(WaThresholdSeries(model, c.measure, c.tau, c.greater)));
    EXPECT_TRUE(result->pairs.empty());
  } else {
    EXPECT_EQ(Sorted(result->pairs), Sorted(WaThresholdPairs(model, c.measure, c.tau, c.greater)));
    EXPECT_TRUE(result->series.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ScapeMetEquivalence,
    ::testing::Values(MetCase{Measure::kCovariance, 0.5, true},
                      MetCase{Measure::kCovariance, 0.5, false},
                      MetCase{Measure::kCovariance, -0.2, true},
                      MetCase{Measure::kDotProduct, 1000.0, true},
                      MetCase{Measure::kDotProduct, 0.0, false},
                      MetCase{Measure::kCorrelation, 0.9, true},
                      MetCase{Measure::kCorrelation, 0.5, true},
                      MetCase{Measure::kCorrelation, -0.5, true},
                      MetCase{Measure::kCorrelation, 0.0, false},
                      MetCase{Measure::kCorrelation, -0.9, false},
                      MetCase{Measure::kCosine, 0.95, true},
                      MetCase{Measure::kCosine, 0.2, false},
                      MetCase{Measure::kMean, 10.0, true},
                      MetCase{Measure::kMean, 0.0, false},
                      MetCase{Measure::kMedian, 5.0, true},
                      MetCase{Measure::kMode, 2.0, true}));

// MER equivalence with WA.
struct MerCase {
  Measure measure;
  double lo;
  double hi;
};

class ScapeMerEquivalence : public ::testing::TestWithParam<MerCase> {};

TEST_P(ScapeMerEquivalence, MatchesWaExactly) {
  const MerCase c = GetParam();
  const AffinityModel model = BuildModel();
  auto index = ScapeIndex::Build(model);
  ASSERT_TRUE(index.ok());
  auto result = index->MeasureRange(c.measure, c.lo, c.hi);
  ASSERT_TRUE(result.ok());

  if (IsLocation(c.measure)) {
    std::vector<ts::SeriesId> expected;
    for (ts::SeriesId v = 0; v < model.data().n(); ++v) {
      const double x = *model.SeriesMeasure(c.measure, v);
      if (c.lo < x && x < c.hi) expected.push_back(v);
    }
    EXPECT_EQ(Sorted(result->series), Sorted(expected));
  } else {
    std::vector<ts::SequencePair> expected;
    for (const auto& e : ts::AllSequencePairs(model.data().n())) {
      const double x = *model.PairMeasure(c.measure, e);
      if (c.lo < x && x < c.hi) expected.push_back(e);
    }
    EXPECT_EQ(Sorted(result->pairs), Sorted(expected));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ScapeMerEquivalence,
    ::testing::Values(MerCase{Measure::kCovariance, -0.5, 0.5},
                      MerCase{Measure::kCovariance, 0.0, 10.0},
                      MerCase{Measure::kDotProduct, 100.0, 100000.0},
                      MerCase{Measure::kCorrelation, 0.2, 0.8},
                      MerCase{Measure::kCorrelation, -0.9, -0.1},
                      MerCase{Measure::kCorrelation, -0.1, 0.1},
                      MerCase{Measure::kCosine, 0.5, 0.99},
                      MerCase{Measure::kMean, 0.0, 20.0},
                      MerCase{Measure::kMedian, -10.0, 10.0},
                      MerCase{Measure::kMode, -5.0, 25.0}));

TEST(ScapePruning, AcceptRegionNeedsNoVerification) {
  const AffinityModel model = BuildModel();
  auto index = ScapeIndex::Build(model);
  ASSERT_TRUE(index.ok());
  // A selective correlation threshold: most accepted entries should come
  // from the prune-accept region, with a narrow verify band.
  auto result = index->MeasureThreshold(Measure::kCorrelation, 0.95, true);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->prune.accepted_unverified + result->prune.verified, 0u);
  // Verification never exceeds total entries.
  EXPECT_LE(result->prune.verified, model.relationship_count());
}

TEST(ScapePruning, TMeasureQueriesNeverVerify) {
  const AffinityModel model = BuildModel();
  auto index = ScapeIndex::Build(model);
  ASSERT_TRUE(index.ok());
  auto result = index->MeasureThreshold(Measure::kCovariance, 0.3, true);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->prune.verified, 0u);
  EXPECT_EQ(result->prune.accepted_unverified, result->pairs.size());
}

TEST(ScapeEdge, ExtremeTauGivesAllOrNothing) {
  const AffinityModel model = BuildModel();
  auto index = ScapeIndex::Build(model);
  ASSERT_TRUE(index.ok());
  const std::size_t all_pairs = model.relationship_count();
  auto everything = index->MeasureThreshold(Measure::kCorrelation, -2.0, true);
  ASSERT_TRUE(everything.ok());
  EXPECT_EQ(everything->pairs.size(), all_pairs);
  auto nothing = index->MeasureThreshold(Measure::kCorrelation, 2.0, true);
  ASSERT_TRUE(nothing.ok());
  EXPECT_TRUE(nothing->pairs.empty());
}

TEST(ScapeEdge, DegenerateConstantSeriesHandled) {
  // A constant series has zero variance (correlation normalizer 0). SCAPE
  // must neither crash nor disagree with WA.
  ts::DatasetSpec spec;
  spec.num_series = 12;
  spec.num_samples = 60;
  spec.num_clusters = 2;
  spec.seed = 3;
  ts::Dataset ds = ts::MakeSensorData(spec);
  la::Matrix values = ds.matrix.matrix();
  for (std::size_t i = 0; i < values.rows(); ++i) values(i, 5) = 4.2;  // flatten series 5
  const ts::DataMatrix data(values);
  auto model = BuildAffinityModel(data, AfclstOptions{.k = 2}, SymexOptions{});
  ASSERT_TRUE(model.ok());
  auto index = ScapeIndex::Build(*model);
  ASSERT_TRUE(index.ok());

  for (const double tau : {-0.5, 0.0, 0.5}) {
    for (const bool greater : {true, false}) {
      auto result = index->MeasureThreshold(Measure::kCorrelation, tau, greater);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(Sorted(result->pairs), Sorted(WaThresholdPairs(*model, Measure::kCorrelation,
                                                               tau, greater)))
          << "tau=" << tau << " greater=" << greater;
    }
  }
}

TEST(ScapeEdge, ResultSizeMonotoneInThreshold) {
  const AffinityModel model = BuildModel();
  auto index = ScapeIndex::Build(model);
  ASSERT_TRUE(index.ok());
  std::size_t prev = model.relationship_count() + 1;
  for (double tau = -1.0; tau <= 1.0; tau += 0.25) {
    auto result = index->MeasureThreshold(Measure::kCorrelation, tau, true);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->pairs.size(), prev);
    prev = result->pairs.size();
  }
}

TEST(ScapeEdge, MerIsIntersectionOfMets) {
  const AffinityModel model = BuildModel();
  auto index = ScapeIndex::Build(model);
  ASSERT_TRUE(index.ok());
  const double lo = 0.3, hi = 0.7;
  auto range = index->MeasureRange(Measure::kCorrelation, lo, hi);
  auto above = index->MeasureThreshold(Measure::kCorrelation, lo, true);
  auto below = index->MeasureThreshold(Measure::kCorrelation, hi, false);
  ASSERT_TRUE(range.ok());
  ASSERT_TRUE(above.ok());
  ASSERT_TRUE(below.ok());
  std::vector<ts::SequencePair> a = Sorted(above->pairs);
  std::vector<ts::SequencePair> b = Sorted(below->pairs);
  std::vector<ts::SequencePair> expected;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(expected));
  EXPECT_EQ(Sorted(range->pairs), expected);
}

TEST(ScapeEdge, LocationTreesCoverEverySeriesOnce) {
  const AffinityModel model = BuildModel();
  auto index = ScapeIndex::Build(model);
  ASSERT_TRUE(index.ok());
  auto all = index->MeasureThreshold(Measure::kMean, -1e300, true);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->series.size(), model.data().n());
  std::set<ts::SeriesId> unique(all->series.begin(), all->series.end());
  EXPECT_EQ(unique.size(), model.data().n());
}

}  // namespace
}  // namespace affinity::core
