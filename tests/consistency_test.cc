// Randomized cross-strategy consistency suite: over several seeds and both
// dataset families, every strategy must agree with every other wherever
// the design says they must. These are the repository's fuzz-adjacent
// invariant checks — cheap datasets, many random probes.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/framework.h"
#include "core/streaming.h"
#include "serve/serve_query.h"
#include "ts/generators.h"

namespace affinity::core {
namespace {

struct Scenario {
  std::uint64_t seed;
  bool stock;
};

class RandomizedConsistency : public ::testing::TestWithParam<Scenario> {
 protected:
  ts::Dataset Data() {
    ts::DatasetSpec spec;
    spec.num_series = 26;
    spec.num_samples = 70;
    spec.num_clusters = 3;
    spec.noise_level = 0.05;  // noisier than other tests on purpose
    spec.seed = GetParam().seed;
    return GetParam().stock ? ts::MakeStockData(spec) : ts::MakeSensorData(spec);
  }

  Affinity BuildFramework() {
    auto fw = Affinity::Build(Data().matrix);
    EXPECT_TRUE(fw.ok());
    return std::move(fw).value();
  }
};

/// A threshold halfway between two adjacent distinct `values` drawn by
/// `rng`, at least 1e-9·(1 + |v|) from every value v — clear of the ties
/// a key-transformed index may classify either way (scape.h "Boundary
/// semantics"). NaN when no gap is wide enough.
double CutBetween(std::vector<double> values, Xoshiro256* rng) {
  std::sort(values.begin(), values.end());
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const std::size_t i = rng->NextBounded(values.size() - 1);
    const double lo = values[i];
    const double hi = values[i + 1];
    const double tau = 0.5 * (lo + hi);
    if (tau - lo >= 1e-9 * (1.0 + std::fabs(lo)) && hi - tau >= 1e-9 * (1.0 + std::fabs(hi))) {
      return tau;
    }
  }
  return std::nan("");
}

/// Same entity sets, whatever order each side answered in.
void ExpectSameSortedSets(std::vector<ts::SequencePair> pairs_a, std::vector<ts::SeriesId> series_a,
                          std::vector<ts::SequencePair> pairs_b,
                          std::vector<ts::SeriesId> series_b) {
  std::sort(pairs_a.begin(), pairs_a.end());
  std::sort(pairs_b.begin(), pairs_b.end());
  std::sort(series_a.begin(), series_a.end());
  std::sort(series_b.begin(), series_b.end());
  EXPECT_EQ(pairs_a, pairs_b);
  EXPECT_EQ(series_a, series_b);
}

// A stream builds no SCAPE index, so its epochs answer the measures SCAPE
// used to serve there — covariance, dot product and the L-measures — with
// the table pass. Over the stream's maintained model the pass selects
// exactly what batch SCAPE over that model selects, and top-k returns the
// same pairs.
TEST_P(RandomizedConsistency, EpochPassEqualsBatchScape) {
  const ts::Dataset ds = Data();
  StreamingOptions options;
  options.window = 50;
  options.rebuild_interval = 5;
  options.mode = UpdateMode::kIncremental;
  auto stream = StreamingAffinity::Create(ds.matrix.names(), options);
  ASSERT_TRUE(stream.ok());
  std::vector<double> row(ds.matrix.n());
  for (std::size_t i = 0; i < ds.matrix.m(); ++i) {
    for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = ds.matrix.matrix()(i, j);
    ASSERT_TRUE(stream->Append(row).ok());
  }
  ASSERT_GT(stream->refresh_count(), 0u);
  const auto snap = stream->serving();
  ASSERT_NE(snap, nullptr);
  auto index = ScapeIndex::Build(stream->framework()->model());
  ASSERT_TRUE(index.ok());
  Xoshiro256 rng(GetParam().seed * 19 + 11);
  for (const Measure measure : {Measure::kCovariance, Measure::kDotProduct, Measure::kMean,
                                Measure::kMedian, Measure::kMode}) {
    SCOPED_TRACE(std::string(MeasureName(measure)));
    const std::vector<double>& values =
        IsLocation(measure)
            ? snap->location[static_cast<std::size_t>(LocationFamilyOf(measure))]
            : snap->pair_values[static_cast<std::size_t>(measure) -
                                static_cast<std::size_t>(Measure::kCovariance)];
    for (int probe = 0; probe < 4; ++probe) {
      const double tau = CutBetween(values, &rng);
      const double other = CutBetween(values, &rng);
      ASSERT_FALSE(std::isnan(tau) || std::isnan(other));
      const bool greater = rng.NextDouble() < 0.5;
      auto served_met = serve::SnapshotMet(*snap, {measure, tau, greater});
      auto scape_met = index->MeasureThreshold(measure, tau, greater);
      ASSERT_TRUE(served_met.ok());
      ASSERT_TRUE(scape_met.ok());
      ExpectSameSortedSets(served_met->pairs, served_met->series, scape_met->pairs,
                           scape_met->series);
      const double lo = std::min(tau, other);
      const double hi = std::max(tau, other);
      auto served_mer = serve::SnapshotMer(*snap, {measure, lo, hi});
      auto scape_mer = index->MeasureRange(measure, lo, hi);
      ASSERT_TRUE(served_mer.ok());
      ASSERT_TRUE(scape_mer.ok());
      ExpectSameSortedSets(served_mer->pairs, served_mer->series, scape_mer->pairs,
                           scape_mer->series);
    }
  }
  for (const Measure measure : {Measure::kCovariance, Measure::kDotProduct}) {
    for (const bool largest : {true, false}) {
      const std::size_t k = 1 + rng.NextBounded(20);
      SCOPED_TRACE(std::string(MeasureName(measure)) + " k=" + std::to_string(k) +
                   (largest ? " largest" : " smallest"));
      auto served = serve::SnapshotTopK(*snap, {measure, k, largest});
      auto scape = index->TopK(measure, k, largest);
      ASSERT_TRUE(served.ok());
      ASSERT_TRUE(scape.ok());
      ASSERT_EQ(served->entries.size(), scape->entries.size());
      for (std::size_t i = 0; i < scape->entries.size(); ++i) {
        const double v = scape->entries[i].value;
        EXPECT_EQ(served->entries[i].pair, scape->entries[i].pair) << "rank " << i;
        EXPECT_NEAR(served->entries[i].value, v, 1e-12 * (1.0 + std::fabs(v))) << "rank " << i;
      }
    }
  }
}

TEST_P(RandomizedConsistency, ScapeEqualsWaOnRandomThresholds) {
  const Affinity fw = BuildFramework();
  Xoshiro256 rng(GetParam().seed * 7 + 1);
  const std::vector<Measure> measures = {Measure::kMean,        Measure::kMedian,
                                         Measure::kMode,        Measure::kCovariance,
                                         Measure::kDotProduct,  Measure::kCorrelation,
                                         Measure::kCosine};
  for (int probe = 0; probe < 30; ++probe) {
    const Measure measure = measures[rng.NextBounded(measures.size())];
    // Draw tau from the value distribution so results are non-trivial, then
    // nudge it off the exact stored value: thresholds are cut points, and
    // ulp-level ties are unspecified for a key-transformed index (see
    // scape.h "Boundary semantics").
    double tau;
    if (IsLocation(measure)) {
      const auto v = static_cast<ts::SeriesId>(rng.NextBounded(fw.data().n()));
      tau = *fw.model().SeriesMeasure(measure, v);
    } else {
      const auto u = static_cast<ts::SeriesId>(rng.NextBounded(fw.data().n()));
      auto v = static_cast<ts::SeriesId>(rng.NextBounded(fw.data().n()));
      if (u == v) v = (v + 1) % static_cast<ts::SeriesId>(fw.data().n());
      tau = *fw.model().PairMeasure(measure, ts::SequencePair(u, v));
    }
    tau += rng.Uniform(1e-7, 1e-6) * (1.0 + std::fabs(tau)) * (rng.NextDouble() < 0.5 ? -1 : 1);
    const bool greater = rng.NextDouble() < 0.5;
    MetRequest request{measure, tau, greater};
    auto scape = fw.engine().Met(request, QueryMethod::kScape);
    auto wa = fw.engine().Met(request, QueryMethod::kAffine);
    ASSERT_TRUE(scape.ok());
    ASSERT_TRUE(wa.ok());
    auto sp = scape->pairs, wp = wa->pairs;
    auto ss = scape->series, ws = wa->series;
    std::sort(sp.begin(), sp.end());
    std::sort(wp.begin(), wp.end());
    std::sort(ss.begin(), ss.end());
    std::sort(ws.begin(), ws.end());
    EXPECT_EQ(sp, wp) << MeasureName(measure) << " tau=" << tau << " greater=" << greater;
    EXPECT_EQ(ss, ws) << MeasureName(measure) << " tau=" << tau << " greater=" << greater;
  }
}

TEST_P(RandomizedConsistency, MetPartitionsThePopulation) {
  // For any tau: |{> tau}| + |{< tau}| + |{== tau}| == population, and the
  // two SCAPE scans never overlap.
  const Affinity fw = BuildFramework();
  Xoshiro256 rng(GetParam().seed * 11 + 3);
  for (int probe = 0; probe < 10; ++probe) {
    const double tau = rng.Uniform(-1.0, 1.0);
    MetRequest gt{Measure::kCorrelation, tau, true};
    MetRequest lt{Measure::kCorrelation, tau, false};
    auto above = fw.engine().Met(gt, QueryMethod::kScape);
    auto below = fw.engine().Met(lt, QueryMethod::kScape);
    ASSERT_TRUE(above.ok());
    ASSERT_TRUE(below.ok());
    EXPECT_LE(above->pairs.size() + below->pairs.size(),
              ts::SequencePairCount(fw.data().n()));
    std::vector<ts::SequencePair> a = above->pairs, b = below->pairs;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<ts::SequencePair> overlap;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(overlap));
    EXPECT_TRUE(overlap.empty());
  }
}

TEST_P(RandomizedConsistency, MerEqualsMetIntersection) {
  const Affinity fw = BuildFramework();
  Xoshiro256 rng(GetParam().seed * 13 + 5);
  for (int probe = 0; probe < 8; ++probe) {
    double lo = rng.Uniform(-1.0, 1.0);
    double hi = rng.Uniform(-1.0, 1.0);
    if (lo > hi) std::swap(lo, hi);
    MerRequest range{Measure::kCorrelation, lo, hi};
    auto mer = fw.engine().Mer(range, QueryMethod::kScape);
    auto above = fw.engine().Met({Measure::kCorrelation, lo, true}, QueryMethod::kScape);
    auto below = fw.engine().Met({Measure::kCorrelation, hi, false}, QueryMethod::kScape);
    ASSERT_TRUE(mer.ok());
    ASSERT_TRUE(above.ok());
    ASSERT_TRUE(below.ok());
    std::vector<ts::SequencePair> a = above->pairs, b = below->pairs, expected;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expected));
    std::vector<ts::SequencePair> got = mer->pairs;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "range (" << lo << "," << hi << ")";
  }
}

TEST_P(RandomizedConsistency, TopKEqualsSortedSweep) {
  const Affinity fw = BuildFramework();
  Xoshiro256 rng(GetParam().seed * 17 + 7);
  for (const Measure measure :
       {Measure::kCovariance, Measure::kCorrelation, Measure::kMean}) {
    const std::size_t k = 1 + rng.NextBounded(20);
    const bool largest = rng.NextDouble() < 0.5;
    TopKRequest request{measure, k, largest};
    auto scape = fw.engine().TopK(request, QueryMethod::kScape);
    auto wa = fw.engine().TopK(request, QueryMethod::kAffine);
    ASSERT_TRUE(scape.ok());
    ASSERT_TRUE(wa.ok());
    ASSERT_EQ(scape->entries.size(), wa->entries.size());
    for (std::size_t i = 0; i < scape->entries.size(); ++i) {
      EXPECT_NEAR(scape->entries[i].value, wa->entries[i].value,
                  1e-9 * (1.0 + std::fabs(wa->entries[i].value)))
          << MeasureName(measure) << " k=" << k << " largest=" << largest << " rank " << i;
    }
  }
}

TEST_P(RandomizedConsistency, WaTracksGroundTruth) {
  const Affinity fw = BuildFramework();
  std::vector<double> truth, approx;
  for (const auto& e : ts::AllSequencePairs(fw.data().n())) {
    truth.push_back(*NaivePairMeasure(Measure::kCorrelation, fw.data().ColumnData(e.u),
                                      fw.data().ColumnData(e.v), fw.data().m()));
    approx.push_back(*fw.model().PairMeasure(Measure::kCorrelation, e));
  }
  // Even at 5% noise the correlation %RMSE stays well under 1%.
  EXPECT_LT(PercentRmse(truth, approx), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedConsistency,
                         ::testing::Values(Scenario{101, false}, Scenario{202, false},
                                           Scenario{303, true}, Scenario{404, true},
                                           Scenario{505, false}, Scenario{606, true}),
                         [](const ::testing::TestParamInfo<Scenario>& info) {
                           return (info.param.stock ? "stock" : "sensor") +
                                  std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace affinity::core
