// Tests for the top-k extension: ScapeIndex::TopK and QueryEngine::TopK.
// The index-side threshold algorithm must agree exactly with the WA
// strategy's evaluate-all-and-sort answer, and every sweep-style top-k
// (engine WN/WA, the epoch's pass) shares one k-bounded selection whose
// tie order is defined and thread-count invariant.

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/framework.h"
#include "serve/serve_query.h"
#include "serve/serving_snapshot.h"
#include "ts/generators.h"

namespace affinity::core {
namespace {

class TopKTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ts::DatasetSpec spec;
    spec.num_series = 40;
    spec.num_samples = 120;
    spec.num_clusters = 4;
    spec.noise_level = 0.02;
    spec.seed = 77;
    auto fw = Affinity::Build(ts::MakeSensorData(spec).matrix);
    ASSERT_TRUE(fw.ok());
    framework_ = new Affinity(std::move(fw).value());
  }
  static void TearDownTestSuite() {
    delete framework_;
    framework_ = nullptr;
  }
  static Affinity* framework_;
};

Affinity* TopKTest::framework_ = nullptr;

/// WA reference: evaluate everything, sort, truncate.
std::vector<double> ReferenceValues(const Affinity& fw, Measure measure, std::size_t k,
                                    bool largest) {
  std::vector<double> values;
  if (IsLocation(measure)) {
    for (ts::SeriesId v = 0; v < fw.data().n(); ++v) {
      values.push_back(*fw.model().SeriesMeasure(measure, v));
    }
  } else {
    for (const auto& e : ts::AllSequencePairs(fw.data().n())) {
      values.push_back(*fw.model().PairMeasure(measure, e));
    }
  }
  std::sort(values.begin(), values.end());
  if (largest) std::reverse(values.begin(), values.end());
  values.resize(std::min(k, values.size()));
  return values;
}

struct TopKCase {
  Measure measure;
  std::size_t k;
  bool largest;
};

class TopKEquivalence : public ::testing::TestWithParam<TopKCase> {};

TEST_P(TopKEquivalence, IndexMatchesReference) {
  ts::DatasetSpec spec;
  spec.num_series = 36;
  spec.num_samples = 100;
  spec.num_clusters = 3;
  spec.noise_level = 0.02;
  spec.seed = 5;
  auto fw = Affinity::Build(ts::MakeSensorData(spec).matrix);
  ASSERT_TRUE(fw.ok());
  const TopKCase c = GetParam();

  auto result = fw->scape()->TopK(c.measure, c.k, c.largest);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<double> expected = ReferenceValues(*fw, c.measure, c.k, c.largest);
  ASSERT_EQ(result->entries.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(result->entries[i].value, expected[i], 1e-9 * (1.0 + std::fabs(expected[i])))
        << "rank " << i;
  }
  // Best-first ordering.
  for (std::size_t i = 1; i < result->entries.size(); ++i) {
    if (c.largest) {
      EXPECT_GE(result->entries[i - 1].value, result->entries[i].value - 1e-12);
    } else {
      EXPECT_LE(result->entries[i - 1].value, result->entries[i].value + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TopKEquivalence,
    ::testing::Values(TopKCase{Measure::kCovariance, 10, true},
                      TopKCase{Measure::kCovariance, 10, false},
                      TopKCase{Measure::kDotProduct, 25, true},
                      TopKCase{Measure::kCorrelation, 10, true},
                      TopKCase{Measure::kCorrelation, 10, false},
                      TopKCase{Measure::kCorrelation, 100, true},
                      TopKCase{Measure::kCosine, 15, true},
                      TopKCase{Measure::kMean, 5, true},
                      TopKCase{Measure::kMedian, 5, false},
                      TopKCase{Measure::kMode, 7, true}));

TEST_F(TopKTest, KZeroIsEmpty) {
  auto result = framework_->scape()->TopK(Measure::kCorrelation, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->entries.empty());
}

TEST_F(TopKTest, KLargerThanPopulationReturnsAll) {
  auto result = framework_->scape()->TopK(Measure::kMean, 10000, true);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->entries.size(), framework_->data().n());
}

TEST_F(TopKTest, RejectsNonIndexableMeasures) {
  EXPECT_EQ(framework_->scape()->TopK(Measure::kJaccard, 5).status().code(),
            StatusCode::kUnimplemented);
}

TEST_F(TopKTest, ThresholdAlgorithmPrunesForDerivedMeasures) {
  // For a small k the TA must examine far fewer entries than the index holds.
  auto result = framework_->scape()->TopK(Measure::kCorrelation, 5, true);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->entries.size(), 5u);
  EXPECT_LT(result->examined, framework_->model().relationship_count());
}

TEST_F(TopKTest, EngineDispatchAgreesAcrossMethods) {
  TopKRequest request;
  request.measure = Measure::kCovariance;
  request.k = 12;
  auto scape = framework_->engine().TopK(request, QueryMethod::kScape);
  auto wa = framework_->engine().TopK(request, QueryMethod::kAffine);
  auto wn = framework_->engine().TopK(request, QueryMethod::kNaive);
  ASSERT_TRUE(scape.ok());
  ASSERT_TRUE(wa.ok());
  ASSERT_TRUE(wn.ok());
  ASSERT_EQ(scape->entries.size(), 12u);
  ASSERT_EQ(wa->entries.size(), 12u);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_NEAR(scape->entries[i].value, wa->entries[i].value,
                1e-9 * (1.0 + std::fabs(wa->entries[i].value)));
    // WN is the ground truth; WA/SCAPE approximate it closely on clean data.
    EXPECT_NEAR(scape->entries[i].value, wn->entries[i].value,
                1e-3 * (1.0 + std::fabs(wn->entries[i].value)));
  }
}

TEST_F(TopKTest, EngineValidation) {
  TopKRequest request;
  request.measure = Measure::kCorrelation;
  request.k = 3;
  EXPECT_FALSE(framework_->engine().TopK(request, QueryMethod::kDft).ok());

  const ts::DataMatrix& data = framework_->data();
  QueryEngine bare(&data);
  EXPECT_EQ(bare.TopK(request, QueryMethod::kScape).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(bare.TopK(request, QueryMethod::kNaive).ok());
}

TEST_F(TopKTest, PairEntriesCarryNoSeries) {
  // Pair-measure entries must not pretend to reference series 0: absence
  // is the explicit kNoSeries sentinel, never a default of 0.
  auto scape = framework_->scape()->TopK(Measure::kCorrelation, 8, true);
  ASSERT_TRUE(scape.ok());
  for (const auto& entry : scape->entries) {
    EXPECT_FALSE(entry.has_series());
    EXPECT_EQ(entry.series, kNoSeries);
  }
  TopKRequest request;
  request.measure = Measure::kCovariance;
  request.k = 8;
  for (QueryMethod method : {QueryMethod::kNaive, QueryMethod::kAffine}) {
    auto engine_result = framework_->engine().TopK(request, method);
    ASSERT_TRUE(engine_result.ok());
    for (const auto& entry : engine_result->entries) {
      EXPECT_FALSE(entry.has_series());
    }
  }
}

TEST_F(TopKTest, LocationEntriesCarryARealSeriesIncludingZero) {
  // All n series fit in the result, so series 0 must appear as a *valid*
  // id — distinguishable from the sentinel.
  auto result = framework_->scape()->TopK(Measure::kMean, 10000, true);
  ASSERT_TRUE(result.ok());
  bool saw_series_zero = false;
  for (const auto& entry : result->entries) {
    EXPECT_TRUE(entry.has_series());
    EXPECT_LT(entry.series, framework_->data().n());
    if (entry.series == 0) saw_series_zero = true;
  }
  EXPECT_TRUE(saw_series_zero);
}

TEST(MergeTopKFn, MergesBestFirstRunsWithDeterministicTies) {
  const auto entry = [](ts::SeriesId u, ts::SeriesId v, double value) {
    return ScapeTopKEntry{ts::SequencePair(u, v), kNoSeries, value};
  };
  std::vector<ScapeTopKResult> runs(3);
  runs[0].entries = {entry(0, 1, 9.0), entry(0, 2, 5.0), entry(0, 3, 1.0)};
  runs[0].examined = 7;
  runs[1].entries = {entry(4, 5, 8.0), entry(4, 6, 5.0)};
  runs[1].examined = 3;
  runs[2].entries = {};  // an empty run (e.g. a shard smaller than k)
  const ScapeTopKResult merged = MergeTopK(runs, 4, /*largest=*/true);
  ASSERT_EQ(merged.entries.size(), 4u);
  EXPECT_EQ(merged.examined, 10u);
  EXPECT_DOUBLE_EQ(merged.entries[0].value, 9.0);
  EXPECT_DOUBLE_EQ(merged.entries[1].value, 8.0);
  // Tie at 5.0 breaks by pair id: (0,2) before (4,6) regardless of run order.
  EXPECT_EQ(merged.entries[2].pair, ts::SequencePair(0, 2));
  EXPECT_EQ(merged.entries[3].pair, ts::SequencePair(4, 6));

  // Smallest-first direction, k larger than the union.
  std::vector<ScapeTopKResult> asc(2);
  asc[0].entries = {entry(0, 1, 1.0), entry(0, 2, 3.0)};
  asc[1].entries = {entry(3, 4, 2.0)};
  const ScapeTopKResult small = MergeTopK(asc, 10, /*largest=*/false);
  ASSERT_EQ(small.entries.size(), 3u);
  EXPECT_DOUBLE_EQ(small.entries[0].value, 1.0);
  EXPECT_DOUBLE_EQ(small.entries[1].value, 2.0);
  EXPECT_DOUBLE_EQ(small.entries[2].value, 3.0);
}

TEST_F(TopKTest, TopPairsAreMutuallyDistinct) {
  auto result = framework_->scape()->TopK(Measure::kCorrelation, 50, true);
  ASSERT_TRUE(result.ok());
  std::vector<ts::SequencePair> pairs;
  for (const auto& entry : result->entries) pairs.push_back(entry.pair);
  std::sort(pairs.begin(), pairs.end());
  EXPECT_EQ(std::adjacent_find(pairs.begin(), pairs.end()), pairs.end());
}

// ---------------------------------------------------------------------------
// The shared selection: TopKSelector under TopKBefore.
// ---------------------------------------------------------------------------

ScapeTopKEntry PairEntry(ts::SeriesId u, ts::SeriesId v, double value) {
  return ScapeTopKEntry{ts::SequencePair(u, v), kNoSeries, value};
}

std::vector<ScapeTopKEntry> Select(const std::vector<ScapeTopKEntry>& offers, std::size_t k,
                                   bool largest) {
  TopKSelector best(k, largest);
  for (const ScapeTopKEntry& e : offers) best.Offer(e);
  return std::move(best).Finish();
}

void ExpectSameEntries(const std::vector<ScapeTopKEntry>& got,
                       const std::vector<ScapeTopKEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].pair, want[i].pair) << "entry " << i;
    EXPECT_EQ(got[i].series, want[i].series) << "entry " << i;
    EXPECT_EQ(got[i].value, want[i].value) << "entry " << i;
  }
}

TEST(TopKSelectorFn, TiesAcrossTheKthValueBreakByPairInAnyOfferOrder) {
  // Three entries tie at 3.0 across the k = 3 boundary: the two smallest
  // pairs win, whatever order the pass offers them in.
  std::vector<ScapeTopKEntry> offers = {PairEntry(2, 3, 3.0), PairEntry(0, 1, 5.0),
                                        PairEntry(1, 2, 3.0), PairEntry(3, 4, 1.0),
                                        PairEntry(0, 4, 3.0)};
  const std::vector<ScapeTopKEntry> want = {PairEntry(0, 1, 5.0), PairEntry(0, 4, 3.0),
                                            PairEntry(1, 2, 3.0)};
  std::vector<std::size_t> order(offers.size());
  std::iota(order.begin(), order.end(), 0);
  do {
    std::vector<ScapeTopKEntry> permuted;
    for (const std::size_t i : order) permuted.push_back(offers[i]);
    ExpectSameEntries(Select(permuted, 3, /*largest=*/true), want);
  } while (std::next_permutation(order.begin(), order.end()));
  // Smallest-first: the tie at 3.0 again breaks by pair.
  ExpectSameEntries(Select(offers, 2, /*largest=*/false),
                    {PairEntry(3, 4, 1.0), PairEntry(0, 4, 3.0)});
  // Series entries tie by series id.
  const std::vector<ScapeTopKEntry> series = {
      ScapeTopKEntry{ts::SequencePair{}, 7, 2.0}, ScapeTopKEntry{ts::SequencePair{}, 3, 2.0},
      ScapeTopKEntry{ts::SequencePair{}, 5, 2.0}};
  const std::vector<ScapeTopKEntry> best = Select(series, 2, /*largest=*/true);
  ASSERT_EQ(best.size(), 2u);
  EXPECT_EQ(best[0].series, 3u);
  EXPECT_EQ(best[1].series, 5u);
}

TEST(TopKSelectorFn, KZeroKAboveTheOffersAndChunkMerges) {
  const std::vector<ScapeTopKEntry> offers = {PairEntry(0, 1, 0.5), PairEntry(0, 2, -1.0),
                                              PairEntry(1, 2, 2.0)};
  EXPECT_TRUE(Select(offers, 0, true).empty());
  ExpectSameEntries(Select(offers, 10, true),
                    {PairEntry(1, 2, 2.0), PairEntry(0, 1, 0.5), PairEntry(0, 2, -1.0)});
  // Chunked passes joined with Merge equal one sequential pass.
  TopKSelector a(2, true), b(2, true), joined(2, true);
  a.Offer(offers[0]);
  b.Offer(offers[1]);
  b.Offer(offers[2]);
  joined.Merge(b);
  joined.Merge(a);
  // The pre-check: with room left every value passes; once k are kept,
  // the k-th value itself passes (its tie key may still win) and any
  // worse value does not; k = 0 passes no finite value.
  EXPECT_TRUE(a.Admits(-1e300));
  EXPECT_TRUE(joined.Admits(0.5));
  EXPECT_FALSE(joined.Admits(0.25));
  EXPECT_FALSE(TopKSelector(0, true).Admits(1e300));
  TopKSelector smallest(1, false);
  smallest.Offer(offers[0]);
  EXPECT_TRUE(smallest.Admits(0.5));
  EXPECT_FALSE(smallest.Admits(0.75));
  ExpectSameEntries(std::move(joined).Finish(), Select(offers, 2, true));
}

// ---------------------------------------------------------------------------
// Engine and epoch sweeps over data with bitwise value ties.
// ---------------------------------------------------------------------------

/// 12 base series, each stored twice: WN evaluates pairs of identical
/// columns with identical arithmetic, so every cross value appears in a
/// group of four bitwise-equal pairs and ties straddle most k.
class TopKTieTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ts::DatasetSpec spec;
    spec.num_series = 12;
    spec.num_samples = 64;
    spec.num_clusters = 3;
    spec.noise_level = 0.05;
    spec.seed = 91;
    const ts::Dataset base = ts::MakeSensorData(spec);
    la::Matrix values(base.matrix.m(), 2 * base.matrix.n());
    for (std::size_t j = 0; j < base.matrix.n(); ++j) {
      for (std::size_t i = 0; i < base.matrix.m(); ++i) {
        values(i, 2 * j) = base.matrix.matrix()(i, j);
        values(i, 2 * j + 1) = base.matrix.matrix()(i, j);
      }
    }
    auto fw = Affinity::Build(ts::DataMatrix(std::move(values)));
    ASSERT_TRUE(fw.ok());
    framework_ = new Affinity(std::move(fw).value());
    // Every third series is distrusted.
    scores_ = new std::vector<double>(framework_->data().n(), 0.9);
    for (std::size_t v = 0; v < scores_->size(); v += 3) (*scores_)[v] = 0.2;
  }
  static void TearDownTestSuite() {
    delete framework_;
    delete scores_;
    framework_ = nullptr;
    scores_ = nullptr;
  }

  /// An engine with the model and the quality surface attached — what a
  /// stream's live engine holds, so it plans as its epoch does.
  static QueryEngine Engine(const ExecContext& exec = {}) {
    QueryEngine engine(&framework_->data());
    engine.AttachModel(&framework_->model());
    engine.AttachQuality(scores_);
    engine.SetExec(exec);
    return engine;
  }

  static std::shared_ptr<const serve::ServingSnapshot> Epoch() {
    return serve::SnapshotBuilder::Build(framework_->model(), Engine(), 1,
                                         framework_->data().m());
  }

  static Affinity* framework_;
  static std::vector<double>* scores_;
};

Affinity* TopKTieTest::framework_ = nullptr;
std::vector<double>* TopKTieTest::scores_ = nullptr;

TEST_F(TopKTieTest, TiesAcrossTheKthValueFollowTheRankOrder) {
  const QueryEngine engine = Engine();
  TopKRequest all{Measure::kCorrelation, 100000, true};
  auto full = engine.TopK(all, QueryMethod::kNaive);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->entries.size(), ts::SequencePairCount(framework_->data().n()));
  for (std::size_t i = 1; i < full->entries.size(); ++i) {
    EXPECT_TRUE(TopKBefore(full->entries[i - 1], full->entries[i], true)) << i;
  }
  // A k whose boundary cuts through a run of equal values.
  std::size_t k = 0;
  for (std::size_t i = 8; i + 1 < full->entries.size() && k == 0; ++i) {
    if (full->entries[i].value == full->entries[i + 1].value) k = i + 1;
  }
  ASSERT_GT(k, 0u);
  TopKRequest cut{Measure::kCorrelation, k, true};
  auto bounded = engine.TopK(cut, QueryMethod::kNaive);
  ASSERT_TRUE(bounded.ok());
  ExpectSameEntries(bounded->entries,
                    std::vector<ScapeTopKEntry>(full->entries.begin(),
                                                full->entries.begin() + static_cast<long>(k)));
  auto served = serve::SnapshotTopK(*Epoch(), cut, QueryMethod::kNaive);
  ASSERT_TRUE(served.ok());
  ExpectSameEntries(served->entries, bounded->entries);
}

TEST_F(TopKTieTest, ScapePrefixesFollowTheRankOrder) {
  // The threshold algorithm selects under the same total order as every
  // sweep: each k-prefix is the first k of the full SCAPE list ranked by
  // TopKBefore, even where equal values straddle k.
  QueryEngine engine = Engine();
  engine.AttachScape(framework_->scape());
  const std::size_t n = framework_->data().n();
  const auto same = [](const std::vector<ScapeTopKEntry>& a, const std::vector<ScapeTopKEntry>& b,
                       std::size_t count) {
    if (a.size() != count || b.size() < count) return false;
    for (std::size_t i = 0; i < count; ++i) {
      if (a[i].pair != b[i].pair || a[i].series != b[i].series || a[i].value != b[i].value) {
        return false;
      }
    }
    return true;
  };
  for (Measure measure : {Measure::kCovariance, Measure::kDotProduct, Measure::kMean}) {
    for (const bool largest : {true, false}) {
      SCOPED_TRACE(std::string(MeasureName(measure)) + (largest ? " largest" : " smallest"));
      const std::size_t entities = IsLocation(measure) ? n : ts::SequencePairCount(n);
      auto full = engine.TopK(TopKRequest{measure, entities, largest}, QueryMethod::kScape);
      ASSERT_TRUE(full.ok());
      ASSERT_EQ(full->entries.size(), entities);
      std::vector<ScapeTopKEntry> ranked = full->entries;
      std::sort(ranked.begin(), ranked.end(),
                [largest](const ScapeTopKEntry& a, const ScapeTopKEntry& b) {
                  return TopKBefore(a, b, largest);
                });
      std::vector<std::size_t> wrong;
      for (std::size_t k = 1; k <= entities; ++k) {
        const TopKRequest request{measure, k, largest};
        auto live = engine.TopK(request, QueryMethod::kScape);
        ASSERT_TRUE(live.ok());
        if (!same(live->entries, ranked, k)) wrong.push_back(k);
      }
      EXPECT_TRUE(wrong.empty()) << wrong.size() << " of " << entities
                                 << " k disagree with the rank order, first k = "
                                 << (wrong.empty() ? 0 : wrong.front());
    }
  }
}

TEST_F(TopKTieTest, KZeroKAboveEligibleAndNobodyEligible) {
  const QueryEngine engine = Engine();
  const auto epoch = Epoch();
  const std::size_t n = framework_->data().n();
  std::size_t eligible = 0;
  for (const double s : *scores_) eligible += s >= 0.5 ? 1 : 0;
  for (QueryMethod method : {QueryMethod::kNaive, QueryMethod::kAffine, QueryMethod::kAuto}) {
    SCOPED_TRACE(std::string(QueryMethodName(method)));
    for (Measure measure : {Measure::kCorrelation, Measure::kCovariance, Measure::kMean}) {
      SCOPED_TRACE(std::string(MeasureName(measure)));
      const std::size_t entities = IsLocation(measure) ? n : ts::SequencePairCount(n);
      const std::size_t eligible_entities =
          IsLocation(measure) ? eligible : ts::SequencePairCount(eligible);
      // k = 0: nothing selected, the pass still reports what it covered.
      TopKRequest zero{measure, 0, true};
      auto live = engine.TopK(zero, method);
      auto served = serve::SnapshotTopK(*epoch, zero, method);
      ASSERT_TRUE(live.ok());
      ASSERT_TRUE(served.ok());
      EXPECT_TRUE(live->entries.empty());
      EXPECT_TRUE(served->entries.empty());
      // k above the eligible count: every eligible entity, best-first.
      TopKRequest wide{measure, entities + 5, false};
      wide.min_quality = 0.5;
      live = engine.TopK(wide, method);
      served = serve::SnapshotTopK(*epoch, wide, method);
      ASSERT_TRUE(live.ok());
      ASSERT_TRUE(served.ok());
      EXPECT_EQ(live->entries.size(), eligible_entities);
      EXPECT_EQ(live->quality.excluded, entities - eligible_entities);
      ExpectSameEntries(served->entries, live->entries);
      EXPECT_EQ(served->quality.excluded, live->quality.excluded);
      EXPECT_EQ(served->quality.min_score, live->quality.min_score);
      // Every series below the predicate: an empty, fully excluded answer.
      TopKRequest none{measure, 5, true};
      none.min_quality = 0.95;
      live = engine.TopK(none, method);
      served = serve::SnapshotTopK(*epoch, none, method);
      ASSERT_TRUE(live.ok());
      ASSERT_TRUE(served.ok());
      EXPECT_TRUE(live->entries.empty());
      EXPECT_TRUE(served->entries.empty());
      EXPECT_EQ(live->quality.excluded, entities);
      EXPECT_EQ(served->quality.excluded, entities);
      EXPECT_TRUE(served->quality.populated);
      EXPECT_EQ(served->quality.min_score, 1.0);
    }
  }
}

TEST_F(TopKTieTest, BitwiseAcrossThreadCountsAndTheEpoch) {
  const auto epoch = Epoch();
  const QueryEngine sequential = Engine();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    const QueryEngine engine = Engine(ExecContext{threads > 1 ? &pool : nullptr});
    for (QueryMethod method : {QueryMethod::kNaive, QueryMethod::kAffine, QueryMethod::kAuto}) {
      SCOPED_TRACE(std::string(QueryMethodName(method)));
      for (const double min_quality : {0.0, 0.5}) {
        for (TopKRequest req : {TopKRequest{Measure::kCorrelation, 37, true},
                                TopKRequest{Measure::kCosine, 21, false},
                                TopKRequest{Measure::kCovariance, 9, true}}) {
          req.min_quality = min_quality;
          auto got = engine.TopK(req, method);
          auto want = sequential.TopK(req, method);
          auto served = serve::SnapshotTopK(*epoch, req, method);
          ASSERT_TRUE(got.ok());
          ASSERT_TRUE(want.ok());
          ASSERT_TRUE(served.ok());
          ExpectSameEntries(got->entries, want->entries);
          ExpectSameEntries(served->entries, want->entries);
          EXPECT_EQ(got->plan.method, want->plan.method);
          EXPECT_EQ(served->plan.method, want->plan.method);
        }
      }
    }
  }
}

TEST_F(TopKTieTest, QualityPredicateBypassesOnlyAnAttachedScapeIndex) {
  // A batch engine with its SCAPE index and a quality surface: under a
  // predicate, kAuto and an explicit kScape top-k are the WA sweep over
  // the eligible series.
  ASSERT_NE(framework_->scape(), nullptr);
  QueryEngine indexed = Engine();
  indexed.AttachScape(framework_->scape());
  for (Measure measure : {Measure::kCovariance, Measure::kDotProduct, Measure::kCorrelation,
                          Measure::kMean}) {
    for (const bool largest : {true, false}) {
      SCOPED_TRACE(std::string(MeasureName(measure)) + (largest ? " largest" : " smallest"));
      TopKRequest request{measure, 7, largest};
      request.min_quality = 0.5;
      auto wa = indexed.TopK(request, QueryMethod::kAffine);
      ASSERT_TRUE(wa.ok());
      EXPECT_GT(wa->quality.excluded, 0u);
      for (QueryMethod method : {QueryMethod::kAuto, QueryMethod::kScape}) {
        SCOPED_TRACE(std::string(QueryMethodName(method)));
        auto got = indexed.TopK(request, method);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got->plan.method, QueryMethod::kAffine);
        ExpectSameEntries(got->entries, wa->entries);
        EXPECT_EQ(got->examined, wa->examined);
        EXPECT_EQ(got->quality.excluded, wa->quality.excluded);
        EXPECT_EQ(got->quality.min_score, wa->quality.min_score);
      }
    }
  }
  // Without an index an explicit SCAPE top-k fails the same way with or
  // without the predicate: there is nothing to bypass.
  const QueryEngine bare = Engine();
  TopKRequest request{Measure::kCovariance, 7, true};
  const Status plain = bare.TopK(request, QueryMethod::kScape).status();
  request.min_quality = 0.5;
  const Status filtered = bare.TopK(request, QueryMethod::kScape).status();
  EXPECT_EQ(plain.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(filtered.code(), plain.code());
  EXPECT_EQ(filtered.message(), plain.message());
}

}  // namespace
}  // namespace affinity::core
