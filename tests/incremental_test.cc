// Equivalence tests for incremental sliding-window maintenance
// (core/incremental, DESIGN.md §8).
//
// Contract under test: after any sequence of appends, the incrementally
// maintained snapshot answers MET/MER/MEC/top-k identically — same entity
// sets, same order — to a from-scratch SYMEX+ + SCAPE rebuild over the
// same window and the same (frozen, linearly extended) clustering.
// Moments and measures (per-series stats, pivot measures, series-level
// relationships, centre L-measures) are bit-identical; delta-updated
// transforms stay within the core/quality gates, and with
// exact_refit_period = 1 the *entire* maintained model is bit-identical.
// All of it holds at 1, 2, and 8 threads.

#include "core/incremental.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/quality.h"
#include "core/streaming.h"
#include "ts/generators.h"

namespace affinity::core {
namespace {

constexpr std::size_t kWindow = 48;
constexpr std::size_t kSeries = 12;

ts::Dataset FeedData() {
  ts::DatasetSpec spec;
  spec.num_series = kSeries;
  spec.num_samples = 400;
  spec.num_clusters = 3;
  spec.noise_level = 0.05;
  spec.seed = 17;
  return ts::MakeSensorData(spec);
}

StatusOr<StreamingAffinity> MakeStream(std::size_t threads, std::size_t interval,
                                       std::size_t refit_period) {
  std::vector<std::string> names;
  for (std::size_t j = 0; j < kSeries; ++j) names.push_back("s" + std::to_string(j));
  StreamingOptions options;
  options.window = kWindow;
  options.rebuild_interval = interval;
  options.mode = UpdateMode::kIncremental;
  options.incremental.exact_refit_period = refit_period;
  // Keep the drift monitor out of the way: these tests compare against a
  // same-clustering rebuild, so escalation would only change the baseline.
  options.incremental.escalation_factor = 100.0;
  options.incremental.escalation_slack = 100.0;
  options.build.afclst.k = 3;
  options.build.build_dft = false;
  options.build.threads = threads;
  return StreamingAffinity::Create(names, options);
}

Status FeedRows(StreamingAffinity* stream, const ts::Dataset& ds, std::size_t begin,
                std::size_t end) {
  std::vector<double> row(ds.matrix.n());
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = ds.matrix.matrix()(i, j);
    AFFINITY_RETURN_IF_ERROR(stream->Append(row).status);
  }
  return Status::OK();
}

/// An engine over `model` with WA and a SCAPE index built over the model.
/// A stream builds no index, so its maintained model's kScape rows are
/// answered by one of these too.
struct IndexedEngine {
  ScapeIndex index;
  QueryEngine engine;

  IndexedEngine(const AffinityModel& model, ScapeIndex idx, const ExecContext& exec)
      : index(std::move(idx)), engine(&model.data()) {
    engine.AttachModel(&model);
    engine.AttachScape(&index);
    engine.SetExec(exec);
  }
};

StatusOr<std::unique_ptr<IndexedEngine>> IndexModel(const AffinityModel& model,
                                                    const ExecContext& exec) {
  AFFINITY_ASSIGN_OR_RETURN(ScapeIndex index, ScapeIndex::Build(model, exec));
  return std::make_unique<IndexedEngine>(model, std::move(index), exec);
}

/// The from-scratch comparator: SYMEX+ over the incremental snapshot's
/// window with the incremental snapshot's (extended) clustering, plus a
/// fresh SCAPE index — what a full rebuild would produce had AFCLST
/// returned the maintained clustering.
struct Comparator {
  AffinityModel model;
  std::unique_ptr<IndexedEngine> indexed;
};

StatusOr<std::unique_ptr<Comparator>> BuildComparator(const Affinity& fw,
                                                      const ExecContext& exec) {
  AfclstResult clustering;
  clustering.centers = fw.model().clustering().centers;
  clustering.assignment = fw.model().clustering().assignment;
  clustering.iterations = fw.model().clustering().iterations;
  clustering.projection_errors = fw.model().clustering().projection_errors;
  AFFINITY_ASSIGN_OR_RETURN(AffinityModel model,
                            RunSymex(fw.data(), std::move(clustering), SymexOptions{}, exec));
  auto comparator = std::make_unique<Comparator>(Comparator{std::move(model), nullptr});
  AFFINITY_ASSIGN_OR_RETURN(comparator->indexed, IndexModel(comparator->model, exec));
  return comparator;
}

/// Bit-identical moments and measures; transforms bitwise when `exact`,
/// within tight quality gates otherwise.
void CompareModels(const AffinityModel& inc, const AffinityModel& fresh, bool exact) {
  ASSERT_EQ(inc.relationship_count(), fresh.relationship_count());
  ASSERT_EQ(inc.pivot_count(), fresh.pivot_count());
  ASSERT_EQ(inc.data().m(), fresh.data().m());
  ASSERT_EQ(inc.data().n(), fresh.data().n());

  // The window itself.
  EXPECT_EQ(inc.data().matrix().MaxAbsDiff(fresh.data().matrix()), 0.0);

  // Per-series moments: bit-identical.
  for (std::size_t j = 0; j < inc.data().n(); ++j) {
    const auto v = static_cast<ts::SeriesId>(j);
    EXPECT_EQ(inc.series_stats(v).mean, fresh.series_stats(v).mean);
    EXPECT_EQ(inc.series_stats(v).variance, fresh.series_stats(v).variance);
    EXPECT_EQ(inc.series_stats(v).sum, fresh.series_stats(v).sum);
    EXPECT_EQ(inc.series_stats(v).sumsq, fresh.series_stats(v).sumsq);
    EXPECT_EQ(inc.series_affine(v).gain, fresh.series_affine(v).gain);
    EXPECT_EQ(inc.series_affine(v).offset, fresh.series_affine(v).offset);
  }

  // Centre L-measures: bit-identical.
  for (const Measure m : LocationMeasures()) {
    for (std::size_t l = 0; l < inc.clustering().k(); ++l) {
      EXPECT_EQ(*inc.CenterLocation(m, static_cast<int>(l)),
                *fresh.CenterLocation(m, static_cast<int>(l)));
    }
  }

  // Pivot measures: bit-identical.
  fresh.ForEachPivot([&](const PivotPair& p, const PairMatrixMeasures& fm) {
    const PairMatrixMeasures* im = inc.FindPivotMeasures(p);
    ASSERT_NE(im, nullptr);
    EXPECT_EQ(im->cov11, fm.cov11);
    EXPECT_EQ(im->cov12, fm.cov12);
    EXPECT_EQ(im->cov22, fm.cov22);
    EXPECT_EQ(im->dot11, fm.dot11);
    EXPECT_EQ(im->dot12, fm.dot12);
    EXPECT_EQ(im->dot22, fm.dot22);
    EXPECT_EQ(im->h1, fm.h1);
    EXPECT_EQ(im->h2, fm.h2);
    EXPECT_EQ(im->mean[0], fm.mean[0]);
    EXPECT_EQ(im->mean[1], fm.mean[1]);
    EXPECT_EQ(im->median[0], fm.median[0]);
    EXPECT_EQ(im->median[1], fm.median[1]);
    EXPECT_EQ(im->mode[0], fm.mode[0]);
    EXPECT_EQ(im->mode[1], fm.mode[1]);
  });

  // Relationships: same structure; transforms bitwise in exact mode,
  // within tight gates otherwise (delta-updated accumulators).
  double max_diff = 0.0;
  fresh.ForEachRelationship([&](const ts::SequencePair& e, const AffineRecord& fr) {
    const AffineRecord* ir = inc.FindRelationship(e);
    ASSERT_NE(ir, nullptr);
    EXPECT_EQ(ir->pivot.Key(), fr.pivot.Key());
    const double diffs[6] = {
        std::fabs(ir->transform.a11 - fr.transform.a11),
        std::fabs(ir->transform.a21 - fr.transform.a21),
        std::fabs(ir->transform.a12 - fr.transform.a12),
        std::fabs(ir->transform.a22 - fr.transform.a22),
        std::fabs(ir->transform.b1 - fr.transform.b1),
        std::fabs(ir->transform.b2 - fr.transform.b2),
    };
    for (double d : diffs) max_diff = std::max(max_diff, d);
  });
  if (exact) {
    EXPECT_EQ(max_diff, 0.0);
  } else {
    EXPECT_LT(max_diff, 1e-7);
  }
}

void ExpectSameSelection(const SelectionResult& a, const SelectionResult& b) {
  EXPECT_EQ(a.series, b.series);
  EXPECT_EQ(a.pairs, b.pairs);
}

/// MET/MER/MEC/top-k answers: same entity sets and order on both engines.
void CompareQueries(const QueryEngine& inc, const QueryEngine& fresh, bool exact) {
  const double value_tol = exact ? 0.0 : 1e-9;

  for (const QueryMethod method : {QueryMethod::kScape, QueryMethod::kAffine}) {
    for (const Measure m : {Measure::kCorrelation, Measure::kCovariance, Measure::kCosine,
                            Measure::kDotProduct}) {
      MetRequest met{m, m == Measure::kCorrelation || m == Measure::kCosine ? 0.85 : 0.01,
                     true};
      auto ia = inc.Met(met, method);
      auto fa = fresh.Met(met, method);
      ASSERT_TRUE(ia.ok() && fa.ok());
      ExpectSameSelection(*ia, *fa);
    }
  }
  // L-measure MET through the index.
  MetRequest loc{Measure::kMean, 0.0, true};
  auto il = inc.Met(loc, QueryMethod::kScape);
  auto fl = fresh.Met(loc, QueryMethod::kScape);
  ASSERT_TRUE(il.ok() && fl.ok());
  ExpectSameSelection(*il, *fl);

  MerRequest mer{Measure::kCorrelation, 0.3, 0.9};
  auto im = inc.Mer(mer, QueryMethod::kScape);
  auto fm = fresh.Mer(mer, QueryMethod::kScape);
  ASSERT_TRUE(im.ok() && fm.ok());
  ExpectSameSelection(*im, *fm);

  // MEC over a subset: L-measure values bit-identical (exact moments);
  // pair values through the (possibly delta-updated) transforms.
  MecRequest mec{Measure::kMean, {0, 3, 5, 7}};
  auto imec = inc.Mec(mec, QueryMethod::kAffine);
  auto fmec = fresh.Mec(mec, QueryMethod::kAffine);
  ASSERT_TRUE(imec.ok() && fmec.ok());
  ASSERT_EQ(imec->location.size(), fmec->location.size());
  for (std::size_t i = 0; i < imec->location.size(); ++i) {
    EXPECT_EQ(imec->location[i], fmec->location[i]);
  }
  MecRequest mec_pair{Measure::kCorrelation, {0, 3, 5, 7}};
  auto ip = inc.Mec(mec_pair, QueryMethod::kAffine);
  auto fp = fresh.Mec(mec_pair, QueryMethod::kAffine);
  ASSERT_TRUE(ip.ok() && fp.ok());
  EXPECT_LE(ip->pair_values.MaxAbsDiff(fp->pair_values), value_tol);

  // Top-k, both directions.
  for (const bool largest : {true, false}) {
    TopKRequest topk{Measure::kCorrelation, 5, largest};
    auto it = inc.TopK(topk, QueryMethod::kScape);
    auto ft = fresh.TopK(topk, QueryMethod::kScape);
    ASSERT_TRUE(it.ok() && ft.ok());
    ASSERT_EQ(it->entries.size(), ft->entries.size());
    for (std::size_t i = 0; i < it->entries.size(); ++i) {
      EXPECT_EQ(it->entries[i].pair, ft->entries[i].pair) << "rank " << i;
      EXPECT_EQ(it->entries[i].series, ft->entries[i].series) << "rank " << i;
      EXPECT_NEAR(it->entries[i].value, ft->entries[i].value, value_tol) << "rank " << i;
    }
  }
}

/// Compares the stream's maintained model with `comparator`: the models,
/// then every query over both, SCAPE built over each.
void CompareStream(const StreamingAffinity& stream, const Comparator& comparator, bool exact) {
  CompareModels(stream.framework()->model(), comparator.model, exact);
  auto maintained = IndexModel(stream.framework()->model(), stream.exec());
  ASSERT_TRUE(maintained.ok());
  CompareQueries((*maintained)->engine, comparator.indexed->engine, exact);
}

class IncrementalEquivalence : public ::testing::TestWithParam<int> {};

// The headline contract, at every thread count: slide by 1, 2, and 8 rows
// per refresh; after each refresh the maintained snapshot must agree with
// a from-scratch rebuild over the same window.
TEST_P(IncrementalEquivalence, MatchesFromScratchRebuildAcrossSlides) {
  const auto threads = static_cast<std::size_t>(GetParam());
  const ts::Dataset ds = FeedData();
  for (const std::size_t interval : {1u, 2u, 8u}) {
    auto stream = MakeStream(threads, interval, /*refit_period=*/16);
    ASSERT_TRUE(stream.ok());
    ASSERT_TRUE(FeedRows(&*stream, ds, 0, kWindow).ok());
    ASSERT_TRUE(stream->ready());
    std::size_t fed = kWindow;
    for (int refresh = 0; refresh < 4; ++refresh) {
      ASSERT_TRUE(FeedRows(&*stream, ds, fed, fed + interval).ok());
      fed += interval;
      ASSERT_EQ(stream->snapshot_age(), 0u);
      auto comparator = BuildComparator(*stream->framework(), stream->exec());
      ASSERT_TRUE(comparator.ok());
      CompareStream(*stream, **comparator, /*exact=*/false);
    }
  }
}

// With exact_refit_period = 1 every accumulator re-materializes each
// refresh: the whole maintained model — transforms included — and every
// query answer must be bit-identical to the from-scratch rebuild.
TEST_P(IncrementalEquivalence, ExactRefitEveryRefreshIsBitIdentical) {
  const auto threads = static_cast<std::size_t>(GetParam());
  const ts::Dataset ds = FeedData();
  auto stream = MakeStream(threads, /*interval=*/4, /*refit_period=*/1);
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(FeedRows(&*stream, ds, 0, kWindow + 12).ok());
  ASSERT_EQ(stream->refresh_count(), 3u);
  auto comparator = BuildComparator(*stream->framework(), stream->exec());
  ASSERT_TRUE(comparator.ok());
  CompareStream(*stream, **comparator, /*exact=*/true);
}

// Sliding by more than the whole window (interval > window) degenerates to
// "replace everything" and must still agree with the rebuild.
TEST_P(IncrementalEquivalence, SlideLargerThanWindow) {
  const auto threads = static_cast<std::size_t>(GetParam());
  const ts::Dataset ds = FeedData();
  auto stream = MakeStream(threads, /*interval=*/kWindow + 16, /*refit_period=*/16);
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(FeedRows(&*stream, ds, 0, 2 * kWindow + 32).ok());
  ASSERT_EQ(stream->refresh_count(), 1u);
  auto comparator = BuildComparator(*stream->framework(), stream->exec());
  ASSERT_TRUE(comparator.ok());
  // A full-window slide refits everything exactly: bit-identical.
  CompareStream(*stream, **comparator, /*exact=*/true);
}

INSTANTIATE_TEST_SUITE_P(Threads, IncrementalEquivalence, ::testing::Values(1, 2, 8));

// Thread-count invariance of the maintained model itself (§7): the
// incremental path at 2 and 8 threads produces the bitwise-same model as
// at 1 thread.
TEST(IncrementalDeterminism, SameModelAtAnyThreadCount) {
  const ts::Dataset ds = FeedData();
  auto reference = MakeStream(1, /*interval=*/2, /*refit_period=*/8);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(FeedRows(&*reference, ds, 0, kWindow + 10).ok());
  for (const std::size_t threads : {2u, 8u}) {
    auto stream = MakeStream(threads, /*interval=*/2, /*refit_period=*/8);
    ASSERT_TRUE(stream.ok());
    ASSERT_TRUE(FeedRows(&*stream, ds, 0, kWindow + 10).ok());
    CompareModels(stream->framework()->model(), reference->framework()->model(),
                  /*exact=*/true);
  }
}

// The delta-updated model stays inside the core/quality gates the full
// rebuild satisfies: residual statistics match the from-scratch model's
// to far below the gate's own scale.
TEST(IncrementalQuality, StaysWithinQualityGates) {
  const ts::Dataset ds = FeedData();
  auto stream = MakeStream(1, /*interval=*/1, /*refit_period=*/32);
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(FeedRows(&*stream, ds, 0, kWindow + 20).ok());
  auto comparator = BuildComparator(*stream->framework(), stream->exec());
  ASSERT_TRUE(comparator.ok());
  auto inc_quality = EvaluateModelQuality(stream->framework()->model());
  auto fresh_quality = EvaluateModelQuality((*comparator)->model);
  ASSERT_TRUE(inc_quality.ok() && fresh_quality.ok());
  EXPECT_NEAR(inc_quality->mean_relative_residual, fresh_quality->mean_relative_residual,
              1e-9);
  EXPECT_NEAR(inc_quality->max_relative_residual, fresh_quality->max_relative_residual, 1e-9);
}

}  // namespace
}  // namespace affinity::core
