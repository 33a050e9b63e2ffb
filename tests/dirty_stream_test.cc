// End-to-end dirty-stream tests (DESIGN.md §12): the ISSUE acceptance
// scenario (a stream with gaps/NaNs in up to 20% of samples aligned,
// built, slid 200 rows and queried at 1/2/8 threads with finite answers
// and a populated quality surface), the non-finite ingestion guards on
// the dense entry points, quality predicates on every query type,
// AFCLST pivot-quality exclusion, and the fault-injected maintenance
// recovery path.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/framework.h"
#include "core/streaming.h"
#include "ts/generators.h"
#include "ts/ingest.h"

namespace affinity::core {
namespace {

std::vector<std::string> Names(std::size_t n) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back("s" + std::to_string(i));
  return out;
}

ts::Dataset TestData(std::size_t samples, std::uint64_t seed = 12) {
  ts::DatasetSpec spec;
  spec.num_series = 10;
  spec.num_samples = samples;
  spec.num_clusters = 2;
  spec.noise_level = 0.02;
  spec.seed = seed;
  return ts::MakeSensorData(spec);
}

StreamingOptions DirtyOptions(std::size_t threads) {
  StreamingOptions options;
  options.window = 64;
  options.rebuild_interval = 16;
  options.build.afclst.k = 2;
  options.build.build_dft = false;
  options.build.threads = threads;
  return options;
}

/// Feeds the dataset through a StreamAligner, corrupting ~`dirty_pct` of
/// the samples: a third of the corruptions arrive as NaN (dropped at the
/// aligner, slot stays a gap), the rest are silently skipped pushes
/// (missing samples that forward-fill or gap out by age).
struct DirtyFeedStats {
  std::size_t corrupted = 0;
  std::size_t total = 0;
};

DirtyFeedStats FeedDirty(StreamingAffinity* stream, const ts::Dataset& ds, double dirty_pct,
                         std::uint64_t seed) {
  const std::size_t n = ds.matrix.n();
  ts::IngestOptions iopts;
  iopts.max_fill = 4;
  ts::StreamAligner aligner(n, iopts);
  Xoshiro256 rng(seed);
  DirtyFeedStats stats;
  std::vector<ts::AlignedRow> rows;
  for (std::size_t i = 0; i < ds.matrix.m(); ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      ++stats.total;
      const bool corrupt = rng.Uniform(0.0, 1.0) < dirty_pct;
      if (corrupt) {
        ++stats.corrupted;
        if (rng.NextBounded(3) == 0) {
          // A NaN sample: the aligner must absorb it as a gap.
          EXPECT_TRUE(aligner.Push(j, static_cast<double>(i), std::nan("")).ok());
        }
        // else: the sample simply never arrives.
        continue;
      }
      EXPECT_TRUE(aligner.Push(j, static_cast<double>(i), ds.matrix.matrix()(i, j)).ok());
    }
    rows.clear();
    aligner.EmitUpTo(static_cast<double>(i + 1), &rows);
    for (const ts::AlignedRow& row : rows) {
      const AppendResult r = stream->AppendMasked(row);
      EXPECT_TRUE(r.ok()) << r.status.message();
    }
  }
  return stats;
}

// --- The ISSUE acceptance scenario ----------------------------------------

class DirtyStreamAcceptance : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DirtyStreamAcceptance, BuildsSlidesAndAnswersWithFiniteValues) {
  const std::size_t threads = GetParam();
  // window 64 + 200 slides, 20% of samples dirty.
  const ts::Dataset ds = TestData(64 + 200);
  auto stream = StreamingAffinity::Create(Names(10), DirtyOptions(threads));
  ASSERT_TRUE(stream.ok());
  const DirtyFeedStats fed = FeedDirty(&*stream, ds, 0.20, 777 + threads);
  EXPECT_GT(fed.corrupted, 0u);

  ASSERT_TRUE(stream->ready());
  EXPECT_EQ(stream->rows_ingested(), 264u);

  // The dense window the engine built over must be all-finite even though
  // a fifth of the samples never arrived (fills and finite gap carriers).
  const ts::DataMatrix& snap = stream->framework()->data();
  for (std::size_t i = 0; i < snap.m(); ++i) {
    for (std::size_t j = 0; j < snap.n(); ++j) {
      ASSERT_TRUE(std::isfinite(snap.matrix()(i, j))) << i << "," << j;
    }
  }

  // The quality surface is populated: every score finite in [0, 1], and
  // at least one series shows degradation from the corruption.
  const std::vector<double>& scores = stream->quality_scores();
  ASSERT_EQ(scores.size(), 10u);
  double min_score = 1.0;
  for (const double s : scores) {
    ASSERT_TRUE(std::isfinite(s));
    ASSERT_GE(s, 0.0);
    ASSERT_LE(s, 1.0);
    min_score = std::min(min_score, s);
  }
  EXPECT_LT(min_score, 1.0);
  const StatusOr<ts::SeriesQuality> quality0 = stream->series_quality(0);
  ASSERT_TRUE(quality0.ok());
  const ts::SeriesQuality& q0 = *quality0;
  EXPECT_EQ(q0.length, 64u);
  // The published surface is as-of the last refresh (row 256 here); the
  // live tracker has absorbed the rows since. Both agree with their own
  // composite formula.
  EXPECT_EQ(q0.score, stream->quality().Scores()[0]);

  // MET: finite answer, quality stamp populated.
  MetRequest met{Measure::kCorrelation, 0.5, true};
  const auto met_got = stream->Met(met);
  ASSERT_TRUE(met_got.ok());
  EXPECT_TRUE(met_got->quality.populated);
  EXPECT_GE(met_got->quality.min_score, 0.0);
  EXPECT_LE(met_got->quality.min_score, 1.0);

  // MER: finite bounds behave.
  MerRequest mer{Measure::kCorrelation, 0.2, 0.9};
  const auto mer_got = stream->Mer(mer);
  ASSERT_TRUE(mer_got.ok());
  EXPECT_TRUE(mer_got->quality.populated);

  // Top-k: every reported value finite.
  TopKRequest topk{Measure::kCorrelation, 5, true};
  const auto topk_got = stream->TopK(topk);
  ASSERT_TRUE(topk_got.ok());
  ASSERT_EQ(topk_got->entries.size(), 5u);
  for (const auto& e : topk_got->entries) {
    EXPECT_TRUE(std::isfinite(e.value));
  }
  EXPECT_TRUE(topk_got->quality.populated);

  // MEC over a subset: all pair values finite.
  MecRequest mec{Measure::kCorrelation, {0, 1, 2}};
  const auto mec_got = stream->Mec(mec);
  ASSERT_TRUE(mec_got.ok());
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_TRUE(std::isfinite(mec_got->pair_values(i, j)));
    }
  }
  EXPECT_TRUE(mec_got->quality.populated);
}

INSTANTIATE_TEST_SUITE_P(Threads, DirtyStreamAcceptance, ::testing::Values(1, 2, 8));

TEST(DirtyStream, QualityPredicateFiltersAnswers) {
  const ts::Dataset ds = TestData(64 + 200);
  auto stream = StreamingAffinity::Create(Names(10), DirtyOptions(1));
  ASSERT_TRUE(stream.ok());
  FeedDirty(&*stream, ds, 0.20, 4242);
  ASSERT_TRUE(stream->ready());

  const std::vector<double>& scores = stream->quality_scores();
  // Pick a threshold between the worst and best score so the predicate
  // actually separates the series.
  double lo = 1.0, hi = 0.0;
  for (const double s : scores) {
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  ASSERT_LT(lo, hi);
  const double threshold = 0.5 * (lo + hi);
  std::size_t eligible = 0;
  for (const double s : scores) eligible += s >= threshold ? 1 : 0;
  ASSERT_GT(eligible, 0u);
  ASSERT_LT(eligible, scores.size());

  // MET with the predicate: every surviving pair has both endpoints at or
  // above the threshold, and the unfiltered answer is a superset.
  MetRequest met{Measure::kCorrelation, -2.0, true};  // keep everything
  const auto all = stream->Met(met);
  ASSERT_TRUE(all.ok());
  met.min_quality = threshold;
  const auto filtered = stream->Met(met);
  ASSERT_TRUE(filtered.ok());
  EXPECT_LT(filtered->pairs.size(), all->pairs.size());
  EXPECT_EQ(all->pairs.size() - filtered->pairs.size(), filtered->quality.excluded);
  for (const auto& p : filtered->pairs) {
    EXPECT_GE(scores[p.u], threshold);
    EXPECT_GE(scores[p.v], threshold);
  }
  EXPECT_GE(filtered->quality.min_score, threshold);
  // The plan records the exclusion.
  EXPECT_NE(filtered->plan.rationale.find("quality"), std::string::npos);

  // Top-k under the predicate: only eligible endpoints compete.
  TopKRequest topk{Measure::kCorrelation, 5, true};
  topk.min_quality = threshold;
  const auto topk_got = stream->TopK(topk);
  ASSERT_TRUE(topk_got.ok());
  for (const auto& e : topk_got->entries) {
    EXPECT_GE(scores[e.pair.u], threshold);
    EXPECT_GE(scores[e.pair.v], threshold);
  }

  // MEC: requesting a below-threshold id is a FailedPrecondition (the
  // response is id-aligned; silent exclusion is not an option).
  ts::SeriesId bad = 0;
  for (std::size_t j = 0; j < scores.size(); ++j) {
    if (scores[j] < threshold) bad = static_cast<ts::SeriesId>(j);
  }
  MecRequest mec{Measure::kCorrelation, {bad}};
  mec.min_quality = threshold;
  EXPECT_EQ(stream->Mec(mec).status().code(), StatusCode::kFailedPrecondition);
}

TEST(DirtyStream, AfclstExcludesLowQualityPivots) {
  // Corrupt two series heavily and ask the build to keep them out of the
  // centre updates: the clustering still assigns them, and the build
  // succeeds with finite centres.
  const ts::Dataset ds = TestData(64 + 40);
  StreamingOptions options = DirtyOptions(1);
  options.build.afclst.min_center_quality = 0.6;
  auto stream = StreamingAffinity::Create(Names(10), options);
  ASSERT_TRUE(stream.ok());

  const std::size_t n = ds.matrix.n();
  ts::IngestOptions iopts;
  iopts.max_fill = 2;
  ts::StreamAligner aligner(n, iopts);
  Xoshiro256 rng(99);
  std::vector<ts::AlignedRow> rows;
  for (std::size_t i = 0; i < ds.matrix.m(); ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      // Series 0 and 1 lose 60% of their samples; the rest are clean.
      if (j < 2 && rng.Uniform(0.0, 1.0) < 0.6) continue;
      ASSERT_TRUE(aligner.Push(j, static_cast<double>(i), ds.matrix.matrix()(i, j)).ok());
    }
    rows.clear();
    aligner.EmitUpTo(static_cast<double>(i + 1), &rows);
    for (const ts::AlignedRow& row : rows) ASSERT_TRUE(stream->AppendMasked(row).ok());
  }
  ASSERT_TRUE(stream->ready());
  const std::vector<double>& scores = stream->quality_scores();
  EXPECT_LT(scores[0], 0.6);
  EXPECT_LT(scores[1], 0.6);

  // Every series — including the dirty ones — still has a cluster.
  const AfclstResult& clusters = stream->framework()->model().clustering();
  ASSERT_EQ(clusters.assignment.size(), 10u);
  for (const int a : clusters.assignment) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 2);
  }
  for (std::size_t l = 0; l < clusters.centers.cols(); ++l) {
    for (std::size_t i = 0; i < clusters.centers.rows(); ++i) {
      EXPECT_TRUE(std::isfinite(clusters.centers(i, l)));
    }
  }
}

// --- Satellite (a): non-finite guards on the dense entry points -----------

TEST(DirtyStream, AppendRejectsNonFiniteWithoutMutatingState) {
  auto stream = StreamingAffinity::Create(Names(10), DirtyOptions(1));
  ASSERT_TRUE(stream.ok());
  std::vector<double> row(10, 1.0);
  ASSERT_TRUE(stream->Append(row).ok());

  row[3] = std::nan("");
  AppendResult r = stream->Append(row);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  row[3] = INFINITY;
  r = stream->Append(row);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  row[3] = -INFINITY;
  r = stream->Append(row);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);

  // Nothing mutated: the rejected rows were not ingested.
  EXPECT_EQ(stream->rows_ingested(), 1u);
  EXPECT_EQ(stream->quality().size(), 1u);

  // AppendMasked validates mask shapes too.
  row[3] = 1.0;
  r = stream->AppendMasked(row, std::vector<std::uint8_t>(9, 1), std::vector<std::uint8_t>(10, 0));
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  // And rejects non-finite repaired values (the aligner never emits them).
  row[3] = std::nan("");
  r = stream->AppendMasked(row, std::vector<std::uint8_t>(10, 1), std::vector<std::uint8_t>(10, 0));
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(stream->rows_ingested(), 1u);
}

TEST(DirtyStream, BuildRejectsNonFiniteData) {
  ts::Dataset ds = TestData(64);
  AffinityOptions options;
  options.afclst.k = 2;
  options.build_dft = false;

  ts::DataMatrix dirty = ds.matrix;
  dirty.mutable_matrix()(10, 3) = std::nan("");
  auto build = Affinity::Build(dirty, options);
  EXPECT_EQ(build.status().code(), StatusCode::kInvalidArgument);

  dirty.mutable_matrix()(10, 3) = INFINITY;
  build = Affinity::Build(dirty, options);
  EXPECT_EQ(build.status().code(), StatusCode::kInvalidArgument);

  // The clean matrix still builds.
  EXPECT_TRUE(Affinity::Build(ds.matrix, options).ok());
}

// --- Satellite (b): fault-injected maintenance recovery -------------------

TEST(DirtyStream, InjectedMaintenanceFailureEscalatesAndHeals) {
  const ts::Dataset ds = TestData(300, 21);
  StreamingOptions options = DirtyOptions(1);
  options.mode = UpdateMode::kIncremental;
  auto stream = StreamingAffinity::Create(Names(10), options);
  ASSERT_TRUE(stream.ok());

  // Injection is meaningless before the first build (no maintainer yet).
  EXPECT_EQ(stream->InjectMaintenanceFailureForTesting(1).code(),
            StatusCode::kFailedPrecondition);

  std::vector<double> row(10);
  std::size_t fed = 0;
  const auto feed = [&](std::size_t count) {
    AppendResult last;
    for (std::size_t i = 0; i < count; ++i, ++fed) {
      for (std::size_t j = 0; j < 10; ++j) row[j] = ds.matrix.matrix()(fed, j);
      last = stream->Append(row);
      EXPECT_TRUE(last.ok()) << last.status.message();
    }
    return last;
  };

  // First build at the window, one incremental refresh after.
  feed(64 + 16);
  ASSERT_TRUE(stream->ready());
  const std::size_t rebuilds_before = stream->rebuild_count();
  const std::size_t escalations_before = stream->maintenance().escalations;

  // Arm a failure: the next refresh must escalate to a full rebuild and
  // still report a successful, refreshed append.
  ASSERT_TRUE(stream->InjectMaintenanceFailureForTesting(1).ok());
  const AppendResult refreshed = feed(16);
  EXPECT_TRUE(refreshed.ok());
  EXPECT_TRUE(refreshed.refreshed);
  EXPECT_TRUE(refreshed.escalated);
  EXPECT_EQ(stream->rebuild_count(), rebuilds_before + 1);
  EXPECT_EQ(stream->maintenance().escalations, escalations_before + 1);

  // The healed stream answers exactly like a from-scratch build over the
  // same window, asked with the method the healed epoch planned: no wrong
  // answers survive the recovery.
  const std::size_t window_start = stream->rows_ingested() - 64;
  la::Matrix tail(64, 10);
  for (std::size_t i = 0; i < 64; ++i) {
    for (std::size_t j = 0; j < 10; ++j) tail(i, j) = ds.matrix.matrix()(window_start + i, j);
  }
  auto oracle = Affinity::Build(ts::DataMatrix(std::move(tail), Names(10)), options.build);
  ASSERT_TRUE(oracle.ok());
  MetRequest met{Measure::kCorrelation, 0.5, true};
  const auto healed = stream->Met(met);
  ASSERT_TRUE(healed.ok());
  const auto want = oracle->engine().Met(met, healed->plan.method);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(healed->pairs.size(), want->pairs.size());
  for (std::size_t i = 0; i < want->pairs.size(); ++i) {
    EXPECT_EQ(healed->pairs[i].u, want->pairs[i].u);
    EXPECT_EQ(healed->pairs[i].v, want->pairs[i].v);
  }

  // Subsequent refreshes run incrementally again (the armed count is
  // consumed).
  const AppendResult next = feed(16);
  EXPECT_TRUE(next.ok());
  EXPECT_TRUE(next.refreshed);
  EXPECT_FALSE(next.escalated);
}

}  // namespace
}  // namespace affinity::core
