// Tests for the dirty-stream ingestion layer (ts/ingest.h, DESIGN.md
// §12): grid snapping, duplicate/late/non-finite handling, the forward-
// fill horizon and explicit-gap semantics of the aligner, and the
// QualityTracker's structural stats and composite score — checked field
// by field, doubles with ==, against a full rescan of the window at
// every push and at every publication of a dirty stream.

#include "ts/ingest.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/streaming.h"
#include "ts/generators.h"

namespace affinity::ts {
namespace {

/// One row as the tracker saw it; empty masks mean fully observed.
struct FeedRow {
  std::vector<double> values;
  std::vector<std::uint8_t> valid;
  std::vector<std::uint8_t> filled;
};

/// The oracle: a full rescan of series `j` over rows [begin, end) — the
/// O(window) pass the incremental tracker replaces.
SeriesQuality RescanQuality(const std::vector<FeedRow>& rows, std::size_t begin,
                            std::size_t end, std::size_t j) {
  SeriesQuality q;
  q.length = end - begin;
  if (q.length == 0) return q;
  std::size_t gap_run = 0;
  std::size_t plateau = 0;
  double plateau_value = 0.0;
  bool have_prev = false;
  double zeros = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    const FeedRow& row = rows[i];
    const double value = row.values[j];
    const bool is_valid = row.valid.empty() || row.valid[j] != 0;
    const bool is_fill = is_valid && !row.filled.empty() && row.filled[j] != 0;
    if (!is_valid) {
      ++q.gaps;
      if (gap_run == 0) ++q.gap_runs;
      ++gap_run;
      q.longest_gap = std::max(q.longest_gap, gap_run);
    } else {
      gap_run = 0;
      if (is_fill) {
        ++q.filled;
      } else {
        ++q.observed;
        if (value == 0.0) zeros += 1.0;
      }
    }
    if (have_prev && value == plateau_value) {
      ++plateau;
    } else {
      plateau = 1;
      plateau_value = value;
      have_prev = true;
    }
    q.longest_plateau = std::max(q.longest_plateau, plateau);
  }
  const double len = static_cast<double>(q.length);
  q.gap_ratio = static_cast<double>(q.gaps) / len;
  q.fill_ratio = static_cast<double>(q.filled) / len;
  q.intermittency = q.observed == 0 ? 0.0 : zeros / static_cast<double>(q.observed);
  q.score = CompositeQualityScore(q);
  return q;
}

/// Every field equal, doubles included (EXPECT_EQ, not a tolerance).
void ExpectSameQuality(const SeriesQuality& got, const SeriesQuality& want,
                       const std::string& where) {
  EXPECT_EQ(got.length, want.length) << where;
  EXPECT_EQ(got.observed, want.observed) << where;
  EXPECT_EQ(got.filled, want.filled) << where;
  EXPECT_EQ(got.gaps, want.gaps) << where;
  EXPECT_EQ(got.gap_runs, want.gap_runs) << where;
  EXPECT_EQ(got.longest_gap, want.longest_gap) << where;
  EXPECT_EQ(got.longest_plateau, want.longest_plateau) << where;
  EXPECT_EQ(got.gap_ratio, want.gap_ratio) << where;
  EXPECT_EQ(got.fill_ratio, want.fill_ratio) << where;
  EXPECT_EQ(got.intermittency, want.intermittency) << where;
  EXPECT_EQ(got.score, want.score) << where;
}

/// A seeded feed for `n` series. Each series walks through regimes: clean
/// observed values (some exactly 0.0 or −0.0, some repeating by chance),
/// and — with probability `dirt` per regime — a plateau, an outage (gap
/// cells carrying the last value, some with a stray filled bit or a
/// non-1 valid byte), a forward-fill stretch (filled zeros when the last
/// value was 0.0), or a run of 0.0/−0.0 observations. One dirty regime in
/// eight is longer than the window.
std::vector<FeedRow> DirtyFeed(std::size_t n, std::size_t rows, std::size_t window, double dirt,
                               std::uint64_t seed) {
  enum Regime { kClean, kPlateau, kOutage, kFill, kZeros };
  Xoshiro256 rng(seed);
  std::vector<Regime> regime(n, kClean);
  std::vector<std::size_t> left(n, 0);
  std::vector<double> last(n, 0.0);
  std::vector<FeedRow> out(rows);
  for (FeedRow& row : out) {
    row.values.resize(n);
    row.valid.resize(n);
    row.filled.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      if (left[j] == 0) {
        if (rng.Uniform(0.0, 1.0) >= dirt) {
          regime[j] = kClean;
          left[j] = 1 + rng.NextBounded(8);
        } else {
          regime[j] = static_cast<Regime>(1 + rng.NextBounded(4));
          left[j] = rng.NextBounded(8) == 0 ? window + 1 + rng.NextBounded(window + 3)
                                            : 1 + rng.NextBounded(6);
        }
      }
      --left[j];
      double value = last[j];
      std::uint8_t valid = 1;
      std::uint8_t filled = 0;
      switch (regime[j]) {
        case kClean: {
          const std::uint64_t pick = rng.NextBounded(10);
          value = pick == 0 ? 0.0 : pick == 1 ? -0.0 : pick == 2 ? 1.0 : rng.Uniform(-1.0, 1.0);
          break;
        }
        case kPlateau:
          break;
        case kOutage:
          valid = 0;
          filled = rng.NextBounded(4) == 0 ? 1 : 0;  // ignored on a gap
          break;
        case kFill:
          valid = rng.NextBounded(4) == 0 ? 7 : 1;  // any non-zero byte is valid
          filled = 1;
          break;
        case kZeros:
          value = rng.NextBounded(2) == 0 ? 0.0 : -0.0;
          break;
      }
      row.values[j] = value;
      row.valid[j] = valid;
      row.filled[j] = filled;
      last[j] = value;
    }
  }
  return out;
}

TEST(IngestOptions, Validation) {
  EXPECT_TRUE(ValidateIngestOptions({}).ok());
  IngestOptions bad_tick;
  bad_tick.tick = 0.0;
  EXPECT_FALSE(ValidateIngestOptions(bad_tick).ok());
  bad_tick.tick = -1.0;
  EXPECT_FALSE(ValidateIngestOptions(bad_tick).ok());
  IngestOptions bad_origin;
  bad_origin.origin = std::nan("");
  EXPECT_FALSE(ValidateIngestOptions(bad_origin).ok());
}

TEST(StreamAligner, SnapsObservationsOntoTheGrid) {
  IngestOptions opts;
  opts.origin = 100.0;
  opts.tick = 10.0;
  StreamAligner aligner(2, opts);
  // Slightly-skewed timestamps snap to the nearest slot and are counted.
  ASSERT_TRUE(aligner.Push(0, 100.4, 1.0).ok());   // slot 0
  ASSERT_TRUE(aligner.Push(1, 109.6, 2.0).ok());   // slot 1
  ASSERT_TRUE(aligner.Push(0, 110.0, 3.0).ok());   // slot 1, exactly on grid
  EXPECT_EQ(aligner.stats().snapped, 2u);

  std::vector<AlignedRow> rows;
  EXPECT_EQ(aligner.Flush(&rows), 2u);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].slot, 0);
  EXPECT_EQ(rows[0].values[0], 1.0);
  EXPECT_EQ(rows[0].valid[0], 1);
  EXPECT_EQ(rows[0].filled[0], 0);
  EXPECT_EQ(rows[1].values[0], 3.0);
  EXPECT_EQ(rows[1].values[1], 2.0);

  // Series 1 had nothing at slot 0: no prior observation → explicit gap
  // with a finite placeholder value.
  EXPECT_EQ(rows[0].valid[1], 0);
  EXPECT_EQ(rows[0].values[1], 0.0);
  EXPECT_TRUE(std::isfinite(rows[0].values[1]));
}

TEST(StreamAligner, RejectsBadPushes) {
  StreamAligner aligner(2, {});
  EXPECT_FALSE(aligner.Push(5, 0.0, 1.0).ok());                // unknown series
  EXPECT_FALSE(aligner.Push(0, std::nan(""), 1.0).ok());       // NaN timestamp
  EXPECT_FALSE(aligner.Push(0, -3.0, 1.0).ok());               // before the origin
}

TEST(StreamAligner, NonFiniteValuesBecomeGapsNotErrors) {
  StreamAligner aligner(1, {});
  ASSERT_TRUE(aligner.Push(0, 0.0, std::nan("")).ok());
  ASSERT_TRUE(aligner.Push(0, 1.0, INFINITY).ok());
  ASSERT_TRUE(aligner.Push(0, 2.0, 7.0).ok());
  EXPECT_EQ(aligner.stats().nonfinite, 2u);

  std::vector<AlignedRow> rows;
  aligner.Flush(&rows);
  ASSERT_EQ(rows.size(), 3u);
  // Slots 0 and 1 never saw a finite sample and nothing precedes them:
  // explicit gaps with a finite placeholder.
  EXPECT_EQ(rows[0].valid[0], 0);
  EXPECT_EQ(rows[1].valid[0], 0);
  EXPECT_TRUE(std::isfinite(rows[0].values[0]));
  EXPECT_EQ(rows[2].valid[0], 1);
  EXPECT_EQ(rows[2].values[0], 7.0);
}

TEST(StreamAligner, DuplicatesLatestWinsAndLateDropped) {
  StreamAligner aligner(1, {});
  ASSERT_TRUE(aligner.Push(0, 0.0, 1.0).ok());
  ASSERT_TRUE(aligner.Push(0, 0.0, 2.0).ok());  // duplicate slot, latest wins
  EXPECT_EQ(aligner.stats().duplicates, 1u);

  std::vector<AlignedRow> rows;
  EXPECT_EQ(aligner.EmitUpTo(1.0, &rows), 1u);
  EXPECT_EQ(rows[0].values[0], 2.0);
  EXPECT_EQ(aligner.watermark(), 1);

  // Slot 0 is behind the watermark now: a push there is late and dropped.
  ASSERT_TRUE(aligner.Push(0, 0.0, 99.0).ok());
  EXPECT_EQ(aligner.stats().late, 1u);
}

TEST(StreamAligner, OutOfOrderPushesAboveTheWatermarkLand) {
  StreamAligner aligner(1, {});
  ASSERT_TRUE(aligner.Push(0, 3.0, 30.0).ok());
  ASSERT_TRUE(aligner.Push(0, 1.0, 10.0).ok());  // earlier slot, still pending
  std::vector<AlignedRow> rows;
  aligner.Flush(&rows);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[1].values[0], 10.0);
  EXPECT_EQ(rows[1].valid[0], 1);
  EXPECT_EQ(rows[3].values[0], 30.0);
}

TEST(StreamAligner, ForwardFillsWithinHorizonThenGaps) {
  IngestOptions opts;
  opts.max_fill = 2;
  StreamAligner aligner(1, opts);
  ASSERT_TRUE(aligner.Push(0, 0.0, 5.0).ok());
  ASSERT_TRUE(aligner.Push(0, 6.0, 9.0).ok());

  std::vector<AlignedRow> rows;
  aligner.Flush(&rows);
  ASSERT_EQ(rows.size(), 7u);
  // Slot 0: observed. Slots 1-2: within the fill horizon → filled with
  // the last value. Slots 3-5: beyond → gaps (value still the last known
  // sample so dense kernels stay finite). Slot 6: observed again.
  EXPECT_EQ(rows[0].valid[0], 1);
  EXPECT_EQ(rows[0].filled[0], 0);
  for (int i = 1; i <= 2; ++i) {
    EXPECT_EQ(rows[i].valid[0], 1) << i;
    EXPECT_EQ(rows[i].filled[0], 1) << i;
    EXPECT_EQ(rows[i].values[0], 5.0) << i;
  }
  for (int i = 3; i <= 5; ++i) {
    EXPECT_EQ(rows[i].valid[0], 0) << i;
    EXPECT_EQ(rows[i].values[0], 5.0) << i;
  }
  EXPECT_EQ(rows[6].valid[0], 1);
  EXPECT_EQ(rows[6].values[0], 9.0);
  EXPECT_EQ(aligner.stats().fills, 2u);
  EXPECT_EQ(aligner.stats().gaps, 3u);
  EXPECT_EQ(aligner.stats().rows, 7u);
}

TEST(StreamAligner, EmitUpToIsExclusiveOfTheTimestampSlot) {
  StreamAligner aligner(1, {});
  ASSERT_TRUE(aligner.Push(0, 0.0, 1.0).ok());
  ASSERT_TRUE(aligner.Push(0, 5.0, 6.0).ok());
  std::vector<AlignedRow> rows;
  EXPECT_EQ(aligner.EmitUpTo(3.0, &rows), 3u);  // slots 0, 1, 2
  EXPECT_EQ(aligner.watermark(), 3);
  EXPECT_EQ(aligner.EmitUpTo(3.0, &rows), 0u);  // idempotent
  EXPECT_EQ(aligner.Flush(&rows), 3u);  // slots 3, 4, 5
}

TEST(QualityTracker, CleanWindowScoresPerfect) {
  QualityTracker tracker(2, 8);
  const double rows[4][2] = {{1, 5}, {2, 6}, {3, 7}, {4, 8}};
  for (const auto& r : rows) tracker.Push(r, nullptr, nullptr);
  const SeriesQuality q = tracker.Quality(0);
  EXPECT_EQ(q.length, 4u);
  EXPECT_EQ(q.observed, 4u);
  EXPECT_EQ(q.gaps, 0u);
  EXPECT_EQ(q.filled, 0u);
  EXPECT_EQ(q.longest_plateau, 1u);
  EXPECT_EQ(q.score, 1.0);
  EXPECT_EQ(tracker.Scores()[1], 1.0);
}

TEST(QualityTracker, CountsGapsFillsPlateausAndIntermittency) {
  QualityTracker tracker(1, 16);
  // observed 3, gap, gap, filled 3, observed 0, observed 4
  const double vals[] = {3, 3, 3, 3, 0, 4};
  const std::uint8_t valid[] = {1, 0, 0, 1, 1, 1};
  const std::uint8_t filled[] = {0, 0, 0, 1, 0, 0};
  for (std::size_t i = 0; i < 6; ++i) tracker.Push(&vals[i], &valid[i], &filled[i]);

  const SeriesQuality q = tracker.Quality(0);
  EXPECT_EQ(q.length, 6u);
  EXPECT_EQ(q.observed, 3u);
  EXPECT_EQ(q.filled, 1u);
  EXPECT_EQ(q.gaps, 2u);
  EXPECT_EQ(q.gap_runs, 1u);
  EXPECT_EQ(q.longest_gap, 2u);
  // Rows 0-3 all carry the value 3 (gap rows carry the last value).
  EXPECT_EQ(q.longest_plateau, 4u);
  EXPECT_DOUBLE_EQ(q.gap_ratio, 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(q.fill_ratio, 1.0 / 6.0);
  // One zero among three observed rows.
  EXPECT_DOUBLE_EQ(q.intermittency, 1.0 / 3.0);
  EXPECT_EQ(q.score, CompositeQualityScore(q));
  EXPECT_GT(q.score, 0.0);
  EXPECT_LT(q.score, 1.0);
}

TEST(QualityTracker, RingEvictsOldRowsAtTheWindow) {
  QualityTracker tracker(1, 4);
  const std::uint8_t invalid = 0;
  const std::uint8_t ok = 1;
  double v = 1.0;
  tracker.Push(&v, &invalid, nullptr);  // will be evicted
  for (int i = 0; i < 4; ++i) {
    v = 2.0 + i;
    tracker.Push(&v, &ok, nullptr);
  }
  const SeriesQuality q = tracker.Quality(0);
  EXPECT_EQ(q.length, 4u);
  EXPECT_EQ(q.gaps, 0u);  // the gap row fell out of the window
  EXPECT_EQ(q.observed, 4u);
  EXPECT_EQ(q.score, 1.0);
}

TEST(CompositeQualityScoreFormula, MatchesTheDocumentedFormula) {
  SeriesQuality q;
  EXPECT_EQ(CompositeQualityScore(q), 1.0);  // empty window

  q.length = 10;
  q.observed = 6;
  q.filled = 2;
  q.gaps = 2;
  q.longest_plateau = 4;
  q.intermittency = 0.5;
  const double completeness = 0.8;
  const double observed_frac = 0.6;
  const double base = 0.5 * (completeness + observed_frac);
  // plateau_ratio counts only the excess run: (4 - 1) / 10.
  const double want = base * (1.0 - 0.5 * 0.3) * (1.0 - 0.25 * 0.5);
  EXPECT_DOUBLE_EQ(CompositeQualityScore(q), want);

  // All-gap window clamps to 0.
  SeriesQuality dead;
  dead.length = 10;
  dead.gaps = 10;
  dead.longest_plateau = 10;
  EXPECT_EQ(CompositeQualityScore(dead), 0.0);
}

TEST(QualityTracker, IncrementalStatsEqualAFullRescanAtEveryPush) {
  constexpr std::size_t kSeries = 6;
  std::size_t checks = 0;
  for (const std::size_t window : {1, 2, 3, 7, 64, 257}) {
    for (const double dirt : {0.05, 0.15, 0.3, 0.45, 0.55}) {
      const std::size_t rows = 4 * window + 300;
      const std::uint64_t seed = 1000 * window + static_cast<std::uint64_t>(dirt * 100);
      const auto feed = DirtyFeed(kSeries, rows, window, dirt, seed);
      QualityTracker tracker(kSeries, window);
      for (std::size_t i = 0; i < rows; ++i) {
        // Clean rows go in with null masks, as a plain Append sends them.
        bool clean = true;
        for (std::size_t j = 0; j < kSeries; ++j) {
          clean = clean && feed[i].valid[j] == 1 && feed[i].filled[j] == 0;
        }
        tracker.Push(feed[i].values.data(), clean ? nullptr : feed[i].valid.data(),
                     clean ? nullptr : feed[i].filled.data());
        const std::size_t begin = i + 1 > window ? i + 1 - window : 0;
        const std::vector<SeriesQuality>& all = tracker.All();
        for (std::size_t j = 0; j < kSeries; ++j) {
          const SeriesQuality want = RescanQuality(feed, begin, i + 1, j);
          const std::string where = "window " + std::to_string(window) + " dirt " +
                                    std::to_string(dirt) + " row " + std::to_string(i) +
                                    " series " + std::to_string(j);
          ExpectSameQuality(tracker.Quality(static_cast<SeriesId>(j)), want, where);
          ExpectSameQuality(all[j], want, where);
          EXPECT_EQ(tracker.Scores()[j], want.score) << where;
          ++checks;
        }
        if (testing::Test::HasFailure()) return;
      }
    }
  }
  EXPECT_EQ(checks, 94080u);
}

TEST(QualityTracker, DescendingRunStaircasesFillTheCompletedRunRing) {
  // Runs of strictly decreasing lengths, repeated: the most completed runs
  // a window can hold. Series 0 makes them as back-to-back plateaus of
  // lengths window, …, 3, 2; series 1 as gap runs of lengths k, …, 2, 1
  // split by single valid cells.
  for (const std::size_t window : {3, 4, 10, 11, 36, 37, 64, 65}) {
    std::size_t k = 1;
    while ((k + 1) * (k + 2) / 2 <= window) ++k;
    std::vector<FeedRow> plateaus;
    double value = 0.0;
    for (std::size_t rep = 0; rep < 4; ++rep) {
      for (std::size_t len = window; len >= 2; --len) {
        value += 1.0;
        for (std::size_t i = 0; i < len; ++i) plateaus.push_back(FeedRow{{value}, {}, {}});
      }
    }
    std::vector<FeedRow> gaps;
    for (std::size_t rep = 0; rep < 6; ++rep) {
      for (std::size_t len = k; len >= 1; --len) {
        for (std::size_t i = 0; i < len; ++i) gaps.push_back(FeedRow{{0.5}, {0}, {0}});
        gaps.push_back(FeedRow{{static_cast<double>(gaps.size())}, {1}, {0}});
      }
    }
    for (const std::vector<FeedRow>* feed : {&plateaus, &gaps}) {
      QualityTracker tracker(1, window);
      for (std::size_t i = 0; i < feed->size(); ++i) {
        const FeedRow& row = (*feed)[i];
        tracker.Push(row.values.data(), row.valid.empty() ? nullptr : row.valid.data(),
                     row.filled.empty() ? nullptr : row.filled.data());
        const std::size_t begin = i + 1 > window ? i + 1 - window : 0;
        ExpectSameQuality(tracker.Quality(0), RescanQuality(*feed, begin, i + 1, 0),
                          "window " + std::to_string(window) + " row " + std::to_string(i));
      }
    }
  }
}

// --- The stream-level surface against the rescan ---------------------------

std::vector<std::string> StreamNames(std::size_t n) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back("s" + std::to_string(i));
  return out;
}

/// Feeds rows [from, to) of `ds` through `aligner` into `stream`, dropping
/// ~20% of the samples (a third of those as NaN), records every emitted
/// row in `seen`, and at each publication checks the published scores and
/// every series' quality against the rescan of the window's rows.
void FeedAndCheck(core::StreamingAffinity* stream, StreamAligner* aligner, const Dataset& ds,
                  std::size_t from, std::size_t to, Xoshiro256* rng, std::vector<FeedRow>* seen,
                  std::size_t* publications) {
  const std::size_t n = ds.matrix.n();
  const std::size_t window = stream->options().window;
  std::vector<AlignedRow> rows;
  for (std::size_t i = from; i < to; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng->Uniform(0.0, 1.0) < 0.20) {
        if (rng->NextBounded(3) == 0) {
          ASSERT_TRUE(aligner->Push(j, static_cast<double>(i), std::nan("")).ok());
        }
        continue;
      }
      ASSERT_TRUE(aligner->Push(j, static_cast<double>(i), ds.matrix.matrix()(i, j)).ok());
    }
    rows.clear();
    aligner->EmitUpTo(static_cast<double>(i + 1), &rows);
    for (const AlignedRow& row : rows) {
      const core::AppendResult result = stream->AppendMasked(row);
      ASSERT_TRUE(result.ok()) << result.status.message();
      seen->push_back(FeedRow{row.values, row.valid, row.filled});
      if (!result.refreshed) continue;
      ++*publications;
      const std::size_t end = seen->size();
      const std::size_t begin = end - window;
      const std::vector<double>& scores = stream->quality_scores();
      ASSERT_EQ(scores.size(), n);
      const auto epoch = stream->serving();
      ASSERT_NE(epoch, nullptr);
      for (std::size_t j = 0; j < n; ++j) {
        const SeriesQuality want = RescanQuality(*seen, begin, end, j);
        const std::string where = "row " + std::to_string(end) + " series " + std::to_string(j);
        EXPECT_EQ(scores[j], want.score) << where;
        EXPECT_EQ(epoch->quality[j], want.score) << where;
        const auto got = stream->series_quality(static_cast<SeriesId>(j));
        ASSERT_TRUE(got.ok());
        ExpectSameQuality(*got, want, where);
      }
    }
  }
}

TEST(QualityTracker, StreamSurfaceEqualsARescanAtEveryPublicationAndAfterRestore) {
  // dirty_stream_test's acceptance stream: 10 series, window 64, interval
  // 16, 20% of samples dirty, 200 slides — then restored from its model
  // and slid 64 more rows.
  DatasetSpec spec;
  spec.num_series = 10;
  spec.num_samples = 64 + 200 + 64;
  spec.num_clusters = 2;
  spec.noise_level = 0.02;
  spec.seed = 12;
  const Dataset ds = MakeSensorData(spec);
  for (const core::UpdateMode mode : {core::UpdateMode::kRebuild, core::UpdateMode::kIncremental}) {
    SCOPED_TRACE(mode == core::UpdateMode::kRebuild ? "rebuild" : "incremental");
    core::StreamingOptions options;
    options.window = 64;
    options.rebuild_interval = 16;
    options.mode = mode;
    options.build.afclst.k = 2;
    options.build.build_dft = false;
    options.build.threads = 1;
    auto stream = core::StreamingAffinity::Create(StreamNames(10), options);
    ASSERT_TRUE(stream.ok());
    IngestOptions iopts;
    iopts.max_fill = 4;
    StreamAligner aligner(10, iopts);
    Xoshiro256 rng(778);
    std::vector<FeedRow> seen;
    std::size_t publications = 0;
    FeedAndCheck(&*stream, &aligner, ds, 0, 264, &rng, &seen, &publications);
    EXPECT_EQ(publications, 13u);

    // A checkpoint stores no masks: the restored tracker holds the
    // snapshot's window as fully observed rows (plateaus of carried gap
    // values still show).
    auto restored =
        core::StreamingAffinity::Restore(stream->framework()->model(), options, stream->exec());
    ASSERT_TRUE(restored.ok()) << restored.status().message();
    std::vector<FeedRow> replay;
    const DataMatrix& window = stream->framework()->data();
    for (std::size_t i = 0; i < window.m(); ++i) {
      FeedRow row;
      for (std::size_t j = 0; j < window.n(); ++j) row.values.push_back(window.matrix()(i, j));
      replay.push_back(std::move(row));
    }
    for (std::size_t j = 0; j < 10; ++j) {
      const SeriesQuality want = RescanQuality(replay, 0, replay.size(), j);
      EXPECT_EQ(restored->quality_scores()[j], want.score) << j;
      EXPECT_EQ(restored->serving()->quality[j], want.score) << j;
      ExpectSameQuality(*restored->series_quality(static_cast<SeriesId>(j)), want,
                        "restored series " + std::to_string(j));
    }
    const std::size_t before = publications;
    FeedAndCheck(&*restored, &aligner, ds, 264, 328, &rng, &replay, &publications);
    EXPECT_EQ(publications - before, 4u);
  }
}

TEST(QualityTracker, StreamReportsAnUnknownSeriesAsOutOfRange) {
  core::StreamingOptions options;
  options.window = 8;
  options.rebuild_interval = 4;
  auto stream = core::StreamingAffinity::Create(StreamNames(3), options);
  ASSERT_TRUE(stream.ok());
  EXPECT_TRUE(stream->series_quality(2).ok());
  const auto bad = stream->series_quality(7);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace affinity::ts
