// Tests for per-refresh epoch publication (DESIGN.md §11): every
// published epoch (COW window segments, bulk WA refill) must be bitwise
// identical to a cold build of the same state (SnapshotBuilder::Build)
// across refresh intervals, thread counts, escalations, manual rebuilds,
// and restores; and a held epoch must stay queryable and bit-stable while
// newer ones publish.

#include "serve/serving_snapshot.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/streaming.h"
#include "serve/serve_query.h"
#include "shard/shard_serve.h"
#include "shard/sharded.h"
#include "ts/generators.h"

namespace affinity::serve {
namespace {

using core::Measure;
using core::MetRequest;
using core::StreamingAffinity;
using core::StreamingOptions;

constexpr std::size_t kWindow = 40;
constexpr std::size_t kSlides = 200;

std::vector<std::string> Names(std::size_t n) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back("s" + std::to_string(i));
  return out;
}

ts::Dataset TestData(std::size_t n = 10, std::uint64_t seed = 12) {
  ts::DatasetSpec spec;
  spec.num_series = n;
  spec.num_samples = kWindow + kSlides + 16;
  spec.num_clusters = 3;
  spec.noise_level = 0.02;
  spec.seed = seed;
  return ts::MakeSensorData(spec);
}

StreamingOptions StreamOptions(std::size_t interval, std::size_t threads) {
  StreamingOptions options;
  options.window = kWindow;
  options.rebuild_interval = interval;
  options.mode = core::UpdateMode::kIncremental;
  options.build.afclst.k = 2;
  options.build.build_dft = false;
  options.build.threads = threads;
  return options;
}

// Bitwise comparison: EXPECT_EQ on doubles is deliberate — the delta
// publication contract is bitwise identity with the cold flatten, not
// tolerance.

void ExpectSameWindow(const CowWindow& a, const CowWindow& b) {
  ASSERT_EQ(a.m(), b.m());
  ASSERT_EQ(a.n(), b.n());
  EXPECT_EQ(a.anchor_row(), b.anchor_row());
  for (std::size_t j = 0; j < a.n(); ++j) {
    const double* ca = a.ColumnData(static_cast<ts::SeriesId>(j));
    const double* cb = b.ColumnData(static_cast<ts::SeriesId>(j));
    EXPECT_EQ(0, std::memcmp(ca, cb, a.m() * sizeof(double))) << "column " << j;
  }
}

void ExpectSameSnapshot(const ServingSnapshot& got, const ServingSnapshot& want) {
  EXPECT_EQ(got.generation, want.generation);
  EXPECT_EQ(got.snapshot_row, want.snapshot_row);
  ExpectSameWindow(got.data, want.data);
  ASSERT_EQ(got.stats.size(), want.stats.size());
  for (std::size_t v = 0; v < want.stats.size(); ++v) {
    EXPECT_EQ(got.stats[v].mean, want.stats[v].mean) << "series " << v;
    EXPECT_EQ(got.stats[v].variance, want.stats[v].variance) << "series " << v;
    EXPECT_EQ(got.stats[v].sumsq, want.stats[v].sumsq) << "series " << v;
    EXPECT_EQ(got.stats[v].sum, want.stats[v].sum) << "series " << v;
  }
  for (int f = 0; f < 3; ++f) {
    EXPECT_EQ(got.location[f], want.location[f]) << "loc family " << f;
  }
  for (int t = 0; t < 6; ++t) {
    EXPECT_EQ(got.pair_values[t], want.pair_values[t]) << "pair table " << t;
  }
  EXPECT_EQ(got.caps.has_quality, want.caps.has_quality);
  EXPECT_EQ(got.quality, want.quality);
}

/// Slides `slides` rows through a fresh stream and checks every published
/// epoch bitwise against a cold build of the same state.
void RunIdentitySweep(std::size_t interval, std::size_t threads) {
  const ts::Dataset ds = TestData();
  auto stream = StreamingAffinity::Create(Names(ds.matrix.n()), StreamOptions(interval, threads));
  ASSERT_TRUE(stream.ok()) << stream.status().message();
  std::vector<double> row(ds.matrix.n());
  std::size_t epochs = 0;
  for (std::size_t i = 0; i < kWindow + kSlides; ++i) {
    for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = ds.matrix.matrix()(i, j);
    const auto result = stream->Append(row);
    ASSERT_TRUE(result.ok()) << result.status.message();
    if (!result.refreshed) continue;
    auto published = stream->serving();
    auto cold = stream->BuildColdSnapshot();
    ASSERT_NE(published, nullptr);
    ASSERT_NE(cold, nullptr);
    ExpectSameSnapshot(*published, *cold);
    ++epochs;
  }
  EXPECT_GT(epochs, 0u);
  // The sweep exercised the delta path (not only full-flatten fallbacks):
  // after the first epoch every steady-state publication is incremental.
  if (interval <= kSlides / 2) {
    EXPECT_GT(stream->maintenance().epochs_delta, 0u) << "interval " << interval;
  }
}

TEST(ServeDelta, BitwiseIdentityInterval1) {
  RunIdentitySweep(1, 1);
  RunIdentitySweep(1, 2);
  RunIdentitySweep(1, 8);
}

TEST(ServeDelta, BitwiseIdentityInterval3) {
  RunIdentitySweep(3, 1);
  RunIdentitySweep(3, 8);
}

TEST(ServeDelta, BitwiseIdentityInterval129) {
  RunIdentitySweep(129, 2);
}

TEST(ServeDelta, BitwiseIdentityIntervalWindowPlus7) {
  RunIdentitySweep(kWindow + 7, 8);
}

TEST(ServeDelta, EscalationRebuildAndRestoreInvalidateTheDeltaPath) {
  const ts::Dataset ds = TestData();
  // A hair-trigger drift monitor: every refresh escalates to a rebuild,
  // so the delta provenance is torn down constantly — identity must hold
  // through every one of those full republications.
  StreamingOptions options = StreamOptions(5, 2);
  options.incremental.escalation_factor = 1e-9;
  options.incremental.escalation_slack = -1.0;
  auto stream = StreamingAffinity::Create(Names(ds.matrix.n()), options);
  ASSERT_TRUE(stream.ok());
  std::vector<double> row(ds.matrix.n());
  std::size_t escalations = 0;
  for (std::size_t i = 0; i < kWindow + 60; ++i) {
    for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = ds.matrix.matrix()(i, j);
    const auto result = stream->Append(row);
    ASSERT_TRUE(result.ok());
    if (result.escalated) ++escalations;
    if (!result.refreshed) continue;
    auto published = stream->serving();
    auto cold = stream->BuildColdSnapshot();
    ASSERT_NE(published, nullptr);
    ExpectSameSnapshot(*published, *cold);
  }
  EXPECT_GT(escalations, 0u);

  // Manual rebuild: republishes a full flatten that still matches.
  ASSERT_TRUE(stream->Rebuild().ok());
  {
    auto published = stream->serving();
    auto cold = stream->BuildColdSnapshot();
    ASSERT_NE(published, nullptr);
    ExpectSameSnapshot(*published, *cold);
  }

  // Restore: a stream rebuilt from a checkpointed model publishes its
  // first epoch immediately, and subsequent delta epochs (whose prior is
  // that restored flatten) stay bitwise identical.
  core::AffinityModel model = stream->framework()->model();
  StreamingOptions restore_options = StreamOptions(5, 2);
  auto restored = StreamingAffinity::Restore(std::move(model), restore_options, stream->exec());
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  ASSERT_NE(restored->serving(), nullptr);
  for (std::size_t i = kWindow; i < kWindow + 40; ++i) {
    for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = ds.matrix.matrix()(i, j);
    const auto result = restored->Append(row);
    ASSERT_TRUE(result.ok());
    if (!result.refreshed) continue;
    auto published = restored->serving();
    auto cold = restored->BuildColdSnapshot();
    ASSERT_NE(published, nullptr);
    ExpectSameSnapshot(*published, *cold);
  }
}

TEST(ServeDelta, RecycledEpochsFreezeEachPublicationsQualityScores) {
  // A gappy stream moves the quality scores between publications; every
  // delta epoch (built into a recycled retired epoch) must carry
  // exactly the scores the live engine held when it was published.
  const ts::Dataset ds = TestData();
  const std::size_t n = ds.matrix.n();
  auto stream = StreamingAffinity::Create(Names(n), StreamOptions(1, 1));
  ASSERT_TRUE(stream.ok());
  std::vector<double> row(n);
  std::vector<std::uint8_t> valid(n), filled(n, 0);
  std::size_t moved = 0;
  std::vector<double> last;
  for (std::size_t i = 0; i < kWindow + 80; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      row[j] = ds.matrix.matrix()(i, j);
      // Series j drops out on a period of its own, so scores drift apart.
      valid[j] = (i % (j + 3)) == 0 ? 0 : 1;
    }
    const auto result = stream->AppendMasked(row, valid, filled);
    ASSERT_TRUE(result.ok());
    if (!result.refreshed) continue;
    auto published = stream->serving();
    ASSERT_NE(published, nullptr);
    ASSERT_TRUE(published->caps.has_quality);
    EXPECT_EQ(published->quality, stream->quality_scores());
    ExpectSameSnapshot(*published, *stream->BuildColdSnapshot());
    if (!last.empty() && published->quality != last) ++moved;
    last = published->quality;
  }
  EXPECT_GT(moved, 0u);
  EXPECT_GT(stream->maintenance().epochs_delta, 0u);
}

TEST(ServeDelta, HeldEpochAnswersUnchangedAfterNewerPublications) {
  const ts::Dataset ds = TestData();
  auto stream = StreamingAffinity::Create(Names(ds.matrix.n()), StreamOptions(1, 2));
  ASSERT_TRUE(stream.ok());
  std::vector<double> row(ds.matrix.n());
  auto feed = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = ds.matrix.matrix()(i, j);
      ASSERT_TRUE(stream->Append(row).ok());
    }
  };
  feed(0, kWindow + 10);
  auto pinned = stream->serving();
  ASSERT_NE(pinned, nullptr);
  const std::uint64_t pinned_generation = pinned->generation;
  const MetRequest req{Measure::kCorrelation, 0.5, true};
  auto before = SnapshotMet(*pinned, req);
  ASSERT_TRUE(before.ok());

  // Publish 4 newer epochs: the held one must answer bit-identically to
  // before.
  feed(kWindow + 10, kWindow + 14);
  auto current = stream->serving();
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->generation, pinned_generation + 4);
  auto after = SnapshotMet(*pinned, req);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->series, before->series);
  EXPECT_EQ(after->pairs, before->pairs);

  // And after one more.
  feed(kWindow + 14, kWindow + 15);
  auto again = SnapshotMet(*pinned, req);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->pairs, before->pairs);
}

TEST(ServeDelta, HeldRouterEpochAnswersUnchangedAfterNewerPublications) {
  const ts::Dataset ds = TestData(16);
  shard::ShardedOptions options;
  options.shards = 2;
  options.streaming = StreamOptions(1, 2);
  auto service = shard::ShardedAffinity::Create(Names(16), options);
  ASSERT_TRUE(service.ok()) << service.status().message();
  std::vector<double> row(16);
  auto feed = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t j = 0; j < 16; ++j) row[j] = ds.matrix.matrix()(i, j);
      ASSERT_TRUE(service->Append(row).ok());
    }
  };
  feed(0, kWindow + 8);
  auto pinned = service->serving();
  ASSERT_NE(pinned, nullptr);
  const MetRequest req{Measure::kCorrelation, 0.5, true};
  auto before = shard::RouterMet(*pinned, req);
  ASSERT_TRUE(before.ok());

  feed(kWindow + 8, kWindow + 11);
  auto after = shard::RouterMet(*pinned, req);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->series, before->series);
  EXPECT_EQ(after->pairs, before->pairs);
}

TEST(ServeDelta, DeltaReusesWindowSegments) {
  const ts::Dataset ds = TestData();
  auto stream = StreamingAffinity::Create(Names(ds.matrix.n()), StreamOptions(1, 1));
  ASSERT_TRUE(stream.ok());
  std::vector<double> row(ds.matrix.n());
  for (std::size_t i = 0; i < kWindow + 60; ++i) {
    for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = ds.matrix.matrix()(i, j);
    ASSERT_TRUE(stream->Append(row).ok());
  }
  const core::MaintenanceProfile profile = stream->maintenance();
  // Steady-state interval-1 slides publish through the delta path, and
  // the COW window shares nearly every segment with the prior epoch (the
  // window is 40 rows over 16-row segments; only the tail segment's
  // buffer content changes, and even that buffer is shared because
  // appends mutate rows the snapshot never reads).
  EXPECT_GT(profile.epochs_delta, 0u);
  EXPECT_GT(profile.window_segments_reused, 0u);
  EXPECT_EQ(profile.serve_fallbacks, 0u);
}

}  // namespace
}  // namespace affinity::serve
