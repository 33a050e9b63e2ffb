// Tests for the windowed streaming wrapper (core/streaming.h).

#include "core/streaming.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/serialize.h"
#include "serve/serve_query.h"
#include "shard/sharded.h"
#include "ts/generators.h"
#include "ts/rolling.h"

namespace affinity::core {
namespace {

std::vector<std::string> Names(std::size_t n) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back("s" + std::to_string(i));
  return out;
}

StreamingOptions SmallOptions() {
  StreamingOptions options;
  options.window = 40;
  options.rebuild_interval = 20;
  options.build.afclst.k = 2;
  options.build.build_dft = false;
  return options;
}

/// Feeds `rows` rows of a clustered dataset into the stream (or sharded
/// service).
template <typename Sink>
Status Feed(Sink* stream, const ts::Dataset& ds, std::size_t begin, std::size_t end) {
  std::vector<double> row(ds.matrix.n());
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = ds.matrix.matrix()(i, j);
    AFFINITY_RETURN_IF_ERROR(stream->Append(row).status);
  }
  return Status::OK();
}

ts::Dataset TestData() {
  ts::DatasetSpec spec;
  spec.num_series = 10;
  spec.num_samples = 200;
  spec.num_clusters = 2;
  spec.noise_level = 0.02;
  spec.seed = 12;
  return ts::MakeSensorData(spec);
}

TEST(Streaming, CreateValidatesOptions) {
  EXPECT_FALSE(StreamingAffinity::Create({"only-one"}, SmallOptions()).ok());
  StreamingOptions bad = SmallOptions();
  bad.window = 1;
  EXPECT_FALSE(StreamingAffinity::Create(Names(4), bad).ok());
  bad = SmallOptions();
  bad.rebuild_interval = 0;
  EXPECT_FALSE(StreamingAffinity::Create(Names(4), bad).ok());
  EXPECT_TRUE(StreamingAffinity::Create(Names(4), SmallOptions()).ok());

  // A stream keeps every relationship: 10 series have 45 pairs, so a
  // budget of 44 is refused in both modes, with the counts in the message.
  for (const UpdateMode mode : {UpdateMode::kRebuild, UpdateMode::kIncremental}) {
    bad = SmallOptions();
    bad.mode = mode;
    bad.build.symex.max_relationships = 44;
    const auto truncated = StreamingAffinity::Create(Names(10), bad);
    ASSERT_FALSE(truncated.ok());
    EXPECT_EQ(truncated.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(truncated.status().message().find("44"), std::string::npos);
    EXPECT_NE(truncated.status().message().find("45"), std::string::npos);
    bad.build.symex.max_relationships = 45;
    EXPECT_TRUE(StreamingAffinity::Create(Names(10), bad).ok());
  }

  // So is a checkpoint of a truncated model.
  auto window = ts::TailWindow(TestData().matrix, 40);
  ASSERT_TRUE(window.ok());
  SymexOptions symex;
  symex.max_relationships = 20;
  auto model = BuildAffinityModel(*window, AfclstOptions{.k = 2}, symex);
  ASSERT_TRUE(model.ok());
  ASSERT_EQ(model->relationship_count(), 20u);
  const auto restored = StreamingAffinity::Restore(std::move(*model), SmallOptions(), {});
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(restored.status().message().find("20 of the 45"), std::string::npos)
      << restored.status().ToString();
}

TEST(Streaming, NotReadyBeforeWindowFills) {
  auto stream = StreamingAffinity::Create(Names(10), SmallOptions());
  ASSERT_TRUE(stream.ok());
  const ts::Dataset ds = TestData();
  ASSERT_TRUE(Feed(&*stream, ds, 0, 39).ok());
  EXPECT_FALSE(stream->ready());
  EXPECT_EQ(stream->framework(), nullptr);
  EXPECT_EQ(stream->rows_ingested(), 39u);
  // Forced rebuild refuses too.
  EXPECT_EQ(stream->Rebuild().code(), StatusCode::kFailedPrecondition);
}

TEST(Streaming, FirstRebuildAtWindow) {
  auto stream = StreamingAffinity::Create(Names(10), SmallOptions());
  ASSERT_TRUE(stream.ok());
  const ts::Dataset ds = TestData();
  ASSERT_TRUE(Feed(&*stream, ds, 0, 40).ok());
  EXPECT_TRUE(stream->ready());
  EXPECT_EQ(stream->rebuild_count(), 1u);
  EXPECT_EQ(stream->snapshot_age(), 0u);
  EXPECT_EQ(stream->framework()->data().m(), 40u);
  EXPECT_EQ(stream->framework()->data().n(), 10u);
}

TEST(Streaming, RebuildsAtInterval) {
  auto stream = StreamingAffinity::Create(Names(10), SmallOptions());
  ASSERT_TRUE(stream.ok());
  const ts::Dataset ds = TestData();
  ASSERT_TRUE(Feed(&*stream, ds, 0, 100).ok());
  // Rebuilds at rows 40, 60, 80, 100.
  EXPECT_EQ(stream->rebuild_count(), 4u);
  EXPECT_EQ(stream->snapshot_age(), 0u);
  ASSERT_TRUE(Feed(&*stream, ds, 100, 110).ok());
  EXPECT_EQ(stream->rebuild_count(), 4u);
  EXPECT_EQ(stream->snapshot_age(), 10u);
}

TEST(Streaming, SnapshotSeesTrailingWindowOnly) {
  auto stream = StreamingAffinity::Create(Names(10), SmallOptions());
  ASSERT_TRUE(stream.ok());
  const ts::Dataset ds = TestData();
  ASSERT_TRUE(Feed(&*stream, ds, 0, 120).ok());
  // The snapshot's first row must be source row 120 − 40 = 80.
  const ts::DataMatrix& snap = stream->framework()->data();
  ASSERT_EQ(snap.m(), 40u);
  for (std::size_t j = 0; j < snap.n(); ++j) {
    EXPECT_DOUBLE_EQ(snap.matrix()(0, j), ds.matrix.matrix()(80, j));
    EXPECT_DOUBLE_EQ(snap.matrix()(39, j), ds.matrix.matrix()(119, j));
  }
}

TEST(Streaming, QueriesWorkOnSnapshot) {
  auto stream = StreamingAffinity::Create(Names(10), SmallOptions());
  ASSERT_TRUE(stream.ok());
  const ts::Dataset ds = TestData();
  ASSERT_TRUE(Feed(&*stream, ds, 0, 60).ok());
  ASSERT_TRUE(stream->ready());
  MetRequest request{Measure::kCorrelation, 0.9, true};
  auto result = stream->Met(request);
  ASSERT_TRUE(result.ok());
  // The clustered generator guarantees some highly correlated pairs.
  EXPECT_GT(result->pairs.size(), 0u);
}

TEST(Streaming, AppendValidatesRowWidth) {
  auto stream = StreamingAffinity::Create(Names(4), SmallOptions());
  ASSERT_TRUE(stream.ok());
  EXPECT_FALSE(stream->Append({1.0, 2.0}).ok());
  EXPECT_TRUE(stream->Append({1.0, 2.0, 3.0, 4.0}).ok());
}

TEST(Streaming, AppendResultDistinguishesRefreshFromNoRefresh) {
  auto stream = StreamingAffinity::Create(Names(10), SmallOptions());
  ASSERT_TRUE(stream.ok());
  const ts::Dataset ds = TestData();
  std::vector<double> row(ds.matrix.n());
  std::size_t refreshed = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = ds.matrix.matrix()(i, j);
    const AppendResult result = stream->Append(row);
    ASSERT_TRUE(result.ok());
    // Refreshes run at rows 40, 60, 80, 100 with window 40 / interval 20;
    // every other append reports OK *without* claiming a refresh ran.
    const bool expect_refresh = (i + 1) == 40 || ((i + 1) > 40 && (i + 1) % 20 == 0);
    EXPECT_EQ(result.refreshed, expect_refresh) << "row " << i + 1;
    if (result.refreshed) {
      EXPECT_EQ(result.mode, UpdateMode::kRebuild);
      ++refreshed;
    }
  }
  EXPECT_EQ(refreshed, 4u);
  EXPECT_EQ(stream->rebuild_count(), 4u);
}

TEST(Streaming, ResidentRowsStayBoundedAcross10kAppends) {
  StreamingOptions options = SmallOptions();
  options.window = 64;
  options.rebuild_interval = 32;
  auto stream = StreamingAffinity::Create(Names(4), options);
  ASSERT_TRUE(stream.ok());
  Xoshiro256 rng(3);
  std::vector<double> row(4);
  std::size_t max_resident = 0;
  for (int i = 0; i < 10000; ++i) {
    for (double& v : row) v = rng.Uniform(-1.0, 1.0);
    ASSERT_TRUE(stream->Append(row).ok());
    max_resident = std::max(max_resident, stream->table().retained_row_count());
  }
  EXPECT_EQ(stream->rows_ingested(), 10000u);
  // O(window) residency: the window plus at most two segments of slack
  // (compaction reclaims whole segments only).
  const std::size_t segment = 16;  // DeriveSegmentCapacity(window 64)
  EXPECT_LE(max_resident, options.window + 2 * segment);
  // The snapshot still sees the full trailing window.
  ASSERT_TRUE(stream->ready());
  EXPECT_EQ(stream->framework()->data().m(), options.window);
}

StreamingOptions IncrementalOptions_() {
  StreamingOptions options = SmallOptions();
  options.mode = UpdateMode::kIncremental;
  return options;
}

TEST(Streaming, IncrementalModeRefreshesWithoutFullRebuilds) {
  auto stream = StreamingAffinity::Create(Names(10), IncrementalOptions_());
  ASSERT_TRUE(stream.ok());
  const ts::Dataset ds = TestData();
  ASSERT_TRUE(Feed(&*stream, ds, 0, 100).ok());
  // Refreshes at rows 40 (first full build), 60, 80, 100 (incremental).
  EXPECT_EQ(stream->rebuild_count(), 1u);
  EXPECT_EQ(stream->refresh_count(), 3u);
  EXPECT_EQ(stream->snapshot_age(), 0u);
  EXPECT_EQ(stream->framework()->data().m(), 40u);
  // The snapshot window slid: its last row is source row 99.
  const ts::DataMatrix& snap = stream->framework()->data();
  for (std::size_t j = 0; j < snap.n(); ++j) {
    EXPECT_DOUBLE_EQ(snap.matrix()(39, j), ds.matrix.matrix()(99, j));
    EXPECT_DOUBLE_EQ(snap.matrix()(0, j), ds.matrix.matrix()(60, j));
  }
  // Accounting: every refresh absorbed the interval; a stream has no
  // index to re-key.
  const MaintenanceProfile& profile = stream->maintenance();
  EXPECT_EQ(profile.refreshes, 3u);
  EXPECT_EQ(profile.rows_absorbed, 60u);
  EXPECT_EQ(profile.tree_rekeys, 0u);
  EXPECT_GT(profile.relationships_refit + profile.relationships_updated, 0u);
  // Queries work against the maintained snapshot.
  MetRequest request{Measure::kCorrelation, 0.9, true};
  auto result = stream->Met(request);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->pairs.size(), 0u);
}

/// A published epoch behind the facade query signature.
struct EpochFacade {
  const serve::ServingSnapshot& snap;
  StatusOr<SelectionResult> Met(const MetRequest& r, const FreshnessOptions& o = {}) const {
    return serve::SnapshotMet(snap, r, o.method);
  }
  StatusOr<SelectionResult> Mer(const MerRequest& r, const FreshnessOptions& o = {}) const {
    return serve::SnapshotMer(snap, r, o.method);
  }
  StatusOr<TopKResult> TopK(const TopKRequest& r, const FreshnessOptions& o = {}) const {
    return serve::SnapshotTopK(snap, r, o.method);
  }
};

const SelectionResult& Answer(const SelectionResult& r) { return r; }
const SelectionResult& Answer(const shard::ShardedSelection& r) { return r.result; }
const TopKResult& Answer(const TopKResult& r) { return r; }
const TopKResult& Answer(const shard::ShardedTopK& r) { return r.result; }

/// Every kAuto MET, MER and top-k on `facade` (a stream, an epoch or a
/// router) plans WA, for every measure, and an explicit kScape fails with
/// `no_index`, the engine's status without an index.
template <typename Facade>
void ExpectServedWithoutScape(const Facade& facade, const Status& no_index) {
  FreshnessOptions scape;
  scape.method = QueryMethod::kScape;
  for (const Measure m : AllMeasures()) {
    SCOPED_TRACE(std::string(MeasureName(m)));
    const MetRequest met{m, 0.5, true};
    const MerRequest mer{m, -0.5, 0.5};
    const TopKRequest topk{m, 3, true};
    auto met_auto = facade.Met(met);
    auto mer_auto = facade.Mer(mer);
    auto topk_auto = facade.TopK(topk);
    ASSERT_TRUE(met_auto.ok() && mer_auto.ok() && topk_auto.ok());
    EXPECT_EQ(Answer(*met_auto).plan.method, QueryMethod::kAffine);
    EXPECT_EQ(Answer(*mer_auto).plan.method, QueryMethod::kAffine);
    EXPECT_EQ(Answer(*topk_auto).plan.method, QueryMethod::kAffine);
    for (const Status& status : {facade.Met(met, scape).status(), facade.Mer(mer, scape).status(),
                                 facade.TopK(topk, scape).status()}) {
      EXPECT_EQ(status.code(), no_index.code());
      EXPECT_EQ(status.message(), no_index.message());
    }
  }
}

/// `stream` built neither the SCAPE index nor the WF estimator, kept its
/// SCAPE counters at 0 and serves — facade and epoch — without an index.
void ExpectStreamWithoutScape(const StreamingAffinity& stream) {
  ASSERT_TRUE(stream.ready());
  EXPECT_EQ(stream.framework()->scape(), nullptr);
  EXPECT_EQ(stream.framework()->wf(), nullptr);
  EXPECT_TRUE(stream.framework()->engine().Capabilities().has_dft);
  const MaintenanceProfile& profile = stream.maintenance();
  EXPECT_EQ(profile.tree_rekeys, 0u);
  EXPECT_EQ(profile.scape_rekeys_skipped, 0u);
  EXPECT_EQ(profile.scape_runs_shared, 0u);
  EXPECT_EQ(profile.scape_runs_spliced, 0u);
  const Status no_index =
      stream.framework()->engine().Met({Measure::kCovariance, 0.5, true}, QueryMethod::kScape)
          .status();
  EXPECT_EQ(no_index.code(), StatusCode::kFailedPrecondition);
  ExpectServedWithoutScape(stream, no_index);
  ExpectServedWithoutScape(EpochFacade{*stream.serving()}, no_index);
}

// A stream maintains only what its epochs read (DESIGN.md §8): with the
// default build options (`build_scape` and `build_dft` set) it builds no
// SCAPE index and no WF estimator, in either mode, restored from a
// checkpoint, and behind a router loaded from a shard manifest.
TEST(Streaming, StreamsMaintainNoScapeIndex) {
  const ts::Dataset ds = TestData();
  for (const UpdateMode mode : {UpdateMode::kIncremental, UpdateMode::kRebuild}) {
    const std::string tag = mode == UpdateMode::kIncremental ? "incremental" : "rebuild";
    SCOPED_TRACE(tag);
    StreamingOptions options;
    ASSERT_TRUE(options.build.build_scape);
    ASSERT_TRUE(options.build.build_dft);
    options.window = 40;
    options.rebuild_interval = 5;
    options.mode = mode;
    options.build.afclst.k = 2;
    auto stream = StreamingAffinity::Create(Names(10), options);
    ASSERT_TRUE(stream.ok());
    ASSERT_TRUE(Feed(&*stream, ds, 0, 80).ok());
    if (mode == UpdateMode::kIncremental) {
      EXPECT_GT(stream->maintenance().refreshes, 0u);
    }
    ExpectStreamWithoutScape(*stream);

    const std::string model_path = ::testing::TempDir() + "/no_scape_model_" + tag + ".bin";
    ASSERT_TRUE(SaveModel(stream->framework()->model(), model_path).ok());
    auto model = LoadModel(model_path);
    ASSERT_TRUE(model.ok());
    auto restored = StreamingAffinity::Restore(std::move(*model), options, ExecContext{});
    ASSERT_TRUE(restored.ok());
    ExpectStreamWithoutScape(*restored);

    shard::ShardedOptions sharded;
    sharded.shards = 2;
    sharded.streaming = options;
    auto service = shard::ShardedAffinity::Create(Names(10), sharded);
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE(Feed(&*service, ds, 0, 80).ok());
    const std::string manifest_path = ::testing::TempDir() + "/no_scape_shards_" + tag + ".bin";
    ASSERT_TRUE(service->Save(manifest_path).ok());
    auto loaded = shard::ShardedAffinity::Load(manifest_path);
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(loaded->options().streaming.build.build_scape);
    for (std::size_t s = 0; s < loaded->shard_count(); ++s) {
      SCOPED_TRACE("shard " + std::to_string(s));
      ExpectStreamWithoutScape(loaded->shard(s));
    }
    const Status no_index =
        loaded->shard(0).framework()->engine().Met({Measure::kCovariance, 0.5, true},
                                                   QueryMethod::kScape)
            .status();
    ExpectServedWithoutScape(*service, no_index);
    ExpectServedWithoutScape(*loaded, no_index);
  }
}

TEST(Streaming, IncrementalEscalatesOnRegimeChange) {
  StreamingOptions options = IncrementalOptions_();
  options.incremental.escalation_factor = 1.25;
  options.incremental.escalation_slack = 0.01;
  auto stream = StreamingAffinity::Create(Names(10), options);
  ASSERT_TRUE(stream.ok());
  const ts::Dataset calm = TestData();
  ASSERT_TRUE(Feed(&*stream, calm, 0, 60).ok());
  ASSERT_EQ(stream->rebuild_count(), 1u);
  // Feed an unrelated regime (different seed and cluster structure): the
  // frozen clustering stops fitting and the drift monitor must escalate.
  ts::DatasetSpec spec;
  spec.num_series = 10;
  spec.num_samples = 200;
  spec.num_clusters = 5;
  spec.noise_level = 0.3;
  spec.seed = 99;
  const ts::Dataset shifted = ts::MakeSensorData(spec);
  ASSERT_TRUE(Feed(&*stream, shifted, 0, 200).ok());
  EXPECT_GT(stream->maintenance().escalations, 0u);
  EXPECT_GT(stream->rebuild_count(), 1u);
}

TEST(Streaming, ForcedRebuildResetsAge) {
  auto stream = StreamingAffinity::Create(Names(10), SmallOptions());
  ASSERT_TRUE(stream.ok());
  const ts::Dataset ds = TestData();
  ASSERT_TRUE(Feed(&*stream, ds, 0, 50).ok());
  EXPECT_EQ(stream->snapshot_age(), 10u);
  ASSERT_TRUE(stream->Rebuild().ok());
  EXPECT_EQ(stream->snapshot_age(), 0u);
  EXPECT_EQ(stream->rebuild_count(), 2u);
}

// Every freshness query path must leave the caller's report in a defined
// state on *every* exit — error branches included (a stale report used to
// leak through Mer's lo > hi rejection and the not-ready precondition).
TEST(Streaming, FreshnessReportWrittenOnErrorBranches) {
  auto stream = StreamingAffinity::Create(Names(10), SmallOptions());
  ASSERT_TRUE(stream.ok());
  const FreshnessReport garbage{123456};

  // Not ready: every query kind fails but still zeroes the report.
  FreshnessReport report = garbage;
  EXPECT_EQ(stream->Met({Measure::kCorrelation, 0.5, true}, {}, &report).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(report.snapshot_age, 0u);
  report = garbage;
  EXPECT_EQ(stream->Mer({Measure::kCorrelation, 0.1, 0.9}, {}, &report).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(report.snapshot_age, 0u);
  report = garbage;
  EXPECT_EQ(stream->TopK({Measure::kCorrelation, 3, true}, {}, &report).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(report.snapshot_age, 0u);
  report = garbage;
  MecRequest mec{Measure::kMean, {0, 1}};
  EXPECT_EQ(stream->Mec(mec, {}, &report).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(report.snapshot_age, 0u);

  // Ready, then an invalid request: the report still reflects the real
  // snapshot age instead of whatever the caller last held.
  const ts::Dataset ds = TestData();
  ASSERT_TRUE(Feed(&*stream, ds, 0, 45).ok());
  report = garbage;
  EXPECT_EQ(stream->Mer({Measure::kCorrelation, 0.9, 0.1}, {}, &report).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(report.snapshot_age, 5u);

  // And the success path reports the same age.
  report = garbage;
  ASSERT_TRUE(stream->Met({Measure::kCorrelation, 0.5, true}, {}, &report).ok());
  EXPECT_EQ(report.snapshot_age, 5u);
}

}  // namespace
}  // namespace affinity::core
