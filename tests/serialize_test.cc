// Tests for model persistence (core/serialize.h): round trips, corrupt
// inputs, and query equivalence of loaded models.

#include "core/serialize.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

#include <gtest/gtest.h>

#include "core/framework.h"
#include "core/scape.h"
#include "core/streaming.h"
#include "model_payload.h"
#include "ts/generators.h"

namespace affinity::core {
namespace {

std::string TempPath(const std::string& name) { return ::testing::TempDir() + "/" + name; }

AffinityModel BuildModel(std::uint64_t seed = 13) {
  ts::DatasetSpec spec;
  spec.num_series = 24;
  spec.num_samples = 80;
  spec.num_clusters = 3;
  spec.noise_level = 0.02;
  spec.seed = seed;
  const ts::Dataset ds = ts::MakeSensorData(spec);
  auto model = BuildAffinityModel(ds.matrix, AfclstOptions{.k = 3}, SymexOptions{});
  EXPECT_TRUE(model.ok());
  return std::move(model).value();
}

TEST(Serialize, RoundTripPreservesStructure) {
  const AffinityModel original = BuildModel();
  const std::string path = TempPath("model.affm");
  ASSERT_TRUE(SaveModel(original, path).ok());

  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->relationship_count(), original.relationship_count());
  EXPECT_EQ(loaded->pivot_count(), original.pivot_count());
  EXPECT_EQ(loaded->data().n(), original.data().n());
  EXPECT_EQ(loaded->data().m(), original.data().m());
  EXPECT_EQ(loaded->data().names(), original.data().names());
  EXPECT_NEAR(loaded->data().matrix().MaxAbsDiff(original.data().matrix()), 0.0, 0.0);
  EXPECT_NEAR(loaded->clustering().centers.MaxAbsDiff(original.clustering().centers), 0.0, 0.0);
  EXPECT_EQ(loaded->clustering().assignment, original.clustering().assignment);
  EXPECT_EQ(loaded->stats().relationships, original.stats().relationships);
}

TEST(Serialize, LoadedModelAnswersIdentically) {
  const AffinityModel original = BuildModel();
  const std::string path = TempPath("model2.affm");
  ASSERT_TRUE(SaveModel(original, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());

  for (const auto& e : ts::AllSequencePairs(original.data().n())) {
    for (Measure m : {Measure::kCovariance, Measure::kDotProduct, Measure::kCorrelation}) {
      EXPECT_DOUBLE_EQ(*loaded->PairMeasure(m, e), *original.PairMeasure(m, e));
    }
  }
  for (ts::SeriesId v = 0; v < original.data().n(); ++v) {
    for (Measure m : {Measure::kMean, Measure::kMedian, Measure::kMode}) {
      EXPECT_DOUBLE_EQ(*loaded->SeriesMeasure(m, v), *original.SeriesMeasure(m, v));
    }
  }
}

TEST(Serialize, ScapeRebuildFromLoadedModelMatches) {
  const AffinityModel original = BuildModel();
  const std::string path = TempPath("model3.affm");
  ASSERT_TRUE(SaveModel(original, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());

  auto index_a = ScapeIndex::Build(original);
  auto index_b = ScapeIndex::Build(*loaded);
  ASSERT_TRUE(index_a.ok());
  ASSERT_TRUE(index_b.ok());
  auto result_a = index_a->MeasureThreshold(Measure::kCorrelation, 0.8, true);
  auto result_b = index_b->MeasureThreshold(Measure::kCorrelation, 0.8, true);
  ASSERT_TRUE(result_a.ok());
  ASSERT_TRUE(result_b.ok());
  auto pa = result_a->pairs, pb = result_b->pairs;
  std::sort(pa.begin(), pa.end());
  std::sort(pb.begin(), pb.end());
  EXPECT_EQ(pa, pb);
}

TEST(Serialize, IncrementallyMaintainedModelRoundTripsBitIdentically) {
  // A model produced by incremental maintenance (DESIGN.md §8) — slid
  // window, extended centres, delta-updated transforms — must persist
  // exactly like a built one: save → load → every field bit-identical.
  ts::DatasetSpec spec;
  spec.num_series = 10;
  spec.num_samples = 200;
  spec.num_clusters = 3;
  spec.noise_level = 0.03;
  spec.seed = 31;
  const ts::Dataset ds = ts::MakeSensorData(spec);

  StreamingOptions options;
  options.window = 40;
  options.rebuild_interval = 4;
  options.mode = UpdateMode::kIncremental;
  options.build.afclst.k = 3;
  options.build.build_dft = false;
  auto stream = StreamingAffinity::Create(ds.matrix.names(), options);
  ASSERT_TRUE(stream.ok());
  std::vector<double> row(ds.matrix.n());
  for (std::size_t i = 0; i < 80; ++i) {  // first build + 10 slides
    for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = ds.matrix.matrix()(i, j);
    ASSERT_TRUE(stream->Append(row).ok());
  }
  ASSERT_GE(stream->refresh_count(), 10u);
  const AffinityModel& maintained = stream->framework()->model();

  const std::string path = TempPath("incremental.affm");
  ASSERT_TRUE(SaveModel(maintained, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Bit-identical payload: window data, extended centres, per-series
  // stats and relationships, every transform. The block-grid anchor (the
  // maintained window's absolute stream position, DESIGN.md §10) rides
  // along so restored sums land on the same grid.
  EXPECT_EQ(maintained.data().anchor_row(), 40u);  // 80 rows fed, window 40
  EXPECT_EQ(loaded->data().anchor_row(), maintained.data().anchor_row());
  EXPECT_EQ(loaded->data().matrix().MaxAbsDiff(maintained.data().matrix()), 0.0);
  EXPECT_EQ(loaded->clustering().centers.MaxAbsDiff(maintained.clustering().centers), 0.0);
  EXPECT_EQ(loaded->clustering().assignment, maintained.clustering().assignment);
  for (ts::SeriesId v = 0; v < maintained.data().n(); ++v) {
    EXPECT_EQ(loaded->series_stats(v).mean, maintained.series_stats(v).mean);
    EXPECT_EQ(loaded->series_stats(v).variance, maintained.series_stats(v).variance);
    EXPECT_EQ(loaded->series_stats(v).sum, maintained.series_stats(v).sum);
    EXPECT_EQ(loaded->series_stats(v).sumsq, maintained.series_stats(v).sumsq);
    EXPECT_EQ(loaded->series_affine(v).gain, maintained.series_affine(v).gain);
    EXPECT_EQ(loaded->series_affine(v).offset, maintained.series_affine(v).offset);
  }
  maintained.ForEachRelationship([&](const ts::SequencePair& e, const AffineRecord& rec) {
    const AffineRecord* lr = loaded->FindRelationship(e);
    ASSERT_NE(lr, nullptr);
    EXPECT_EQ(lr->pivot.Key(), rec.pivot.Key());
    EXPECT_EQ(lr->transform.a11, rec.transform.a11);
    EXPECT_EQ(lr->transform.a21, rec.transform.a21);
    EXPECT_EQ(lr->transform.a12, rec.transform.a12);
    EXPECT_EQ(lr->transform.a22, rec.transform.a22);
    EXPECT_EQ(lr->transform.b1, rec.transform.b1);
    EXPECT_EQ(lr->transform.b2, rec.transform.b2);
  });
  maintained.ForEachPivot([&](const PivotPair& p, const PairMatrixMeasures& pm) {
    const PairMatrixMeasures* lp = loaded->FindPivotMeasures(p);
    ASSERT_NE(lp, nullptr);
    EXPECT_EQ(lp->cov12, pm.cov12);
    EXPECT_EQ(lp->dot12, pm.dot12);
    EXPECT_EQ(lp->h1, pm.h1);
    EXPECT_EQ(lp->h2, pm.h2);
  });

  // And the loaded model re-saves to the same byte count (a cheap guard
  // against asymmetric read/write paths).
  const std::string path2 = TempPath("incremental2.affm");
  ASSERT_TRUE(SaveModel(*loaded, path2).ok());
  std::ifstream a(path, std::ios::binary | std::ios::ate);
  std::ifstream b(path2, std::ios::binary | std::ios::ate);
  EXPECT_EQ(a.tellg(), b.tellg());
}

TEST(Serialize, TruncatedModelRoundTrips) {
  ts::DatasetSpec spec;
  spec.num_series = 20;
  spec.num_samples = 50;
  spec.num_clusters = 2;
  spec.seed = 9;
  const ts::Dataset ds = ts::MakeSensorData(spec);
  SymexOptions symex;
  symex.max_relationships = 30;
  auto model = BuildAffinityModel(ds.matrix, AfclstOptions{.k = 2}, symex);
  ASSERT_TRUE(model.ok());
  const std::string path = TempPath("trunc.affm");
  ASSERT_TRUE(SaveModel(*model, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->relationship_count(), 30u);
}

TEST(Serialize, MissingFileIsIoError) {
  EXPECT_EQ(LoadModel(TempPath("nope.affm")).status().code(), StatusCode::kIoError);
}

TEST(Serialize, BadMagicRejected) {
  const std::string path = TempPath("garbage.affm");
  std::ofstream(path) << "definitely not a model";
  auto loaded = LoadModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(Serialize, TruncatedFileRejected) {
  const AffinityModel model = BuildModel();
  const std::string path = TempPath("full.affm");
  ASSERT_TRUE(SaveModel(model, path).ok());
  // Chop the file in half.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  const std::string cut = TempPath("cut.affm");
  std::ofstream(cut, std::ios::binary) << bytes.substr(0, bytes.size() / 2);
  auto loaded = LoadModel(cut);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// Pre-anchor (v1) payloads still load: the only v2 addition is the
// block-grid anchor, whose faithful default for v1 data is 0 (the phase
// those payloads' measures were computed at). Reconstruct a v1 file by
// splicing the anchor field out of a v2 payload.
TEST(Serialize, V1PayloadLoadsWithZeroAnchor) {
  const AffinityModel model = BuildModel();
  const std::string path = TempPath("v1.affm");
  ASSERT_TRUE(SaveModel(model, path).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  // Walk the v2 layout to the anchor field: magic(4) version(4),
  // matrix rows/cols(16) + data, name count(8) + length-prefixed names.
  std::size_t off = 8;
  const auto u64_at = [&](std::size_t pos) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + pos, sizeof v);
    return static_cast<std::size_t>(v);
  };
  const std::size_t rows = u64_at(off);
  const std::size_t cols = u64_at(off + 8);
  off += 16 + rows * cols * sizeof(double);
  const std::size_t name_count = u64_at(off);
  off += 8;
  for (std::size_t i = 0; i < name_count; ++i) off += 8 + u64_at(off);
  ASSERT_EQ(u64_at(off), model.data().anchor_row());
  bytes.erase(off, 8);
  const std::uint32_t v1 = 1;
  std::memcpy(bytes.data() + 4, &v1, sizeof v1);
  const std::string v1_path = TempPath("v1_spliced.affm");
  std::ofstream(v1_path, std::ios::binary) << bytes;

  auto loaded = LoadModel(v1_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->data().anchor_row(), 0u);
  EXPECT_EQ(loaded->relationship_count(), model.relationship_count());
  EXPECT_EQ(loaded->data().matrix().MaxAbsDiff(model.data().matrix()), 0.0);
}

TEST(Serialize, UnsupportedVersionRejected) {
  const AffinityModel model = BuildModel();
  const std::string path = TempPath("ver.affm");
  ASSERT_TRUE(SaveModel(model, path).ok());
  // Bump the version field (bytes 4..7).
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(4);
  const std::uint32_t bad = 999;
  f.write(reinterpret_cast<const char*>(&bad), sizeof bad);
  f.close();
  auto loaded = LoadModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

/// Expects the payload to be rejected as InvalidArgument by the check
/// whose message contains `what`.
void ExpectRejected(const std::string& bytes, const std::string& what) {
  std::istringstream in(bytes);
  const auto loaded = ReadModelStream(in);
  ASSERT_FALSE(loaded.ok()) << what;
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << what;
  EXPECT_NE(loaded.status().message().find(what), std::string::npos)
      << "expected '" << what << "', got " << loaded.status().ToString();
}

// Hostile payloads: each mutation breaks one structural invariant that
// downstream code indexes by (or, for the pivots, that the incremental
// solve relies on) while keeping the byte stream well formed, so only the
// matching check can reject it.
TEST(Serialize, OutOfRangeIdsAreRejected) {
  using testing_payload::kPivotRecordBytes;
  using testing_payload::ModelPayloadLayout;
  using testing_payload::PutAt;
  using testing_payload::U32At;
  using testing_payload::U64At;
  using testing_payload::WalkModelPayload;
  const AffinityModel model = BuildModel();
  std::ostringstream out;
  ASSERT_TRUE(WriteModelStream(model, out).ok());
  const std::string saved = out.str();
  const ModelPayloadLayout l = WalkModelPayload(saved);
  ASSERT_EQ(l.k, 3u);
  ASSERT_EQ(l.window, model.data().m());
  ASSERT_EQ(U64At(saved, l.build_stats), model.relationship_count());
  {
    std::istringstream in(saved);
    ASSERT_TRUE(ReadModelStream(in).ok());
  }
  const std::size_t rel_cluster = l.relationships + 12;  // after the key and the series
  const std::size_t pivot = l.pivots + 8;                // the first pivot-hash record
  const std::uint32_t pivot_series = U32At(saved, pivot + 8);
  const std::uint32_t pivot_cluster = U32At(saved, pivot + 12);
  const bool pivot_series_first = saved[pivot + 16] != 0;

  std::string b = saved;
  PutAt<std::uint32_t>(&b, l.assignment, 1000);
  ExpectRejected(b, "cluster assignment out of range");

  // Each centre column loses its last row; the stream stays aligned.
  b = saved;
  for (std::size_t j = l.k; j-- > 0;) {
    b.erase(l.center_data + ((j + 1) * l.window - 1) * sizeof(double), sizeof(double));
  }
  PutAt<std::uint64_t>(&b, l.center_rows, l.window - 1);
  ExpectRejected(b, "cluster centres differ from the window length");

  b = saved;
  PutAt<std::uint64_t>(&b, l.relationships, 5000);  // (0, 5000)
  ExpectRejected(b, "relationship key out of range");

  b = saved;  // (v, u): the first key read backwards
  const std::uint64_t key = U64At(saved, l.relationships);
  PutAt<std::uint64_t>(&b, l.relationships, (key << 32) | (key >> 32));
  ExpectRejected(b, "relationship key out of range");

  b = saved;
  PutAt<std::uint32_t>(&b, rel_cluster, (U32At(saved, rel_cluster) + 1) % 3);
  ExpectRejected(b, "relationship pivot disagrees with the clustering");

  // Dropping a pivot-hash record leaves some relationship without its
  // pivot; both pivot counts follow so the section counts still agree.
  b = saved;
  b.erase(pivot, kPivotRecordBytes);
  PutAt<std::uint64_t>(&b, l.pivots, U64At(saved, l.pivots) - 1);
  const std::size_t stats_pivots = l.build_stats - kPivotRecordBytes + 8;
  PutAt<std::uint64_t>(&b, stats_pivots, U64At(b, stats_pivots) - 1);
  ExpectRejected(b, "relationship names a missing pivot");

  // Out-of-range pivots, each re-keyed so the key check passes.
  PivotPair bad_series{static_cast<ts::SeriesId>(model.data().n()), pivot_cluster,
                       pivot_series_first};
  b = saved;
  PutAt<std::uint64_t>(&b, pivot, bad_series.Key());
  PutAt<std::uint32_t>(&b, pivot + 8, bad_series.series);
  ExpectRejected(b, "pivot-hash entry out of range");
  PivotPair bad_cluster{pivot_series, 3, pivot_series_first};
  b = saved;
  PutAt<std::uint64_t>(&b, pivot, bad_cluster.Key());
  PutAt<std::uint32_t>(&b, pivot + 12, bad_cluster.cluster);
  ExpectRejected(b, "pivot-hash entry out of range");

  b = saved;
  PutAt<std::uint64_t>(&b, pivot, ~std::uint64_t{0});
  ExpectRejected(b, "pivot-hash key disagrees with its entry");

  // The first row of centre L-measures loses its last centre.
  b = saved;
  b.erase(l.center_loc + 16 + (l.k - 1) * sizeof(double), sizeof(double));
  PutAt<std::uint64_t>(&b, l.center_loc + 8, l.k - 1);
  ExpectRejected(b, "centre L-measures are not 3 x k");
}

TEST(Serialize, SaveToUnwritablePathFails) {
  const AffinityModel model = BuildModel();
  EXPECT_EQ(SaveModel(model, "/nonexistent-dir/x.affm").code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace affinity::core
