// Tests for the sharded streaming service (src/shard): partitioner
// invariants, scatter-gather equivalence with the unsharded baseline at
// 1/2/8 shards × 1/2/8 threads (at every publication of a dirty feed, in
// the differential oracle), per-shard freshness reports, and the
// shard-manifest round-trip across format versions.

#include "shard/sharded.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/serialize.h"
#include "model_payload.h"
#include "ts/generators.h"
#include "ts/ingest.h"

namespace affinity::shard {
namespace {

using core::FreshnessOptions;
using core::Measure;
using core::MecRequest;
using core::MetRequest;
using core::MerRequest;
using core::QueryMethod;
using core::TopKRequest;

std::string TempPath(const std::string& name) { return ::testing::TempDir() + "/" + name; }

std::vector<std::string> Names(std::size_t n) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back("s" + std::to_string(i));
  return out;
}

ts::Dataset TestData(std::size_t n = 16, std::uint64_t seed = 12) {
  ts::DatasetSpec spec;
  spec.num_series = n;
  spec.num_samples = 240;
  spec.num_clusters = 3;
  spec.noise_level = 0.02;
  spec.seed = seed;
  return ts::MakeSensorData(spec);
}

ShardedOptions SmallOptions(std::size_t shards, std::size_t threads = 1) {
  ShardedOptions options;
  options.shards = shards;
  options.streaming.window = 40;
  options.streaming.rebuild_interval = 20;
  options.streaming.mode = core::UpdateMode::kIncremental;
  options.streaming.build.afclst.k = 2;
  options.streaming.build.build_dft = false;
  options.streaming.build.threads = threads;
  return options;
}

/// Feeds rows [begin, end) of `ds` into the sharded service.
void Feed(ShardedAffinity* service, const ts::Dataset& ds, std::size_t begin, std::size_t end) {
  std::vector<double> row(ds.matrix.n());
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = ds.matrix.matrix()(i, j);
    ASSERT_TRUE(service->Append(row).ok());
  }
}

void FeedStream(core::StreamingAffinity* stream, const ts::Dataset& ds, std::size_t begin,
                std::size_t end) {
  std::vector<double> row(ds.matrix.n());
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = ds.matrix.matrix()(i, j);
    ASSERT_TRUE(stream->Append(row).ok());
  }
}

// ---------------------------------------------------------------------------
// SeriesPartitioner.
// ---------------------------------------------------------------------------

TEST(Partitioner, RangeIsContiguousDisjointCover) {
  auto p = SeriesPartitioner::Create(Names(10), 3, PartitionScheme::kRange);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->shards(), 3u);
  std::set<ts::SeriesId> seen;
  for (std::size_t s = 0; s < 3; ++s) {
    const auto& group = p->group(s);
    EXPECT_GE(group.size(), 2u);
    EXPECT_TRUE(std::is_sorted(group.begin(), group.end()));
    // Contiguous block.
    EXPECT_EQ(group.back() - group.front() + 1, group.size());
    for (ts::SeriesId id : group) {
      EXPECT_TRUE(seen.insert(id).second) << "series in two shards";
      EXPECT_EQ(p->shard_of(id), s);
      EXPECT_EQ(p->global_id(s, p->local_id(id)), id);
    }
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Partitioner, HashIsBalancedDeterministicCover) {
  const auto names = Names(17);
  auto a = SeriesPartitioner::Create(names, 4, PartitionScheme::kHash);
  auto b = SeriesPartitioner::Create(names, 4, PartitionScheme::kHash);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::set<ts::SeriesId> seen;
  for (std::size_t s = 0; s < 4; ++s) {
    // Balanced within one series per shard: 17/4 → sizes in {4, 5}.
    EXPECT_GE(a->group(s).size(), 4u);
    EXPECT_LE(a->group(s).size(), 5u);
    EXPECT_EQ(a->group(s), b->group(s)) << "hash partition must be deterministic";
    for (ts::SeriesId id : a->group(s)) EXPECT_TRUE(seen.insert(id).second);
  }
  EXPECT_EQ(seen.size(), 17u);
}

TEST(Partitioner, CrossPairCountMatchesEnumeration) {
  auto p = SeriesPartitioner::Create(Names(9), 2, PartitionScheme::kHash);
  ASSERT_TRUE(p.ok());
  std::size_t cross = 0;
  for (std::size_t u = 0; u < 9; ++u) {
    for (std::size_t v = u + 1; v < 9; ++v) {
      if (p->shard_of(u) != p->shard_of(v)) ++cross;
    }
  }
  EXPECT_EQ(p->cross_pair_count(), cross);
}

TEST(Partitioner, RejectsBadGeometry) {
  EXPECT_FALSE(SeriesPartitioner::Create(Names(4), 0, PartitionScheme::kRange).ok());
  EXPECT_FALSE(SeriesPartitioner::Create(Names(4), 3, PartitionScheme::kRange).ok());
  EXPECT_FALSE(SeriesPartitioner::Create(Names(5), 3, PartitionScheme::kHash).ok());
  EXPECT_TRUE(SeriesPartitioner::Create(Names(6), 3, PartitionScheme::kRange).ok());
}

TEST(Partitioner, FromAssignmentRoundTrips) {
  auto p = SeriesPartitioner::Create(Names(11), 3, PartitionScheme::kHash);
  ASSERT_TRUE(p.ok());
  std::vector<std::uint32_t> assignment(11);
  for (std::size_t i = 0; i < 11; ++i) {
    assignment[i] = static_cast<std::uint32_t>(p->shard_of(i));
  }
  auto q = SeriesPartitioner::FromAssignment(assignment, 3, PartitionScheme::kHash);
  ASSERT_TRUE(q.ok());
  for (std::size_t s = 0; s < 3; ++s) EXPECT_EQ(p->group(s), q->group(s));
  // Out-of-range shard id rejected.
  assignment[0] = 7;
  EXPECT_FALSE(SeriesPartitioner::FromAssignment(assignment, 3, PartitionScheme::kHash).ok());
}

// ---------------------------------------------------------------------------
// Construction validation (Status, never a crash).
// ---------------------------------------------------------------------------

TEST(Sharded, CreateValidatesOptions) {
  EXPECT_FALSE(ShardedAffinity::Create(Names(16), SmallOptions(0)).ok());
  EXPECT_FALSE(ShardedAffinity::Create(Names(16), SmallOptions(9)).ok());  // 16 < 2·9
  ShardedOptions bad = SmallOptions(2);
  bad.streaming.window = 1;
  EXPECT_FALSE(ShardedAffinity::Create(Names(16), bad).ok());
  bad = SmallOptions(2);
  bad.streaming.rebuild_interval = 0;
  EXPECT_FALSE(ShardedAffinity::Create(Names(16), bad).ok());
  bad = SmallOptions(2);
  bad.streaming.incremental.exact_refit_period = 0;
  EXPECT_FALSE(ShardedAffinity::Create(Names(16), bad).ok());
  bad = SmallOptions(2);
  bad.streaming.incremental.escalation_factor = 0.0;
  EXPECT_FALSE(ShardedAffinity::Create(Names(16), bad).ok());
  EXPECT_TRUE(ShardedAffinity::Create(Names(16), SmallOptions(2)).ok());
  // Every shard keeps every relationship: 2 range shards of 17 series
  // hold 9 and 8 series, so a budget of 28 pairs truncates the 36 of the
  // larger one.
  bad = SmallOptions(2);
  bad.streaming.build.symex.max_relationships = 28;
  const auto truncated = ShardedAffinity::Create(Names(17), bad);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(truncated.status().message().find("28"), std::string::npos);
  EXPECT_NE(truncated.status().message().find("36"), std::string::npos)
      << truncated.status().ToString();
}

TEST(Sharded, AppendValidatesRowWidth) {
  auto service = ShardedAffinity::Create(Names(8), SmallOptions(2));
  ASSERT_TRUE(service.ok());
  EXPECT_FALSE(service->Append({1.0, 2.0}).ok());
  EXPECT_TRUE(service->Append(std::vector<double>(8, 1.0)).ok());
}

TEST(Sharded, QueriesFailBeforeFirstSnapshot) {
  auto service = ShardedAffinity::Create(Names(8), SmallOptions(2));
  ASSERT_TRUE(service.ok());
  EXPECT_FALSE(service->ready());
  MetRequest request{Measure::kCorrelation, 0.9, true};
  EXPECT_EQ(service->Met(request).status().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Ingest semantics.
// ---------------------------------------------------------------------------

TEST(Sharded, ShardsRefreshInLockstep) {
  const ts::Dataset ds = TestData();
  auto service = ShardedAffinity::Create(ds.matrix.names(), SmallOptions(4));
  ASSERT_TRUE(service.ok());
  std::vector<double> row(ds.matrix.n());
  std::size_t refreshes = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = ds.matrix.matrix()(i, j);
    const core::AppendResult result = service->Append(row);
    ASSERT_TRUE(result.ok());
    const bool expect_refresh = (i + 1) == 40 || ((i + 1) > 40 && (i + 1) % 20 == 0);
    EXPECT_EQ(result.refreshed, expect_refresh) << "row " << i + 1;
    if (result.refreshed) ++refreshes;
  }
  EXPECT_EQ(refreshes, 4u);
  EXPECT_TRUE(service->ready());
  EXPECT_EQ(service->rows_ingested(), 100u);
  // Lockstep: every shard's snapshot is the same age.
  for (const std::size_t age : service->snapshot_ages()) EXPECT_EQ(age, 0u);
  // Maintenance aggregation saw every shard's refreshes (first build at 40
  // plus 3 incremental refreshes per shard).
  EXPECT_EQ(service->maintenance().refreshes, 4u * 3u);
  EXPECT_GT(service->maintenance().relationships_updated +
                service->maintenance().relationships_refit,
            0u);
}

// ---------------------------------------------------------------------------
// Scatter-gather equivalence with the unsharded baseline.
// ---------------------------------------------------------------------------

/// Canonical order for comparing selection answers.
template <typename T>
std::vector<T> Sorted(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(Sharded, AnswersMatchUnshardedBaseline) {
  const ts::Dataset ds = TestData();
  // Unsharded baseline over the same 120 rows.
  core::StreamingOptions base_options = SmallOptions(1).streaming;
  auto baseline = core::StreamingAffinity::Create(ds.matrix.names(), base_options);
  ASSERT_TRUE(baseline.ok());
  FeedStream(&*baseline, ds, 0, 120);
  ASSERT_TRUE(baseline->ready());

  const MetRequest met{Measure::kCorrelation, 0.9, true};
  const MerRequest mer{Measure::kCovariance, -0.1, 0.1};
  const MetRequest met_mean{Measure::kMean, 0.0, true};
  const TopKRequest topk{Measure::kCorrelation, 5, true};
  MecRequest mec;
  mec.measure = Measure::kCovariance;
  mec.ids = {0, 3, 7, 9, 12, 15};  // spans every shard at 8 shards

  auto base_met = baseline->Met(met);
  auto base_mer = baseline->Mer(mer);
  auto base_met_mean = baseline->Met(met_mean);
  auto base_topk = baseline->TopK(topk);
  auto base_mec = baseline->Mec(mec);
  ASSERT_TRUE(base_met.ok());
  ASSERT_TRUE(base_mer.ok());
  ASSERT_TRUE(base_met_mean.ok());
  ASSERT_TRUE(base_topk.ok());
  ASSERT_TRUE(base_mec.ok());
  ASSERT_GT(base_met->pairs.size(), 0u);
  ASSERT_GT(base_mer->pairs.size(), 0u);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) + " threads=" + std::to_string(threads));
      auto service = ShardedAffinity::Create(ds.matrix.names(), SmallOptions(shards, threads));
      ASSERT_TRUE(service.ok());
      Feed(&*service, ds, 0, 120);
      ASSERT_TRUE(service->ready());

      auto s_met = service->Met(met);
      ASSERT_TRUE(s_met.ok());
      EXPECT_EQ(Sorted(s_met->result.pairs), Sorted(base_met->pairs));

      auto s_mer = service->Mer(mer);
      ASSERT_TRUE(s_mer.ok());
      EXPECT_EQ(Sorted(s_mer->result.pairs), Sorted(base_mer->pairs));

      auto s_met_mean = service->Met(met_mean);
      ASSERT_TRUE(s_met_mean.ok());
      EXPECT_EQ(Sorted(s_met_mean->result.series), Sorted(base_met_mean->series));

      auto s_topk = service->TopK(topk);
      ASSERT_TRUE(s_topk.ok());
      ASSERT_EQ(s_topk->result.entries.size(), base_topk->entries.size());
      // Same entity set, same order by value; values equal to a few ulps
      // (per-shard WA and cross-shard WN round differently).
      std::vector<ts::SequencePair> s_pairs;
      std::vector<ts::SequencePair> b_pairs;
      for (std::size_t i = 0; i < base_topk->entries.size(); ++i) {
        s_pairs.push_back(s_topk->result.entries[i].pair);
        b_pairs.push_back(base_topk->entries[i].pair);
        EXPECT_NEAR(s_topk->result.entries[i].value, base_topk->entries[i].value, 1e-9);
      }
      EXPECT_EQ(Sorted(s_pairs), Sorted(b_pairs));

      auto s_mec = service->Mec(mec);
      ASSERT_TRUE(s_mec.ok());
      for (std::size_t i = 0; i < mec.ids.size(); ++i) {
        for (std::size_t j = 0; j < mec.ids.size(); ++j) {
          EXPECT_NEAR(s_mec->response.pair_values(i, j), base_mec->pair_values(i, j), 1e-9)
              << "cell " << i << "," << j;
        }
      }

      // The executed plan is shard-aware: at N > 1 the rationale records
      // the scatter-gather and the kAuto dispatch still resolves.
      if (shards > 1) {
        EXPECT_NE(s_met->result.plan.rationale.find("scatter-gather"), std::string::npos);
      }
    }
  }
}

TEST(Sharded, HashPartitionAlsoMatchesBaseline) {
  const ts::Dataset ds = TestData();
  core::StreamingOptions base_options = SmallOptions(1).streaming;
  auto baseline = core::StreamingAffinity::Create(ds.matrix.names(), base_options);
  ASSERT_TRUE(baseline.ok());
  FeedStream(&*baseline, ds, 0, 120);

  ShardedOptions options = SmallOptions(4);
  options.partition = PartitionScheme::kHash;
  auto service = ShardedAffinity::Create(ds.matrix.names(), options);
  ASSERT_TRUE(service.ok());
  Feed(&*service, ds, 0, 120);

  const MetRequest met{Measure::kCorrelation, 0.9, true};
  auto base = baseline->Met(met);
  auto sharded = service->Met(met);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(Sorted(sharded->result.pairs), Sorted(base->pairs));
}

TEST(Sharded, ResultsAreIdenticalAcrossThreadCounts) {
  const ts::Dataset ds = TestData();
  std::vector<ShardedTopK> per_thread;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    auto service = ShardedAffinity::Create(ds.matrix.names(), SmallOptions(4, threads));
    ASSERT_TRUE(service.ok());
    Feed(&*service, ds, 0, 100);
    auto topk = service->TopK(TopKRequest{Measure::kCovariance, 7, true});
    ASSERT_TRUE(topk.ok());
    per_thread.push_back(std::move(*topk));
  }
  for (std::size_t t = 1; t < per_thread.size(); ++t) {
    ASSERT_EQ(per_thread[t].result.entries.size(), per_thread[0].result.entries.size());
    for (std::size_t i = 0; i < per_thread[0].result.entries.size(); ++i) {
      EXPECT_EQ(per_thread[t].result.entries[i].pair, per_thread[0].result.entries[i].pair);
      // Bitwise: the §7 determinism contract extends through the router.
      EXPECT_EQ(per_thread[t].result.entries[i].value, per_thread[0].result.entries[i].value);
    }
  }
}

// ---------------------------------------------------------------------------
// Differential oracle: the sharded facade against one unsharded stream at
// every publication of a dirty feed, through a Rebuild and a checkpoint.
// ---------------------------------------------------------------------------

/// Aligned rows of a 16-series feed whose series drop 5%..35% of their
/// samples (series j drops 5 + 2j percent); a one-tick fill horizon turns
/// two missed ticks in a row into an explicit gap.
std::vector<ts::AlignedRow> DirtyRows(const ts::Dataset& ds, std::size_t rows,
                                      std::uint64_t seed) {
  const std::size_t n = ds.matrix.n();
  ts::IngestOptions iopts;
  iopts.max_fill = 1;
  ts::StreamAligner aligner(n, iopts);
  Xoshiro256 rng(seed);
  std::vector<ts::AlignedRow> out;
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.Uniform(0.0, 1.0) < 0.05 + 0.02 * static_cast<double>(j)) continue;
      EXPECT_TRUE(aligner.Push(j, static_cast<double>(i), ds.matrix.matrix()(i, j)).ok());
    }
    aligner.EmitUpTo(static_cast<double>(i + 1), &out);
  }
  return out;
}

/// How far a sharded value may sit from the unsharded one, relative to
/// 1 + |value|. One shard runs the unsharded stream's code on its data:
/// bitwise. With more, the WA values of each incrementally maintained
/// model come from relationships fitted against its own frozen
/// clustering, so they approximate WN differently (DESIGN.md §8, §9), and
/// a cross pair is WN on the sharded side but WA on the unsharded one; on
/// this feed the two sides differ by up to 3e-9. A gather fault — a wrong
/// column, a dropped run, a misrouted cell — moves a value by orders of
/// magnitude more.
double RelativeTolerance(std::size_t shards) { return shards == 1 ? 0.0 : 1e-7; }

/// Same entity set and, rank by rank, values within `rel`·(1 + |value|).
void ExpectSameTopK(const core::TopKResult& sharded, const core::TopKResult& base, double rel) {
  ASSERT_EQ(sharded.entries.size(), base.entries.size());
  std::vector<ts::SequencePair> s_pairs;
  std::vector<ts::SequencePair> b_pairs;
  std::vector<ts::SeriesId> s_series;
  std::vector<ts::SeriesId> b_series;
  for (std::size_t i = 0; i < base.entries.size(); ++i) {
    s_pairs.push_back(sharded.entries[i].pair);
    b_pairs.push_back(base.entries[i].pair);
    s_series.push_back(sharded.entries[i].series);
    b_series.push_back(base.entries[i].series);
    EXPECT_NEAR(sharded.entries[i].value, base.entries[i].value,
                rel * (1.0 + std::abs(base.entries[i].value)))
        << "rank " << i;
  }
  EXPECT_EQ(Sorted(s_pairs), Sorted(b_pairs));
  EXPECT_EQ(Sorted(s_series), Sorted(b_series));
}

void ExpectSameMec(const core::MecResponse& sharded, const core::MecResponse& base, double rel) {
  ASSERT_EQ(sharded.location.size(), base.location.size());
  for (std::size_t i = 0; i < base.location.size(); ++i) {
    EXPECT_NEAR(sharded.location[i], base.location[i], rel * (1.0 + std::abs(base.location[i])))
        << "location " << i;
  }
  ASSERT_EQ(sharded.pair_values.rows(), base.pair_values.rows());
  for (std::size_t i = 0; i < base.pair_values.rows(); ++i) {
    for (std::size_t j = 0; j < base.pair_values.cols(); ++j) {
      EXPECT_NEAR(sharded.pair_values(i, j), base.pair_values(i, j),
                  rel * (1.0 + std::abs(base.pair_values(i, j))))
          << "cell " << i << "," << j;
    }
  }
}

/// Every query kind through the sharded facade against the unsharded
/// stream, with and without a `min_quality` halfway between the worst and
/// best series score. Adds the filtered MET's exclusions to `*excluded`.
void ExpectMatchesBaseline(const ShardedAffinity& service,
                           const core::StreamingAffinity& baseline, std::size_t* excluded) {
  const double rel = RelativeTolerance(service.shard_count());
  const std::vector<double>& scores = baseline.quality_scores();
  const auto [lo, hi] = std::minmax_element(scores.begin(), scores.end());
  for (const double min_quality : {0.0, 0.5 * (*lo + *hi)}) {
    SCOPED_TRACE("min_quality=" + std::to_string(min_quality));
    MetRequest met{Measure::kCorrelation, 0.5, true};
    met.min_quality = min_quality;
    auto s_met = service.Met(met);
    auto b_met = baseline.Met(met);
    ASSERT_TRUE(s_met.ok()) << s_met.status().ToString();
    ASSERT_TRUE(b_met.ok());
    EXPECT_EQ(Sorted(s_met->result.pairs), Sorted(b_met->pairs));
    EXPECT_EQ(s_met->result.quality.excluded, b_met->quality.excluded);
    *excluded += s_met->result.quality.excluded;

    MetRequest met_mean{Measure::kMean, 0.0, true};
    met_mean.min_quality = min_quality;
    auto s_met_mean = service.Met(met_mean);
    auto b_met_mean = baseline.Met(met_mean);
    ASSERT_TRUE(s_met_mean.ok());
    ASSERT_TRUE(b_met_mean.ok());
    EXPECT_EQ(Sorted(s_met_mean->result.series), Sorted(b_met_mean->series));

    MerRequest mer{Measure::kCovariance, -0.2, 0.2};
    mer.min_quality = min_quality;
    auto s_mer = service.Mer(mer);
    auto b_mer = baseline.Mer(mer);
    ASSERT_TRUE(s_mer.ok());
    ASSERT_TRUE(b_mer.ok());
    EXPECT_EQ(Sorted(s_mer->result.pairs), Sorted(b_mer->pairs));

    for (TopKRequest topk :
         {TopKRequest{Measure::kCorrelation, 5, true}, TopKRequest{Measure::kCovariance, 7, false},
          TopKRequest{Measure::kMean, 3, true}}) {
      topk.min_quality = min_quality;
      auto s_topk = service.TopK(topk);
      auto b_topk = baseline.TopK(topk);
      ASSERT_TRUE(s_topk.ok());
      ASSERT_TRUE(b_topk.ok());
      ExpectSameTopK(s_topk->result, *b_topk, rel);
    }

    for (MecRequest mec : {MecRequest{Measure::kCovariance, {0, 3, 7, 9, 12, 15}},
                           MecRequest{Measure::kMean, {1, 8, 14}}}) {
      mec.min_quality = min_quality;
      auto s_mec = service.Mec(mec);
      auto b_mec = baseline.Mec(mec);
      ASSERT_EQ(s_mec.status().code(), b_mec.status().code());
      if (b_mec.ok()) ExpectSameMec(s_mec->response, *b_mec, rel);
    }
  }
}

TEST(Sharded, DirtyFeedMatchesUnshardedAtEveryPublication) {
  const ts::Dataset ds = TestData(16, 31);
  const std::vector<ts::AlignedRow> rows = DirtyRows(ds, 200, 77);
  ASSERT_GT(rows.size(), 150u);
  constexpr std::size_t kRebuildAt = 95;
  constexpr std::size_t kCheckpointAt = 130;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) + " threads=" + std::to_string(threads));
      ShardedOptions options = SmallOptions(shards, threads);
      options.streaming.rebuild_interval = 10;
      options.streaming.build.build_dft = true;  // WF sketches each epoch's window
      auto created = ShardedAffinity::Create(ds.matrix.names(), options);
      ASSERT_TRUE(created.ok());
      auto service = std::make_unique<ShardedAffinity>(std::move(*created));
      auto base_created = core::StreamingAffinity::Create(ds.matrix.names(), options.streaming);
      ASSERT_TRUE(base_created.ok());
      auto baseline = std::make_unique<core::StreamingAffinity>(std::move(*base_created));

      std::size_t publications = 0;
      std::size_t excluded = 0;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        SCOPED_TRACE("row " + std::to_string(i));
        const core::AppendResult s_append = service->AppendMasked(rows[i]);
        const core::AppendResult b_append = baseline->AppendMasked(rows[i]);
        ASSERT_TRUE(s_append.ok());
        ASSERT_TRUE(b_append.ok());
        ASSERT_EQ(s_append.refreshed, b_append.refreshed);
        if (i == kRebuildAt) {
          ASSERT_TRUE(service->Rebuild().ok());
          ASSERT_TRUE(baseline->Rebuild().ok());
        } else if (i == kCheckpointAt) {
          // The manifest keeps each shard's snapshot window; the baseline
          // restores from its own snapshot model the same way.
          const std::string path = TempPath("oracle.affs");
          ASSERT_TRUE(service->Save(path).ok());
          auto loaded = ShardedAffinity::Load(path, threads);
          ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
          service = std::make_unique<ShardedAffinity>(std::move(*loaded));
          std::stringstream checkpoint;
          ASSERT_TRUE(core::WriteModelStream(baseline->framework()->model(), checkpoint).ok());
          auto model = core::ReadModelStream(checkpoint);
          ASSERT_TRUE(model.ok());
          auto restored =
              core::StreamingAffinity::Restore(std::move(*model), options.streaming, {});
          ASSERT_TRUE(restored.ok());
          baseline = std::make_unique<core::StreamingAffinity>(std::move(*restored));
        } else if (!s_append.refreshed) {
          continue;
        }
        ++publications;
        ExpectMatchesBaseline(*service, *baseline, &excluded);
      }
      EXPECT_GE(publications, 15u);
      EXPECT_GT(excluded, 0u);  // the quality predicate did filter

      // An explicit WF method: every shard sketches its epoch's window,
      // and the answer is served from the router epoch.
      FreshnessOptions wf;
      wf.method = QueryMethod::kDft;
      auto wf_met = service->Met(MetRequest{Measure::kCorrelation, 0.5, true}, wf);
      ASSERT_TRUE(wf_met.ok()) << wf_met.status().ToString();
      EXPECT_EQ(wf_met->result.plan.method, QueryMethod::kDft);
      EXPECT_NE(wf_met->result.plan.rationale.find("served from read-optimized snapshot"),
                std::string::npos);
    }
  }
}

// ---------------------------------------------------------------------------
// Freshness-bounded answers.
// ---------------------------------------------------------------------------

// Between refreshes every answer reports each shard's age and still comes
// from the epoch the query acquired.
TEST(Sharded, FreshnessReportsEveryShardsAge) {
  const ts::Dataset ds = TestData();
  auto service = ShardedAffinity::Create(ds.matrix.names(), SmallOptions(2));
  ASSERT_TRUE(service.ok());
  Feed(&*service, ds, 0, 40);  // first snapshot at row 40
  ASSERT_TRUE(service->ready());

  // Age the snapshot by 5 rows with a ×3 amplitude regime, so an answer
  // that read the live rows would differ from the epoch's.
  std::vector<double> row(ds.matrix.n());
  for (std::size_t i = 40; i < 45; ++i) {
    for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = 3.0 * ds.matrix.matrix()(i, j);
    ASSERT_TRUE(service->Append(row).ok());
  }

  MecRequest mec;
  mec.measure = Measure::kCovariance;
  mec.ids = {0, 15};  // different shards at 2-way range partition
  const MetRequest met{Measure::kCorrelation, 0.5, true};
  const TopKRequest topk{Measure::kCovariance, 5, true};

  auto aged_mec = service->Mec(mec);
  auto aged_met = service->Met(met);
  auto aged_topk = service->TopK(topk);
  ASSERT_TRUE(aged_mec.ok());
  ASSERT_TRUE(aged_met.ok());
  ASSERT_TRUE(aged_topk.ok());
  for (const auto* shards : {&aged_mec->shards, &aged_met->shards, &aged_topk->shards}) {
    ASSERT_EQ(shards->size(), 2u);
    for (const ShardFreshness& f : *shards) EXPECT_EQ(f.snapshot_age, 5u);
  }

  // The aged answers are the epoch's.
  const auto epoch = service->serving();
  ASSERT_NE(epoch, nullptr);
  auto epoch_mec = RouterMec(*epoch, mec);
  auto epoch_met = RouterMet(*epoch, met);
  auto epoch_topk = RouterTopK(*epoch, topk);
  ASSERT_TRUE(epoch_mec.ok());
  ASSERT_TRUE(epoch_met.ok());
  ASSERT_TRUE(epoch_topk.ok());
  EXPECT_EQ(aged_mec->response.pair_values(0, 1), epoch_mec->pair_values(0, 1));
  EXPECT_EQ(aged_met->result.pairs, epoch_met->pairs);
  ASSERT_EQ(aged_topk->result.entries.size(), epoch_topk->entries.size());
  for (std::size_t i = 0; i < epoch_topk->entries.size(); ++i) {
    EXPECT_EQ(aged_topk->result.entries[i].pair, epoch_topk->entries[i].pair);
    EXPECT_EQ(aged_topk->result.entries[i].value, epoch_topk->entries[i].value);
  }
}

// ---------------------------------------------------------------------------
// Shard-manifest round-trip.
// ---------------------------------------------------------------------------

TEST(Sharded, ManifestRoundTripPreservesAnswers) {
  const ts::Dataset ds = TestData();
  auto service = ShardedAffinity::Create(ds.matrix.names(), SmallOptions(2));
  ASSERT_TRUE(service.ok());
  Feed(&*service, ds, 0, 100);  // first build + 3 incremental refreshes
  ASSERT_TRUE(service->ready());
  EXPECT_GT(service->maintenance().refreshes, 0u);

  const std::string path = TempPath("sharded.affs");
  ASSERT_TRUE(service->Save(path).ok());
  auto loaded = ShardedAffinity::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->ready());
  EXPECT_EQ(loaded->shard_count(), 2u);
  // Build/maintenance tuning survives the round trip (a post-restore
  // escalation must rebuild with the original knobs, not defaults).
  EXPECT_EQ(loaded->options().streaming.build.afclst.k, 2u);
  EXPECT_FALSE(loaded->options().streaming.build.build_dft);
  EXPECT_EQ(loaded->options().streaming.rebuild_interval, 20u);

  const MetRequest met{Measure::kCorrelation, 0.9, true};
  const TopKRequest topk{Measure::kCorrelation, 5, true};
  auto met_a = service->Met(met);
  auto met_b = loaded->Met(met);
  ASSERT_TRUE(met_a.ok());
  ASSERT_TRUE(met_b.ok());
  EXPECT_EQ(met_a->result.pairs, met_b->result.pairs);

  auto topk_a = service->TopK(topk);
  auto topk_b = loaded->TopK(topk);
  ASSERT_TRUE(topk_a.ok());
  ASSERT_TRUE(topk_b.ok());
  ASSERT_EQ(topk_a->result.entries.size(), topk_b->result.entries.size());
  for (std::size_t i = 0; i < topk_a->result.entries.size(); ++i) {
    EXPECT_EQ(topk_a->result.entries[i].pair, topk_b->result.entries[i].pair);
    EXPECT_NEAR(topk_a->result.entries[i].value, topk_b->result.entries[i].value, 1e-9);
  }

  // Load re-freezes the maintainer (an exact refit of every relationship,
  // as after an escalation), so values may shift by the bounded round-off
  // the refit cadence normally reclaims — compare to that tolerance.
  MecRequest mec;
  mec.measure = Measure::kDotProduct;
  mec.ids = {1, 8, 14};
  auto mec_a = service->Mec(mec);
  auto mec_b = loaded->Mec(mec);
  ASSERT_TRUE(mec_a.ok());
  ASSERT_TRUE(mec_b.ok());
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      const double a = mec_a->response.pair_values(i, j);
      const double b = mec_b->response.pair_values(i, j);
      EXPECT_NEAR(a, b, 1e-8 * (1.0 + std::abs(a)));
    }
  }

  // The restored deployment keeps streaming: one interval → a refresh.
  std::vector<double> row(ds.matrix.n());
  bool refreshed = false;
  for (std::size_t i = 100; i < 120; ++i) {
    for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = ds.matrix.matrix()(i, j);
    const auto result = loaded->Append(row);
    ASSERT_TRUE(result.ok());
    refreshed |= result.refreshed;
  }
  EXPECT_TRUE(refreshed);
}

/// The bytes of a saved (v4) manifest rewritten as an older version. The
/// v4 layout: magic(4) version(4) shards(8) n(8) scheme(4), one u32 shard
/// id per series, then window(8) interval(8) mode(4) segment_capacity(8)
/// k(8) max_iterations(4) min_changes(4) seed(8) cache_pinv(4)
/// max_relationships(8) — where v1/v2 kept a u64 SCAPE B-tree fanout —
/// then build_scape(4) build_dft(4) dft_coefficients(8) drift(8)
/// refit_period(8) escalation_factor(8) escalation_slack(8) — after which
/// v2/v3 kept two u64 cross-cache fields (budget, resync period) — and
/// the shard payloads.
std::string OlderManifest(std::string bytes, std::size_t n, std::uint32_t version) {
  const auto u32_at = [&](std::size_t pos) {
    std::uint32_t v = 0;
    std::memcpy(&v, bytes.data() + pos, sizeof v);
    return v;
  };
  EXPECT_EQ(u32_at(4), 4u);
  const std::size_t fanout_at = 28 + 4 * n + 28 + 36;
  const std::size_t cache_at = fanout_at + 48;
  EXPECT_EQ(u32_at(fanout_at), 1u);      // build_scape
  EXPECT_EQ(u32_at(fanout_at + 4), 0u);  // build_dft
  if (version == 2 || version == 3) {
    const std::uint64_t cache[2] = {24576, 64};
    bytes.insert(cache_at, reinterpret_cast<const char*>(cache), sizeof cache);
  }
  if (version <= 2) {
    const std::uint64_t fanout = 64;
    bytes.insert(fanout_at, reinterpret_cast<const char*>(&fanout), sizeof fanout);
  }
  std::memcpy(bytes.data() + 4, &version, sizeof version);
  return bytes;
}

/// Saves `service`, rewrites the file as manifest `version`, loads both
/// and checks the older file restores the same tuning and answers
/// bitwise as the v4 file it was made from.
void ExpectOlderManifestLoadsLikeV4(const ShardedAffinity& service, std::size_t n,
                                    std::uint32_t version) {
  const std::string v4_path = TempPath("sharded_v4.affs");
  ASSERT_TRUE(service.Save(v4_path).ok());
  std::string bytes;
  {
    std::ifstream in(v4_path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const std::string old_path = TempPath("sharded_v" + std::to_string(version) + ".affs");
  std::ofstream(old_path, std::ios::binary) << OlderManifest(bytes, n, version);

  auto v4 = ShardedAffinity::Load(v4_path);
  auto old = ShardedAffinity::Load(old_path);
  ASSERT_TRUE(v4.ok()) << v4.status().ToString();
  ASSERT_TRUE(old.ok()) << old.status().ToString();
  EXPECT_EQ(old->options().streaming.build.build_scape, true);
  EXPECT_EQ(old->options().streaming.build.afclst.k, 2u);
  EXPECT_EQ(old->options().streaming.rebuild_interval, 20u);
  for (const QueryMethod method : {QueryMethod::kScape, QueryMethod::kAuto}) {
    const MetRequest met{Measure::kCorrelation, 0.5, true};
    auto met_a = v4->Met(met, {method});
    auto met_b = old->Met(met, {method});
    const TopKRequest topk{Measure::kCovariance, 7, true};
    auto topk_a = v4->TopK(topk, {method});
    auto topk_b = old->TopK(topk, {method});
    if (method == QueryMethod::kScape) {
      // Streams build no SCAPE index: both manifests refuse it alike.
      for (const auto& [a, b] : {std::pair{met_a.status(), met_b.status()},
                                 std::pair{topk_a.status(), topk_b.status()}}) {
        EXPECT_EQ(a.code(), StatusCode::kFailedPrecondition);
        EXPECT_EQ(b.code(), a.code());
        EXPECT_EQ(b.message(), a.message());
      }
      continue;
    }
    ASSERT_TRUE(met_a.ok());
    ASSERT_TRUE(met_b.ok());
    EXPECT_EQ(met_a->result.pairs, met_b->result.pairs);
    ASSERT_TRUE(topk_a.ok());
    ASSERT_TRUE(topk_b.ok());
    ASSERT_EQ(topk_a->result.entries.size(), topk_b->result.entries.size());
    for (std::size_t i = 0; i < topk_a->result.entries.size(); ++i) {
      EXPECT_EQ(topk_a->result.entries[i].pair, topk_b->result.entries[i].pair);
      EXPECT_EQ(topk_a->result.entries[i].value, topk_b->result.entries[i].value);
    }
  }
}

// v1 manifests predate the cross-cache fields but carry the SCAPE B-tree
// fanout; they load, skipping it, and answer exactly as the v4 file.
TEST(Sharded, V1ManifestLoadsLikeV4) {
  const ts::Dataset ds = TestData();
  auto service = ShardedAffinity::Create(ds.matrix.names(), SmallOptions(2));
  ASSERT_TRUE(service.ok());
  Feed(&*service, ds, 0, 100);
  ExpectOlderManifestLoadsLikeV4(*service, ds.matrix.n(), 1);
}

// v2 manifests carried a SCAPE B-tree fanout the sorted-run index no longer
// has, and the cross-cache fields v4 dropped; they still load, skipping
// both, and answer exactly as the v4 file they are made from.
TEST(Sharded, V2ManifestLoadsLikeV4) {
  const ts::Dataset ds = TestData();
  auto service = ShardedAffinity::Create(ds.matrix.names(), SmallOptions(2));
  ASSERT_TRUE(service.ok());
  Feed(&*service, ds, 0, 100);
  ExpectOlderManifestLoadsLikeV4(*service, ds.matrix.n(), 2);
}

// v3 manifests still carry the two cross-cache fields; they load, discard
// them, and answer exactly as the v4 file they are made from.
TEST(Sharded, V3ManifestLoadsLikeV4) {
  const ts::Dataset ds = TestData();
  auto service = ShardedAffinity::Create(ds.matrix.names(), SmallOptions(2));
  ASSERT_TRUE(service.ok());
  Feed(&*service, ds, 0, 100);
  ExpectOlderManifestLoadsLikeV4(*service, ds.matrix.n(), 3);
}

// A restored router starts at generation 1 — its restored shard snapshots
// form a real epoch — and its first lockstep refresh publishes generation
// 2; no epoch is ever published at 0.
TEST(Sharded, RestoredRouterNeverTouchesGenerationZero) {
  const ts::Dataset ds = TestData();
  auto service = ShardedAffinity::Create(ds.matrix.names(), SmallOptions(2));
  ASSERT_TRUE(service.ok());
  Feed(&*service, ds, 0, 60);
  ASSERT_TRUE(service->ready());
  const std::string path = TempPath("sharded_gen.affs");
  ASSERT_TRUE(service->Save(path).ok());

  auto loaded = ShardedAffinity::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->ready());
  ASSERT_NE(loaded->serving(), nullptr);
  EXPECT_EQ(loaded->serving()->generation, 1u);
  const MetRequest met{Measure::kCovariance, 0.0, true};
  ASSERT_TRUE(loaded->Met(met, {core::QueryMethod::kNaive}).ok());

  std::vector<double> row(ds.matrix.n());
  for (std::size_t i = 60; i < 60 + 20; ++i) {
    for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = ds.matrix.matrix()(i, j);
    ASSERT_TRUE(loaded->Append(row).ok());
  }
  EXPECT_EQ(loaded->serving()->generation, 2u);
  ASSERT_TRUE(loaded->Met(met, {core::QueryMethod::kNaive}).ok());
}

TEST(Sharded, LoadRejectsCorruptManifests) {
  EXPECT_EQ(ShardedAffinity::Load(TempPath("missing.affs")).status().code(),
            StatusCode::kIoError);
  const std::string path = TempPath("garbage.affs");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a manifest at all";
  }
  EXPECT_EQ(ShardedAffinity::Load(path).status().code(), StatusCode::kInvalidArgument);

  // A shard payload whose cluster assignment names a centre the model
  // does not have: the manifest reads each shard through the model
  // loader, which rejects it before anything indexes by it.
  const ts::Dataset ds = TestData();
  auto service = ShardedAffinity::Create(ds.matrix.names(), SmallOptions(2));
  ASSERT_TRUE(service.ok());
  Feed(&*service, ds, 0, 60);
  ASSERT_TRUE(service->ready());
  const std::string good_path = TempPath("good.affs");
  ASSERT_TRUE(service->Save(good_path).ok());
  std::string bytes;
  {
    std::ifstream in(good_path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const std::size_t shard0 = bytes.find("AFFM");
  ASSERT_NE(shard0, std::string::npos);
  testing_payload::PutAt<std::uint32_t>(
      &bytes, testing_payload::WalkModelPayload(bytes, shard0).assignment, 1000);
  const std::string bad_path = TempPath("bad_assignment.affs");
  std::ofstream(bad_path, std::ios::binary) << bytes;
  const auto bad = ShardedAffinity::Load(bad_path);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("cluster assignment out of range"), std::string::npos)
      << bad.status().ToString();

  // Shard 1's payload replaced by a model of its window that keeps 10 of
  // its 28 relationships: the restore refuses it and names the shard.
  {
    std::ifstream in(good_path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const std::size_t shard1 = bytes.find("AFFM", shard0 + 4);
  ASSERT_NE(shard1, std::string::npos);
  core::SymexOptions symex;
  symex.max_relationships = 10;
  auto truncated_model = core::BuildAffinityModel(service->shard(1).framework()->model().data(),
                                                  core::AfclstOptions{.k = 2}, symex);
  ASSERT_TRUE(truncated_model.ok());
  std::stringstream payload;
  ASSERT_TRUE(core::WriteModelStream(*truncated_model, payload).ok());
  const std::string truncated_path = TempPath("truncated_shard.affs");
  std::ofstream(truncated_path, std::ios::binary) << bytes.substr(0, shard1) << payload.str();
  const auto truncated = ShardedAffinity::Load(truncated_path);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(truncated.status().message().find("shard 1"), std::string::npos)
      << truncated.status().ToString();
  EXPECT_NE(truncated.status().message().find("10 of the 28"), std::string::npos)
      << truncated.status().ToString();
}

// ---------------------------------------------------------------------------
// Dirty ingestion + quality predicates across shards (DESIGN.md §12).
// ---------------------------------------------------------------------------

/// Feeds `rows` dataset rows through a StreamAligner, dropping ~`dirty_pct`
/// of the samples, and appends each emitted masked row to both sinks.
void FeedDirtyBoth(core::StreamingAffinity* baseline, ShardedAffinity* service,
                   const ts::Dataset& ds, std::size_t rows, double dirty_pct,
                   std::uint64_t seed) {
  const std::size_t n = ds.matrix.n();
  ts::IngestOptions iopts;
  iopts.max_fill = 3;
  ts::StreamAligner aligner(n, iopts);
  Xoshiro256 rng(seed);
  std::vector<ts::AlignedRow> emitted;
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.Uniform(0.0, 1.0) < dirty_pct) continue;  // sample never arrives
      ASSERT_TRUE(aligner.Push(j, static_cast<double>(i), ds.matrix.matrix()(i, j)).ok());
    }
    emitted.clear();
    aligner.EmitUpTo(static_cast<double>(i + 1), &emitted);
    for (const ts::AlignedRow& row : emitted) {
      ASSERT_TRUE(baseline->AppendMasked(row).ok());
      ASSERT_TRUE(service->AppendMasked(row).ok());
    }
  }
}

TEST(ShardedQuality, FilteredAnswersMatchUnshardedBaseline) {
  const ts::Dataset ds = TestData();
  for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto baseline =
        core::StreamingAffinity::Create(ds.matrix.names(), SmallOptions(1).streaming);
    ASSERT_TRUE(baseline.ok());
    auto service = ShardedAffinity::Create(ds.matrix.names(), SmallOptions(shards));
    ASSERT_TRUE(service.ok());
    FeedDirtyBoth(&*baseline, &*service, ds, 120, 0.15, 2024);
    ASSERT_TRUE(baseline->ready());
    ASSERT_TRUE(service->ready());

    // Both sides saw identical masks, so the per-series scores agree.
    const std::vector<double>& scores = baseline->quality_scores();
    double lo = 1.0, hi = 0.0;
    for (const double s : scores) {
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
    ASSERT_LT(lo, hi);
    const double threshold = 0.5 * (lo + hi);

    MetRequest met{Measure::kCorrelation, 0.5, true};
    met.min_quality = threshold;
    auto base_met = baseline->Met(met);
    auto s_met = service->Met(met);
    ASSERT_TRUE(base_met.ok());
    ASSERT_TRUE(s_met.ok());
    EXPECT_EQ(Sorted(s_met->result.pairs), Sorted(base_met->pairs));
    EXPECT_TRUE(s_met->result.quality.populated);
    EXPECT_GE(s_met->result.quality.min_score, threshold);
    for (const auto& p : s_met->result.pairs) {
      EXPECT_GE(scores[p.u], threshold);
      EXPECT_GE(scores[p.v], threshold);
    }

    MerRequest mer{Measure::kCorrelation, 0.2, 0.9};
    mer.min_quality = threshold;
    auto base_mer = baseline->Mer(mer);
    auto s_mer = service->Mer(mer);
    ASSERT_TRUE(base_mer.ok());
    ASSERT_TRUE(s_mer.ok());
    EXPECT_EQ(Sorted(s_mer->result.pairs), Sorted(base_mer->pairs));

    TopKRequest topk{Measure::kCorrelation, 5, true};
    topk.min_quality = threshold;
    auto base_topk = baseline->TopK(topk);
    auto s_topk = service->TopK(topk);
    ASSERT_TRUE(base_topk.ok());
    ASSERT_TRUE(s_topk.ok());
    ASSERT_EQ(s_topk->result.entries.size(), base_topk->entries.size());
    std::vector<ts::SequencePair> s_pairs;
    std::vector<ts::SequencePair> b_pairs;
    for (std::size_t i = 0; i < base_topk->entries.size(); ++i) {
      s_pairs.push_back(s_topk->result.entries[i].pair);
      b_pairs.push_back(base_topk->entries[i].pair);
      EXPECT_NEAR(s_topk->result.entries[i].value, base_topk->entries[i].value, 1e-9);
      EXPECT_GE(scores[s_topk->result.entries[i].pair.u], threshold);
      EXPECT_GE(scores[s_topk->result.entries[i].pair.v], threshold);
    }
    EXPECT_EQ(Sorted(s_pairs), Sorted(b_pairs));
    EXPECT_TRUE(s_topk->result.quality.populated);

    // MEC: an eligible id set answers with a quality stamp; a set touching
    // a below-threshold series fails FailedPrecondition through the router
    // exactly like the facade.
    ts::SeriesId good = 0, bad = 0;
    for (std::size_t j = 0; j < scores.size(); ++j) {
      if (scores[j] >= threshold) good = static_cast<ts::SeriesId>(j);
      if (scores[j] < threshold) bad = static_cast<ts::SeriesId>(j);
    }
    MecRequest mec_ok;
    mec_ok.measure = Measure::kCorrelation;
    mec_ok.ids = {good};
    mec_ok.min_quality = threshold;
    auto s_mec = service->Mec(mec_ok);
    ASSERT_TRUE(s_mec.ok());
    EXPECT_TRUE(s_mec->response.quality.populated);

    MecRequest mec_bad = mec_ok;
    mec_bad.ids = {good, bad};
    EXPECT_EQ(service->Mec(mec_bad).status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(baseline->Mec(mec_bad).status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(ShardedQuality, AppendMaskedValidatesShapes) {
  const ts::Dataset ds = TestData();
  auto service = ShardedAffinity::Create(ds.matrix.names(), SmallOptions(2));
  ASSERT_TRUE(service.ok());
  const std::size_t n = ds.matrix.n();
  std::vector<double> row(n, 1.0);
  EXPECT_EQ(service
                ->AppendMasked(row, std::vector<std::uint8_t>(n - 1, 1),
                               std::vector<std::uint8_t>(n, 0))
                .status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(
      service->AppendMasked(row, std::vector<std::uint8_t>(n, 1), std::vector<std::uint8_t>(n, 0))
          .ok());
  EXPECT_EQ(service->rows_ingested(), 1u);
}

}  // namespace
}  // namespace affinity::shard
