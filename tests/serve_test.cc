// Tests for lock-free snapshot serving (DESIGN.md §11): per-refresh
// publication, bitwise identity with the live engine/router (WF included),
// the epoch's one-pass WA selections, epoch pinning across maintenance,
// and the router epoch's cross co-moments and cross value vectors.

#include "serve/serve_query.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/measures.h"
#include "core/streaming.h"
#include "shard/sharded.h"
#include "ts/generators.h"

namespace affinity::shard {
namespace {

using core::FreshnessOptions;
using core::Measure;
using core::MecRequest;
using core::MecResponse;
using core::MetRequest;
using core::MerRequest;
using core::QueryMethod;
using core::SelectionResult;
using core::StreamingAffinity;
using core::StreamingOptions;
using core::TopKRequest;
using core::TopKResult;

std::string TempPath(const std::string& name) { return ::testing::TempDir() + "/" + name; }

std::vector<std::string> Names(std::size_t n) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back("s" + std::to_string(i));
  return out;
}

ts::Dataset TestData(std::size_t n = 10, std::uint64_t seed = 12) {
  ts::DatasetSpec spec;
  spec.num_series = n;
  spec.num_samples = 240;
  spec.num_clusters = 3;
  spec.noise_level = 0.02;
  spec.seed = seed;
  return ts::MakeSensorData(spec);
}

StreamingOptions StreamOptions(std::size_t threads = 1) {
  StreamingOptions options;
  options.window = 40;
  options.rebuild_interval = 20;
  options.mode = core::UpdateMode::kIncremental;
  options.build.afclst.k = 2;
  options.build.build_dft = false;
  options.build.threads = threads;
  return options;
}

ShardedOptions ShardOptions(std::size_t shards, std::size_t threads = 1) {
  ShardedOptions options;
  options.shards = shards;
  options.streaming = StreamOptions(threads);
  return options;
}

void FeedStream(StreamingAffinity* stream, const ts::Dataset& ds, std::size_t begin,
                std::size_t end) {
  std::vector<double> row(ds.matrix.n());
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = ds.matrix.matrix()(i, j);
    ASSERT_TRUE(stream->Append(row).ok());
  }
}

void Feed(ShardedAffinity* service, const ts::Dataset& ds, std::size_t begin, std::size_t end) {
  std::vector<double> row(ds.matrix.n());
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = ds.matrix.matrix()(i, j);
    ASSERT_TRUE(service->Append(row).ok());
  }
}

/// Gappy masks for row i: series j misses every (j + 3)-th sample (every
/// other sample for series 0 once `dirtier`), so per-series quality scores
/// spread apart and move with the window.
void GappyMasks(std::size_t i, bool dirtier, std::vector<std::uint8_t>* valid) {
  for (std::size_t j = 0; j < valid->size(); ++j) {
    const std::size_t period = dirtier && j == 0 ? 2 : j + 3;
    (*valid)[j] = i % period == 0 ? 0 : 1;
  }
}

/// Appends rows [begin, end) with GappyMasks to any facade with
/// AppendMasked (a stream or the sharded service).
template <typename Facade>
void FeedGappy(Facade* sink, const ts::Dataset& ds, std::size_t begin, std::size_t end,
               bool dirtier = false) {
  const std::size_t n = ds.matrix.n();
  std::vector<double> row(n);
  std::vector<std::uint8_t> valid(n), filled(n, 0);
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t j = 0; j < n; ++j) row[j] = ds.matrix.matrix()(i, j);
    GappyMasks(i, dirtier, &valid);
    ASSERT_TRUE(sink->AppendMasked(row, valid, filled).ok());
  }
}

/// A min_quality threshold halfway between the worst and best score.
double MidThreshold(const std::vector<double>& scores) {
  const auto [lo, hi] = std::minmax_element(scores.begin(), scores.end());
  return 0.5 * (*lo + *hi);
}

// Bitwise comparison helpers: EXPECT_EQ on doubles is deliberate — the
// serving contract is bitwise identity, not tolerance.

void ExpectSameQuality(const core::AnswerQuality& served, const core::AnswerQuality& live) {
  EXPECT_EQ(served.populated, live.populated);
  EXPECT_EQ(served.min_score, live.min_score);
  EXPECT_EQ(served.excluded, live.excluded);
}

void ExpectSameSelection(const SelectionResult& served, const SelectionResult& live) {
  EXPECT_EQ(served.series, live.series);
  EXPECT_EQ(served.pairs, live.pairs);
  EXPECT_EQ(served.prune.accepted_unverified, live.prune.accepted_unverified);
  EXPECT_EQ(served.prune.verified, live.prune.verified);
  EXPECT_EQ(served.plan.method, live.plan.method);
}

void ExpectSameTopK(const TopKResult& served, const TopKResult& live) {
  ASSERT_EQ(served.entries.size(), live.entries.size());
  for (std::size_t i = 0; i < live.entries.size(); ++i) {
    EXPECT_EQ(served.entries[i].pair, live.entries[i].pair);
    EXPECT_EQ(served.entries[i].series, live.entries[i].series);
    EXPECT_EQ(served.entries[i].value, live.entries[i].value) << "entry " << i;
  }
  EXPECT_EQ(served.plan.method, live.plan.method);
}

void ExpectSameMec(const MecResponse& served, const MecResponse& live) {
  ASSERT_EQ(served.location.size(), live.location.size());
  for (std::size_t i = 0; i < live.location.size(); ++i)
    EXPECT_EQ(served.location[i], live.location[i]) << "location " << i;
  ASSERT_EQ(served.pair_values.rows(), live.pair_values.rows());
  ASSERT_EQ(served.pair_values.cols(), live.pair_values.cols());
  for (std::size_t i = 0; i < live.pair_values.rows(); ++i)
    for (std::size_t j = 0; j < live.pair_values.cols(); ++j)
      EXPECT_EQ(served.pair_values(i, j), live.pair_values(i, j)) << "cell " << i << "," << j;
}

// ---------------------------------------------------------------------------
// Single-instance serving: serve::SnapshotXxx vs the raw live engine.
// ---------------------------------------------------------------------------

TEST(ServeSnapshot, MirrorsLiveEngineBitwise) {
  const ts::Dataset ds = TestData();
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto stream = StreamingAffinity::Create(Names(10), StreamOptions(threads));
    ASSERT_TRUE(stream.ok());
    FeedStream(&*stream, ds, 0, 60);
    ASSERT_TRUE(stream->ready());
    auto snap = stream->serving();
    ASSERT_NE(snap, nullptr);
    EXPECT_GE(snap->generation, 2u);  // published at rows 40 and 60
    EXPECT_EQ(snap->snapshot_row, 60u);
    const auto& engine = stream->framework()->engine();

    const MetRequest mets[] = {MetRequest{Measure::kCovariance, 0.0, true},
                               MetRequest{Measure::kCorrelation, 0.9, true},
                               MetRequest{Measure::kMean, 0.0, false}};
    const MerRequest mers[] = {MerRequest{Measure::kCorrelation, 0.2, 0.9},
                               MerRequest{Measure::kCovariance, -0.5, 0.5}};
    const TopKRequest topks[] = {TopKRequest{Measure::kCorrelation, 5, true},
                                 TopKRequest{Measure::kDotProduct, 4, true}};
    for (QueryMethod method : {QueryMethod::kAuto, QueryMethod::kNaive, QueryMethod::kAffine}) {
      SCOPED_TRACE(std::string("method=") + std::string(core::QueryMethodName(method)));
      // MET over a pair measure, a derived measure, and a location measure:
      // the stream's live engine plans as its epoch does, and the pairs
      // match bitwise and in order.
      for (const MetRequest& req : mets) {
        auto served = serve::SnapshotMet(*snap, req, method);
        auto live = engine.Met(req, method);
        ASSERT_TRUE(served.ok());
        ASSERT_TRUE(live.ok());
        ExpectSameSelection(*served, *live);
      }
      for (const MerRequest& req : mers) {
        auto served = serve::SnapshotMer(*snap, req, method);
        auto live = engine.Mer(req, method);
        ASSERT_TRUE(served.ok());
        ASSERT_TRUE(live.ok());
        ExpectSameSelection(*served, *live);
      }
      // Top-k: values compare bitwise.
      for (const TopKRequest& req : topks) {
        auto live = engine.TopK(req, method);
        auto served = serve::SnapshotTopK(*snap, req, method);
        ASSERT_TRUE(live.ok());
        ASSERT_TRUE(served.ok());
        ExpectSameTopK(*served, *live);
      }
    }

    // MEC: location vector and pair matrix, bitwise.
    for (const MecRequest& req :
         {MecRequest{Measure::kMean, {0, 1, 2, 3}}, MecRequest{Measure::kCovariance, {0, 3, 5, 9}},
          MecRequest{Measure::kCorrelation, {1, 4, 7}}}) {
      auto live = engine.Mec(req, QueryMethod::kAuto);
      auto served = serve::SnapshotMec(*snap, req, QueryMethod::kAuto);
      ASSERT_TRUE(live.ok());
      ASSERT_TRUE(served.ok());
      ExpectSameMec(*served, *live);
    }

    // Failing requests: the same code and message from both.
    const auto expect_same_error = [](const Status& served, const Status& live) {
      EXPECT_FALSE(live.ok());
      EXPECT_EQ(served.code(), live.code());
      EXPECT_EQ(served.message(), live.message());
    };
    for (const MecRequest& req :
         {MecRequest{Measure::kCovariance, {}}, MecRequest{Measure::kMean, {0, 10}}}) {
      expect_same_error(serve::SnapshotMec(*snap, req).status(), engine.Mec(req).status());
    }
    for (const MecRequest& req :
         {MecRequest{Measure::kCovariance, {0, 1}}, MecRequest{Measure::kMean, {0, 1}}}) {
      expect_same_error(serve::SnapshotMec(*snap, req, QueryMethod::kScape).status(),
                        engine.Mec(req, QueryMethod::kScape).status());
    }
    // A stream builds no SCAPE index: explicit kScape selections fail alike.
    for (const MetRequest& req : mets) {
      expect_same_error(serve::SnapshotMet(*snap, req, QueryMethod::kScape).status(),
                        engine.Met(req, QueryMethod::kScape).status());
    }
    for (const MerRequest& req : mers) {
      expect_same_error(serve::SnapshotMer(*snap, req, QueryMethod::kScape).status(),
                        engine.Mer(req, QueryMethod::kScape).status());
    }
    for (const TopKRequest& req : topks) {
      expect_same_error(serve::SnapshotTopK(*snap, req, QueryMethod::kScape).status(),
                        engine.TopK(req, QueryMethod::kScape).status());
    }
    const MerRequest inverted{Measure::kCorrelation, 0.9, 0.2};
    expect_same_error(serve::SnapshotMer(*snap, inverted).status(), engine.Mer(inverted).status());
    const TopKRequest wf_topk{Measure::kCorrelation, 5, true};
    expect_same_error(serve::SnapshotTopK(*snap, wf_topk, QueryMethod::kDft).status(),
                      engine.TopK(wf_topk, QueryMethod::kDft).status());
    const TopKRequest jaccard{Measure::kJaccard, 5, true};
    expect_same_error(serve::SnapshotTopK(*snap, jaccard, QueryMethod::kScape).status(),
                      engine.TopK(jaccard, QueryMethod::kScape).status());
    // kDft with WF not built, on the correlation and on a non-correlation
    // measure.
    for (const Measure measure : {Measure::kCorrelation, Measure::kCovariance}) {
      const MecRequest mec{measure, {0, 3, 5}};
      expect_same_error(serve::SnapshotMec(*snap, mec, QueryMethod::kDft).status(),
                        engine.Mec(mec, QueryMethod::kDft).status());
      const MetRequest met{measure, 0.5, true};
      expect_same_error(serve::SnapshotMet(*snap, met, QueryMethod::kDft).status(),
                        engine.Met(met, QueryMethod::kDft).status());
      const MerRequest mer{measure, 0.2, 0.9};
      expect_same_error(serve::SnapshotMer(*snap, mer, QueryMethod::kDft).status(),
                        engine.Mer(mer, QueryMethod::kDft).status());
    }
  }
}

TEST(ServeSnapshot, FacadeServesFromSnapshotAndMarksThePlan) {
  auto stream = StreamingAffinity::Create(Names(10), StreamOptions());
  ASSERT_TRUE(stream.ok());
  const ts::Dataset ds = TestData();
  FeedStream(&*stream, ds, 0, 60);
  auto result = stream->Met({Measure::kCorrelation, 0.9, true});
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->plan.rationale.find("served from read-optimized snapshot"), std::string::npos)
      << result->plan.rationale;
  // The facade's snapshot-served answer (the epoch's table pass) equals
  // the raw engine's, which plans alike.
  EXPECT_EQ(result->plan.method, QueryMethod::kAffine);
  auto live = stream->framework()->engine().Met({Measure::kCorrelation, 0.9, true});
  ASSERT_TRUE(live.ok());
  ExpectSameSelection(*result, *live);
}

TEST(ServeSnapshot, EpochPinnedAcrossRefresh) {
  auto stream = StreamingAffinity::Create(Names(10), StreamOptions());
  ASSERT_TRUE(stream.ok());
  const ts::Dataset ds = TestData();
  FeedStream(&*stream, ds, 0, 40);
  auto old_snap = stream->serving();
  ASSERT_NE(old_snap, nullptr);
  EXPECT_EQ(old_snap->snapshot_row, 40u);
  const TopKRequest req{Measure::kCorrelation, 5, true};
  auto before = serve::SnapshotTopK(*old_snap, req);
  ASSERT_TRUE(before.ok());

  // Two more refreshes; the pinned epoch must keep answering identically.
  FeedStream(&*stream, ds, 40, 80);
  auto new_snap = stream->serving();
  ASSERT_NE(new_snap, nullptr);
  EXPECT_GT(new_snap->generation, old_snap->generation);
  EXPECT_EQ(new_snap->snapshot_row, 80u);
  auto after = serve::SnapshotTopK(*old_snap, req);
  ASSERT_TRUE(after.ok());
  ExpectSameTopK(*after, *before);
}

TEST(ServeSnapshot, WfServedFromTheEpochBitwise) {
  const ts::Dataset ds = TestData();
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    StreamingOptions options = StreamOptions(threads);
    options.build.build_dft = true;
    auto stream = StreamingAffinity::Create(Names(10), options);
    ASSERT_TRUE(stream.ok());
    FeedStream(&*stream, ds, 0, 60);
    auto snap = stream->serving();
    ASSERT_NE(snap, nullptr);
    ASSERT_TRUE(snap->caps.has_dft);
    // No row arrived since the publication: the live engine is at the
    // epoch's publication point, and it sketches over its thread pool
    // while the epoch runs sequentially.
    const auto& engine = stream->framework()->engine();

    const MecRequest mec{Measure::kCorrelation, {0, 3, 5, 9}};
    auto live_mec = engine.Mec(mec, QueryMethod::kDft);
    auto served_mec = serve::SnapshotMec(*snap, mec, QueryMethod::kDft);
    ASSERT_TRUE(live_mec.ok()) << live_mec.status().ToString();
    ASSERT_TRUE(served_mec.ok()) << served_mec.status().ToString();
    ExpectSameMec(*served_mec, *live_mec);
    for (const MetRequest& req :
         {MetRequest{Measure::kCorrelation, 0.5, true}, MetRequest{Measure::kCorrelation, 0.2, false}}) {
      auto live = engine.Met(req, QueryMethod::kDft);
      auto served = serve::SnapshotMet(*snap, req, QueryMethod::kDft);
      ASSERT_TRUE(live.ok());
      ASSERT_TRUE(served.ok());
      ExpectSameSelection(*served, *live);
    }
    const MerRequest mer{Measure::kCorrelation, 0.2, 0.9};
    auto live_mer = engine.Mer(mer, QueryMethod::kDft);
    auto served_mer = serve::SnapshotMer(*snap, mer, QueryMethod::kDft);
    ASSERT_TRUE(live_mer.ok());
    ASSERT_TRUE(served_mer.ok());
    ExpectSameSelection(*served_mer, *live_mer);

    // The facade answers WF from the epoch and says so.
    FreshnessOptions wf;
    wf.method = QueryMethod::kDft;
    auto facade = stream->Met({Measure::kCorrelation, 0.5, true}, wf);
    ASSERT_TRUE(facade.ok());
    EXPECT_NE(facade->plan.rationale.find("served from read-optimized snapshot"),
              std::string::npos);
    auto live_met = engine.Met({Measure::kCorrelation, 0.5, true}, QueryMethod::kDft);
    ASSERT_TRUE(live_met.ok());
    ExpectSameSelection(*facade, *live_met);

    // kDft on a non-correlation measure, and a kDft top-k: the same code
    // and text from the epoch and the engine.
    const auto expect_same_error = [](const Status& served, const Status& live) {
      EXPECT_FALSE(live.ok());
      EXPECT_EQ(served.code(), live.code());
      EXPECT_EQ(served.message(), live.message());
    };
    const MecRequest cov_mec{Measure::kCovariance, {0, 3}};
    expect_same_error(serve::SnapshotMec(*snap, cov_mec, QueryMethod::kDft).status(),
                      engine.Mec(cov_mec, QueryMethod::kDft).status());
    const MetRequest cov_met{Measure::kCovariance, 0.0, true};
    expect_same_error(serve::SnapshotMet(*snap, cov_met, QueryMethod::kDft).status(),
                      engine.Met(cov_met, QueryMethod::kDft).status());
    const MerRequest cov_mer{Measure::kCovariance, -0.5, 0.5};
    expect_same_error(serve::SnapshotMer(*snap, cov_mer, QueryMethod::kDft).status(),
                      engine.Mer(cov_mer, QueryMethod::kDft).status());
    const TopKRequest topk{Measure::kCorrelation, 5, true};
    expect_same_error(serve::SnapshotTopK(*snap, topk, QueryMethod::kDft).status(),
                      engine.TopK(topk, QueryMethod::kDft).status());

    // Real argument errors are final (same code live and served).
    auto bad = stream->Mer({Measure::kCorrelation, 0.9, 0.1});
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  }
}

/// The pairs over n series whose value in the lexicographic `table`
/// passes `keep`, in table order.
template <typename Keep>
std::vector<ts::SequencePair> PassingPairs(const std::vector<double>& table, std::size_t n,
                                           const Keep& keep) {
  std::vector<ts::SequencePair> out;
  std::size_t p = 0;
  for (ts::SeriesId u = 0; u + 1 < n; ++u) {
    for (ts::SeriesId v = u + 1; v < n; ++v, ++p) {
      if (keep(table[p])) out.emplace_back(u, v);
    }
  }
  return out;
}

// A WA MET/MER over an epoch is one pass over its frozen table: exactly the
// pairs whose frozen value passes the strict predicate, in lexicographic
// order, for every pair measure. A τ equal to a table value keeps that
// pair in neither direction; τ = ±inf keeps every pair or none.
TEST(ServeSnapshot, TablePassKeepsExactlyThePassingPairsInLexOrder) {
  auto stream = StreamingAffinity::Create(Names(10), StreamOptions());
  ASSERT_TRUE(stream.ok());
  FeedStream(&*stream, TestData(), 0, 60);
  auto snap = stream->serving();
  ASSERT_NE(snap, nullptr);
  const std::size_t n = 10;
  const double inf = std::numeric_limits<double>::infinity();
  const auto met = [&](Measure measure, double tau, bool greater) {
    auto r = serve::SnapshotMet(*snap, {measure, tau, greater}, QueryMethod::kAffine);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->pairs : std::vector<ts::SequencePair>{};
  };
  const auto mer = [&](Measure measure, double lo, double hi) {
    auto r = serve::SnapshotMer(*snap, {measure, lo, hi}, QueryMethod::kAffine);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->pairs : std::vector<ts::SequencePair>{};
  };
  for (std::size_t t = 0; t < snap->pair_values.size(); ++t) {
    const auto measure =
        static_cast<Measure>(static_cast<int>(Measure::kCovariance) + static_cast<int>(t));
    SCOPED_TRACE(std::string(core::MeasureName(measure)));
    const std::vector<double>& table = snap->pair_values[t];
    ASSERT_EQ(table.size(), 45u);
    std::vector<double> sorted = table;
    std::sort(sorted.begin(), sorted.end());
    const double tau = sorted[22];  // table values, so the strict bounds bite
    const double lo = sorted[10];
    const double hi = sorted[35];
    const auto all = PassingPairs(table, n, [](double) { return true; });

    const auto above = met(measure, tau, true);
    const auto below = met(measure, tau, false);
    EXPECT_EQ(above, PassingPairs(table, n, [&](double x) { return x > tau; }));
    EXPECT_EQ(below, PassingPairs(table, n, [&](double x) { return x < tau; }));
    const auto at_tau = static_cast<std::size_t>(std::count(table.begin(), table.end(), tau));
    EXPECT_GE(at_tau, 1u);
    EXPECT_EQ(above.size() + below.size() + at_tau, table.size());
    EXPECT_EQ(mer(measure, lo, hi),
              PassingPairs(table, n, [&](double x) { return lo < x && x < hi; }));
    EXPECT_TRUE(mer(measure, tau, tau).empty());

    EXPECT_TRUE(met(measure, inf, true).empty());
    EXPECT_EQ(met(measure, -inf, true), all);
    EXPECT_EQ(met(measure, inf, false), all);
    EXPECT_TRUE(met(measure, -inf, false).empty());
    EXPECT_EQ(mer(measure, -inf, inf), all);
  }

  // An L-measure's pass walks its table in id order.
  const std::vector<double>& means = snap->location[0];
  const double mid = means[3];
  auto series = serve::SnapshotMet(*snap, {Measure::kMean, mid, true}, QueryMethod::kAffine);
  ASSERT_TRUE(series.ok());
  std::vector<ts::SeriesId> want;
  for (ts::SeriesId v = 0; v < n; ++v) {
    if (means[v] > mid) want.push_back(v);
  }
  EXPECT_EQ(series->series, want);
}

// ---------------------------------------------------------------------------
// Router serving: RouterXxx over a published RouterSnapshot. The sharded
// facade runs the same gather; shard_test checks both against an unsharded
// stream at 1/2/8 shards.
// ---------------------------------------------------------------------------

TEST(RouterServe, LoadPublishesFirstEpoch) {
  const std::string path = TempPath("serve_router_roundtrip.bin");
  {
    auto service = ShardedAffinity::Create(Names(16), ShardOptions(2));
    ASSERT_TRUE(service.ok());
    Feed(&*service, TestData(16), 0, 60);
    ASSERT_TRUE(service->Save(path).ok());
  }
  auto loaded = ShardedAffinity::Load(path);
  ASSERT_TRUE(loaded.ok());
  auto snap = loaded->serving();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->generation, 1u);  // restored routers restart at epoch 1
  const MetRequest req{Measure::kCorrelation, 0.9, true};
  auto live = loaded->Met(req);
  auto served = RouterMet(*snap, req);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(served.ok());
  ExpectSameSelection(*served, live->result);
}

// ---------------------------------------------------------------------------
// Quality predicates are served from the epoch's frozen scores (DESIGN.md
// §12).
// ---------------------------------------------------------------------------

TEST(Serving, QualityPredicateServedFromEpoch) {
  const ts::Dataset ds = TestData();
  auto stream = StreamingAffinity::Create(ds.matrix.names(), StreamOptions());
  ASSERT_TRUE(stream.ok());
  FeedGappy(&*stream, ds, 0, 120);
  ASSERT_TRUE(stream->ready());
  auto snap = stream->serving();
  ASSERT_NE(snap, nullptr);
  ASSERT_TRUE(snap->caps.has_quality);
  EXPECT_EQ(snap->quality, stream->quality_scores());
  const double threshold = MidThreshold(snap->quality);
  const auto& engine = stream->framework()->engine();

  // Every entry point answers min_quality from the epoch, bitwise the live
  // engine: answers, exclusion counts and stamps.
  MetRequest met{Measure::kCorrelation, 0.5, true};
  met.min_quality = threshold;
  MerRequest mer{Measure::kCorrelation, 0.2, 0.9};
  mer.min_quality = threshold;
  std::size_t excluded = 0;
  const auto expect_same_error = [](const Status& served, const Status& live) {
    EXPECT_FALSE(live.ok());
    EXPECT_EQ(served.code(), live.code());
    EXPECT_EQ(served.message(), live.message());
  };
  for (QueryMethod method : {QueryMethod::kAuto, QueryMethod::kNaive, QueryMethod::kAffine,
                             QueryMethod::kScape}) {
    SCOPED_TRACE(std::string("method=") + std::string(core::QueryMethodName(method)));
    if (method == QueryMethod::kScape) {
      // A stream builds no SCAPE index: explicit kScape fails alike.
      expect_same_error(serve::SnapshotMet(*snap, met, method).status(),
                        engine.Met(met, method).status());
      expect_same_error(serve::SnapshotMer(*snap, mer, method).status(),
                        engine.Mer(mer, method).status());
    } else {
      auto served_met = serve::SnapshotMet(*snap, met, method);
      ASSERT_TRUE(served_met.ok());
      auto live_met = engine.Met(met, method);
      ASSERT_TRUE(live_met.ok());
      ExpectSameSelection(*served_met, *live_met);
      ExpectSameQuality(served_met->quality, live_met->quality);
      excluded += served_met->quality.excluded;

      auto served_mer = serve::SnapshotMer(*snap, mer, method);
      ASSERT_TRUE(served_mer.ok());
      auto live_mer = engine.Mer(mer, method);
      ASSERT_TRUE(live_mer.ok());
      ExpectSameSelection(*served_mer, *live_mer);
      ExpectSameQuality(served_mer->quality, live_mer->quality);
    }

    // Every top-k plans the WA pass, and the predicate routes an explicit
    // SCAPE top-k to the WA sweep; both directions.
    for (TopKRequest topk : {TopKRequest{Measure::kCorrelation, 5, true},
                             TopKRequest{Measure::kCovariance, 4, false},
                             TopKRequest{Measure::kMean, 3, true}}) {
      topk.min_quality = threshold;
      auto live = engine.TopK(topk, method);
      auto served = serve::SnapshotTopK(*snap, topk, method);
      ASSERT_TRUE(live.ok());
      ASSERT_TRUE(served.ok());
      ExpectSameTopK(*served, *live);
      ExpectSameQuality(served->quality, live->quality);
      EXPECT_GT(served->quality.excluded, 0u);
      for (const auto& e : served->entries) {
        if (e.has_series()) {
          EXPECT_GE(snap->quality[e.series], threshold);
        } else {
          EXPECT_GE(snap->quality[e.pair.u], threshold);
          EXPECT_GE(snap->quality[e.pair.v], threshold);
        }
      }
    }
  }
  EXPECT_GT(excluded, 0u);

  // MEC: an eligible id set answers with the live stamp; a distrusted id
  // fails FailedPrecondition on both paths.
  ts::SeriesId good = 0, bad = 0;
  for (std::size_t j = 0; j < snap->quality.size(); ++j) {
    if (snap->quality[j] >= threshold) good = static_cast<ts::SeriesId>(j);
    if (snap->quality[j] < threshold) bad = static_cast<ts::SeriesId>(j);
  }
  MecRequest mec{Measure::kCorrelation, {good}};
  mec.min_quality = threshold;
  auto live_mec = engine.Mec(mec);
  auto served_mec = serve::SnapshotMec(*snap, mec);
  ASSERT_TRUE(live_mec.ok());
  ASSERT_TRUE(served_mec.ok());
  ExpectSameMec(*served_mec, *live_mec);
  ExpectSameQuality(served_mec->quality, live_mec->quality);
  mec.ids = {good, bad};
  EXPECT_EQ(serve::SnapshotMec(*snap, mec).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Mec(mec).status().code(), StatusCode::kFailedPrecondition);

  // The facade serves all four from the epoch: no live fallback.
  const std::size_t fallbacks_before = stream->maintenance().serve_fallbacks;
  TopKRequest topk{Measure::kCorrelation, 5, true};
  topk.min_quality = threshold;
  mec.ids = {good};
  ASSERT_TRUE(stream->Met(met).ok());
  ASSERT_TRUE(stream->Mer(mer).ok());
  auto facade_topk = stream->TopK(topk);
  ASSERT_TRUE(facade_topk.ok());
  ASSERT_TRUE(stream->Mec(mec).ok());
  EXPECT_EQ(stream->maintenance().serve_fallbacks, fallbacks_before);
  EXPECT_NE(facade_topk->plan.rationale.find("served from read-optimized snapshot"),
            std::string::npos);
}

TEST(Serving, PinnedEpochKeepsItsQualityStamp) {
  const ts::Dataset ds = TestData();
  auto stream = StreamingAffinity::Create(ds.matrix.names(), StreamOptions());
  ASSERT_TRUE(stream.ok());
  FeedGappy(&*stream, ds, 0, 60);
  auto first = stream->serving();
  ASSERT_NE(first, nullptr);
  const std::uint64_t generation = first->generation;
  const std::vector<double> frozen = first->quality;
  const MetRequest met{Measure::kCorrelation, -2.0, true};  // every pair
  auto before = serve::SnapshotMet(*first, met);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before->quality.populated);

  // Series 0 gets much dirtier: later publications lower its score.
  FeedGappy(&*stream, ds, 60, 120, /*dirtier=*/true);
  auto current = stream->serving();
  ASSERT_NE(current, nullptr);
  ASSERT_GT(current->generation, generation);
  auto now = serve::SnapshotMet(*current, met);
  ASSERT_TRUE(now.ok());
  EXPECT_LT(now->quality.min_score, before->quality.min_score);

  // The held epoch still answers with the scores it was published with.
  EXPECT_EQ(first->quality, frozen);
  auto after = serve::SnapshotMet(*first, met);
  ASSERT_TRUE(after.ok());
  ExpectSameSelection(*after, *before);
  ExpectSameQuality(after->quality, before->quality);
}

TEST(Serving, EpochWithoutQualitySurfaceRejectsThePredicate) {
  // A batch Affinity attaches no quality surface: its epoch answers
  // min_quality > 0 with FailedPrecondition, exactly as the engine does,
  // and stamps nothing otherwise.
  const ts::Dataset ds = TestData();
  auto fw = core::Affinity::Build(ds.matrix);
  ASSERT_TRUE(fw.ok());
  const auto& engine = fw->engine();
  ASSERT_EQ(engine.quality(), nullptr);
  auto snap = serve::SnapshotBuilder::Build(fw->model(), engine, 1, ds.matrix.m());
  ASSERT_FALSE(snap->caps.has_quality);
  MetRequest met{Measure::kCorrelation, 0.5, true};
  met.min_quality = 0.5;
  MerRequest mer{Measure::kCorrelation, 0.2, 0.9};
  mer.min_quality = 0.5;
  TopKRequest topk{Measure::kCorrelation, 3, true};
  topk.min_quality = 0.5;
  MecRequest mec{Measure::kCorrelation, {0, 1}};
  mec.min_quality = 0.5;
  EXPECT_EQ(serve::SnapshotMet(*snap, met).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Met(met).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(serve::SnapshotMer(*snap, mer).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Mer(mer).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(serve::SnapshotTopK(*snap, topk).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.TopK(topk).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(serve::SnapshotMec(*snap, mec).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Mec(mec).status().code(), StatusCode::kFailedPrecondition);

  topk.min_quality = 0.0;
  auto served = serve::SnapshotTopK(*snap, topk);
  auto live = engine.TopK(topk);
  ASSERT_TRUE(served.ok());
  ASSERT_TRUE(live.ok());
  ExpectSameTopK(*served, *live);
  EXPECT_FALSE(served->quality.populated);
  EXPECT_FALSE(live->quality.populated);
}

// The gather filters cross pairs and stamps answers with the scores each
// shard epoch froze: only eligible pairs survive, exclusions are counted,
// and an MEC id set touching a below-threshold series is refused.
TEST(RouterServe, QualityPredicatesFilterWithEpochScores) {
  const ts::Dataset ds = TestData(16);
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto service = ShardedAffinity::Create(Names(16), ShardOptions(shards));
    ASSERT_TRUE(service.ok());
    FeedGappy(&*service, ds, 0, 100);
    ASSERT_TRUE(service->ready());
    auto snap = service->serving();
    ASSERT_NE(snap, nullptr);
    std::vector<double> scores(16);
    for (std::size_t id = 0; id < 16; ++id) {
      scores[id] = snap->shards[snap->routing->shard_of[id]]->quality[snap->routing->local_of[id]];
    }
    const double threshold = MidThreshold(scores);
    const auto expect_eligible = [&](const std::vector<ts::SequencePair>& pairs) {
      for (const ts::SequencePair& p : pairs) {
        EXPECT_GE(scores[p.u], threshold);
        EXPECT_GE(scores[p.v], threshold);
      }
    };

    MetRequest met{Measure::kCorrelation, 0.3, true};
    met.min_quality = threshold;
    auto served_met = RouterMet(*snap, met);
    ASSERT_TRUE(served_met.ok());
    EXPECT_GT(served_met->quality.excluded, 0u);
    EXPECT_TRUE(served_met->quality.populated);
    EXPECT_GE(served_met->quality.min_score, threshold);
    expect_eligible(served_met->pairs);

    MerRequest mer{Measure::kCovariance, -0.5, 0.8};
    mer.min_quality = threshold;
    auto served_mer = RouterMer(*snap, mer);
    ASSERT_TRUE(served_mer.ok());
    expect_eligible(served_mer->pairs);

    for (TopKRequest topk : {TopKRequest{Measure::kCorrelation, 6, true},
                             TopKRequest{Measure::kCovariance, 5, false}}) {
      topk.min_quality = threshold;
      auto served = RouterTopK(*snap, topk);
      ASSERT_TRUE(served.ok());
      EXPECT_GT(served->quality.excluded, 0u);
      EXPECT_GE(served->quality.min_score, threshold);
      for (const auto& e : served->entries) {
        EXPECT_GE(scores[e.pair.u], threshold);
        EXPECT_GE(scores[e.pair.v], threshold);
      }
    }

    ts::SeriesId good_a = 16, good_b = 16, bad = 16;
    for (ts::SeriesId id = 0; id < 16; ++id) {
      if (scores[id] < threshold) {
        bad = id;
      } else if (good_a == 16) {
        good_a = id;
      } else {
        good_b = id;
      }
    }
    ASSERT_LT(bad, 16u);
    ASSERT_LT(good_b, 16u);
    MecRequest mec{Measure::kCovariance, {good_a, good_b}};
    mec.min_quality = threshold;
    auto served_mec = RouterMec(*snap, mec);
    ASSERT_TRUE(served_mec.ok());
    EXPECT_TRUE(served_mec->quality.populated);
    mec.ids.push_back(bad);
    EXPECT_EQ(RouterMec(*snap, mec).status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(service->Mec(mec).status().code(), StatusCode::kFailedPrecondition);
  }
}

// Every cross value comes from the epoch's cross co-moments: each cross
// cell of an all-ids MEC is bitwise NaivePairMeasure over the two epoch
// shard columns at the epoch's anchor, and the cross entries of a MET and
// a top-k agree with those cells.
TEST(RouterServe, CrossValuesAreNaiveOverEpochColumns) {
  auto service = ShardedAffinity::Create(Names(16), ShardOptions(4));
  ASSERT_TRUE(service.ok());
  Feed(&*service, TestData(16), 0, 70);
  auto snap = service->serving();
  ASSERT_NE(snap, nullptr);
  const RoutingTables& routing = *snap->routing;
  ASSERT_EQ(routing.cross.size(), 96u);
  const auto column = [&](ts::SeriesId id) {
    return snap->shards[routing.shard_of[id]]->data.ColumnData(routing.local_of[id]);
  };
  MecRequest mec;
  for (ts::SeriesId id = 0; id < 16; ++id) mec.ids.push_back(id);
  for (const Measure m : {Measure::kCovariance, Measure::kDotProduct, Measure::kCorrelation,
                          Measure::kCosine, Measure::kJaccard, Measure::kDice}) {
    SCOPED_TRACE(std::string(core::MeasureName(m)));
    mec.measure = m;
    auto cells = RouterMec(*snap, mec);
    ASSERT_TRUE(cells.ok()) << cells.status().ToString();
    std::vector<double> cross_values;
    for (const ts::SequencePair& p : routing.cross) {
      auto want = core::NaivePairMeasure(m, column(p.u), column(p.v), snap->window, snap->anchor);
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(cells->pair_values(p.u, p.v), *want) << p.u << "," << p.v;
      EXPECT_EQ(cells->pair_values(p.v, p.u), *want) << p.v << "," << p.u;
      cross_values.push_back(*want);
    }

    // A MET at the median cross value keeps exactly the cross pairs above it.
    std::vector<double> sorted = cross_values;
    std::sort(sorted.begin(), sorted.end());
    const double tau = sorted[sorted.size() / 2];
    auto met = RouterMet(*snap, {m, tau, true});
    ASSERT_TRUE(met.ok()) << met.status().ToString();
    std::vector<ts::SequencePair> kept_cross;
    for (const ts::SequencePair& p : met->pairs) {
      if (routing.shard_of[p.u] != routing.shard_of[p.v]) kept_cross.push_back(p);
    }
    std::vector<ts::SequencePair> want_cross;
    for (std::size_t i = 0; i < routing.cross.size(); ++i) {
      if (cross_values[i] > tau) want_cross.push_back(routing.cross[i]);
    }
    EXPECT_EQ(kept_cross, want_cross);

    auto topk = RouterTopK(*snap, {m, 30, true});
    ASSERT_TRUE(topk.ok()) << topk.status().ToString();
    std::size_t cross_entries = 0;
    for (const auto& e : topk->entries) {
      if (routing.shard_of[e.pair.u] == routing.shard_of[e.pair.v]) continue;
      ++cross_entries;
      EXPECT_EQ(e.value, cells->pair_values(e.pair.u, e.pair.v)) << e.pair.u << "," << e.pair.v;
    }
    EXPECT_GT(cross_entries, 0u);
  }
}

// One epoch fills its cross co-moments once, whatever reads them: MET,
// MER, top-k and MEC on one epoch sweep |cross| pairs and n columns
// together, the next lockstep epoch sweeps them once more, and a 1-shard
// service sweeps nothing.
TEST(RouterServe, EachEpochFillsItsCrossMomentsOnce) {
  const ts::Dataset ds = TestData(16);
  const auto run_queries = [](const ShardedAffinity& service) {
    EXPECT_TRUE(service.Met({Measure::kCorrelation, 0.5, true}).ok());
    EXPECT_TRUE(service.Mer({Measure::kCovariance, -0.5, 0.5}).ok());
    EXPECT_TRUE(service.TopK({Measure::kCosine, 5, true}).ok());
    EXPECT_TRUE(service.Mec({Measure::kCovariance, {0, 5, 9, 15}}).ok());
  };
  auto service = ShardedAffinity::Create(Names(16), ShardOptions(4));
  ASSERT_TRUE(service.ok());
  Feed(&*service, ds, 0, 60);
  const std::uint64_t generation = service->serving()->generation;
  run_queries(*service);
  EXPECT_EQ(service->cross_sweep_stats().pairs_scanned, 96u);
  EXPECT_EQ(service->cross_sweep_stats().columns_hoisted, 16u);
  run_queries(*service);
  EXPECT_EQ(service->cross_sweep_stats().pairs_scanned, 96u);

  Feed(&*service, ds, 60, 80);  // the next lockstep publication
  ASSERT_EQ(service->serving()->generation, generation + 1);
  run_queries(*service);
  EXPECT_EQ(service->cross_sweep_stats().pairs_scanned, 2 * 96u);
  EXPECT_EQ(service->cross_sweep_stats().columns_hoisted, 2 * 16u);

  auto single = ShardedAffinity::Create(Names(16), ShardOptions(1));
  ASSERT_TRUE(single.ok());
  Feed(&*single, ds, 0, 60);
  run_queries(*single);
  EXPECT_EQ(single->cross_sweep_stats().pairs_scanned, 0u);
  EXPECT_EQ(single->cross_sweep_stats().columns_hoisted, 0u);
  EXPECT_EQ(single->cross_sweep_stats().values_derived, 0u);
}

// One epoch derives each pair measure's cross values once, whatever reads
// them: a MET, a MER and a top-k of one measure share one derivation, a
// MEC derives none, and another measure or the next epoch derives again.
// The vector holds bitwise what a MEC cell derives, at 1/2/8 threads.
TEST(RouterServe, EachEpochDerivesEachMeasuresCrossValuesOnce) {
  const ts::Dataset ds = TestData(16);
  std::vector<std::vector<double>> correlations;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto service = ShardedAffinity::Create(Names(16), ShardOptions(4, threads));
    ASSERT_TRUE(service.ok());
    Feed(&*service, ds, 0, 60);
    const auto derived = [&] { return service->cross_sweep_stats().values_derived; };
    EXPECT_EQ(derived(), 0u);
    ASSERT_TRUE(service->Met({Measure::kCorrelation, 0.5, true}).ok());
    EXPECT_EQ(derived(), 96u);
    ASSERT_TRUE(service->Mer({Measure::kCorrelation, 0.2, 0.9}).ok());
    ASSERT_TRUE(service->TopK({Measure::kCorrelation, 5, true}).ok());
    ASSERT_TRUE(service->Mec({Measure::kCorrelation, {0, 5, 9, 15}}).ok());
    EXPECT_EQ(derived(), 96u);
    ASSERT_TRUE(service->TopK({Measure::kCovariance, 5, false}).ok());
    EXPECT_EQ(derived(), 2 * 96u);

    auto snap = service->serving();
    ASSERT_NE(snap, nullptr);
    const RoutingTables& routing = *snap->routing;
    MecRequest mec;
    for (ts::SeriesId id = 0; id < 16; ++id) mec.ids.push_back(id);
    for (const Measure m : {Measure::kCovariance, Measure::kDotProduct, Measure::kCorrelation,
                            Measure::kCosine, Measure::kJaccard, Measure::kDice}) {
      SCOPED_TRACE(std::string(core::MeasureName(m)));
      const std::vector<double>& values = CrossValues(*snap, m);
      ASSERT_EQ(values.size(), routing.cross.size());
      mec.measure = m;
      auto cells = RouterMec(*snap, mec);
      ASSERT_TRUE(cells.ok()) << cells.status().ToString();
      for (std::size_t i = 0; i < routing.cross.size(); ++i) {
        EXPECT_EQ(values[i], cells->pair_values(routing.cross[i].u, routing.cross[i].v)) << i;
      }
      // A second read returns the same vector, not a new derivation.
      EXPECT_EQ(&CrossValues(*snap, m), &values);
    }
    correlations.push_back(CrossValues(*snap, Measure::kCorrelation));

    Feed(&*service, ds, 60, 80);  // the next lockstep publication
    ASSERT_TRUE(service->Met({Measure::kCorrelation, 0.5, true}).ok());
    EXPECT_EQ(derived(), 3 * 96u);
  }
  EXPECT_EQ(correlations[1], correlations[0]);
  EXPECT_EQ(correlations[2], correlations[0]);
}

// Whatever method the shards run, the router values cross pairs by WN:
// an explicit plan says so, as a kAuto plan does. L-measures have no cross
// pairs and no such note.
TEST(RouterServe, ExplicitPlansSayCrossPairsAreValuedByWn) {
  ShardedOptions options = ShardOptions(4);
  options.streaming.build.build_dft = true;
  auto service = ShardedAffinity::Create(Names(16), options);
  ASSERT_TRUE(service.ok());
  Feed(&*service, TestData(16), 0, 60);
  const std::string note =
      "; scatter-gather over 4 shards (+96 cross-shard pairs via WN, k-way merge)";
  for (const QueryMethod method : {QueryMethod::kDft, QueryMethod::kAffine}) {
    const std::string name(core::QueryMethodName(method));
    SCOPED_TRACE(name);
    const std::string want = "explicitly requested " + name + " per shard" + note;
    auto met = service->Met({Measure::kCorrelation, 0.5, true}, {method});
    ASSERT_TRUE(met.ok()) << met.status().ToString();
    EXPECT_NE(met->result.plan.rationale.find(want), std::string::npos)
        << met->result.plan.rationale;
    auto mec = service->Mec({Measure::kCorrelation, {0, 5, 9, 15}}, {method});
    ASSERT_TRUE(mec.ok()) << mec.status().ToString();
    EXPECT_NE(mec->response.plan.rationale.find(want), std::string::npos)
        << mec->response.plan.rationale;
  }
  auto planned = service->Met({Measure::kCorrelation, 0.5, true});
  ASSERT_TRUE(planned.ok());
  EXPECT_NE(planned->result.plan.rationale.find(note), std::string::npos)
      << planned->result.plan.rationale;
  auto means = service->Met({Measure::kMean, 0.0, true}, {QueryMethod::kAffine});
  ASSERT_TRUE(means.ok());
  EXPECT_NE(means->result.plan.rationale.find(
                "explicitly requested WA per shard; scatter-gather over 4 shards"),
            std::string::npos);
  EXPECT_EQ(means->result.plan.rationale.find("cross-shard"), std::string::npos);
}

}  // namespace
}  // namespace affinity::shard
