// Thread-count invariance of the whole stack (the DESIGN.md §7
// guarantee): building the framework and answering MET/MER/MEC/top-k
// queries with 1, 2, and 8 threads must produce *identical* results —
// same entity sets, same order, bitwise-equal values — because the chunk
// decomposition depends only on item counts and merges are ordered.

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/framework.h"
#include "core/streaming.h"
#include "ts/generators.h"

namespace affinity::core {
namespace {

ts::Dataset TestData() {
  ts::DatasetSpec spec;
  spec.num_series = 30;
  spec.num_samples = 96;
  spec.num_clusters = 3;
  spec.noise_level = 0.03;
  spec.seed = 99;
  return ts::MakeSensorData(spec);
}

Affinity BuildWithThreads(const ts::DataMatrix& data, std::size_t threads) {
  AffinityOptions options;
  options.threads = threads;
  auto fw = Affinity::Build(data, options);
  EXPECT_TRUE(fw.ok()) << fw.status().ToString();
  return std::move(fw).value();
}

void ExpectSelectionsIdentical(const SelectionResult& a, const SelectionResult& b,
                               const char* label) {
  // Full equality including order: parallel merges are chunk-ordered, so
  // even the sequence must match the sequential run.
  EXPECT_EQ(a.series, b.series) << label;
  EXPECT_EQ(a.pairs, b.pairs) << label;
}

class ParallelExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new ts::Dataset(TestData());
    baseline_ = new Affinity(BuildWithThreads(dataset_->matrix, 1));
  }
  static void TearDownTestSuite() {
    delete baseline_;
    delete dataset_;
    baseline_ = nullptr;
    dataset_ = nullptr;
  }
  static ts::Dataset* dataset_;
  static Affinity* baseline_;  ///< sequential reference build
};

ts::Dataset* ParallelExecTest::dataset_ = nullptr;
Affinity* ParallelExecTest::baseline_ = nullptr;

TEST_F(ParallelExecTest, BuiltModelIsIdenticalAcrossThreadCounts) {
  for (const std::size_t threads : {2u, 8u}) {
    const Affinity fw = BuildWithThreads(dataset_->matrix, threads);
    EXPECT_EQ(fw.profile().threads, threads);
    ASSERT_EQ(fw.model().relationship_count(), baseline_->model().relationship_count());
    ASSERT_EQ(fw.model().pivot_count(), baseline_->model().pivot_count());
    // Bitwise-equal propagated values for every pair and measure family.
    for (const auto& e : ts::AllSequencePairs(dataset_->matrix.n())) {
      for (const Measure m : {Measure::kCovariance, Measure::kDotProduct,
                              Measure::kCorrelation, Measure::kCosine}) {
        EXPECT_EQ(*fw.model().PairMeasure(m, e), *baseline_->model().PairMeasure(m, e))
            << MeasureName(m) << " (" << e.u << "," << e.v << ") threads=" << threads;
      }
    }
    for (ts::SeriesId v = 0; v < dataset_->matrix.n(); ++v) {
      EXPECT_EQ(*fw.model().SeriesMeasure(Measure::kMean, v),
                *baseline_->model().SeriesMeasure(Measure::kMean, v));
    }
  }
}

TEST_F(ParallelExecTest, MetIdenticalAcrossThreadCounts) {
  for (const std::size_t threads : {2u, 8u}) {
    const Affinity fw = BuildWithThreads(dataset_->matrix, threads);
    for (const QueryMethod method :
         {QueryMethod::kNaive, QueryMethod::kAffine, QueryMethod::kScape, QueryMethod::kDft}) {
      MetRequest req;
      req.measure = Measure::kCorrelation;
      req.tau = 0.7;
      auto parallel = fw.engine().Met(req, method);
      auto sequential = baseline_->engine().Met(req, method);
      ASSERT_TRUE(parallel.ok()) << QueryMethodName(method);
      ASSERT_TRUE(sequential.ok());
      ExpectSelectionsIdentical(*parallel, *sequential, QueryMethodName(method).data());
    }
    MetRequest loc;
    loc.measure = Measure::kMean;
    loc.tau = 5.0;
    auto parallel = fw.engine().Met(loc, QueryMethod::kNaive);
    auto sequential = baseline_->engine().Met(loc, QueryMethod::kNaive);
    ASSERT_TRUE(parallel.ok());
    ASSERT_TRUE(sequential.ok());
    ExpectSelectionsIdentical(*parallel, *sequential, "mean/WN");
  }
}

TEST_F(ParallelExecTest, MerIdenticalAcrossThreadCounts) {
  for (const std::size_t threads : {2u, 8u}) {
    const Affinity fw = BuildWithThreads(dataset_->matrix, threads);
    MerRequest req;
    req.measure = Measure::kCovariance;
    req.lo = -1.0;
    req.hi = 2.5;
    for (const QueryMethod method :
         {QueryMethod::kNaive, QueryMethod::kAffine, QueryMethod::kScape}) {
      auto parallel = fw.engine().Mer(req, method);
      auto sequential = baseline_->engine().Mer(req, method);
      ASSERT_TRUE(parallel.ok()) << QueryMethodName(method);
      ASSERT_TRUE(sequential.ok());
      ExpectSelectionsIdentical(*parallel, *sequential, QueryMethodName(method).data());
    }
  }
}

TEST_F(ParallelExecTest, MecIdenticalAcrossThreadCounts) {
  MecRequest req;
  req.measure = Measure::kCorrelation;
  for (ts::SeriesId v = 0; v < dataset_->matrix.n(); ++v) req.ids.push_back(v);
  for (const std::size_t threads : {2u, 8u}) {
    const Affinity fw = BuildWithThreads(dataset_->matrix, threads);
    for (const QueryMethod method :
         {QueryMethod::kNaive, QueryMethod::kAffine, QueryMethod::kDft}) {
      auto parallel = fw.engine().Mec(req, method);
      auto sequential = baseline_->engine().Mec(req, method);
      ASSERT_TRUE(parallel.ok()) << QueryMethodName(method);
      ASSERT_TRUE(sequential.ok());
      EXPECT_EQ(parallel->pair_values.MaxAbsDiff(sequential->pair_values), 0.0)
          << QueryMethodName(method);
    }
    MecRequest loc;
    loc.measure = Measure::kMedian;
    loc.ids = req.ids;
    auto parallel = fw.engine().Mec(loc, QueryMethod::kNaive);
    auto sequential = baseline_->engine().Mec(loc, QueryMethod::kNaive);
    ASSERT_TRUE(parallel.ok());
    ASSERT_TRUE(sequential.ok());
    ASSERT_EQ(parallel->location.size(), sequential->location.size());
    for (std::size_t i = 0; i < parallel->location.size(); ++i) {
      EXPECT_EQ(parallel->location[i], sequential->location[i]);
    }
  }
}

TEST_F(ParallelExecTest, TopKIdenticalAcrossThreadCounts) {
  for (const std::size_t threads : {2u, 8u}) {
    const Affinity fw = BuildWithThreads(dataset_->matrix, threads);
    for (const QueryMethod method :
         {QueryMethod::kNaive, QueryMethod::kAffine, QueryMethod::kScape}) {
      TopKRequest req;
      req.measure = Measure::kCorrelation;
      req.k = 15;
      auto parallel = fw.engine().TopK(req, method);
      auto sequential = baseline_->engine().TopK(req, method);
      ASSERT_TRUE(parallel.ok()) << QueryMethodName(method);
      ASSERT_TRUE(sequential.ok());
      ASSERT_EQ(parallel->entries.size(), sequential->entries.size());
      for (std::size_t i = 0; i < parallel->entries.size(); ++i) {
        EXPECT_EQ(parallel->entries[i].value, sequential->entries[i].value) << i;
        EXPECT_EQ(parallel->entries[i].pair, sequential->entries[i].pair) << i;
        EXPECT_EQ(parallel->entries[i].series, sequential->entries[i].series) << i;
      }
    }
  }
}

TEST(ParallelStreaming, RebuildsMatchSequentialStream) {
  // Two identical streams, one sequential and one with a shared pool:
  // every snapshot must answer queries identically.
  const ts::Dataset data = TestData();
  std::vector<std::string> names;
  for (ts::SeriesId v = 0; v < data.matrix.n(); ++v) names.push_back(data.matrix.name(v));

  StreamingOptions seq_options;
  seq_options.window = 48;
  seq_options.rebuild_interval = 16;
  seq_options.build.threads = 1;
  StreamingOptions par_options = seq_options;
  par_options.build.threads = 4;

  auto seq = StreamingAffinity::Create(names, seq_options);
  auto par = StreamingAffinity::Create(names, par_options);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(par.ok());

  std::vector<double> row(data.matrix.n());
  for (std::size_t i = 0; i < 80; ++i) {
    for (std::size_t j = 0; j < data.matrix.n(); ++j) {
      row[j] = data.matrix.ColumnData(static_cast<ts::SeriesId>(j))[i];
    }
    ASSERT_TRUE(seq->Append(row).ok());
    ASSERT_TRUE(par->Append(row).ok());
  }
  ASSERT_TRUE(seq->ready());
  ASSERT_TRUE(par->ready());
  EXPECT_EQ(seq->rebuild_count(), par->rebuild_count());

  MetRequest req;
  req.measure = Measure::kCorrelation;
  req.tau = 0.8;
  auto a = seq->Met(req);
  auto b = par->Met(req);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->pairs, b->pairs);
}

}  // namespace
}  // namespace affinity::core
