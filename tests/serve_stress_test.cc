// Concurrency stress for lock-free snapshot serving (DESIGN.md §11):
// reader threads continuously acquire serving epochs and run all four
// query kinds — directly, or through the single-stream and sharded
// facades — while the owner thread slides the window at interval 1 (a
// refresh per append — the worst-case maintenance rate). Run under the
// TSan CI leg, this is the data-race proof of the epoch-publication
// contract: readers touch only acquired snapshots, const serve functions
// and atomic counters, writers only publish.

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/streaming.h"
#include "serve/serve_query.h"
#include "shard/sharded.h"
#include "ts/generators.h"

namespace affinity::shard {
namespace {

using core::ExecutedPlan;
using core::FreshnessReport;
using core::Measure;
using core::StreamingAffinity;
using core::StreamingOptions;

std::vector<std::string> Names(std::size_t n) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back("s" + std::to_string(i));
  return out;
}

ts::Dataset TestData(std::size_t n) {
  ts::DatasetSpec spec;
  spec.num_series = n;
  spec.num_samples = 400;
  spec.num_clusters = 3;
  spec.noise_level = 0.02;
  spec.seed = 12;
  return ts::MakeSensorData(spec);
}

constexpr std::size_t kReaders = 4;
constexpr std::size_t kSlides = 160;  // appends after readiness, one refresh each

/// Whether the writer slides again after `i` slides: at least kSlides, and
/// on until `seen` (the readers' count of what the test asserts they saw
/// during slides) is non-zero. When the readers first get scheduled
/// against the writer depends on the host, not on the code under test, so
/// a fixed count of cheap refreshes can end before any reader runs; the
/// cap keeps readers that never run a failure. Past the data, rows wrap.
bool SlideOn(std::size_t i, const std::atomic<std::size_t>& seen) {
  return i < kSlides || (seen.load() == 0 && i < 64 * kSlides);
}

constexpr core::QueryMethod kDft = core::QueryMethod::kDft;

bool ServedFromSnapshot(const ExecutedPlan& plan) {
  return plan.rationale.find("served from read-optimized snapshot") != std::string::npos;
}

// Readers query each acquired epoch directly and through the stream's
// facade, which answers from the epoch it acquires — explicit WF
// included — and dates it against an atomic row count (DESIGN.md §13).
TEST(ServeStress, SingleInstanceReadersNeverBlockOnSlides) {
  StreamingOptions options;
  options.window = 40;
  options.rebuild_interval = 1;  // refresh on every append
  options.mode = core::UpdateMode::kIncremental;
  options.build.afclst.k = 2;
  options.build.build_dft = true;
  auto stream = StreamingAffinity::Create(Names(8), options);
  ASSERT_TRUE(stream.ok());
  const ts::Dataset ds = TestData(8);
  std::vector<double> row(8);
  for (std::size_t i = 0; i < options.window; ++i) {
    for (std::size_t j = 0; j < 8; ++j) row[j] = ds.matrix.matrix()(i, j);
    ASSERT_TRUE(stream->Append(row).ok());
  }
  ASSERT_NE(stream->serving(), nullptr);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> queries{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&stream, &stop, &failures, &queries] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto snap = stream->serving();
        if (snap == nullptr) {
          failures.fetch_add(1);
          continue;
        }
        const std::uint64_t generation = snap->generation;
        auto met = serve::SnapshotMet(*snap, {Measure::kCorrelation, 0.9, true});
        auto mer = serve::SnapshotMer(*snap, {Measure::kCovariance, -0.5, 0.5});
        auto topk = serve::SnapshotTopK(*snap, {Measure::kDotProduct, 3, true});
        auto mec = serve::SnapshotMec(*snap, {Measure::kMean, {0, 3, 7}});
        if (!met.ok() || !mer.ok() || !topk.ok() || !mec.ok()) failures.fetch_add(1);
        // The pinned epoch must be internally coherent while slides
        // publish newer ones underneath.
        if (snap->generation != generation) failures.fetch_add(1);
        FreshnessReport met_age;
        FreshnessReport topk_age;
        FreshnessReport mec_age;
        auto facade_met = stream->Met({Measure::kCorrelation, 0.9, true, 0.5}, {}, &met_age);
        auto facade_topk = stream->TopK({Measure::kCovariance, 3, true}, {}, &topk_age);
        auto facade_mec = stream->Mec({Measure::kCovariance, {0, 3, 7}}, {}, &mec_age);
        if (!facade_met.ok() || !facade_topk.ok() || !facade_mec.ok() ||
            !ServedFromSnapshot(facade_met->plan) || !ServedFromSnapshot(facade_topk->plan) ||
            !ServedFromSnapshot(facade_mec->plan)) {
          failures.fetch_add(1);
        }
        // Explicit WF sketches the epoch's window; nothing live is read.
        auto wf_met = stream->Met({Measure::kCorrelation, 0.5, true}, {kDft});
        auto wf_mec = stream->Mec({Measure::kCorrelation, {0, 3, 7}}, {kDft});
        if (!wf_met.ok() || !wf_mec.ok() || !ServedFromSnapshot(wf_met->plan) ||
            !ServedFromSnapshot(wf_mec->plan)) {
          failures.fetch_add(1);
        }
        queries.fetch_add(9, std::memory_order_relaxed);
      }
    });
  }
  for (std::size_t i = 0; SlideOn(i, queries); ++i) {
    const std::size_t src = (options.window + i) % ds.matrix.m();
    for (std::size_t j = 0; j < 8; ++j) row[j] = ds.matrix.matrix()(src, j);
    const auto result = stream->Append(row);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result.refreshed);  // interval 1: every append refreshes
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(queries.load(), 0u);
  // Every slide published a fresh epoch.
  auto last = stream->serving();
  ASSERT_NE(last, nullptr);
  EXPECT_GE(last->generation, kSlides);
}

TEST(ServeStress, HeldEpochReadersDuringContinuousSlides) {
  StreamingOptions options;
  options.window = 40;
  options.rebuild_interval = 1;  // refresh on every append
  options.mode = core::UpdateMode::kIncremental;
  options.build.afclst.k = 2;
  options.build.build_dft = false;
  auto stream = StreamingAffinity::Create(Names(8), options);
  ASSERT_TRUE(stream.ok());
  const ts::Dataset ds = TestData(8);
  std::vector<double> row(8);
  for (std::size_t i = 0; i < options.window; ++i) {
    for (std::size_t j = 0; j < 8; ++j) row[j] = ds.matrix.matrix()(i, j);
    ASSERT_TRUE(stream->Append(row).ok());
  }
  ASSERT_NE(stream->serving(), nullptr);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> outlived{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&stream, &stop, &failures, &outlived] {
      while (!stop.load(std::memory_order_relaxed)) {
        // Hold whatever is current, let the writer publish past it, then
        // query the held epoch again: it must have stayed bit-stable.
        auto pinned = stream->serving();
        if (pinned == nullptr) {
          failures.fetch_add(1);
          continue;
        }
        auto before = serve::SnapshotMet(*pinned, {Measure::kCorrelation, 0.9, true});
        if (!before.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const bool superseded = stream->serving()->generation > pinned->generation;
        auto again = serve::SnapshotMet(*pinned, {Measure::kCorrelation, 0.9, true});
        if (!again.ok() || again->series != before->series || again->pairs != before->pairs) {
          failures.fetch_add(1);
        }
        if (superseded) outlived.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::size_t i = 0; SlideOn(i, outlived); ++i) {
    const std::size_t src = (options.window + i) % ds.matrix.m();
    for (std::size_t j = 0; j < 8; ++j) row[j] = ds.matrix.matrix()(src, j);
    const auto result = stream->Append(row);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result.refreshed);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  // Some held epoch was re-queried after a newer one had published.
  EXPECT_GT(outlived.load(), 0u);
}

TEST(ServeStress, ShardedRoutersServeDuringContinuousSlides) {
  ShardedOptions options;
  options.shards = 4;
  options.streaming.window = 40;
  options.streaming.rebuild_interval = 1;
  options.streaming.mode = core::UpdateMode::kIncremental;
  options.streaming.build.afclst.k = 2;
  options.streaming.build.build_dft = false;
  auto service = ShardedAffinity::Create(Names(16), options);
  ASSERT_TRUE(service.ok());
  const ts::Dataset ds = TestData(16);
  std::vector<double> row(16);
  for (std::size_t i = 0; i < options.streaming.window; ++i) {
    for (std::size_t j = 0; j < 16; ++j) row[j] = ds.matrix.matrix()(i, j);
    ASSERT_TRUE(service->Append(row).ok());
  }
  ASSERT_NE(service->serving(), nullptr);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> queries{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&service, &stop, &failures, &queries] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto snap = service->serving();
        if (snap == nullptr) {
          failures.fetch_add(1);
          continue;
        }
        auto met = RouterMet(*snap, {Measure::kCorrelation, 0.9, true});
        auto mer = RouterMer(*snap, {Measure::kCovariance, -0.5, 0.5});
        auto topk = RouterTopK(*snap, {Measure::kCorrelation, 5, true});
        auto mec = RouterMec(*snap, {Measure::kCovariance, {0, 5, 9, 15}});
        if (!met.ok() || !mer.ok() || !topk.ok() || !mec.ok()) failures.fetch_add(1);
        if (mec.ok() && mec->pair_values.rows() != 4) failures.fetch_add(1);
        queries.fetch_add(4, std::memory_order_relaxed);
      }
    });
  }
  for (std::size_t i = 0; i < kSlides; ++i) {
    const std::size_t src = options.streaming.window + i;
    for (std::size_t j = 0; j < 16; ++j) row[j] = ds.matrix.matrix()(src, j);
    ASSERT_TRUE(service->Append(row).ok());
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(queries.load(), 0u);
  auto last = service->serving();
  ASSERT_NE(last, nullptr);
  EXPECT_GE(last->generation, kSlides);
}

// Reader threads query the sharded facade itself (no staleness bound)
// while the writer appends through lockstep refreshes and a Rebuild. The
// facade answers from the router epoch it acquires and dates it against
// an atomic row count, so under TSan this proves it shares nothing
// unsynchronized with the writer (DESIGN.md §13).
TEST(ServeStress, ShardedFacadeReadersDuringSlidesAndRebuild) {
  ShardedOptions options;
  options.shards = 4;
  options.streaming.window = 40;
  options.streaming.rebuild_interval = 1;
  options.streaming.mode = core::UpdateMode::kIncremental;
  options.streaming.build.afclst.k = 2;
  options.streaming.build.build_dft = true;
  auto service = ShardedAffinity::Create(Names(16), options);
  ASSERT_TRUE(service.ok());
  const ts::Dataset ds = TestData(16);
  std::vector<double> row(16);
  const auto append = [&](std::size_t src) {
    for (std::size_t j = 0; j < 16; ++j) row[j] = ds.matrix.matrix()(src, j);
    return service->Append(row).ok();
  };
  for (std::size_t i = 0; i < options.streaming.window; ++i) ASSERT_TRUE(append(i));
  ASSERT_TRUE(service->ready());

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> queries{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&service, &stop, &failures, &queries] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto met = service->Met({Measure::kCorrelation, 0.9, true});
        auto topk = service->TopK({Measure::kCorrelation, 5, true});
        auto mec = service->Mec({Measure::kCovariance, {0, 5, 9, 15}});
        if (!met.ok() || !topk.ok() || !mec.ok()) failures.fetch_add(1);
        if (met.ok() && met->shards.size() != 4) failures.fetch_add(1);
        if (mec.ok() && mec->response.pair_values.rows() != 4) failures.fetch_add(1);
        // Explicit WF: every shard sketches its epoch's window.
        auto wf_met = service->Met({Measure::kCorrelation, 0.5, true}, {kDft});
        auto wf_mec = service->Mec({Measure::kCorrelation, {0, 5, 9, 15}}, {kDft});
        if (!wf_met.ok() || !wf_mec.ok() || !ServedFromSnapshot(wf_met->result.plan) ||
            !ServedFromSnapshot(wf_mec->response.plan)) {
          failures.fetch_add(1);
        }
        queries.fetch_add(5, std::memory_order_relaxed);
      }
    });
  }
  // No ASSERT while readers run: a failed write is counted, the readers
  // are always joined.
  std::size_t write_failures = 0;
  for (std::size_t i = 0; i < kSlides; ++i) {
    if (!append(options.streaming.window + i)) ++write_failures;
    if (i == kSlides / 2 && !service->Rebuild().ok()) ++write_failures;
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(write_failures, 0u);
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(queries.load(), 0u);
  EXPECT_GT(service->cross_sweep_stats().pairs_scanned, 0u);
  // Concurrent readers fill each epoch's cross co-moments at most once:
  // whole fills of the 96 cross pairs, no more than one per generation.
  const std::size_t scanned = service->cross_sweep_stats().pairs_scanned;
  EXPECT_EQ(scanned % 96, 0u);
  EXPECT_LE(scanned, 96 * service->serving()->generation);
  // They derive each (epoch, measure)'s cross values at most once too:
  // whole vectors of 96, and the readers' MET and top-k scan one measure.
  const std::size_t derived = service->cross_sweep_stats().values_derived;
  EXPECT_GT(derived, 0u);
  EXPECT_EQ(derived % 96, 0u);
  EXPECT_LE(derived, 96 * service->serving()->generation);
}

}  // namespace
}  // namespace affinity::shard
