// Streaming demo — windowed AFFINITY over a live feed.
//
// Rows arrive one at a time (here: a synthetic sensor feed replayed at
// ingest speed); the StreamingAffinity wrapper maintains the trailing
// analysis window and refreshes the model (AFCLST → SYMEX+) every
// `rebuild_interval` rows — incrementally (delta updates through every
// layer, DESIGN.md §8) with drift-monitored escalation back to full
// rebuilds when the regime shifts (the demo splices two different seeds
// so that actually happens). After each refresh the demo runs a top-k
// correlation query and prints how the leader board drifts as the window
// slides — the real-time deployment the paper's introduction motivates.
//
// With --shards=N the same feed runs through the sharded router
// (DESIGN.md §9): N independent model instances over disjoint series
// groups, scatter appends with concurrent per-shard maintenance on one
// pool, scatter-gather top-k, a query between refreshes that reports how
// many rows old each shard's snapshot is, and a shard-manifest checkpoint
// round-trip.
//
//   $ ./streaming_demo
//   $ ./streaming_demo --shards=4

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "core/streaming.h"
#include "shard/sharded.h"
#include "ts/generators.h"

using affinity::core::Measure;
using affinity::core::StreamingAffinity;
using affinity::core::StreamingOptions;

namespace {

int RunSharded(std::size_t shards) {
  affinity::ts::DatasetSpec spec;
  spec.num_series = 16;
  spec.num_samples = 300;
  spec.num_clusters = 3;
  spec.seed = 71;
  const affinity::ts::Dataset phase1 = affinity::ts::MakeSensorData(spec);
  spec.seed = 72;
  const affinity::ts::Dataset phase2 = affinity::ts::MakeSensorData(spec);

  affinity::shard::ShardedOptions options;
  options.shards = shards;
  options.partition = affinity::shard::PartitionScheme::kHash;
  options.streaming.window = 120;
  options.streaming.rebuild_interval = 60;
  options.streaming.mode = affinity::core::UpdateMode::kIncremental;
  options.streaming.build.afclst.k = 2;
  options.streaming.build.build_dft = false;
  options.streaming.build.threads = 0;  // one worker per hardware thread

  auto service = affinity::shard::ShardedAffinity::Create(phase1.matrix.names(), options);
  if (!service.ok()) {
    std::fprintf(stderr, "create failed: %s\n", service.status().ToString().c_str());
    return 1;
  }
  std::printf("sharded streaming: %zu shards (hash partition), %zu cross-shard pairs\n",
              service->shard_count(), service->router().partitioner().cross_pair_count());

  std::vector<double> row(phase1.matrix.n());
  for (int phase = 0; phase < 2; ++phase) {
    const affinity::ts::DataMatrix& feed = (phase == 0 ? phase1 : phase2).matrix;
    for (std::size_t i = 0; i < feed.m(); ++i) {
      for (std::size_t j = 0; j < feed.n(); ++j) row[j] = feed.matrix()(i, j);
      const auto result = service->Append(row);
      if (!result.ok()) {
        std::fprintf(stderr, "append failed: %s\n", result.status.ToString().c_str());
        return 1;
      }
      if (result.refreshed) {
        affinity::core::TopKRequest request{Measure::kCorrelation, 3, true};
        auto top = service->TopK(request);
        if (!top.ok()) return 1;
        std::printf("t=%4zu  %s  top correlated pairs:", service->rows_ingested(),
                    result.escalated ? "escalated rebuild  " : "concurrent refreshes");
        for (const auto& entry : top->result.entries) {
          std::printf("  (%s,%s %.3f)", phase1.matrix.name(entry.pair.u).c_str(),
                      phase1.matrix.name(entry.pair.v).c_str(), entry.value);
        }
        std::printf("\n");
      }
    }
  }

  // Freshness: between refreshes the snapshots age, and every answer
  // reports each shard's age (rebuild_interval is the freshness control).
  for (int i = 0; i < 5; ++i) {
    if (!service->Append(row).ok()) return 1;
  }
  affinity::core::MecRequest mec;
  mec.measure = Measure::kCovariance;
  mec.ids = {0, static_cast<affinity::ts::SeriesId>(row.size() - 1)};
  auto aged = service->Mec(mec);
  if (!aged.ok()) return 1;
  std::printf("\nbetween refreshes: cov(%s,%s)=%.4f, shard snapshot ages:",
              phase1.matrix.name(mec.ids[0]).c_str(), phase1.matrix.name(mec.ids[1]).c_str(),
              aged->response.pair_values(0, 1));
  for (const auto& shard : aged->shards) std::printf(" %zu", shard.snapshot_age);
  std::printf(" rows (plan: %s)\n", aged->response.plan.rationale.c_str());

  // Checkpoint the whole deployment in one manifest and restore it.
  const std::string checkpoint = "/tmp/affinity_shard_checkpoint.affs";
  if (const auto status = service->Save(checkpoint); !status.ok()) {
    std::fprintf(stderr, "checkpoint failed: %s\n", status.ToString().c_str());
    return 1;
  }
  auto restored = affinity::shard::ShardedAffinity::Load(checkpoint);
  if (!restored.ok()) return 1;
  std::printf("checkpointed %zu shards to %s and restored them (ready=%s)\n",
              restored->shard_count(), checkpoint.c_str(),
              restored->ready() ? "true" : "false");

  const auto profile = service->maintenance();
  std::printf("ingested %zu rows; aggregated maintenance: %zu refreshes, %zu rows absorbed, "
              "%zu delta updates, %zu exact refits, %zu escalations\n",
              service->rows_ingested(), profile.refreshes, profile.rows_absorbed,
              profile.relationships_updated, profile.relationships_refit, profile.escalations);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      const long shards = std::atol(argv[i] + 9);
      if (shards < 1) {
        std::fprintf(stderr, "--shards must be >= 1\n");
        return 1;
      }
      return RunSharded(static_cast<std::size_t>(shards));
    }
    if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: %s [--shards=N]\n", argv[0]);
      return 0;
    }
  }
  // The feed: 16 sensors, 600 ticks, with cluster structure that slowly
  // rotates (two different seeds spliced) so the leader board moves.
  affinity::ts::DatasetSpec spec;
  spec.num_series = 16;
  spec.num_samples = 300;
  spec.num_clusters = 3;
  spec.seed = 71;
  const affinity::ts::Dataset phase1 = affinity::ts::MakeSensorData(spec);
  spec.seed = 72;
  const affinity::ts::Dataset phase2 = affinity::ts::MakeSensorData(spec);

  StreamingOptions options;
  options.window = 120;
  options.rebuild_interval = 60;
  options.mode = affinity::core::UpdateMode::kIncremental;
  options.build.afclst.k = 3;
  options.build.build_dft = false;

  auto stream = StreamingAffinity::Create(phase1.matrix.names(), options);
  if (!stream.ok()) {
    std::fprintf(stderr, "create failed: %s\n", stream.status().ToString().c_str());
    return 1;
  }

  std::vector<double> row(phase1.matrix.n());
  for (int phase = 0; phase < 2; ++phase) {
    const affinity::ts::DataMatrix& feed = (phase == 0 ? phase1 : phase2).matrix;
    for (std::size_t i = 0; i < feed.m(); ++i) {
      for (std::size_t j = 0; j < feed.n(); ++j) row[j] = feed.matrix()(i, j);
      const auto result = stream->Append(row);
      if (!result.ok()) {
        std::fprintf(stderr, "append failed: %s\n", result.status.ToString().c_str());
        return 1;
      }
      if (result.refreshed) {
        affinity::core::TopKRequest request{Measure::kCorrelation, 3, true};
        auto top = stream->TopK(request);
        if (!top.ok()) return 1;
        std::printf("t=%4zu  %s  top correlated pairs:", stream->rows_ingested(),
                    result.escalated ? "escalated rebuild"
                    : result.mode == affinity::core::UpdateMode::kIncremental
                        ? "incremental refresh"
                        : "full rebuild     ");
        for (const auto& entry : top->entries) {
          std::printf("  (%s,%s %.3f)", stream->framework()->data().name(entry.pair.u).c_str(),
                      stream->framework()->data().name(entry.pair.v).c_str(), entry.value);
        }
        std::printf("\n");
      }
    }
  }

  // Checkpoint the final model: a cold process can LoadModel() and answer
  // immediately (see core/serialize.h).
  const std::string checkpoint = "/tmp/affinity_stream_checkpoint.affm";
  if (const auto status =
          affinity::core::SaveModel(stream->framework()->model(), checkpoint);
      !status.ok()) {
    std::fprintf(stderr, "checkpoint failed: %s\n", status.ToString().c_str());
    return 1;
  }
  auto restored = affinity::core::LoadModel(checkpoint);
  if (!restored.ok()) return 1;
  std::printf("\ncheckpointed model to %s and restored it: %zu relationships intact\n",
              checkpoint.c_str(), restored->relationship_count());
  const auto& profile = stream->maintenance();
  std::printf("ingested %zu rows, %zu full builds, %zu incremental refreshes "
              "(%zu escalations), final snapshot age %zu\n",
              stream->rows_ingested(), stream->rebuild_count(), stream->refresh_count(),
              profile.escalations, stream->snapshot_age());
  std::printf("maintenance: %zu rows absorbed, %zu delta updates, %zu exact refits, "
              "residual %.4f (baseline %.4f), resident rows %zu\n",
              profile.rows_absorbed, profile.relationships_updated,
              profile.relationships_refit, profile.mean_relative_residual,
              profile.baseline_mean_residual, stream->table().retained_row_count());
  return 0;
}
