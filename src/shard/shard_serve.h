#ifndef AFFINITY_SHARD_SHARD_SERVE_H_
#define AFFINITY_SHARD_SHARD_SERVE_H_

/// \file shard_serve.h
/// The router's scatter-gather (DESIGN.md §9, §11). An immutable
/// `RouterSnapshot` bundles every shard's published `serve::ServingSnapshot`
/// for one lockstep refresh epoch together with the router's shared
/// routing tables (partition maps, the lex cross-pair list) and the
/// epoch's cross co-moments. `RouterMet`/`RouterMer`/`RouterMec`/
/// `RouterTopK` answer a query over one epoch: plan resolution, the
/// per-shard scatter, the cross-pair values and filter, the k-way merge
/// and the quality stamp. This is the router's only gather:
/// `ShardedAffinity`'s queries run it over the epoch they acquire.
///
/// Each shard's answer and the cross-pair values are the gather's inputs.
/// Both come from the epoch alone — shard answers from its shard
/// snapshots, cross values from the epoch's cross co-moment table, which
/// the epoch's first cross reader fills with one exact sweep of its shard
/// windows — so a gather takes no lock besides that fill's once-flag and
/// may run on any thread.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "core/kernels.h"
#include "core/query.h"
#include "serve/serve_query.h"
#include "serve/serving_snapshot.h"
#include "ts/data_matrix.h"

namespace affinity::shard {

/// A router's routing tables: frozen when the router is built and shared
/// by every epoch it publishes.
struct RoutingTables {
  std::vector<std::size_t> shard_of;              ///< global id → shard
  std::vector<ts::SeriesId> local_of;             ///< global id → shard-local id
  std::vector<std::vector<ts::SeriesId>> groups;  ///< shard → local → global id
  /// Every pair spanning two shards, (u, v)-lex in global ids.
  std::vector<ts::SequencePair> cross;
};

/// One epoch's cross co-moments: every series' marginals over its shard
/// column and Σ uv of every cross pair — enough for any pair measure of a
/// cross pair (`core::PairMeasureFromMoments`). The epoch's first gather
/// that reads a cross value fills it under `once`; every later gather
/// only reads it. Heap-held so concurrent gathers over a shared epoch
/// synchronize on one flag (std::once_flag does not move).
struct CrossMoments {
  std::once_flag once;
  /// By global id.
  std::vector<core::kernels::Marginals> marginals;
  /// Σ uv, index-aligned with `RoutingTables::cross`.
  std::vector<double> dots;
};

/// Raw-scan accounting of the cross co-moment fills
/// (`ShardedAffinity::cross_sweep_stats()`; perfbench's traced run
/// reports them per query).
struct CrossSweepStats {
  std::size_t pairs_scanned = 0;    ///< cross pairs whose Σ uv was swept (|cross| per fill)
  std::size_t columns_hoisted = 0;  ///< columns whose marginals were computed (n per fill)
};

/// An immutable serving replica of one sharded deployment at one lockstep
/// refresh epoch. Holds shared ownership of every shard's serving
/// snapshot; no pointer into the live service survives in here.
struct RouterSnapshot {
  /// The router's generation at publication (≥ 1; lockstep epochs).
  std::uint64_t generation = 0;
  /// Window geometry shared by every shard snapshot.
  std::size_t window = 0;
  /// The shard snapshots' shared block-grid anchor.
  std::size_t anchor = 0;
  /// Global series count.
  std::size_t n = 0;

  /// Shard s's serving snapshot for this epoch.
  std::vector<std::shared_ptr<const serve::ServingSnapshot>> shards;

  /// The router's routing tables (shared, never copied per epoch).
  std::shared_ptr<const RoutingTables> routing;

  /// This epoch's cross co-moments, filled on first use.
  std::unique_ptr<CrossMoments> cross_moments = std::make_unique<CrossMoments>();

  /// Capability intersection over the shards and the widest shard width —
  /// the shard-aware planner's inputs.
  core::QueryPlanner::Capabilities caps;
  std::size_t max_n = 0;
};

/// Cross-sweep accounting that concurrent gathers add to: relaxed atomic
/// counters, read back as one `CrossSweepStats`.
class CrossSweepCounters {
 public:
  void Add(const CrossSweepStats& sweep) {
    pairs_scanned_.fetch_add(sweep.pairs_scanned, std::memory_order_relaxed);
    columns_hoisted_.fetch_add(sweep.columns_hoisted, std::memory_order_relaxed);
  }
  CrossSweepStats Read() const {
    return CrossSweepStats{pairs_scanned_.load(std::memory_order_relaxed),
                           columns_hoisted_.load(std::memory_order_relaxed)};
  }

 private:
  std::atomic<std::size_t> pairs_scanned_{0};
  std::atomic<std::size_t> columns_hoisted_{0};
};

/// What a gather reads besides its epoch. Default-constructed: the epoch
/// alone, planned by kAuto, sequentially, uncounted.
struct GatherContext {
  /// Per-shard strategy; kAuto: the shard-aware planner.
  core::QueryMethod method = core::QueryMethod::kAuto;
  /// Pool for the per-shard answers and the cross co-moment fill.
  ExecContext exec;
  /// Where the cross co-moment fills are counted, or null.
  CrossSweepCounters* sweeps = nullptr;
};

/// Query 1 over a router epoch: locations or the pair matrix in request
/// order, per-shard submatrices plus the cross cells (read from the
/// epoch's cross co-moments). `min_quality` is answered from the shard
/// epochs' frozen scores.
StatusOr<core::MecResponse> RouterMec(const RouterSnapshot& snap, const core::MecRequest& request,
                                      const GatherContext& gather = {});

/// Query 2 over a router epoch: per-shard selections plus the kept cross
/// pairs, k-way merged in (u, v) order.
StatusOr<core::SelectionResult> RouterMet(const RouterSnapshot& snap,
                                          const core::MetRequest& request,
                                          const GatherContext& gather = {});

/// Query 3 over a router epoch (as RouterMet).
StatusOr<core::SelectionResult> RouterMer(const RouterSnapshot& snap,
                                          const core::MerRequest& request,
                                          const GatherContext& gather = {});

/// Top-k over a router epoch: per-shard runs plus the cross run, merged by
/// `core::MergeTopK`.
StatusOr<core::TopKResult> RouterTopK(const RouterSnapshot& snap,
                                      const core::TopKRequest& request,
                                      const GatherContext& gather = {});

}  // namespace affinity::shard

#endif  // AFFINITY_SHARD_SHARD_SERVE_H_
