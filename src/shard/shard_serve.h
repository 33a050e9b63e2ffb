#ifndef AFFINITY_SHARD_SHARD_SERVE_H_
#define AFFINITY_SHARD_SHARD_SERVE_H_

/// \file shard_serve.h
/// The router's scatter-gather (DESIGN.md §9, §11). An immutable
/// `RouterSnapshot` bundles every shard's published `serve::ServingSnapshot`
/// for one lockstep refresh epoch together with the routing tables
/// (partition maps, the lex cross-pair list). `RouterMet`/`RouterMer`/
/// `RouterMec`/`RouterTopK` answer a query over one epoch: plan
/// resolution, the per-shard scatter, the cross-pair sweep and filter, the
/// k-way merge and the quality stamp. This is the router's only gather:
/// `ShardedAffinity`'s queries run it over the epoch they acquire.
///
/// Each shard's answer and the cross-pair values are the gather's inputs.
/// Both come from the epoch — shard answers from its shard snapshots,
/// cross values from one WN sweep of its shard windows with the canonical
/// blocked kernels — so a gather takes no lock and may run on any thread.
/// The live shards are read in one case only, and only when the caller
/// hands them over (`GatherContext::live`, the facade on its writer
/// thread): a shard snapshot declines with `StatusCode::kUnavailable`
/// (e.g. WF), and that shard's facade answers instead.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "core/query.h"
#include "core/streaming.h"
#include "serve/serve_query.h"
#include "serve/serving_snapshot.h"
#include "ts/data_matrix.h"

namespace affinity::shard {

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

  // --- Routing tables (frozen copies of the partitioner) -------------------
  std::vector<std::size_t> shard_of;               ///< global id → shard
  std::vector<ts::SeriesId> local_of;              ///< global id → shard-local id
  std::vector<std::vector<ts::SeriesId>> groups;   ///< shard → local → global id

  /// Every pair spanning two shards, (u, v)-lex in global ids.
  std::vector<ts::SequencePair> cross;

  /// Capability intersection over the shards and the widest shard width —
  /// the shard-aware planner's inputs.
  core::QueryPlanner::Capabilities caps;
  std::size_t max_n = 0;
};

/// Cross-sweep accounting that concurrent gathers add to: relaxed atomic
/// counters, read back as one `core::CrossSweepStats`.
class CrossSweepCounters {
 public:
  void Add(const core::CrossSweepStats& sweep) {
    pairs_scanned_.fetch_add(sweep.pairs_scanned, std::memory_order_relaxed);
    columns_hoisted_.fetch_add(sweep.columns_hoisted, std::memory_order_relaxed);
  }
  core::CrossSweepStats Read() const {
    return core::CrossSweepStats{pairs_scanned_.load(std::memory_order_relaxed),
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
  /// Pool for the per-shard answers and the cross sweep.
  ExecContext exec;
  /// Where the cross sweeps are counted, or null.
  CrossSweepCounters* sweeps = nullptr;
  /// The deployment's live shards, index-aligned with the epoch's, or null
  /// (see the file docs for when they are read). Writer thread only.
  const std::vector<core::StreamingAffinity>* live = nullptr;
};

/// Query 1 over a router epoch: locations or the pair matrix in request
/// order, per-shard submatrices plus the cross cells. `min_quality` is
/// answered from the shard epochs' frozen scores.
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
