#ifndef AFFINITY_SHARD_SHARDED_H_
#define AFFINITY_SHARD_SHARDED_H_

/// \file sharded.h
/// The sharded streaming service (DESIGN.md §9): N independent
/// `StreamingAffinity` instances over disjoint series groups behind one
/// router — the ROADMAP's "millions of users" deployment shape.
///
/// **Ingest.** `Append` scatters each global row into per-shard rows
/// (reusable buffers, no per-append allocation) and runs every shard's
/// append — including any due snapshot refresh — concurrently over one
/// shared thread pool. Shards refresh in lockstep (same window/interval,
/// aligned rows), so all shard snapshots always cover the same logical
/// trailing window.
///
/// **Queries.** MET/MER/MEC/top-k acquire the current router epoch
/// (`serving()`) and run the router's gather over it (shard_serve.h):
/// the shard-aware planner (`QueryPlanner::Topology`) resolves one
/// strategy, every shard answers from its snapshot in that epoch, and the
/// gather adds the pairs no shard can see — pairs spanning two shards —
/// from the epoch's cross co-moment table, which the epoch's first cross
/// reader fills with one exact sweep of its shard windows (`CrossMoments`).
/// Results merge by k-way heap merge (`core::MergeTopK` for top-k;
/// sorted-run merges for selections), so the merged answer matches an
/// unsharded instance over the same data: the same entities, values to
/// within the WA approximation (DESIGN.md §9; asserted in tests at 1/2/8
/// shards).
///
/// **Freshness.** Every answer comes from the router epoch it acquired,
/// and the response reports every shard's snapshot age. Shards refresh in
/// lockstep every `rebuild_interval` rows; a shorter interval is the
/// freshness control (DESIGN.md §9).
///
/// The single-instance deployment is exactly the N = 1 case: one shard,
/// no cross pairs, every query a pure pass-through.

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/streaming.h"
#include "serve/serving_snapshot.h"
#include "ts/ingest.h"
#include "shard/partitioner.h"
#include "shard/shard_serve.h"

namespace affinity::shard {

/// Sharded service configuration.
struct ShardedOptions {
  /// Number of independent model instances (≥ 1).
  std::size_t shards = 1;
  /// How series are assigned to shards.
  PartitionScheme partition = PartitionScheme::kRange;
  /// Per-shard streaming configuration. `streaming.build.threads` sizes
  /// the single router-owned pool all shards share (1 = sequential, 0 =
  /// one per hardware thread).
  core::StreamingOptions streaming;
};

/// Per-shard freshness attached to every facade answer.
struct ShardFreshness {
  std::size_t snapshot_age = 0;  ///< rows appended since that shard's refresh
};

/// A MET/MER answer in global ids, plus per-shard freshness.
struct ShardedSelection {
  core::SelectionResult result;
  std::vector<ShardFreshness> shards;
};

/// A MEC answer (locations / pair matrix in request order), plus
/// per-shard freshness.
struct ShardedMec {
  core::MecResponse response;
  std::vector<ShardFreshness> shards;
};

/// A top-k answer in global ids, plus per-shard freshness.
struct ShardedTopK {
  core::TopKResult result;
  std::vector<ShardFreshness> shards;
};

/// Owns the partition and the scatter/gather id plumbing: reusable
/// per-shard row buffers for ingest and the routing tables every epoch
/// shares for queries.
class ShardRouter {
 public:
  explicit ShardRouter(SeriesPartitioner partitioner);

  const SeriesPartitioner& partitioner() const { return partitioner_; }

  /// Scatters one global row into per-shard rows. The returned reference
  /// aliases internal buffers reused on every call — valid until the next
  /// Scatter (the allocation-free append hot path).
  const std::vector<std::vector<double>>& Scatter(const std::vector<double>& row);

  /// The partition's routing tables, cross-pair list included; built once
  /// at construction and referenced by every router epoch.
  const std::shared_ptr<const RoutingTables>& routing() const { return routing_; }

 private:
  SeriesPartitioner partitioner_;
  std::vector<std::vector<double>> scatter_;
  std::shared_ptr<const RoutingTables> routing_;
};

/// The sharded ingest-and-query service. Movable, not copyable.
///
/// Concurrency contract (DESIGN.md §13): single-writer, multi-reader.
/// Append/Rebuild/Load and the lockstep refresh they drive run on one
/// writer thread; shard fan-out inside a refresh goes through the
/// internally synchronized ThreadPool and joins before the call returns.
/// Met/Mer/TopK/Mec may run on any thread: they answer from the router
/// epoch they acquire (the internally synchronized EpochPublisher) alone
/// and date it against an atomic row count.
class ShardedAffinity {
 public:
  /// Creates N shards over the named series. Status errors (never crashes)
  /// for invalid configurations: see ValidateStreamingOptions (checked for
  /// every shard's series count, so each shard keeps every relationship)
  /// plus the shard-count bounds of SeriesPartitioner::Create.
  static StatusOr<ShardedAffinity> Create(const std::vector<std::string>& names,
                                          const ShardedOptions& options);

  /// Appends one aligned global row; every shard ingests its slice
  /// concurrently on the shared pool. The aggregated result reports the
  /// first per-shard error (by shard index), whether any shard refreshed /
  /// escalated, and the refresh mode of the lowest refreshed shard.
  core::AppendResult Append(const std::vector<double>& row);

  /// Appends one aligned row from the dirty-ingestion path (DESIGN.md
  /// §12): `values` is the repaired dense row, `valid`/`filled` the
  /// aligner's masks, all sized n. Each shard ingests its slice of the
  /// values *and* masks, so per-shard quality surfaces (and `min_quality`
  /// predicates routed across shards) see the same gaps the unsharded
  /// stream would.
  core::AppendResult AppendMasked(const std::vector<double>& values,
                                  const std::vector<std::uint8_t>& valid,
                                  const std::vector<std::uint8_t>& filled);

  /// Convenience overload for the aligner's emission type.
  core::AppendResult AppendMasked(const ts::AlignedRow& row) {
    return AppendMasked(row.values, row.valid, row.filled);
  }

  /// True once every shard has a snapshot (they refresh in lockstep, so
  /// this flips for all shards on the same append).
  bool ready() const;

  /// Rows ingested (global rows; every shard saw each of them).
  std::size_t rows_ingested() const { return shared_->rows.load(std::memory_order_relaxed); }

  std::size_t shard_count() const { return shards_.size(); }

  /// Shard s (its framework, quality tracker, maintenance accounting).
  const core::StreamingAffinity& shard(std::size_t s) const { return shards_[s]; }

  const ShardRouter& router() const { return router_; }

  /// Cross-shard aggregation of the per-shard maintenance accounting
  /// (counters summed, last-refresh latency maxed — shards refresh
  /// concurrently; residual levels averaged).
  core::MaintenanceProfile maintenance() const;

  /// Raw-scan accounting of the cross co-moment fills this service's
  /// queries ran: at most one per router epoch, by its first cross reader.
  CrossSweepStats cross_sweep_stats() const { return shared_->sweeps.Read(); }

  /// The current router serving snapshot (DESIGN.md §11): an immutable
  /// epoch bundling every shard's serving replica and the routing tables,
  /// republished on every lockstep refresh, rebuild, and restore. Safe to
  /// read from any thread concurrently with Append — the returned
  /// shared_ptr keeps the whole epoch alive for the caller's query
  /// (RouterMet/RouterMer/RouterMec/RouterTopK, which the facade queries
  /// also run). nullptr before the first refresh.
  std::shared_ptr<const RouterSnapshot> serving() const {
    return publisher_ != nullptr ? publisher_->Acquire() : nullptr;
  }

  /// Every shard's snapshot age, indexed by shard (safe on any thread).
  std::vector<std::size_t> snapshot_ages() const;

  /// Forces a full rebuild of every shard (concurrently).
  Status Rebuild();

  // --- Scatter-gather queries (global ids) --------------------------------
  //
  // Each runs the router's gather (shard_serve.h) over the current epoch.
  // FailedPrecondition before the first refresh.

  StatusOr<ShardedMec> Mec(const core::MecRequest& request,
                           const core::FreshnessOptions& options = {}) const;
  StatusOr<ShardedSelection> Met(const core::MetRequest& request,
                                 const core::FreshnessOptions& options = {}) const;
  StatusOr<ShardedSelection> Mer(const core::MerRequest& request,
                                 const core::FreshnessOptions& options = {}) const;
  StatusOr<ShardedTopK> TopK(const core::TopKRequest& request,
                             const core::FreshnessOptions& options = {}) const;

  // --- Shard-manifest persistence (serialize.h framing) -------------------

  /// Saves the whole deployment to one file: a manifest header (shard
  /// count, partition assignment, streaming geometry, names) followed by
  /// every shard's model payload (`core::WriteModelStream`). All shards
  /// must be ready. IoError / FailedPrecondition on failure.
  Status Save(const std::string& path) const;

  /// Restores a deployment saved by Save: every shard comes back ready,
  /// answering over its checkpointed window, with logical row numbering
  /// restarted at `window`. `threads` sizes the restored shared pool
  /// (1 = sequential, 0 = hardware). In kIncremental mode the maintenance
  /// structure re-freezes from the checkpoint — an exact refit of every
  /// relationship, as after an escalation — so answers may differ from the
  /// pre-checkpoint delta-maintained state by the bounded round-off the
  /// exact-refit cadence normally reclaims (~1e-13 relative; DESIGN.md §8).
  /// A shard payload that fails to restore — e.g. a truncated model
  /// (`StreamingAffinity::Restore`) — reports its shard index.
  static StatusOr<ShardedAffinity> Load(const std::string& path, std::size_t threads = 1);

  /// The configuration the service was created with.
  const ShardedOptions& options() const { return options_; }

  /// The shared execution context (scatter appends and gather sweeps).
  const ExecContext& exec() const { return exec_; }

 private:
  ShardedAffinity(ShardedOptions options, SeriesPartitioner partitioner,
                  std::unique_ptr<ThreadPool> pool);

  /// Builds the per-shard streams (used by Create and Load).
  Status InitShards(const std::vector<std::string>& names);

  /// A facade query's view: the current router epoch, each shard
  /// snapshot's age against the live row count, and the gather inputs
  /// (the method, the pool and the sweep counters).
  struct Query {
    std::shared_ptr<const RouterSnapshot> epoch;
    std::vector<ShardFreshness> ages;
    GatherContext gather;
  };
  /// FailedPrecondition before the first epoch.
  StatusOr<Query> BeginQuery(const core::FreshnessOptions& options) const;

  /// Shared tail of Append/AppendMasked: aggregates `append_results_`
  /// and republishes the router snapshot when a lockstep refresh ran.
  core::AppendResult FinishAppend();

  /// Assembles and atomically publishes a fresh RouterSnapshot from the
  /// shards' serving snapshots and the router's shared routing tables.
  /// Called after every successful lockstep refresh (Append), Rebuild,
  /// and Load; no-op before readiness.
  void PublishRouterSnapshot();

  // Pool first: shards hold ExecContexts pointing at it (destroy last).
  std::unique_ptr<ThreadPool> pool_;
  ExecContext exec_;
  ShardedOptions options_;
  ShardRouter router_;
  std::vector<core::StreamingAffinity> shards_;
  /// Reused per-append result buffer (allocation-free hot path).
  std::vector<core::AppendResult> append_results_;
  /// Router generation (bumped per lockstep refresh and rebuild; Load
  /// starts restored routers at 1).
  std::uint64_t generation_ = 0;
  /// State concurrent queries share with the writer besides the publisher:
  /// relaxed atomics, heap-held so the service stays movable.
  struct ReaderShared {
    std::atomic<std::size_t> rows{0};  ///< global rows ingested
    CrossSweepCounters sweeps;
  };
  std::unique_ptr<ReaderShared> shared_ = std::make_unique<ReaderShared>();
  /// Epoch publication point for lock-free router serving (serving()).
  std::unique_ptr<serve::EpochPublisher<RouterSnapshot>> publisher_;
};

}  // namespace affinity::shard

#endif  // AFFINITY_SHARD_SHARDED_H_
