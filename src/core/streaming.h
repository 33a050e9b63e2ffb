#ifndef AFFINITY_CORE_STREAMING_H_
#define AFFINITY_CORE_STREAMING_H_

/// \file streaming.h
/// Windowed streaming deployment of AFFINITY (extension).
///
/// The paper motivates both "real-time and archival settings"; this wrapper
/// provides the real-time half: rows stream into the storage layer's
/// `data_matrix` table and the model (AFCLST → SYMEX+) is refreshed over
/// the trailing analysis window every `rebuild_interval` rows. A stream
/// maintains only what its epochs read: the model, whose WA values fill
/// the frozen tables, and the WF coefficient count. The SCAPE index and
/// the amortized WF estimator are batch structures it never builds
/// (DESIGN.md §8). Two refresh policies are offered (`UpdateMode`):
///
///  * `kRebuild` — every refresh is a from-scratch parallel build of the
///    model (the original behaviour);
///  * `kIncremental` — after the first full build, refreshes delta-update
///    the model in place through `core/incremental` (DESIGN.md §8):
///    O(interval) accumulator updates per relationship instead of
///    O(window) refits, and exact recomputation of all per-series /
///    per-pivot state. A drift monitor escalates back to a full rebuild
///    when the frozen clustering stops describing the data.
///
/// Between refreshes, queries answer against the last published epoch —
/// the standard freshness/cost trade-off: an epoch ages by up to
/// `rebuild_interval − 1` rows, every answer reports its age
/// (`FreshnessReport`, `snapshot_age()`), and a shorter interval is the
/// freshness control (DESIGN.md §9). The epoch is the only thing a query
/// reads, so every query is safe on any thread.
///
/// A stream keeps every relationship of its series: options that would
/// truncate the relationship set (`SymexOptions::max_relationships` below
/// n(n−1)/2) and checkpoints of truncated models are refused, so every
/// epoch's WA surface is complete.
///
/// A `StreamingAffinity` is one model instance over one series group. The
/// sharded service (src/shard) runs N of them over disjoint groups behind
/// a router; the single-instance deployment is exactly the N = 1 case of
/// that router, so this class is also its per-shard engine: construction
/// variants exist for a router-owned pool (`CreateWith`) and for restoring
/// a shard from a manifest checkpoint (`Restore`).
///
/// Resident storage stays O(window): absorbed rows are reclaimed from the
/// table at segment granularity (`DataMatrixTable::CompactBefore`). The
/// append hot path is allocation-free in steady state: the quality tracker
/// updates in place and pending rows are copied into a preallocated pool
/// whose capacity never shrinks (verified by a bench_micro counter).

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/framework.h"
#include "core/incremental.h"
#include "serve/serve_query.h"
#include "serve/serving_snapshot.h"
#include "storage/table.h"
#include "ts/ingest.h"

namespace affinity::core {

/// Snapshot refresh policy.
enum class UpdateMode {
  kRebuild,      ///< full from-scratch build every refresh
  kIncremental,  ///< delta maintenance with drift-monitored escalation
};

/// Streaming configuration.
struct StreamingOptions {
  /// Trailing samples per refresh (the analysis window).
  std::size_t window = 256;
  /// Refresh the snapshot after this many appended rows (≥ 1).
  std::size_t rebuild_interval = 64;
  /// Refresh policy (see file docs).
  UpdateMode mode = UpdateMode::kRebuild;
  /// Tuning of the incremental path (kIncremental only).
  IncrementalOptions incremental;
  /// Build configuration for each full build. Streams do not read
  /// `build_scape`: they build no SCAPE index whatever it says. With
  /// `build_dft` set they enable WF (`dft_coefficients`) on the engine
  /// but build no amortized estimator.
  AffinityOptions build;
  /// Storage segment capacity; 0 derives one from the window so resident
  /// rows stay O(window) after compaction.
  std::size_t segment_capacity = 0;
};

/// Validates a streaming configuration for `series_count` series — the
/// single Status surface behind `StreamingAffinity::Create` and the shard
/// router's per-shard construction (bad configs report instead of
/// crashing). Checks series/window/interval bounds, incremental tuning,
/// basic window-size sanity (`window ≤ 2^24`), and that
/// `build.symex.max_relationships` admits every one of the n(n−1)/2 pairs.
Status ValidateStreamingOptions(const StreamingOptions& options, std::size_t series_count);

/// Outcome of one Append call. `status` reports append/refresh failures;
/// `refreshed` distinguishes "a refresh ran (and succeeded)" from "no
/// refresh was due" — previously both returned a bare OK.
struct AppendResult {
  Status status = Status::OK();
  /// True when this append triggered a snapshot refresh that succeeded.
  bool refreshed = false;
  /// Path that served the refresh (meaningful when `refreshed`).
  UpdateMode mode = UpdateMode::kRebuild;
  /// True when this refresh escalated to a full rebuild — the incremental
  /// drift monitor tripped, or a maintenance error forced recovery by
  /// re-freezing the stack from the table.
  bool escalated = false;

  bool ok() const { return status.ok(); }
};

/// Query options of the streaming facades (DESIGN.md §9).
struct FreshnessOptions {
  /// Strategy per shard/instance; kAuto consults the planner.
  QueryMethod method = QueryMethod::kAuto;
};

/// Freshness report attached to a streaming answer: how many rows were
/// appended since the epoch that answered was published.
struct FreshnessReport {
  std::size_t snapshot_age = 0;
};

/// Ingest-and-query wrapper: append aligned rows, query the latest
/// framework snapshot.
class StreamingAffinity {
 public:
  /// Creates a stream over the named series with its own thread pool
  /// (sized by `options.build.threads`). InvalidArgument for invalid
  /// options (see ValidateStreamingOptions) or empty/duplicate names.
  static StatusOr<StreamingAffinity> Create(const std::vector<std::string>& names,
                                            const StreamingOptions& options);

  /// As Create, but refreshes execute over a caller-supplied context — the
  /// shard router shares one pool across all its shards this way. The pool
  /// behind `exec` must outlive the stream; `options.build.threads` is
  /// ignored.
  static StatusOr<StreamingAffinity> CreateWith(const std::vector<std::string>& names,
                                                const StreamingOptions& options,
                                                const ExecContext& exec);

  /// Restores a ready stream from a checkpointed model (serialize.h): the
  /// model's data matrix becomes the resident window (its m() must equal
  /// `options.window`), the framework is reassembled around it
  /// (`Affinity::FromModelWith`), the quality tracker is replayed, and — in
  /// kIncremental mode — a fresh maintainer is frozen from the restored
  /// stack. Logical row numbering restarts at `window`. InvalidArgument
  /// when the model lacks any of its n(n−1)/2 relationships.
  static StatusOr<StreamingAffinity> Restore(AffinityModel model, const StreamingOptions& options,
                                             const ExecContext& exec);

  /// Appends one aligned row (one value per series). Non-finite values are
  /// rejected with InvalidArgument before any state mutates — a NaN must
  /// never reach the moment accumulators (use the dirty-ingestion path,
  /// ts::StreamAligner → AppendMasked, for streams that carry them).
  /// Triggers a refresh when the window is filled and `rebuild_interval`
  /// rows arrived since the last one; see AppendResult for how outcomes
  /// are reported.
  AppendResult Append(const std::vector<double>& row);

  /// Appends one aligned row from the dirty-ingestion path (DESIGN.md
  /// §12): `values` is the repaired dense row (all finite — the aligner
  /// carries each series' last known value through fills and gaps),
  /// `valid[j]` = 0 flags an explicit gap beyond the fill horizon,
  /// `filled[j]` = 1 marks a forward-filled cell. The masks feed the
  /// per-series quality surface; the dense engine sees only the repaired
  /// values. Mask sizes must match the row (InvalidArgument otherwise).
  AppendResult AppendMasked(const std::vector<double>& values,
                            const std::vector<std::uint8_t>& valid,
                            const std::vector<std::uint8_t>& filled);

  /// Convenience overload for the aligner's emission type.
  AppendResult AppendMasked(const ts::AlignedRow& row) {
    return AppendMasked(row.values, row.valid, row.filled);
  }

  /// True once at least one framework snapshot exists.
  bool ready() const { return framework_ != nullptr; }

  /// The current framework snapshot (nullptr before the first build):
  /// the model and its engine. Its `scape()` and `wf()` are always null
  /// (see `StreamingOptions::build`).
  const Affinity* framework() const { return framework_.get(); }

  /// Rows ingested in total (safe on any thread).
  std::size_t rows_ingested() const { return shared_->rows.load(std::memory_order_relaxed); }

  /// Rows appended since the serving snapshot was published (freshness;
  /// safe on any thread). 0 before the first build.
  std::size_t snapshot_age() const {
    const auto snap = serving();
    // The count is read after the epoch was acquired, so it covers every
    // row that epoch absorbed.
    return snap != nullptr ? rows_ingested() - snap->snapshot_row : 0;
  }

  /// Number of full from-scratch builds performed (including the first
  /// build and incremental escalations).
  std::size_t rebuild_count() const { return rebuilds_; }

  /// Number of incremental refreshes performed.
  std::size_t refresh_count() const { return refreshes_; }

  /// Maintenance accounting of the incremental path (zeros in kRebuild
  /// mode or before the first build), plus serve-path publication
  /// counters. Writer thread only.
  const MaintenanceProfile& maintenance() const { return maintenance_; }

  /// The live per-series data-quality tracker (DESIGN.md §12): counts and
  /// run maxima over the window's validity/fill flags, kept by push/evict
  /// on every append (plain appends count as fully observed rows).
  const ts::QualityTracker& quality() const { return *quality_; }

  /// Quality of one series over the current window. OutOfRange for an
  /// unknown id.
  StatusOr<ts::SeriesQuality> series_quality(ts::SeriesId v) const;

  /// The composite quality scores the live engine answers `min_quality`
  /// predicates against — refreshed at every publication point and
  /// frozen into the epoch published there (`ServingSnapshot::quality`),
  /// so served and live answers filter and stamp with the same scores.
  const std::vector<double>& quality_scores() const { return *quality_scores_; }

  /// Arms the incremental maintainer's fault injection (recovery tests):
  /// the next `count` refreshes fail and must heal through escalation.
  /// FailedPrecondition when no maintainer exists (kRebuild mode or before
  /// the first build).
  Status InjectMaintenanceFailureForTesting(std::size_t count) {
    if (maintainer_ == nullptr) {
      return Status::FailedPrecondition("no incremental maintainer to inject failures into");
    }
    maintainer_->InjectFailuresForTesting(count);
    return Status::OK();
  }

  // --- Queries (DESIGN.md §9) ---------------------------------------------
  //
  // Each answers from the published epoch (`serving()`) alone and is
  // safe on any thread (DESIGN.md §13). All are FailedPrecondition before
  // the first build. `report`, when non-null, receives the epoch's age.

  StatusOr<MecResponse> Mec(const MecRequest& request, const FreshnessOptions& options = {},
                            FreshnessReport* report = nullptr) const;
  StatusOr<SelectionResult> Met(const MetRequest& request, const FreshnessOptions& options = {},
                                FreshnessReport* report = nullptr) const;
  StatusOr<SelectionResult> Mer(const MerRequest& request, const FreshnessOptions& options = {},
                                FreshnessReport* report = nullptr) const;
  StatusOr<TopKResult> TopK(const TopKRequest& request, const FreshnessOptions& options = {},
                            FreshnessReport* report = nullptr) const;

  /// Forces a full rebuild now (FailedPrecondition before `window` rows
  /// exist). In kIncremental mode this also re-freezes the maintenance
  /// structure (clustering, pivots, baselines).
  Status Rebuild();

  /// The underlying storage table (for inspection / checkpointing). Only
  /// the trailing O(window) rows stay resident (CompactBefore).
  const storage::DataMatrixTable& table() const { return table_; }

  /// The streaming configuration the stream was created with.
  const StreamingOptions& options() const { return options_; }

  /// The execution context refreshes (and snapshot queries) run over.
  const ExecContext& exec() const { return exec_; }

  /// The current read-optimized serving replica (DESIGN.md §11), published
  /// by the last successful refresh/rebuild; nullptr before the first
  /// build. The returned shared_ptr pins the epoch: any number of threads
  /// may hold handles and run serve::SnapshotMec/Met/Mer/TopK against them
  /// while this stream keeps appending and refreshing — readers never
  /// block on maintenance, and an epoch is reclaimed when the last handle
  /// drops. Answers — quality predicates and stamps included — are
  /// bitwise identical to the facade's queries at the same epoch, and a
  /// held epoch keeps answering them unchanged after newer publications.
  std::shared_ptr<const serve::ServingSnapshot> serving() const {
    return publisher_ != nullptr ? publisher_->Acquire() : nullptr;
  }

  /// A from-scratch snapshot of the current state, stamped with the
  /// *current* generation and snapshot row: the window and WA surface
  /// copied from the maintained model — the oracle every published epoch
  /// must match bitwise (tested per epoch). nullptr before the first
  /// build. Not published; purely an inspection surface.
  std::shared_ptr<const serve::ServingSnapshot> BuildColdSnapshot() const;

 private:
  StreamingAffinity(storage::DataMatrixTable table, StreamingOptions options,
                    std::unique_ptr<ThreadPool> pool, ExecContext exec)
      : pool_(std::move(pool)), exec_(exec), table_(std::move(table)), options_(options) {}

  /// Shared tail of every construction path: the quality tracker and the
  /// preallocated pending-row pool.
  void InitBuffers(std::size_t series_count);

  /// Every stream build (Rebuild, Restore) goes through here, the one
  /// place that decides what a stream maintains: runs `build` with
  /// `options_.build` less the SCAPE index and the WF estimator, adopts
  /// the framework (quality surface, WF enabled on the engine when
  /// `build_dft` asks) and, in kIncremental mode, freezes a fresh
  /// maintainer from it.
  Status BuildFramework(const std::function<StatusOr<Affinity>(const AffinityOptions&)>& build);

  /// Common body of Append/AppendMasked; null masks mean fully observed.
  AppendResult AppendRow(const std::vector<double>& values, const std::uint8_t* valid,
                         const std::uint8_t* filled);

  /// Copies the tracker's composite scores into `quality_scores_` (the
  /// stable vector the engine's quality surface points at).
  void RefreshQualityScores();

  /// Runs one refresh (incremental or full, per options/state); called by
  /// Append when the interval elapses.
  AppendResult Refresh();

  /// Shared prologue of the four query paths: dates `snap`, the epoch the
  /// answer comes from (null before the first build: FailedPrecondition),
  /// against the row count, and *always* writes `report` (zeroed on the
  /// readiness error, the age otherwise) before any per-kind logic can
  /// return — no exit leaves the caller's report stale.
  Status PrepareFreshness(const serve::ServingSnapshot* snap, FreshnessReport* report) const;

  /// Publishes the just-refreshed stack as a new serving epoch (lock-free
  /// swap). Called at every publication point — incremental refresh
  /// success, full rebuild, restore — i.e. exactly when the live
  /// structures change, so a published snapshot always equals the live
  /// structures until the next publication. Goes through
  /// SnapshotBuilder::BuildDelta — COW window, bulk WA refill — and falls
  /// back to the full Build when the table cannot cover the window; the
  /// published bits are identical either way.
  void PublishServingSnapshot();

  // Declared first so it outlives the framework snapshot whose engine
  // holds an ExecContext pointing at it (members destroy in reverse).
  std::unique_ptr<ThreadPool> pool_;  ///< set when Create sized its own
  ExecContext exec_;
  storage::DataMatrixTable table_;
  StreamingOptions options_;
  std::unique_ptr<Affinity> framework_;
  std::unique_ptr<IncrementalMaintainer> maintainer_;
  MaintenanceProfile maintenance_;
  /// Per-series quality over the window (DESIGN.md §12); heap-held so
  /// the stream stays movable with a stable tracker address.
  std::unique_ptr<ts::QualityTracker> quality_;
  /// Composite scores attached to the live engine (AttachQuality):
  /// refreshed at publication points; heap-held so the attached address
  /// survives moving the stream (Restore returns it by value).
  std::unique_ptr<std::vector<double>> quality_scores_ =
      std::make_unique<std::vector<double>>();
  /// Preallocated pool of rows awaiting the next incremental refresh:
  /// `pending_[0..pending_used_)` are live; capacity (one interval of rows)
  /// never shrinks, so steady-state appends allocate nothing.
  std::vector<std::vector<double>> pending_;
  std::size_t pending_used_ = 0;
  std::size_t snapshot_row_ = 0;
  std::size_t rows_since_refresh_ = 0;
  std::size_t rebuilds_ = 0;
  std::size_t refreshes_ = 0;
  /// Epoch publication point for lock-free serving; allocated lazily at
  /// the first publication (a stream that is never built publishes
  /// nothing). unique_ptr keeps StreamingAffinity movable — the atomic
  /// inside EpochPublisher is not.
  ///
  /// Concurrency contract (DESIGN.md §13): StreamingAffinity is
  /// single-writer — AppendRow/Rebuild/Load run on one thread. The only
  /// state shared with concurrent readers is this publisher (internally
  /// synchronized; see serve/serving_snapshot.h) and `shared_` below
  /// (the atomic row count). Every other member, including
  /// `serving_scratch_` and `serving_generation_`, is writer-private.
  std::unique_ptr<serve::EpochPublisher<serve::ServingSnapshot>> publisher_;
  std::uint64_t serving_generation_ = 0;
  /// The last *retired* epoch with no surviving readers, held for memory
  /// recycling: the next build rewrites its tables in place instead of
  /// freeing them and allocating fresh ones (the dominant fixed cost of
  /// an interval-1 publication). Never reachable by readers — recycled
  /// only when the publisher confirmed this was the final reference.
  std::shared_ptr<serve::ServingSnapshot> serving_scratch_;
  /// State concurrent queries share with the writer besides the
  /// publisher: a relaxed atomic, heap-held so the stream stays movable.
  struct ReaderShared {
    std::atomic<std::size_t> rows{0};  ///< rows ingested
  };
  std::unique_ptr<ReaderShared> shared_ = std::make_unique<ReaderShared>();
};

}  // namespace affinity::core

#endif  // AFFINITY_CORE_STREAMING_H_
