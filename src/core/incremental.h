#ifndef AFFINITY_CORE_INCREMENTAL_H_
#define AFFINITY_CORE_INCREMENTAL_H_

/// \file incremental.h
/// Incremental sliding-window maintenance of a built AFFINITY model
/// (DESIGN.md §8) — the delta alternative to rebuilding AFCLST → SYMEX+
/// from scratch every refresh. Streams build no SCAPE index, so there is
/// none to maintain.
///
/// The maintainer freezes the model *structure* captured at the last full
/// build — cluster assignment ω, the pivot set, and the marching-order
/// relationship set — and slides everything *numeric* under it:
///
///  * cluster centres extend linearly to new rows through frozen
///    combination weights (the centre is a linear combination of its
///    centered member columns, so the combination evaluates exactly on
///    fresh samples);
///  * per-series moments, pivot measures, series-level relationships and
///    centre L-measures are recomputed exactly over the new window
///    (`AffinityModel::RecomputeDerived`, O(n·window)) — published moments
///    and measures stay bit-identical to a from-scratch build over the
///    same window and clustering;
///  * the O(n²) per-pair right-hand sides are re-solved against the
///    pivots' refreshed 3×3 normal-equation factors. Only one entry of a
///    right-hand side is pair-specific, the co-moment Σ s_u·s_v, rolled by
///    subtract-on-evict / add-on-insert (O(interval) per pair); the other
///    two are the target series' exact Σ r·s and Σ s from
///    `RecomputeDerived`. A per-pair residual monitor triggers
///    full-precision refits (which reproduce a from-scratch fit bit for
///    bit), and a round-robin exact refit cadence bounds accumulated
///    round-off for the rest.
///
/// A model-level drift monitor — the population mean relative fit residual,
/// the quantity `core/quality` samples — escalates to a full rebuild when
/// the frozen clustering stops describing the data.
///
/// All loops fan out over the caller's ExecContext with the §7 determinism
/// guarantee: the maintained model is identical at any thread count.
/// Each refresh adds its accounting straight to the `MaintenanceProfile`
/// the stream owns; the maintainer keeps only its refit-schedule counter.

#include <cstddef>
#include <memory>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "core/fit_kernels.h"
#include "core/symex.h"

namespace affinity::core {

/// Tuning knobs of the incremental maintenance path.
struct IncrementalOptions {
  /// A relationship whose relative fit residual has *risen* by more than
  /// this since its last exact refit is refit at full precision (exact
  /// right-hand side recomputation) instead of delta-updated. The trigger
  /// is on drift, not level: a stably poor fit is a data property the
  /// escalation monitor owns, while a worsening one gets exact treatment
  /// where the model is moving fastest.
  double refit_drift_threshold = 0.1;
  /// Round-robin exact-refit cadence: every refresh, relationships with
  /// slot index ≡ refresh counter (mod period) are refit at full
  /// precision, so every accumulator is re-materialized at least once per
  /// `period` refreshes. 1 = refit everything every refresh, making the
  /// whole maintained model bit-identical to a from-scratch SYMEX+ build
  /// over the same window and clustering.
  std::size_t exact_refit_period = 32;
  /// Escalate to a full rebuild when the population mean relative residual
  /// exceeds `escalation_factor` × the at-build baseline +
  /// `escalation_slack`.
  double escalation_factor = 1.5;
  double escalation_slack = 0.02;
  /// Retain the blocked partial sums of every exact O(window) chain
  /// across refreshes (DESIGN.md §10): RecomputeDerived's per-column
  /// marginals, per-pivot dot12, per-series cross terms, and the
  /// accumulator re-materializations then recompute only the grid blocks
  /// a slide touched — O(interval + kBlockElems) per chain — with totals
  /// bitwise identical to the cold pass by construction. Off is the
  /// pre-retention behaviour (every refresh re-reads the whole window);
  /// kept as a knob so bench_streaming can measure the gap.
  bool retain_block_partials = true;
};

/// Cumulative accounting of one stream's maintenance path. Each count is
/// held once: the maintainer adds every refresh straight into the profile
/// its stream owns (`IncrementalMaintainer::Advance`), and the stream adds
/// its escalations and publications.
struct MaintenanceProfile {
  std::size_t refreshes = 0;               ///< incremental refreshes run
  std::size_t rows_absorbed = 0;           ///< rows slid into the window
  std::size_t relationships_updated = 0;   ///< delta-updated re-solves
  std::size_t relationships_refit = 0;     ///< full-precision refits
  /// `tree_rekeys` and `scape_rekeys_skipped` (like `scape_runs_shared`
  /// and `scape_runs_spliced` below) are never incremented — streams
  /// maintain no SCAPE index — and stay because perfbench exports them.
  std::size_t tree_rekeys = 0;
  std::size_t scape_rekeys_skipped = 0;
  std::size_t escalations = 0;             ///< refreshes escalated to a full rebuild
  /// Retained block-partial accounting (DESIGN.md §10): grid blocks
  /// recomputed vs served from the cache across every exact chain
  /// (RecomputeDerived + accumulator re-materializations).
  std::size_t recompute_blocks_touched = 0;
  std::size_t recompute_blocks_reused = 0;
  /// Leading partial blocks served from the checkpointed prefix state
  /// (an O(kPrefixStride) resume) instead of a full block re-walk.
  std::size_t recompute_prefix_resumes = 0;
  double recompute_seconds = 0.0;          ///< cumulative RecomputeDerived wall time
  double last_refresh_seconds = 0.0;       ///< maintainer wall time, last refresh
  /// Population mean relative fit residual after the last refresh (the
  /// drift-monitor signal) and its baseline at the last full build.
  double mean_relative_residual = 0.0;
  double baseline_mean_residual = 0.0;

  /// Serve-path publication accounting, filled by the epoch publisher
  /// (streaming / shard router), not by the maintainer.
  /// `serve_fallbacks` is never incremented — facade queries answer only
  /// from published epochs — and stays because perfbench exports it as
  /// `publish.serve_fallbacks`.
  std::size_t serve_fallbacks = 0;
  std::size_t epochs_published = 0;         ///< serving snapshots published
  std::size_t epochs_delta = 0;             ///< ... of which via BuildDelta (COW window)
  std::size_t window_segments_reused = 0;   ///< COW window segments shared with prior epoch
  std::size_t scape_runs_shared = 0;        ///< never incremented (see `tree_rekeys`)
  std::size_t scape_runs_spliced = 0;       ///< never incremented (see `tree_rekeys`)
  std::size_t snapshot_bytes_copied = 0;    ///< bytes materialized across publishes
  double publish_seconds = 0.0;             ///< cumulative publication wall time
  double last_publish_seconds = 0.0;        ///< publication wall time, last epoch
};

/// Cross-shard aggregation of per-shard maintenance accounting: counters
/// sum, `last_refresh_seconds` takes the slowest shard (shards refresh
/// concurrently, so the max is the wall-clock the router saw), residual
/// levels average over shards that have one.
MaintenanceProfile AggregateShardProfiles(const std::vector<MaintenanceProfile>& shards);

/// Slides a built model along the stream. Create() captures the frozen
/// structure and the accumulators from a freshly built model; Advance()
/// absorbs new rows. The model must outlive the maintainer and must not be
/// structurally modified elsewhere.
class IncrementalMaintainer {
 public:
  /// Captures maintenance state from a freshly built model.
  /// O(pairs · window): materializes every per-pair accumulator exactly and
  /// records the drift-monitor baseline, which it also writes into
  /// `*profile` as both residual levels.
  static StatusOr<IncrementalMaintainer> Create(AffinityModel* model,
                                                const IncrementalOptions& options,
                                                const ExecContext& exec,
                                                MaintenanceProfile* profile);

  /// Slides the window by the first `count` entries of `rows` (each one
  /// aligned sample per series, in arrival order) and refreshes every
  /// layer. Taking a count lets the streaming layer hand over a
  /// preallocated row pool whose capacity never shrinks, keeping the
  /// append hot path allocation-free (DESIGN.md §9); `count` must be ≤
  /// rows.size(). A completed refresh adds its accounting to `*profile`.
  /// Returns true when the drift monitor requests escalation to a full
  /// rebuild (the refresh itself is still completed, so the snapshot stays
  /// coherent either way); the caller counts the escalation.
  StatusOr<bool> Advance(const std::vector<std::vector<double>>& rows, std::size_t count,
                         const ExecContext& exec, MaintenanceProfile* profile);

  /// The analysis window length (rows).
  std::size_t window() const { return window_; }

  /// The model's relationships in ascending pair-key order, each with its
  /// pivot's matrix measures — fixed for the maintainer's life, like the
  /// structure it maintains. Publication fills the WA tables from it.
  const std::vector<RelationshipRef>& relationships_by_key() const { return by_key_; }

  /// Fault injection for recovery tests: the next `count` Advance calls
  /// fail with Internal before touching any state, exercising the
  /// caller's escalation path (streaming re-freezes the whole stack from
  /// the table). The counter decrements per failed call and the maintainer
  /// behaves normally once it reaches zero.
  void InjectFailuresForTesting(std::size_t count) { inject_failures_ = count; }

 private:
  /// One maintained relationship: the hash slot it publishes into plus its
  /// windowed co-moment and monitor state.
  struct PairSlot {
    ts::SequencePair e;
    AffineRecord* rec = nullptr;     ///< stable pointer into affHash
    std::size_t pivot_slot = 0;      ///< index into pivot_slots_
    double co_moment = 0.0;          ///< Σ s_u·s_v over the window
    /// Retained block partials of the co-moment chain: an exact refit
    /// then re-materializes from O(interval + kBlockElems) of fresh data
    /// instead of re-reading the whole window, bitwise equal to
    /// BlockedDot(s_u, s_v) (gated by
    /// IncrementalOptions::retain_block_partials).
    kernels::BlockChain<1> rhs_chain;
    double rel_residual = 0.0;       ///< monitor value from the last refresh
    double residual_at_refit = 0.0;  ///< level when last exactly refit
  };

  /// One maintained pivot: its hash entry plus the inverse normal-equation
  /// factor refreshed from the exactly recomputed pivot measures.
  struct PivotSlot {
    PivotHashEntry* entry = nullptr;  ///< stable pointer into pivotHash
    fit::Mat3 ginv{};
    bool invertible = false;
  };

  IncrementalMaintainer() = default;

  /// Recomputes pivot factors, re-solves / refits every relationship, and
  /// refreshes the residual monitor. `refresh_index` drives the
  /// round-robin refit schedule; kRefitAll forces exact refits everywhere
  /// (used by Create to materialize the accumulators). `span_stats`, when
  /// non-null, accumulates the retained-partial accounting of the refit
  /// re-materializations.
  static constexpr std::size_t kRefitAll = ~std::size_t{0};
  Status SolveRelationships(std::size_t refresh_index, const ExecContext& exec,
                            std::size_t* refit_count,
                            kernels::BlockSpanStats* span_stats = nullptr);

  /// The (deterministic) exact-refit schedule: round-robin cadence plus
  /// the residual-drift trigger. Shared by the delta pass and the solve
  /// pass so a slot is never delta-updated and then re-materialized
  /// inconsistently.
  bool WillRefit(std::size_t slot_index, std::size_t refresh_index, const PairSlot& slot) const;

  AffinityModel* model_ = nullptr;
  IncrementalOptions options_;
  std::size_t window_ = 0;
  std::size_t n_ = 0;

  /// Frozen centre-extension state: per cluster, the (member, weight) list
  /// reproducing the centre as a combination of centered member columns,
  /// and the build-window means the centering froze.
  std::vector<std::vector<std::pair<ts::SeriesId, double>>> center_weights_;
  std::vector<double> frozen_means_;

  /// Every window column kept sorted (columns 0..n-1 the series, n..n+k-1
  /// the centres), maintained by O(interval) evict/insert shifts per slide
  /// so the refresh reads medians as order statistics instead of running a
  /// selection per column (`RecomputeDerived`'s sorted view).
  la::Matrix sorted_cols_;

  /// The retained block-partial cache behind RecomputeDerived (DESIGN.md
  /// §10). Owned here because its validity is exactly the maintainer's
  /// lifetime: the chains assume the frozen structure and the uniformly
  /// advancing window anchor, so escalation/rebuild/restore (which create
  /// a fresh maintainer) drop it wholesale. Unused (and empty) when
  /// `retain_block_partials` is off.
  DerivedBlockCache derived_cache_;

  std::vector<PivotSlot> pivot_slots_;
  std::vector<PairSlot> slots_;
  std::vector<RelationshipRef> by_key_;  ///< slots_' records and pivot measures
  /// This maintainer's completed refreshes: the round-robin refit
  /// schedule's counter, restarted by every re-freeze.
  std::size_t refreshes_ = 0;
  double mean_residual_ = 0.0;      ///< drift-monitor signal after the last solve
  double baseline_residual_ = 0.0;  ///< its level at Create
  std::size_t inject_failures_ = 0;  ///< InjectFailuresForTesting countdown
};

}  // namespace affinity::core

#endif  // AFFINITY_CORE_INCREMENTAL_H_
