#ifndef AFFINITY_SERVE_SERVING_SNAPSHOT_H_
#define AFFINITY_SERVE_SERVING_SNAPSHOT_H_

/// \file serving_snapshot.h
/// Lock-free snapshot serving (DESIGN.md §11): immutable, read-optimized
/// replicas of one AFFINITY instance, published per refresh.
///
/// The live structures (the SYMEX+ hash, the window, the quality scores)
/// are mutated in place by the incremental maintenance path, so serving
/// queries from them while a slide is absorbing would require locks.
/// Instead, each successful refresh publishes a `ServingSnapshot`:
///
///  * the SCAPE index's sorted runs, shared by handle (`core::ScapeRuns`):
///    a run is immutable once written, and a refresh that moves its keys
///    writes a new one, so the epoch holds the runs of its own
///    publication point without copying them;
///  * the WA surface (per-series stats, L-measure values, the six pair
///    measure tables in lexicographic pair order) frozen into flat
///    arrays, so snapshot WA queries never touch the live hash — always
///    complete, because a published model holds every relationship;
///  * the window as a `CowWindow`: refcounted immutable column segments
///    shared with the storage table (and with the previous epoch), with
///    the dense form materialized lazily on the first WN sweep or WF
///    sketch;
///  * the engine's capabilities, WF coefficient count and quality
///    scores, so every query — WF included — is answered from the epoch.
///
/// `SnapshotBuilder::BuildDelta` publishes that way — COW window, shared
/// runs, bulk WA refill — with zero sample or run copies.
/// `SnapshotBuilder::Build` is the from-scratch oracle: it copies
/// everything it is given (the window densely, every run) into the new
/// epoch, and it is the fallback when the table cannot cover the window.
///
/// Snapshots are published through an `EpochPublisher` — an atomic
/// shared_ptr swap. Readers `Acquire()` a snapshot and keep it alive for
/// the duration of a query (or longer: a held epoch stays queryable and
/// bit-stable while newer ones publish); writers publish a fresh replica
/// and never touch an old one, so queries never wait on maintenance and
/// maintenance never waits on queries. Memory lifetime is
/// reference-counted: an old epoch is reclaimed when its last handle
/// drops.
///
/// The serving contract is *bitwise identity*: every answer computed from
/// a snapshot equals the live engine's answer over the same structures,
/// because both are `QueryEngine` answers (serve_query.h binds the epoch
/// to the engine).

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "core/planner.h"
#include "core/query.h"
#include "core/scape.h"
#include "core/symex.h"
#include "storage/table.h"
#include "ts/data_matrix.h"

namespace affinity::serve {

/// Copy-on-write analysis window: either an owned dense matrix (full
/// build) or refcounted column-segment references into the storage table
/// (delta build — zero sample copies, segments shared with the previous
/// epoch). Exposes the `DataMatrix` read surface the serving paths use;
/// the dense form materializes lazily, once, on the first access that
/// needs contiguous columns.
///
/// Aliasing contract (DESIGN.md §11): segment buffers are append-only and
/// fully reserved, and this window only ever reads rows below its
/// capture point `anchor_row() + m()`, while the table's writer only
/// appends at or past it — disjoint elements, so readers and the
/// maintenance thread never touch the same byte.
class CowWindow {
 public:
  CowWindow() = default;

  /// Wraps an already-materialized window (the full-build path).
  static CowWindow FromDense(ts::DataMatrix dense);

  /// Rewrites `*out` in place to hold refcounted segment handles covering
  /// `rows` rows from absolute row `first_row` (which becomes the
  /// window's block-grid anchor). Zero sample copies; a recycled `*out`
  /// keeps its span storage, so steady-state captures allocate only the
  /// fresh lazy-materialization slot. Returns false — leaving `*out` to
  /// be discarded — when the table's retained rows cannot cover the span.
  static bool FromTable(const storage::DataMatrixTable& table, std::size_t first_row,
                        std::size_t rows, const std::vector<std::string>& names,
                        CowWindow* out);

  std::size_t m() const { return m_; }
  std::size_t n() const { return n_; }
  std::size_t anchor_row() const { return anchor_; }

  /// Contiguous storage of series `id` (length m()). Materializes the
  /// dense window on first use — thread-safe, at most once per window.
  const double* ColumnData(ts::SeriesId id) const;

  /// The dense window as a DataMatrix (same lazy materialization).
  const ts::DataMatrix& dense() const;

  /// Number of segment buffers this window references (0 in dense mode)
  /// and how many of them `prior` also references — the reuse accounting
  /// surfaced per publication.
  std::size_t segment_count() const;
  std::size_t SharedSegmentsWith(const CowWindow& prior) const;

 private:
  /// One run of consecutive window rows inside a shared segment buffer.
  struct Span {
    std::shared_ptr<const std::vector<double>> owner;
    const double* data = nullptr;
    std::size_t rows = 0;
  };
  /// Heap-held so CowWindow stays movable (std::once_flag is not) and so
  /// concurrent readers of a shared snapshot synchronize on one flag.
  struct Lazy {
    std::once_flag once;
    ts::DataMatrix dense;
  };

  const ts::DataMatrix& Materialize() const;

  std::size_t m_ = 0;
  std::size_t n_ = 0;
  std::size_t anchor_ = 0;
  std::vector<std::string> names_;
  std::vector<std::vector<Span>> cols_;  ///< per series; empty in dense mode
  std::shared_ptr<Lazy> lazy_;
};

/// An immutable read-optimized replica of one AFFINITY instance at one
/// refresh epoch. Everything a MET/MER/MEC/top-k needs is embedded; no
/// pointer into the live stack survives in here (shared segment buffers
/// and SCAPE runs are jointly owned and immutable).
struct ServingSnapshot {
  /// Publication epoch (monotone per publisher; 0 never published).
  std::uint64_t generation = 0;
  /// Logical stream row count when this snapshot was published.
  std::size_t snapshot_row = 0;

  /// The analysis window (copy-on-write; anchor_row preserved) — the WN
  /// surface.
  CowWindow data;

  /// The live engine's capabilities at publication, plus `frozen_wa`
  /// whenever the engine had a model: the engine plans kAuto over an
  /// epoch with these, as the live engine planned except that correlation
  /// and cosine MET/MER read the frozen pair table (planner.h).
  core::QueryPlanner::Capabilities caps;
  /// The live engine's WF coefficient count at publication (0: WF not
  /// enabled); WF queries sketch this epoch's window with it.
  std::size_t wf_coefficients = 0;

  /// True when the engine had a SCAPE index; `scape` then holds its runs
  /// as of this publication.
  bool has_scape = false;
  core::ScapeRuns scape;

  // --- WA surface ----------------------------------------------------------
  // Always complete: the model that publishes an epoch holds every
  // relationship (streams refuse truncated models).
  /// Exact per-series statistics (diagonal MEC semantics).
  std::vector<core::SeriesStats> stats;
  /// L-measure value per series, per family (mean/median/mode).
  std::array<std::vector<double>, 3> location;
  /// Pair measure tables in lexicographic (u, v) order, indexed by
  /// `Measure - kCovariance` (covariance .. Dice).
  std::array<std::vector<double>, 6> pair_values;

  /// The live engine's composite quality scores at publication, one per
  /// series (DESIGN.md §12) — meaningful when `caps.has_quality`. Frozen
  /// with the epoch, so `min_quality` predicates and answer stamps read
  /// the scores the live engine held at this publication point.
  std::vector<double> quality;

  /// The epoch's quality surface over its n series.
  core::QualitySurface quality_surface() const {
    return core::QualitySurface(caps.has_quality ? &quality : nullptr, data.n());
  }
};

/// Accounting of one publication, for the maintenance profile and the
/// `--serve-publish` bench: what was materialized vs shared.
struct PublishStats {
  bool delta = false;                     ///< built by BuildDelta
  std::size_t bytes_copied = 0;           ///< bytes written into the new epoch
  std::size_t window_segments_total = 0;  ///< segment refs captured (0 = dense copy)
  std::size_t window_segments_reused = 0; ///< of those, shared with the prior epoch
  std::size_t runs_shared = 0;            ///< SCAPE runs whose handle the prior epoch held
  std::size_t runs_rewritten = 0;         ///< SCAPE runs the prior epoch did not hold
};

/// Builds `ServingSnapshot`s from the live structures.
class SnapshotBuilder {
 public:
  /// Builds a replica of (`model`, `scape`) stamped with `generation` and
  /// `snapshot_row`, copying the window densely and every SCAPE run — the
  /// from-scratch oracle every published epoch must match bit for bit.
  /// `scape` may be null (no SCAPE surface). `engine` is the engine that
  /// answers over `model`: its capabilities (so kAuto plans match), WF
  /// coefficient count and quality scores are frozen into the epoch.
  /// `model` must hold every relationship (checked): a truncated batch
  /// model has no complete WA surface to serve.
  static std::shared_ptr<const ServingSnapshot> Build(
      const core::AffinityModel& model, const core::ScapeIndex* scape,
      const core::QueryEngine& engine, std::uint64_t generation, std::size_t snapshot_row,
      PublishStats* stats = nullptr);

  /// Per-refresh publication (DESIGN.md §11): builds the snapshot `Build`
  /// would, but
  ///  * captures the window as refcounted segment references into `table`
  ///    (zero sample copies; segments shared with the previous epoch),
  ///  * takes the index's run handles instead of copying the runs,
  ///  * refills the WA surface in parallel over `exec`, six measures per
  ///    pair (bitwise equal to the per-measure path) — read from
  ///    `by_key` when non-null: `model`'s relationships in ascending
  ///    pair-key order with their pivots' measures
  ///    (`IncrementalMaintainer::relationships_by_key`); looked up per
  ///    pair otherwise.
  ///
  /// `model` must be the data the table's trailing rows hold: returns
  /// nullptr when the table's retained rows cannot cover the window
  /// ending at `snapshot_row` at the model's anchor (the caller falls back
  /// to `Build`). `prior`, when non-null, is the previous epoch, read only
  /// for the reuse accounting in `stats`.
  ///
  /// `scratch` may pass back a *retired* epoch (one `EpochPublisher::
  /// Publish` returned, with no surviving readers): its vectors are
  /// overwritten in place, so the steady state allocates nothing per
  /// epoch — the retiring epoch's memory becomes the next one's. Every
  /// element is rewritten (or cleared) before the result is published —
  /// the quality scores included — so recycling never changes the
  /// produced bits.
  static std::shared_ptr<const ServingSnapshot> BuildDelta(
      const core::AffinityModel& model, const core::ScapeIndex* scape,
      const std::vector<core::RelationshipRef>* by_key, const storage::DataMatrixTable& table,
      const ServingSnapshot* prior, const core::QueryEngine& engine, std::uint64_t generation,
      std::size_t snapshot_row, const ExecContext& exec = {}, PublishStats* stats = nullptr,
      std::shared_ptr<ServingSnapshot> scratch = nullptr);
};

/// Epoch-based publication point: writers atomically swap in a fresh
/// immutable snapshot; readers acquire the current one with shared
/// ownership. The atomic<shared_ptr> swap is the only synchronization on
/// the serving fast path — queries never block on maintenance. Publish
/// must stay single-writer (the maintenance thread).
template <typename T>
class EpochPublisher {
 public:
  /// Publishes `snapshot` as the current epoch (release ordering: all the
  /// builder's writes happen-before any reader that acquires it).
  ///
  /// Returns the epoch this publish *retired* — the replaced current — so
  /// the caller can recycle its memory into the next build instead of
  /// freeing ~the whole replica on the publish critical path. nullptr
  /// when nothing retired. A retired epoch may still be pinned by
  /// in-flight readers; recycle it only when its use_count() is 1.
  std::shared_ptr<const T> Publish(std::shared_ptr<const T> snapshot) {
    return current_.exchange(std::move(snapshot), std::memory_order_acq_rel);
  }

  /// The current epoch's snapshot (nullptr before the first Publish).
  /// The returned shared_ptr keeps the epoch alive across the query.
  std::shared_ptr<const T> Acquire() const {
    return current_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::shared_ptr<const T>> current_;
};

}  // namespace affinity::serve

#endif  // AFFINITY_SERVE_SERVING_SNAPSHOT_H_
