#ifndef AFFINITY_TS_INGEST_H_
#define AFFINITY_TS_INGEST_H_

/// \file ingest.h
/// Dirty-stream ingestion (DESIGN.md §12): the alignment layer between
/// ragged operational streams and the dense, all-finite window every
/// engine layer above assumes.
///
/// Real streams arrive with irregular timestamps, gaps, NaNs and dead
/// sensors. `StreamAligner` snaps timestamped samples onto the stream
/// grid (origin + tick), buffers out-of-order arrivals up to a caller-
/// driven watermark, and emits one `AlignedRow` per grid slot:
///
///  * an **observed** sample lands in its slot (the latest write wins on
///    duplicates; non-finite values are dropped and counted — a NaN
///    sample is a gap, never a poisoned moment);
///  * a missing sample is **forward-filled** from the series' last
///    repaired value while the gap is at most `max_fill` ticks old
///    (valid = 1, filled = 1);
///  * beyond the horizon the slot is an explicit **gap**: the row still
///    carries the last known value (so dense kernels stay finite) but
///    the validity mask flags it invalid and masked kernels exclude it.
///
/// The emitted (values, valid, filled) triple feeds
/// `StreamingAffinity::AppendMasked`, whose `QualityTracker` keeps the
/// per-series `SeriesQuality` surface by push/evict.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/status.h"
#include "ts/time_series.h"

namespace affinity::ts {

/// Grid and fill policy of one ingestion stream.
struct IngestOptions {
  double origin = 0.0;       ///< timestamp of grid slot 0
  double tick = 1.0;         ///< grid spacing (> 0)
  std::size_t max_fill = 8;  ///< forward-fill horizon in ticks; older → gap
};

Status ValidateIngestOptions(const IngestOptions& options);

/// One dense window row produced by the aligner, plus its validity mask.
/// `valid[j]` = the value is usable (observed, or forward-filled within
/// the horizon); `filled[j]` = the value was synthesized by forward-fill
/// (implies valid). A slot that is neither is an explicit gap: the value
/// is the series' last known sample (0.0 if none yet) purely to keep the
/// dense window finite.
struct AlignedRow {
  std::int64_t slot = 0;  ///< grid index: origin + slot * tick
  std::vector<double> values;
  std::vector<std::uint8_t> valid;
  std::vector<std::uint8_t> filled;
};

/// Ingestion counters, cumulative since construction.
struct IngestStats {
  std::size_t samples = 0;     ///< accepted Push calls
  std::size_t snapped = 0;     ///< timestamps not exactly on the grid
  std::size_t duplicates = 0;  ///< same (series, slot) overwritten
  std::size_t late = 0;        ///< behind the emitted watermark, dropped
  std::size_t nonfinite = 0;   ///< NaN/Inf values dropped (become gaps)
  std::size_t rows = 0;        ///< rows emitted
  std::size_t fills = 0;       ///< forward-filled cells emitted
  std::size_t gaps = 0;        ///< gap cells emitted
};

/// Aligns timestamped, possibly-ragged samples for `n` series onto the
/// stream grid. Push order is free above the watermark; emission is
/// caller-driven (`EmitUpTo` / `Flush`) so lateness tolerance is a caller
/// policy, not an aligner guess.
class StreamAligner {
 public:
  StreamAligner(std::size_t n, const IngestOptions& options);

  /// Records one sample. The timestamp snaps to the nearest grid slot.
  /// Non-finite values are counted and dropped (the slot stays a gap);
  /// samples behind the watermark are counted and dropped. OutOfRange for
  /// an unknown series.
  Status Push(SeriesId series, double timestamp, double value);

  /// Emits one row per grid slot strictly before `timestamp`, in slot
  /// order, appending to `out`. Returns the number of rows emitted.
  std::size_t EmitUpTo(double timestamp, std::vector<AlignedRow>* out);

  /// Emits every slot up to and including the newest observed sample.
  std::size_t Flush(std::vector<AlignedRow>* out);

  std::size_t n() const { return n_; }
  const IngestOptions& options() const { return options_; }
  const IngestStats& stats() const { return stats_; }
  /// Next slot to be emitted (the watermark: pushes below it are late).
  std::int64_t watermark() const { return next_slot_; }

 private:
  struct PendingRow {
    std::vector<double> values;
    std::vector<std::uint8_t> observed;
  };

  PendingRow& RowForSlot(std::int64_t slot);
  void EmitFront(std::vector<AlignedRow>* out);

  std::size_t n_;
  IngestOptions options_;
  IngestStats stats_;
  std::int64_t next_slot_ = 0;  ///< first unemitted slot
  bool any_sample_ = false;
  std::int64_t max_slot_ = 0;  ///< newest slot with an observed sample
  /// Pending rows for slots [next_slot_, next_slot_ + pending_.size());
  /// bounded by the out-of-orderness the caller's watermark allows.
  std::deque<PendingRow> pending_;
  /// Per-series forward-fill state.
  std::vector<double> last_value_;
  std::vector<std::uint8_t> has_last_;
  std::vector<std::int64_t> last_slot_;  ///< slot of the last observation
};

/// The per-series data-quality surface (DESIGN.md §12), computed over the
/// current window. Modeled on anofox-forecast's ts_stats_by health card:
/// structural stats plus a composite score usable as a query predicate.
struct SeriesQuality {
  std::size_t length = 0;    ///< window rows considered
  std::size_t observed = 0;  ///< rows actually observed
  std::size_t filled = 0;    ///< rows synthesized by forward-fill
  std::size_t gaps = 0;      ///< rows invalid (beyond the fill horizon)
  std::size_t gap_runs = 0;  ///< maximal runs of consecutive gaps
  std::size_t longest_gap = 0;
  std::size_t longest_plateau = 0;  ///< longest constant-value run
  double gap_ratio = 0.0;           ///< gaps / length
  double fill_ratio = 0.0;          ///< filled / length
  double intermittency = 0.0;       ///< zero share among observed rows
  double score = 1.0;               ///< composite quality in [0, 1]
};

/// The composite score (DESIGN.md §12):
///   completeness  = (observed + filled) / length
///   observed_frac = observed / length
///   plateau_ratio = (longest_plateau - 1) / length  (excess run only)
///   base          = (completeness + observed_frac) / 2   — a fill counts half
///   score = base · (1 − ½·plateau_ratio) · (1 − ¼·intermittency)
/// clamped to [0, 1]; an empty window scores 1 (nothing wrong yet).
double CompositeQualityScore(const SeriesQuality& q);

/// Maintains the quality surface by push/evict (DESIGN.md §12): O(n) per
/// row, O(1) per `Quality` and O(n) per `All`/`Scores`. Per series it
/// keeps integer counts of observed, observed-zero, filled and gap cells,
/// and the two run maxima (gap runs; plateaus, two or more equal values
/// in a row) as sliding maxima over run lengths. Each window cell is one
/// flags byte — its kind and whether its value differs from the previous
/// one — in a row-major ring, so a push writes, and an eviction reads, n
/// contiguous bytes. No values are mirrored: a plateau continues while a
/// value `==` the series' last one (transitive on finite doubles, ±0.0
/// included). Memory: n·window bytes plus O(n·√window).
class QualityTracker {
 public:
  QualityTracker(std::size_t n, std::size_t window);

  /// Appends one aligned row, evicting the oldest once `window` rows are
  /// held. Null `valid` / `filled` mean fully observed; a non-zero byte
  /// is set, and `filled` counts only on valid cells. Allocation-free.
  void Push(const double* values, const std::uint8_t* valid, const std::uint8_t* filled);

  /// Quality of one series over the current window, O(1). `series` must
  /// be < n() (checked).
  SeriesQuality Quality(SeriesId series) const;

  /// Quality of every series (O(n) after a Push, cached until the next).
  const std::vector<SeriesQuality>& All() const;

  /// Composite scores only, aligned with series ids (cached like All()).
  const std::vector<double>& Scores() const;

  std::size_t n() const { return n_; }
  std::size_t window() const { return window_; }
  std::size_t size() const { return size_; }

 private:
  /// Sliding maximum of one kind of run for every series. A series' state
  /// changes only at run boundaries: a run opens, the open run (the one
  /// holding the newest cell) closes, or a run's last cell leaves the
  /// window. Per series it keeps the runs with a cell in the window, the
  /// push index the open run began at, and a ring of completed runs —
  /// each known by its last ring row and its length — holding only those
  /// no later run is at least as long. Their lengths strictly decrease
  /// and all but the first lie wholly in the window, so the ring holds
  /// at most m runs with m(m+1)/2 < window. Only the oldest run in the
  /// window is cut short by eviction; if it is in the ring it is the first
  /// entry, and its length in the window follows from its last row.
  class RunWindow {
   public:
    RunWindow(std::size_t n, std::size_t window);

    /// A run of series `j` opens at push `index`.
    void Open(std::size_t j, std::uint64_t index);
    /// The open run of series `j` closes before push `index`; its last
    /// cell is at ring row `end`.
    void Close(std::size_t j, std::uint64_t index, std::size_t end);
    /// The last window cell of a run of series `j`, at ring row `row`,
    /// left the window.
    void Drop(std::size_t j, std::size_t row);

    std::uint32_t runs(std::size_t j) const { return state_[j].runs; }
    std::uint64_t open_index(std::size_t j) const { return state_[j].open; }
    /// Longest run of series `j` in a window of `size` cells whose oldest
    /// is at ring row `oldest`; `open` = cells of the open run (0: none).
    std::uint32_t longest(std::size_t j, std::size_t oldest, std::size_t size,
                          std::uint64_t open) const;

   private:
    struct State {
      std::uint64_t open = 0;   ///< push index the open run began at
      std::uint32_t runs = 0;   ///< runs with a cell in the window
      std::uint32_t head = 0;   ///< completed-run ring: first slot
      std::uint32_t count = 0;  ///< completed-run ring: entries
    };
    struct Done {
      std::uint32_t end = 0;  ///< ring row of the run's last cell
      std::uint32_t len = 0;  ///< its length, capped at the window
    };

    std::size_t window_;
    std::size_t cap_;  ///< completed-run ring capacity per series
    std::vector<State> state_;
    std::vector<Done> done_;  ///< series j's ring at [j * cap_, (j + 1) * cap_)
  };

  /// What a series' pending count byte reads as unchanged: a push moves
  /// it by at most one, so it stays in [0, 255] for kPendingZero - 1
  /// pushes, after which the counts fold it in.
  static constexpr std::int32_t kPendingZero = 128;

  /// Series `j`'s change in cells of kind `kind` since the last fold.
  std::int32_t PendingCount(std::uint8_t kind, std::size_t j) const;

  std::size_t n_;
  std::size_t window_;
  std::size_t size_ = 0;      ///< rows currently held (≤ window)
  std::size_t head_ = 0;      ///< ring row the next push writes
  std::uint64_t pushes_ = 0;  ///< rows pushed since construction
  /// One flags byte per cell, row-major: row r, series j at [r * n_ + j].
  std::vector<std::uint8_t> flags_;
  std::vector<std::uint8_t> fresh_;  ///< a push's new cells, staged
  std::vector<double> last_;         ///< each series' last pushed value
  /// Window cells per kind and series, [kind * n + j], as of the last fold.
  std::vector<std::uint32_t> counts_;
  /// Their changes since: byte j % 8 of word [kind * ⌈n/8⌉ + j / 8] is
  /// series j's change plus kPendingZero, so a push moves eight series a
  /// word.
  std::vector<std::uint64_t> pending_;
  std::size_t pending_pushes_ = 0;  ///< pushes since the last fold
  RunWindow gap_runs_;
  RunWindow plateaus_;
  mutable bool cache_fresh_ = false;
  mutable std::vector<SeriesQuality> cache_;
  mutable std::vector<double> scores_;
};

}  // namespace affinity::ts

#endif  // AFFINITY_TS_INGEST_H_
