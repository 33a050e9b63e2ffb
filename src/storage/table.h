#ifndef AFFINITY_STORAGE_TABLE_H_
#define AFFINITY_STORAGE_TABLE_H_

/// \file table.h
/// The `data_matrix` table of Fig. 2: a catalog of registered series plus
/// append-only columnar storage, with an aligned snapshot operation that
/// produces the in-memory `ts::DataMatrix` the AFFINITY pipeline consumes.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "storage/column_segment.h"
#include "ts/data_matrix.h"

namespace affinity::storage {

/// Catalog row describing one registered series.
struct SeriesInfo {
  ts::SeriesId id = 0;
  std::string name;
  std::string source;              ///< e.g. "finance", "sensor", "rss"
  double interval_seconds = 60.0;  ///< sampling interval Δt
};

/// Append-only columnar table of aligned time series, with segment-level
/// reclamation for windowed deployments.
///
/// Usage:
///   DataMatrixTable table;
///   auto id = table.RegisterSeries("INTC", "finance", 60.0);
///   table.AppendRow({...one value per registered series...});
///   auto snapshot = table.Snapshot();   // -> ts::DataMatrix
///
/// `CompactBefore(row)` drops whole segments that lie entirely below a
/// logical row, so a streaming ingester can keep resident storage O(window)
/// while logical row numbering stays stable: `row_count()` keeps counting
/// every row ever appended and `first_retained_row()` reports how many of
/// the leading ones have been reclaimed. Snapshots and the column
/// aggregates cover the retained rows only.
class DataMatrixTable {
 public:
  /// \param segment_capacity samples per column segment (> 0; checked).
  /// Reclamation is whole-segment, so `first_retained_row()` advances in
  /// multiples of this; snapshots stamp that origin as their absolute
  /// block-grid anchor (see Snapshot), which is what keeps blocked sums
  /// over snapshots aligned with incrementally maintained windows no
  /// matter how the capacity relates to `kernels::kBlockElems`.
  explicit DataMatrixTable(std::size_t segment_capacity = ColumnSegment::kDefaultCapacity)
      : segment_capacity_(segment_capacity) {
    AFFINITY_CHECK_GT(segment_capacity_, 0u);
  }

  /// Registers a new series; names must be unique (AlreadyExists otherwise).
  /// Registration is only allowed before the first row is appended
  /// (FailedPrecondition afterwards — series must stay aligned).
  StatusOr<ts::SeriesId> RegisterSeries(const std::string& name, const std::string& source,
                                        double interval_seconds);

  /// Appends one aligned sample row; `row.size()` must equal series_count().
  Status AppendRow(const std::vector<double>& row);

  /// Appends many rows (convenience for loaders).
  Status AppendRows(const std::vector<std::vector<double>>& rows);

  /// Number of registered series.
  std::size_t series_count() const { return catalog_.size(); }

  /// Number of appended rows (including reclaimed ones).
  std::size_t row_count() const { return rows_; }

  /// Logical index of the first row still resident (0 before any
  /// compaction; always a segment-capacity multiple).
  std::size_t first_retained_row() const { return first_retained_; }

  /// Number of rows currently resident: row_count() − first_retained_row().
  std::size_t retained_row_count() const { return rows_ - first_retained_; }

  /// Reclaims every whole segment lying entirely before logical row `row`
  /// (segment granularity: up to segment_capacity − 1 older rows stay
  /// resident). Returns the number of rows reclaimed by this call.
  std::size_t CompactBefore(std::size_t row);

  /// Catalog lookup by id (OutOfRange) or name (NotFound).
  StatusOr<SeriesInfo> GetSeriesInfo(ts::SeriesId id) const;
  StatusOr<ts::SeriesId> FindSeries(const std::string& name) const;

  /// Segment-summary aggregates over a column's retained rows —
  /// O(#segments).
  StatusOr<double> ColumnMin(ts::SeriesId id) const;
  StatusOr<double> ColumnMax(ts::SeriesId id) const;
  StatusOr<double> ColumnSum(ts::SeriesId id) const;

  /// Materializes the aligned snapshot of the retained rows as a
  /// DataMatrix. FailedPrecondition when the table has no series or no
  /// retained rows.
  StatusOr<ts::DataMatrix> Snapshot() const;

  /// Samples per column segment.
  std::size_t segment_capacity() const { return segment_capacity_; }

  /// Visits every resident segment of column `id` in row order as
  /// fn(const ColumnSegment& segment, std::size_t first_row) — the
  /// copy-on-write publication seam (DESIGN.md §11). `first_row` is the
  /// absolute logical row of the segment's first sample;
  /// `segment.shared_values()` keeps the buffer alive past
  /// `CompactBefore`, and `segment.size()` is how many samples are
  /// resident now (the tail segment may grow afterwards, but only past
  /// that count, so a capture reads a frozen prefix). O(#segments), no
  /// allocation. `id` must be < series_count() (checked).
  template <typename Fn>
  void ForEachColumnSegment(ts::SeriesId id, Fn&& fn) const {
    AFFINITY_CHECK_LT(id, columns_.size());
    std::size_t row = first_retained_;
    for (const ColumnSegment& segment : columns_[id]) {
      fn(segment, row);
      row += segment.size();
    }
  }

  /// Bulk-loads an existing DataMatrix into a fresh table.
  static StatusOr<DataMatrixTable> FromDataMatrix(const ts::DataMatrix& data,
                                                  const std::string& source,
                                                  double interval_seconds);

 private:
  std::size_t segment_capacity_;
  std::vector<SeriesInfo> catalog_;
  std::unordered_map<std::string, ts::SeriesId> by_name_;
  std::vector<std::vector<ColumnSegment>> columns_;  // per series, per segment
  std::size_t rows_ = 0;
  std::size_t first_retained_ = 0;  // logical row of columns_[j].front()[0]
};

}  // namespace affinity::storage

#endif  // AFFINITY_STORAGE_TABLE_H_
