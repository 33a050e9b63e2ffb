#include "storage/table.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_annotations.h"
// Header-only block-grid constants (no core link dependency): the snapshot
// anchor below must agree with the canonical summation grid.
#include "core/kernels.h"

namespace affinity::storage {

// The storage default keeps segment boundaries and summation-grid block
// boundaries coincident, so whole-segment reclamation also preserves the
// block alignment of the retained origin. Custom capacities may split a
// block across segments — harmless for correctness because snapshots carry
// the *absolute* retained origin as their grid anchor (see Snapshot), but
// the default is the layout the retained-partial cache is designed around
// (DESIGN.md §10).
static_assert(core::kernels::kBlockElems % ColumnSegment::kDefaultCapacity == 0,
              "default segment capacity must tile the canonical summation block");

StatusOr<ts::SeriesId> DataMatrixTable::RegisterSeries(const std::string& name,
                                                       const std::string& source,
                                                       double interval_seconds) {
  if (rows_ > 0) {
    return Status::FailedPrecondition(
        "cannot register series after rows have been appended (series must stay aligned)");
  }
  if (name.empty()) return Status::InvalidArgument("series name must be non-empty");
  if (by_name_.contains(name)) {
    return Status::AlreadyExists("series '" + name + "' is already registered");
  }
  const auto id = static_cast<ts::SeriesId>(catalog_.size());
  catalog_.push_back(SeriesInfo{id, name, source, interval_seconds});
  by_name_[name] = id;
  columns_.emplace_back();
  return id;
}

AFFINITY_HOT Status DataMatrixTable::AppendRow(const std::vector<double>& row) {
  if (catalog_.empty()) {
    return Status::FailedPrecondition("no series registered");
  }
  if (row.size() != catalog_.size()) {
    return Status::InvalidArgument("row has " + std::to_string(row.size()) +
                                   " values, table has " + std::to_string(catalog_.size()) +
                                   " series");
  }
  for (std::size_t j = 0; j < row.size(); ++j) {
    auto& segs = columns_[j];
    if (segs.empty() || segs.back().full()) segs.emplace_back(segment_capacity_);
    segs.back().Append(row[j]);
  }
  ++rows_;
  return Status::OK();
}

Status DataMatrixTable::AppendRows(const std::vector<std::vector<double>>& rows) {
  for (const auto& row : rows) AFFINITY_RETURN_IF_ERROR(AppendRow(row));
  return Status::OK();
}

std::size_t DataMatrixTable::CompactBefore(std::size_t row) {
  if (catalog_.empty() || row <= first_retained_) return 0;
  if (row > rows_) row = rows_;
  // Only whole segments are reclaimed, and all retained leading segments
  // are full (partial fills only ever exist at the tail), so the boundary
  // arithmetic stays aligned across every column.
  const std::size_t whole_segments = (row - first_retained_) / segment_capacity_;
  if (whole_segments == 0) return 0;
  for (auto& segs : columns_) {
    segs.erase(segs.begin(), segs.begin() + static_cast<long>(whole_segments));
  }
  const std::size_t reclaimed = whole_segments * segment_capacity_;
  first_retained_ += reclaimed;
  // The retained origin must stay on a segment boundary: Snapshot stamps
  // it as the snapshot's absolute block-grid anchor, and a misaligned
  // origin would shift every chain's block boundaries and silently
  // invalidate retained partials downstream (DESIGN.md §10).
  AFFINITY_CHECK_EQ(first_retained_ % segment_capacity_, 0u);
  return reclaimed;
}

StatusOr<SeriesInfo> DataMatrixTable::GetSeriesInfo(ts::SeriesId id) const {
  if (id >= catalog_.size()) {
    return Status::OutOfRange("series id " + std::to_string(id) + " out of range");
  }
  return catalog_[id];
}

StatusOr<ts::SeriesId> DataMatrixTable::FindSeries(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return Status::NotFound("no series named '" + name + "'");
  return it->second;
}

StatusOr<double> DataMatrixTable::ColumnMin(ts::SeriesId id) const {
  if (id >= columns_.size()) return Status::OutOfRange("series id out of range");
  if (retained_row_count() == 0) return Status::FailedPrecondition("table is empty");
  double out = columns_[id].front().min();
  for (const auto& seg : columns_[id]) out = std::min(out, seg.min());
  return out;
}

StatusOr<double> DataMatrixTable::ColumnMax(ts::SeriesId id) const {
  if (id >= columns_.size()) return Status::OutOfRange("series id out of range");
  if (retained_row_count() == 0) return Status::FailedPrecondition("table is empty");
  double out = columns_[id].front().max();
  for (const auto& seg : columns_[id]) out = std::max(out, seg.max());
  return out;
}

StatusOr<double> DataMatrixTable::ColumnSum(ts::SeriesId id) const {
  if (id >= columns_.size()) return Status::OutOfRange("series id out of range");
  double out = 0.0;
  // affinity-lint: allow(fp-accumulate): combines per-segment sums in segment order —
  // fixed by construction; the per-segment sums come from the canonical chains
  for (const auto& seg : columns_[id]) out += seg.sum();
  return out;
}

StatusOr<ts::DataMatrix> DataMatrixTable::Snapshot() const {
  if (catalog_.empty()) return Status::FailedPrecondition("no series registered");
  if (retained_row_count() == 0) return Status::FailedPrecondition("no rows retained");
  la::Matrix values(retained_row_count(), catalog_.size());
  std::vector<std::string> names(catalog_.size());
  for (std::size_t j = 0; j < catalog_.size(); ++j) {
    names[j] = catalog_[j].name;
    double* dst = values.ColData(j);
    std::size_t i = 0;
    for (const auto& seg : columns_[j]) {
      for (double v : seg.values()) dst[i++] = v;
    }
  }
  ts::DataMatrix out(std::move(values), std::move(names));
  // Snapshots keep their place on the absolute summation grid: row 0 of
  // the snapshot is logical row `first_retained_` of the stream, so sums
  // over the snapshot (and over any TailWindow of it) land on the same
  // block boundaries as the incrementally maintained window — the
  // alignment the retained-partial cache depends on.
  out.set_anchor_row(first_retained_);
  return out;
}

StatusOr<DataMatrixTable> DataMatrixTable::FromDataMatrix(const ts::DataMatrix& data,
                                                          const std::string& source,
                                                          double interval_seconds) {
  DataMatrixTable table;
  for (std::size_t j = 0; j < data.n(); ++j) {
    AFFINITY_RETURN_IF_ERROR(
        table.RegisterSeries(data.name(static_cast<ts::SeriesId>(j)), source, interval_seconds)
            .status());
  }
  std::vector<double> row(data.n());
  for (std::size_t i = 0; i < data.m(); ++i) {
    for (std::size_t j = 0; j < data.n(); ++j) row[j] = data.matrix()(i, j);
    AFFINITY_RETURN_IF_ERROR(table.AppendRow(row));
  }
  return table;
}

}  // namespace affinity::storage
