#include "ts/data_matrix.h"

#include <cmath>

#include "common/check.h"

namespace affinity::ts {

SequencePair PairFromIndex(std::size_t idx, std::size_t n) {
  // Guess the row from the quadratic PairsBeforeRow(u) = idx, then walk
  // off the floating-point slack exactly.
  const double nd = static_cast<double>(n);
  const double disc = (2.0 * nd - 1.0) * (2.0 * nd - 1.0) - 8.0 * static_cast<double>(idx);
  double guess = (2.0 * nd - 1.0 - std::sqrt(disc > 0.0 ? disc : 0.0)) / 2.0;
  if (guess < 0.0) guess = 0.0;
  std::size_t u = static_cast<std::size_t>(guess);
  if (u > n - 2) u = n - 2;
  while (u > 0 && PairsBeforeRow(u, n) > idx) --u;
  while (PairsBeforeRow(u + 1, n) <= idx) ++u;
  const std::size_t v = u + 1 + (idx - PairsBeforeRow(u, n));
  return SequencePair(static_cast<SeriesId>(u), static_cast<SeriesId>(v));
}

std::vector<SequencePair> AllSequencePairs(std::size_t n) {
  std::vector<SequencePair> out;
  out.reserve(SequencePairCount(n));
  for (SeriesId u = 0; u + 1 < n; ++u) {
    for (SeriesId v = u + 1; v < n; ++v) out.emplace_back(u, v);
  }
  return out;
}

DataMatrix::DataMatrix(la::Matrix values) : values_(std::move(values)) {
  names_.reserve(values_.cols());
  for (std::size_t j = 0; j < values_.cols(); ++j) {
    names_.push_back("s" + std::to_string(j));
  }
}

DataMatrix::DataMatrix(la::Matrix values, std::vector<std::string> names)
    : values_(std::move(values)), names_(std::move(names)) {
  AFFINITY_CHECK_EQ(names_.size(), values_.cols());
}

StatusOr<DataMatrix> DataMatrix::FromSeries(const std::vector<TimeSeries>& series) {
  if (series.empty()) {
    return Status::InvalidArgument("DataMatrix::FromSeries: empty series list");
  }
  const std::size_t m = series.front().length();
  for (const auto& s : series) {
    if (s.length() != m) {
      return Status::InvalidArgument("DataMatrix::FromSeries: series lengths differ (" +
                                     s.name() + ")");
    }
  }
  la::Matrix values(m, series.size());
  std::vector<std::string> names;
  names.reserve(series.size());
  for (std::size_t j = 0; j < series.size(); ++j) {
    values.SetCol(j, series[j].values());
    names.push_back(series[j].name());
  }
  return DataMatrix(std::move(values), std::move(names));
}

la::Matrix DataMatrix::SequencePairMatrix(const SequencePair& e) const {
  AFFINITY_CHECK_LT(e.v, n());
  la::Matrix out(m(), 2);
  const double* cu = ColumnData(e.u);
  const double* cv = ColumnData(e.v);
  double* d0 = out.ColData(0);
  double* d1 = out.ColData(1);
  for (std::size_t i = 0; i < m(); ++i) {
    d0[i] = cu[i];
    d1[i] = cv[i];
  }
  return out;
}

StatusOr<SeriesId> DataMatrix::FindByName(const std::string& name) const {
  for (std::size_t j = 0; j < names_.size(); ++j) {
    if (names_[j] == name) return static_cast<SeriesId>(j);
  }
  return Status::NotFound("no series named '" + name + "'");
}

DataMatrix DataMatrix::Prefix(std::size_t count) const {
  AFFINITY_CHECK_LE(count, n());
  la::Matrix sub(m(), count);
  for (std::size_t j = 0; j < count; ++j) sub.SetCol(j, values_.Col(j));
  std::vector<std::string> names(names_.begin(), names_.begin() + static_cast<long>(count));
  DataMatrix out(std::move(sub), std::move(names));
  out.set_anchor_row(anchor_row_);  // same rows, same block grid
  return out;
}

}  // namespace affinity::ts
