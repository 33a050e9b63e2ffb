#include "ts/rolling.h"

#include <string>

namespace affinity::ts {

StatusOr<DataMatrix> TailWindow(const DataMatrix& data, std::size_t window) {
  if (window == 0) return Status::InvalidArgument("TailWindow requires window >= 1");
  if (window > data.m()) {
    return Status::InvalidArgument("TailWindow: window " + std::to_string(window) +
                                   " exceeds available samples " + std::to_string(data.m()));
  }
  const std::size_t start = data.m() - window;
  la::Matrix values(window, data.n());
  for (std::size_t j = 0; j < data.n(); ++j) {
    const double* src = data.ColumnData(static_cast<SeriesId>(j));
    double* dst = values.ColData(j);
    for (std::size_t i = 0; i < window; ++i) dst[i] = src[start + i];
  }
  DataMatrix out(std::move(values), data.names());
  // The tail keeps its place on the absolute block grid: sums over the
  // snapshot match the maintained window's anchored chains bit for bit.
  out.set_anchor_row(data.anchor_row() + start);
  return out;
}

}  // namespace affinity::ts
