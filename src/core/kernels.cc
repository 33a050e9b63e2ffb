#include "core/kernels.h"

#include "common/exec_context.h"
#include "ts/data_matrix.h"

namespace affinity::core::kernels {

// The batch walks stride column-to-column: each ColumnMarginals pass is
// sequential within its column (hardware prefetch covers that), but the
// jump to the next column's base is a fresh stream — touch its head
// before finishing the current column so the walk doesn't stall on it.
// `out` never aliases the column data (it's a freshly allocated vector),
// hence the __restrict on the write side.

std::vector<Marginals> HoistMarginals(const ts::DataMatrix& data, const ExecContext& exec) {
  std::vector<Marginals> out(data.n());
  Marginals* __restrict res = out.data();
  const std::size_t anchor = data.anchor_row();
  ParallelChunks(exec, data.n(), [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) {
      if (j + 1 < hi) __builtin_prefetch(data.ColumnData(static_cast<ts::SeriesId>(j + 1)));
      res[j] = ColumnMarginals(data.ColumnData(static_cast<ts::SeriesId>(j)), data.m(), anchor);
    }
  });
  return out;
}

std::vector<Marginals> HoistMarginals(const std::vector<const double*>& columns, std::size_t m,
                                      const ExecContext& exec, std::size_t anchor) {
  std::vector<Marginals> out(columns.size());
  Marginals* __restrict res = out.data();
  ParallelChunks(exec, columns.size(), [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) {
      if (j + 1 < hi) __builtin_prefetch(columns[j + 1]);
      res[j] = ColumnMarginals(columns[j], m, anchor);
    }
  });
  return out;
}

}  // namespace affinity::core::kernels
