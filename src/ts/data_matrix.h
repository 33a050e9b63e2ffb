#ifndef AFFINITY_TS_DATA_MATRIX_H_
#define AFFINITY_TS_DATA_MATRIX_H_

/// \file data_matrix.h
/// The paper's data matrix `S = [s1, ..., sn] ∈ R^{m×n}` plus the
/// series-identifier / sequence-pair vocabulary of Section 2.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "la/matrix.h"
#include "la/vector.h"
#include "ts/time_series.h"

namespace affinity::ts {

/// An unordered pair of distinct series identifiers with u < v — the paper's
/// *sequence pair* e = (u, v) ∈ P. Identifiers are 0-based.
struct SequencePair {
  SeriesId u = 0;
  SeriesId v = 0;

  SequencePair() = default;

  /// Normalizes so that u < v regardless of argument order.
  SequencePair(SeriesId a, SeriesId b) : u(a < b ? a : b), v(a < b ? b : a) {}

  bool operator==(const SequencePair& o) const { return u == o.u && v == o.v; }
  bool operator!=(const SequencePair& o) const { return !(*this == o); }
  bool operator<(const SequencePair& o) const {
    return u != o.u ? u < o.u : v < o.v;
  }

  /// A dense 64-bit key for hashing (u in the high word).
  std::uint64_t Key() const {
    return (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint64_t>(v);
  }
};

/// Hash functor so SequencePair can key unordered containers (the paper's
/// affHash / pivotHash maps).
struct SequencePairHash {
  std::size_t operator()(const SequencePair& e) const {
    // SplitMix64 finalizer over the packed key — cheap and well mixed.
    std::uint64_t z = e.Key() + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }
};

/// Number of sequence pairs for n series: n(n-1)/2.
inline std::size_t SequencePairCount(std::size_t n) { return n * (n - 1) / 2; }

/// Number of pairs (u', v') with u' < u in the lexicographic (u, v) order
/// over n series — the order every sweep walks: u·(2n − u − 1)/2.
inline std::size_t PairsBeforeRow(std::size_t u, std::size_t n) { return u * (2 * n - u - 1) / 2; }

/// Position of pair (u, v), u < v, in that lexicographic order — the slot
/// of a pair in every lexicographic pair table.
inline std::size_t LexPairIndex(std::size_t u, std::size_t v, std::size_t n) {
  return PairsBeforeRow(u, n) + (v - u - 1);
}

/// The inverse: the idx-th pair in that order over n ≥ 2 series — O(1)
/// plus an exact fix-up, so a parallel chunk can seek into the middle of
/// an O(n²) sweep.
SequencePair PairFromIndex(std::size_t idx, std::size_t n);

/// Advances (u, v) to the next pair in that order.
inline void NextPair(std::size_t n, std::size_t* u, std::size_t* v) {
  if (++*v >= n) {
    ++*u;
    *v = *u + 1;
  }
}

/// Enumerates the full sequence-pair set P for n series, ordered by (u, v).
std::vector<SequencePair> AllSequencePairs(std::size_t n);

/// The data matrix: n aligned time series of m samples each, stored
/// column-major with per-series names.
///
/// This is the in-memory form of the Fig. 2 `data_matrix` table; the
/// storage module persists and restores it.
class DataMatrix {
 public:
  DataMatrix() = default;

  /// Builds from a raw matrix; names default to "s0", "s1", ...
  explicit DataMatrix(la::Matrix values);

  /// Builds from a raw matrix with explicit per-column names
  /// (must match the column count; checked).
  DataMatrix(la::Matrix values, std::vector<std::string> names);

  /// Builds from a list of equally long time series.
  /// Returns InvalidArgument when lengths differ or the list is empty.
  static StatusOr<DataMatrix> FromSeries(const std::vector<TimeSeries>& series);

  /// Number of samples per series (m).
  std::size_t m() const { return values_.rows(); }

  /// Number of series (n).
  std::size_t n() const { return values_.cols(); }

  /// The underlying m×n matrix.
  const la::Matrix& matrix() const { return values_; }

  /// Mutable access to the underlying matrix — the incremental window
  /// maintenance path (DESIGN.md §8) slides columns in place instead of
  /// reallocating the window every refresh. Dimensions must not change.
  la::Matrix& mutable_matrix() { return values_; }

  /// The absolute stream row of row 0 — the block-grid anchor every
  /// canonical blocked sum over this matrix runs at (core/kernels,
  /// DESIGN.md §10). 0 for standalone matrices (the historic order); a
  /// sliding window carries its position so grid blocks keep their
  /// absolute cut points across slides and retained block partials stay
  /// bit-exact. Copies and serialization preserve it.
  std::size_t anchor_row() const { return anchor_row_; }

  /// Sets the block-grid anchor (windowed snapshots, deserialization).
  void set_anchor_row(std::size_t anchor) { anchor_row_ = anchor; }

  /// Advances the anchor by `rows` — paired with an in-place slide of the
  /// matrix by the incremental maintenance path.
  void advance_anchor(std::size_t rows) { anchor_row_ += rows; }

  /// Name of series `id`.
  const std::string& name(SeriesId id) const { return names_[id]; }

  /// All series names, index-aligned with columns.
  const std::vector<std::string>& names() const { return names_; }

  /// Contiguous storage of series `id` (length m()).
  const double* ColumnData(SeriesId id) const { return values_.ColData(id); }

  /// Copies series `id` into a Vector.
  la::Vector Column(SeriesId id) const { return values_.Col(id); }

  /// The m×2 *sequence pair matrix* Se = [s_u, s_v].
  la::Matrix SequencePairMatrix(const SequencePair& e) const;

  /// Looks up a series id by name; NotFound if absent.
  StatusOr<SeriesId> FindByName(const std::string& name) const;

  /// Returns a DataMatrix restricted to the first `count` series
  /// (used by scalability sweeps). `count` must be ≤ n (checked).
  DataMatrix Prefix(std::size_t count) const;

 private:
  la::Matrix values_;
  std::vector<std::string> names_;
  std::size_t anchor_row_ = 0;
};

}  // namespace affinity::ts

#endif  // AFFINITY_TS_DATA_MATRIX_H_
