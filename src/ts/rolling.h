#ifndef AFFINITY_TS_ROLLING_H_
#define AFFINITY_TS_ROLLING_H_

/// \file rolling.h
/// Sliding-window helpers for streaming ingestion.
///
/// The paper frames AFFINITY for "real-time and archival settings"; a
/// windowed deployment rebuilds or delta-updates the model over the
/// trailing window. This header holds the two pieces of that below core:
/// `RollingCrossSums`, the add/evict right-hand-side accumulator of the
/// incremental refit (DESIGN.md §8), and `TailWindow`, the snapshot a full
/// rebuild starts from (see the `sensor_monitor` example).
///
/// Subtract-on-evict is numerically adequate for the well-scaled inputs of
/// this library; the incremental path bounds its round-off by periodic
/// exact re-materialization (`RollingCrossSums::Reset`, tested against
/// exact recomputation).

#include <cstddef>

#include "common/status.h"
#include "common/thread_annotations.h"
// Header-only blocked-summation primitives (no link dependency on core).
#include "core/kernels.h"
#include "ts/data_matrix.h"

namespace affinity::ts {

/// Windowed add/evict accumulator of the right-hand-side sums
/// (Σ c1·t, Σ c2·t, Σ t) a normal-equation refit over [c1, c2, 1m] needs.
/// It keeps no ring of its own: the caller owns one shared ring of window
/// rows (the sliding data matrix) and supplies the evicted values — the
/// layout that lets the incremental maintenance path (DESIGN.md §8) keep
/// O(pairs) accumulators without O(pairs · window) memory.
struct RollingCrossSums {
  double c1t = 0.0;  ///< Σ c1ᵢ·tᵢ over the window
  double c2t = 0.0;  ///< Σ c2ᵢ·tᵢ
  double t = 0.0;    ///< Σ tᵢ

  /// Absorbs one aligned sample entering the window.
  AFFINITY_HOT void Add(double c1, double c2, double tv) {
    c1t += c1 * tv;
    c2t += c2 * tv;
    t += tv;
  }

  /// Removes one aligned sample leaving the window.
  AFFINITY_HOT void Evict(double c1, double c2, double tv) {
    c1t -= c1 * tv;
    c2t -= c2 * tv;
    t -= tv;
  }

  /// Overwrites with exact sums over the full window — the periodic
  /// re-materialization that bounds subtract-on-evict round-off. Runs the
  /// blocked cross kernel at the window's block-grid anchor so a Reset is
  /// bitwise equal to the SYMEX+ build path's right-hand-side
  /// accumulation over the same window (fit_kernels.h / DESIGN.md §10).
  void Reset(const double* c1, const double* c2, const double* tv, std::size_t m,
             std::size_t anchor = 0) {
    double sums[3];
    core::kernels::FusedCross3(c1, c2, tv, m, sums, anchor);
    c1t = sums[0];
    c2t = sums[1];
    t = sums[2];
  }

  /// Installs sums produced elsewhere (the retained block-partial slide of
  /// the incremental path, which is bitwise equal to Reset by
  /// construction).
  void Install(const double sums[3]) {
    c1t = sums[0];
    c2t = sums[1];
    t = sums[2];
  }
};

/// The last `window` rows of `data` as a new DataMatrix — the snapshot a
/// windowed deployment rebuilds the AFFINITY model from.
/// InvalidArgument when window is 0 or exceeds data.m().
StatusOr<DataMatrix> TailWindow(const DataMatrix& data, std::size_t window);

}  // namespace affinity::ts

#endif  // AFFINITY_TS_ROLLING_H_
