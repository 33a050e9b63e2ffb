#ifndef AFFINITY_CORE_MEASURES_H_
#define AFFINITY_CORE_MEASURES_H_

/// \file measures.h
/// The statistical-measure taxonomy of Section 2.1:
///
///  * **L-measures** (location, per series): mean, median, mode;
///  * **T-measures** (dispersion, per pair): covariance, dot product;
///  * **D-measures** (derived, per pair): a T-measure divided by a
///    normalizer — correlation (covariance / √(σ²_u σ²_v)), cosine
///    (dot / √(‖u‖²‖v‖²)), plus the dot-product-derived Jaccard and Dice
///    coefficients the paper lists as further supported measures.
///
/// This header also provides the *naive* (from scratch) evaluation of every
/// measure, which is the WN baseline.

#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/kernels.h"
#include "ts/data_matrix.h"

namespace affinity::core {

/// All statistical measures supported by the framework.
enum class Measure : int {
  // L-measures.
  kMean = 0,
  kMedian = 1,
  kMode = 2,
  // T-measures.
  kCovariance = 3,
  kDotProduct = 4,
  // D-measures.
  kCorrelation = 5,
  kCosine = 6,
  kJaccard = 7,
  kDice = 8,
};

/// Number of distinct measures (for iteration in tests/benches).
inline constexpr int kNumMeasures = 9;

/// The three measure classes of Section 2.1.
enum class MeasureClass { kLocation, kDispersion, kDerived };

/// Class of a measure (L / T / D).
MeasureClass ClassOf(Measure m);

/// Convenience predicates.
inline bool IsLocation(Measure m) { return ClassOf(m) == MeasureClass::kLocation; }
inline bool IsDispersion(Measure m) { return ClassOf(m) == MeasureClass::kDispersion; }
inline bool IsDerived(Measure m) { return ClassOf(m) == MeasureClass::kDerived; }

/// The T-measure a D-measure is derived from (correlation → covariance;
/// cosine/Jaccard/Dice → dot product). Identity for L/T measures.
Measure BaseMeasure(Measure m);

/// True when the D-measure has the separable form T/U with U > 0 a
/// per-pair product normalizer (correlation, cosine) — the form the SCAPE
/// D-pruning of §5.3 requires. Jaccard and Dice are rational in T and are
/// served by compute-then-filter instead.
bool HasSeparableNormalizer(Measure m);

/// Short lowercase name ("mean", "covariance", ...).
std::string_view MeasureName(Measure m);

/// All measures, in enum order.
std::vector<Measure> AllMeasures();

/// All L-measures / T-measures / D-measures.
std::vector<Measure> LocationMeasures();
std::vector<Measure> DispersionMeasures();
std::vector<Measure> DerivedMeasures();

// ---------------------------------------------------------------------------
// Naive (WN) evaluation.
// ---------------------------------------------------------------------------

/// L-measure of one series, from scratch. InvalidArgument for non-L measures.
StatusOr<double> NaiveLocationMeasure(Measure m, const double* x, std::size_t len);

/// The full co-moment set of an aligned pair — everything any T/D pair
/// measure needs, so a measure is computable from precomputed moments
/// without touching the raw columns (DESIGN.md §10). Populated either by
/// one fused blocked pass (`ComputePairMoments`) or assembled from hoisted
/// per-column marginals plus one cross dot (`PairMomentsFromMarginals`);
/// the two routes agree bitwise (kernel chain equality).
struct PairMoments {
  std::size_t m = 0;
  double sum_x = 0.0;
  double sumsq_x = 0.0;
  double sum_y = 0.0;
  double sumsq_y = 0.0;
  double dot_xy = 0.0;
};

/// One fused blocked pass over the pair (kernels::FusedPairMoments) at the
/// columns' block-grid anchor (the owning matrix's `anchor_row()`).
PairMoments ComputePairMoments(const double* x, const double* y, std::size_t len,
                               std::size_t anchor = 0);

/// Assembles the co-moments from hoisted column marginals and the cross
/// dot Σxy — the per-pair O(1) path of a marginal-hoisted sweep.
inline PairMoments PairMomentsFromMarginals(const kernels::Marginals& mx,
                                            const kernels::Marginals& my, double dot_xy,
                                            std::size_t len) {
  return PairMoments{len, mx.sum, mx.sumsq, my.sum, my.sumsq, dot_xy};
}

/// Any T/D pair measure from co-moments alone (population covariance
/// Σxy/m − μxμy, variances clamped at 0, degenerate normalizers → 0 per
/// DESIGN.md §6). InvalidArgument for L-measures.
StatusOr<double> PairMeasureFromMoments(Measure m, const PairMoments& pm);

/// T- or D-measure of a pair of series, from scratch: one fused blocked
/// pass (`ComputePairMoments`) + `PairMeasureFromMoments`. Bitwise equal
/// to every marginal-hoisted sweep and to the shard router's cross-pair
/// evaluation over the same columns.
StatusOr<double> NaivePairMeasure(Measure m, const double* x, const double* y, std::size_t len,
                                  std::size_t anchor = 0);

/// The seed's sequential multi-scan evaluation (centered covariance, one
/// full scan per dot product) — kept as the numeric test oracle the
/// blocked kernels are verified against (tests/kernels_test.cc;
/// tolerance documented in DESIGN.md §10). Not used on any query path.
StatusOr<double> NaivePairMeasureScalar(Measure m, const double* x, const double* y,
                                        std::size_t len);

/// The normalizer U of a separable D-measure (Eq. 8), from scratch.
/// InvalidArgument unless HasSeparableNormalizer(m).
StatusOr<double> NaiveNormalizer(Measure m, const double* x, const double* y, std::size_t len,
                                 std::size_t anchor = 0);

}  // namespace affinity::core

#endif  // AFFINITY_CORE_MEASURES_H_
