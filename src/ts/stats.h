#ifndef AFFINITY_TS_STATS_H_
#define AFFINITY_TS_STATS_H_

/// \file stats.h
/// Scalar and matrix-level statistical kernels.
///
/// These kernels *are* the WN ("naive, from scratch") baseline of the paper:
/// every call recomputes its result from the raw samples with no shared
/// state, exactly as the naive method is costed in Section 6.
///
/// Conventions (pinned in DESIGN.md §6):
///  * covariance / variance are population moments (divide by m);
///  * the dot product is the raw inner product Σ xᵢyᵢ;
///  * the mode quantizes to `kModeBins` equal-width bins over [min, max]
///    and returns the centre of the most populated bin (ties → lower bin);
///  * the median of an even-length series is the midpoint of the two
///    central order statistics.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "la/matrix.h"
#include "la/vector.h"
#include "ts/data_matrix.h"

namespace affinity::ts::stats {

/// Number of histogram bins used by the mode estimator.
inline constexpr int kModeBins = 256;

/// Sum of elements.
double Sum(const double* x, std::size_t m);

/// Arithmetic mean (0 for m == 0).
double Mean(const double* x, std::size_t m);

/// Median via partial selection; copies the input (the caller's data is
/// never reordered). 0 for m == 0.
double Median(const double* x, std::size_t m);

/// As Median, reusing `*scratch` for the working copy — for callers that
/// evaluate many columns per pass (the per-refresh recomputation of
/// DESIGN.md §8). The result is the central order statistic, so it is
/// identical to Median() bit for bit.
double MedianWithScratch(const double* x, std::size_t m, std::vector<double>* scratch);

/// Histogram mode over `bins` equal-width bins (see file docs).
double Mode(const double* x, std::size_t m, int bins = kModeBins);

/// As Mode, reusing `*hist` for the histogram; identical to Mode() bit for
/// bit (bin counts are order-independent).
double ModeWithScratch(const double* x, std::size_t m, int bins,
                       std::vector<std::uint32_t>* hist);

/// Mode of an ascending-sorted series — the shape the incremental refresh
/// wants, where a sorted view of every window column is already
/// maintained: the extremes are the end elements instead of a scan, and
/// the bins fill in the same one pass (`FillModeHistogram`) as
/// ModeWithScratch, so the result is bitwise identical to
/// Mode()/ModeWithScratch() over any permutation of the same samples.
double ModeSortedWithScratch(const double* sorted, std::size_t m, int bins,
                             std::vector<std::uint32_t>* hist);

/// The bin index of `x` in the mode estimator's equal-width binning over
/// [lo, hi) with `bins` bins — the exact per-element map Mode() applies
/// (top clamp included). Requires hi > lo.
inline int ModeBinOf(double x, double lo, double hi, int bins) {
  const double inv_width = static_cast<double>(bins) / (hi - lo);
  const auto b = static_cast<long>((x - lo) * inv_width);
  return b >= bins ? bins - 1 : static_cast<int>(b);
}

/// Counts x[0..m) into `bins` equal-width bins over [lo, hi] (hi > lo,
/// every x inside) by one pass through ModeBinOf: the histogram fill
/// Mode(), ModeWithScratch() and ModeSortedWithScratch() share. Counts
/// are integers, so they do not depend on the order of x.
void FillModeHistogram(const double* x, std::size_t m, double lo, double hi, int bins,
                       std::vector<std::uint32_t>* hist);

/// Finishes the mode from already-counted bin populations over [lo, hi)
/// (hi > lo): same argmax (ties → lower bin) and same centre arithmetic
/// as Mode(), so a histogram maintained by exact integer delta updates
/// yields the identical double. `counts.size()` is the bin count.
double ModeFromHistogram(double lo, double hi, const std::vector<std::uint32_t>& counts);

/// The classical naive mode estimator for continuous data: the sample with
/// the most neighbours within a half-window of h = (max−min)/bins — i.e.
/// the highest-local-density sample. O(m²); this is the WN baseline the
/// paper's mode experiments cost (its reported ~3500× mode speedups and
/// 10–100 s absolute naive-mode times are only consistent with a quadratic
/// kernel). The histogram Mode above approximates it to within ~one bin.
double NaiveModeEstimate(const double* x, std::size_t m, int bins = kModeBins);

/// Population variance (divides by m; 0 for m == 0).
double Variance(const double* x, std::size_t m);

/// Population covariance of two aligned series.
double Covariance(const double* x, const double* y, std::size_t m);

/// Raw dot product Σ xᵢ yᵢ, accumulated on the canonical block grid at
/// `anchor` (core/kernels) — pass the owning matrix's `anchor_row()` when
/// the columns come from a sliding window.
double DotProduct(const double* x, const double* y, std::size_t m, std::size_t anchor = 0);

/// Pearson correlation; 0 when either variance vanishes.
double Correlation(const double* x, const double* y, std::size_t m);

/// The correlation normalizer U = sqrt(Var(x) · Var(y)) of Eq. (8).
double CorrelationNormalizer(const double* x, const double* y, std::size_t m);

/// Convenience overloads on Vector.
double Mean(const la::Vector& x);
double Median(const la::Vector& x);
double Mode(const la::Vector& x);
double Variance(const la::Vector& x);
double Covariance(const la::Vector& x, const la::Vector& y);
double DotProduct(const la::Vector& x, const la::Vector& y);
double Correlation(const la::Vector& x, const la::Vector& y);

/// Column sums h1, h2 of a two-column matrix (Eq. (7)).
la::Vector ColumnSums(const la::Matrix& x);

/// 2×2 covariance matrix of a two-column matrix (Eq. (2)).
la::Matrix PairCovarianceMatrix(const la::Matrix& x);

/// 2×2 dot-product matrix XᵀX of a two-column matrix.
la::Matrix PairDotProductMatrix(const la::Matrix& x);

/// Full n×n covariance matrix Σ(S), computed from scratch (WN).
la::Matrix CovarianceMatrix(const DataMatrix& s);

/// Full n×n dot-product matrix Π(S), computed from scratch (WN).
la::Matrix DotProductMatrix(const DataMatrix& s);

/// Full n×n correlation matrix ρ(S), computed from scratch (WN).
la::Matrix CorrelationMatrix(const DataMatrix& s);

/// Per-series location measures, computed from scratch (WN).
la::Vector MeanVector(const DataMatrix& s);
la::Vector MedianVector(const DataMatrix& s);
la::Vector ModeVector(const DataMatrix& s);

}  // namespace affinity::ts::stats

#endif  // AFFINITY_TS_STATS_H_
