// affinity-lint: allow-file(fp-accumulate): scalar oracle routines — strictly
// sequential left-to-right sums the SIMD kernels are verified against.
#include "ts/stats.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
// Header-only blocked-summation primitives (DESIGN.md §10). Include-only:
// the kernels are inline, so no link dependency on core is introduced.
#include "core/kernels.h"

namespace affinity::ts::stats {

double Sum(const double* x, std::size_t m) {
  double acc = 0.0;
  for (std::size_t i = 0; i < m; ++i) acc += x[i];
  return acc;
}

double Mean(const double* x, std::size_t m) {
  return m == 0 ? 0.0 : Sum(x, m) / static_cast<double>(m);
}

double Median(const double* x, std::size_t m) {
  std::vector<double> buf;
  return MedianWithScratch(x, m, &buf);
}

double MedianWithScratch(const double* x, std::size_t m, std::vector<double>* scratch) {
  if (m == 0) return 0.0;
  scratch->assign(x, x + m);
  std::vector<double>& buf = *scratch;
  const std::size_t mid = m / 2;
  std::nth_element(buf.begin(), buf.begin() + static_cast<long>(mid), buf.end());
  const double upper = buf[mid];
  if (m % 2 == 1) return upper;
  // Even length: the lower central order statistic is the max of the left
  // partition produced by nth_element.
  const double lower = *std::max_element(buf.begin(), buf.begin() + static_cast<long>(mid));
  return 0.5 * (lower + upper);
}

double Mode(const double* x, std::size_t m, int bins) {
  std::vector<std::uint32_t> hist;
  return ModeWithScratch(x, m, bins, &hist);
}

double ModeWithScratch(const double* x, std::size_t m, int bins,
                       std::vector<std::uint32_t>* hist_scratch) {
  if (m == 0) return 0.0;
  AFFINITY_CHECK_GT(bins, 0);
  double lo = x[0], hi = x[0];
  for (std::size_t i = 1; i < m; ++i) {
    lo = std::min(lo, x[i]);
    hi = std::max(hi, x[i]);
  }
  if (hi <= lo) return lo;  // constant series
  FillModeHistogram(x, m, lo, hi, bins, hist_scratch);
  return ModeFromHistogram(lo, hi, *hist_scratch);
}

double ModeSortedWithScratch(const double* sorted, std::size_t m, int bins,
                             std::vector<std::uint32_t>* hist_scratch) {
  if (m == 0) return 0.0;
  AFFINITY_CHECK_GT(bins, 0);
  // Sorted input serves min/max as the end elements — the same values the
  // linear scan of ModeWithScratch finds.
  const double lo = sorted[0];
  const double hi = sorted[m - 1];
  if (hi <= lo) return lo;  // constant series
  FillModeHistogram(sorted, m, lo, hi, bins, hist_scratch);
  return ModeFromHistogram(lo, hi, *hist_scratch);
}

void FillModeHistogram(const double* x, std::size_t m, double lo, double hi, int bins,
                       std::vector<std::uint32_t>* hist) {
  hist->assign(static_cast<std::size_t>(bins), 0);
  std::uint32_t* counts = hist->data();
  for (std::size_t i = 0; i < m; ++i) ++counts[ModeBinOf(x[i], lo, hi, bins)];
}

double ModeFromHistogram(double lo, double hi, const std::vector<std::uint32_t>& counts) {
  AFFINITY_CHECK_GT(hi, lo);
  AFFINITY_CHECK_GT(counts.size(), 0u);
  const double width = (hi - lo) / static_cast<double>(counts.size());
  std::size_t best = 0;
  for (std::size_t b = 1; b < counts.size(); ++b) {
    if (counts[b] > counts[best]) best = b;  // ties keep the lower bin
  }
  return lo + (static_cast<double>(best) + 0.5) * width;
}

double NaiveModeEstimate(const double* x, std::size_t m, int bins) {
  if (m == 0) return 0.0;
  AFFINITY_CHECK_GT(bins, 0);
  double lo = x[0], hi = x[0];
  for (std::size_t i = 1; i < m; ++i) {
    lo = std::min(lo, x[i]);
    hi = std::max(hi, x[i]);
  }
  if (hi <= lo) return lo;
  const double half_window = 0.5 * (hi - lo) / static_cast<double>(bins);
  std::size_t best_count = 0;
  double best_value = x[0];
  for (std::size_t i = 0; i < m; ++i) {
    std::size_t count = 0;
    for (std::size_t j = 0; j < m; ++j) {
      if (std::fabs(x[i] - x[j]) <= half_window) ++count;
    }
    if (count > best_count || (count == best_count && x[i] < best_value)) {
      best_count = count;
      best_value = x[i];
    }
  }
  return best_value;
}

double Variance(const double* x, std::size_t m) {
  if (m == 0) return 0.0;
  const double mu = Mean(x, m);
  double acc = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double d = x[i] - mu;
    acc += d * d;
  }
  return acc / static_cast<double>(m);
}

double Covariance(const double* x, const double* y, std::size_t m) {
  if (m == 0) return 0.0;
  const double mx = Mean(x, m);
  const double my = Mean(y, m);
  double acc = 0.0;
  for (std::size_t i = 0; i < m; ++i) acc += (x[i] - mx) * (y[i] - my);
  return acc / static_cast<double>(m);
}

double DotProduct(const double* x, const double* y, std::size_t m, std::size_t anchor) {
  // Canonical blocked order, so Σxy here is bitwise equal to the fused
  // sweep kernels over the same columns at the same grid anchor.
  return core::kernels::BlockedDot(x, y, m, anchor);
}

double Correlation(const double* x, const double* y, std::size_t m) {
  const double u = CorrelationNormalizer(x, y, m);
  if (u == 0.0) return 0.0;
  return Covariance(x, y, m) / u;
}

double CorrelationNormalizer(const double* x, const double* y, std::size_t m) {
  return std::sqrt(Variance(x, m) * Variance(y, m));
}

double Mean(const la::Vector& x) { return Mean(x.data(), x.size()); }
double Median(const la::Vector& x) { return Median(x.data(), x.size()); }
double Mode(const la::Vector& x) { return Mode(x.data(), x.size()); }
double Variance(const la::Vector& x) { return Variance(x.data(), x.size()); }

double Covariance(const la::Vector& x, const la::Vector& y) {
  AFFINITY_CHECK_EQ(x.size(), y.size());
  return Covariance(x.data(), y.data(), x.size());
}

double DotProduct(const la::Vector& x, const la::Vector& y) {
  AFFINITY_CHECK_EQ(x.size(), y.size());
  return DotProduct(x.data(), y.data(), x.size());
}

double Correlation(const la::Vector& x, const la::Vector& y) {
  AFFINITY_CHECK_EQ(x.size(), y.size());
  return Correlation(x.data(), y.data(), x.size());
}

la::Vector ColumnSums(const la::Matrix& x) {
  la::Vector out(x.cols());
  for (std::size_t j = 0; j < x.cols(); ++j) out[j] = Sum(x.ColData(j), x.rows());
  return out;
}

la::Matrix PairCovarianceMatrix(const la::Matrix& x) {
  AFFINITY_CHECK_EQ(x.cols(), 2u);
  la::Matrix out(2, 2);
  const double* c0 = x.ColData(0);
  const double* c1 = x.ColData(1);
  out(0, 0) = Variance(c0, x.rows());
  out(1, 1) = Variance(c1, x.rows());
  out(0, 1) = out(1, 0) = Covariance(c0, c1, x.rows());
  return out;
}

la::Matrix PairDotProductMatrix(const la::Matrix& x) {
  AFFINITY_CHECK_EQ(x.cols(), 2u);
  la::Matrix out(2, 2);
  const double* c0 = x.ColData(0);
  const double* c1 = x.ColData(1);
  out(0, 0) = DotProduct(c0, c0, x.rows());
  out(1, 1) = DotProduct(c1, c1, x.rows());
  out(0, 1) = out(1, 0) = DotProduct(c0, c1, x.rows());
  return out;
}

la::Matrix CovarianceMatrix(const DataMatrix& s) {
  const std::size_t n = s.n();
  la::Matrix out(n, n);
  // "From scratch" per pair: means are intentionally *not* shared across
  // pairs — this is the WN cost model of Section 6.
  for (std::size_t u = 0; u < n; ++u) {
    out(u, u) = Variance(s.ColumnData(static_cast<SeriesId>(u)), s.m());
    for (std::size_t v = u + 1; v < n; ++v) {
      const double c = Covariance(s.ColumnData(static_cast<SeriesId>(u)),
                                  s.ColumnData(static_cast<SeriesId>(v)), s.m());
      out(u, v) = c;
      out(v, u) = c;
    }
  }
  return out;
}

la::Matrix DotProductMatrix(const DataMatrix& s) {
  const std::size_t n = s.n();
  la::Matrix out(n, n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u; v < n; ++v) {
      const double d =
          core::kernels::BlockedDot(s.ColumnData(static_cast<SeriesId>(u)),
                                    s.ColumnData(static_cast<SeriesId>(v)), s.m(), s.anchor_row());
      out(u, v) = d;
      out(v, u) = d;
    }
  }
  return out;
}

la::Matrix CorrelationMatrix(const DataMatrix& s) {
  const std::size_t n = s.n();
  la::Matrix out(n, n);
  for (std::size_t u = 0; u < n; ++u) {
    out(u, u) = 1.0;
    for (std::size_t v = u + 1; v < n; ++v) {
      const double r = Correlation(s.ColumnData(static_cast<SeriesId>(u)),
                                   s.ColumnData(static_cast<SeriesId>(v)), s.m());
      out(u, v) = r;
      out(v, u) = r;
    }
  }
  return out;
}

la::Vector MeanVector(const DataMatrix& s) {
  la::Vector out(s.n());
  for (std::size_t j = 0; j < s.n(); ++j) out[j] = Mean(s.ColumnData(static_cast<SeriesId>(j)), s.m());
  return out;
}

la::Vector MedianVector(const DataMatrix& s) {
  la::Vector out(s.n());
  for (std::size_t j = 0; j < s.n(); ++j) {
    out[j] = Median(s.ColumnData(static_cast<SeriesId>(j)), s.m());
  }
  return out;
}

la::Vector ModeVector(const DataMatrix& s) {
  la::Vector out(s.n());
  for (std::size_t j = 0; j < s.n(); ++j) out[j] = Mode(s.ColumnData(static_cast<SeriesId>(j)), s.m());
  return out;
}

}  // namespace affinity::ts::stats
