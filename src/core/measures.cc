#include "core/measures.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "ts/stats.h"

namespace affinity::core {

MeasureClass ClassOf(Measure m) {
  switch (m) {
    case Measure::kMean:
    case Measure::kMedian:
    case Measure::kMode:
      return MeasureClass::kLocation;
    case Measure::kCovariance:
    case Measure::kDotProduct:
      return MeasureClass::kDispersion;
    case Measure::kCorrelation:
    case Measure::kCosine:
    case Measure::kJaccard:
    case Measure::kDice:
      return MeasureClass::kDerived;
  }
  return MeasureClass::kLocation;  // unreachable
}

Measure BaseMeasure(Measure m) {
  switch (m) {
    case Measure::kCorrelation:
      return Measure::kCovariance;
    case Measure::kCosine:
    case Measure::kJaccard:
    case Measure::kDice:
      return Measure::kDotProduct;
    default:
      return m;
  }
}

bool HasSeparableNormalizer(Measure m) {
  return m == Measure::kCorrelation || m == Measure::kCosine;
}

std::string_view MeasureName(Measure m) {
  switch (m) {
    case Measure::kMean:
      return "mean";
    case Measure::kMedian:
      return "median";
    case Measure::kMode:
      return "mode";
    case Measure::kCovariance:
      return "covariance";
    case Measure::kDotProduct:
      return "dot-product";
    case Measure::kCorrelation:
      return "correlation";
    case Measure::kCosine:
      return "cosine";
    case Measure::kJaccard:
      return "jaccard";
    case Measure::kDice:
      return "dice";
  }
  return "unknown";
}

std::vector<Measure> AllMeasures() {
  std::vector<Measure> out;
  out.reserve(kNumMeasures);
  for (int i = 0; i < kNumMeasures; ++i) out.push_back(static_cast<Measure>(i));
  return out;
}

std::vector<Measure> LocationMeasures() {
  return {Measure::kMean, Measure::kMedian, Measure::kMode};
}

std::vector<Measure> DispersionMeasures() {
  return {Measure::kCovariance, Measure::kDotProduct};
}

std::vector<Measure> DerivedMeasures() {
  return {Measure::kCorrelation, Measure::kCosine, Measure::kJaccard, Measure::kDice};
}

StatusOr<double> NaiveLocationMeasure(Measure m, const double* x, std::size_t len) {
  switch (m) {
    case Measure::kMean:
      return ts::stats::Mean(x, len);
    case Measure::kMedian:
      return ts::stats::Median(x, len);
    case Measure::kMode:
      // The from-scratch baseline uses the classical O(m²) local-density
      // estimator; the histogram mode is its fast approximation used on
      // pivots (see stats.h).
      return ts::stats::NaiveModeEstimate(x, len);
    default:
      return Status::InvalidArgument(std::string(MeasureName(m)) + " is not an L-measure");
  }
}

PairMoments ComputePairMoments(const double* x, const double* y, std::size_t len,
                               std::size_t anchor) {
  double sums[5];
  kernels::FusedPairMoments(x, y, len, sums, anchor);
  return PairMoments{len, sums[0], sums[1], sums[2], sums[3], sums[4]};
}

StatusOr<double> PairMeasureFromMoments(Measure m, const PairMoments& pm) {
  const double inv = pm.m == 0 ? 0.0 : 1.0 / static_cast<double>(pm.m);
  switch (m) {
    case Measure::kCovariance:
      return pm.dot_xy * inv - (pm.sum_x * inv) * (pm.sum_y * inv);
    case Measure::kDotProduct:
      return pm.dot_xy;
    case Measure::kCorrelation: {
      const double mean_x = pm.sum_x * inv;
      const double mean_y = pm.sum_y * inv;
      const double var_x = std::max(0.0, pm.sumsq_x * inv - mean_x * mean_x);
      const double var_y = std::max(0.0, pm.sumsq_y * inv - mean_y * mean_y);
      const double u = std::sqrt(var_x * var_y);
      return u == 0.0 ? 0.0 : (pm.dot_xy * inv - mean_x * mean_y) / u;
    }
    case Measure::kCosine: {
      const double u = std::sqrt(pm.sumsq_x * pm.sumsq_y);
      return u == 0.0 ? 0.0 : pm.dot_xy / u;
    }
    case Measure::kJaccard: {
      const double denom = pm.sumsq_x + pm.sumsq_y - pm.dot_xy;
      return denom == 0.0 ? 0.0 : pm.dot_xy / denom;
    }
    case Measure::kDice: {
      const double denom = pm.sumsq_x + pm.sumsq_y;
      return denom == 0.0 ? 0.0 : 2.0 * pm.dot_xy / denom;
    }
    default:
      return Status::InvalidArgument(std::string(MeasureName(m)) + " is not a pair measure");
  }
}

StatusOr<double> NaivePairMeasure(Measure m, const double* x, const double* y, std::size_t len,
                                  std::size_t anchor) {
  if (IsLocation(m)) {
    return Status::InvalidArgument(std::string(MeasureName(m)) + " is not a pair measure");
  }
  return PairMeasureFromMoments(m, ComputePairMoments(x, y, len, anchor));
}

StatusOr<double> NaivePairMeasureScalar(Measure m, const double* x, const double* y,
                                        std::size_t len) {
  switch (m) {
    case Measure::kCovariance:
      return ts::stats::Covariance(x, y, len);
    case Measure::kDotProduct:
      return ts::stats::DotProduct(x, y, len);
    case Measure::kCorrelation:
      return ts::stats::Correlation(x, y, len);
    case Measure::kCosine:
    case Measure::kJaccard:
    case Measure::kDice: {
      // One fused sequential loop — the seed version scanned both columns
      // three times for the same three sums.
      double nx = 0, ny = 0, d = 0;
      for (std::size_t i = 0; i < len; ++i) {
        // affinity-lint: allow(fp-accumulate): naive-oracle measure — the sequential
        // reference the kernel-backed paths are asserted bit-identical against
        nx += x[i] * x[i];
        ny += y[i] * y[i];
        d += x[i] * y[i];
      }
      if (m == Measure::kCosine) {
        const double u = std::sqrt(nx * ny);
        return u == 0.0 ? 0.0 : d / u;
      }
      if (m == Measure::kJaccard) {
        const double denom = nx + ny - d;
        return denom == 0.0 ? 0.0 : d / denom;
      }
      const double denom = nx + ny;
      return denom == 0.0 ? 0.0 : 2.0 * d / denom;
    }
    default:
      return Status::InvalidArgument(std::string(MeasureName(m)) + " is not a pair measure");
  }
}

StatusOr<double> NaiveNormalizer(Measure m, const double* x, const double* y, std::size_t len,
                                 std::size_t anchor) {
  switch (m) {
    case Measure::kCorrelation:
      return ts::stats::CorrelationNormalizer(x, y, len);
    case Measure::kCosine:
      return std::sqrt(ts::stats::DotProduct(x, x, len, anchor) *
                       ts::stats::DotProduct(y, y, len, anchor));
    default:
      return Status::InvalidArgument(std::string(MeasureName(m)) +
                                     " has no separable normalizer");
  }
}

}  // namespace affinity::core
