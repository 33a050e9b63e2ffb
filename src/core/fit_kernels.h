#ifndef AFFINITY_CORE_FIT_KERNELS_H_
#define AFFINITY_CORE_FIT_KERNELS_H_

/// \file fit_kernels.h
/// The scalar kernels of the affine fit (normal equations over the design
/// matrix [c1, c2, 1m]), shared by the SYMEX build path (symex.cc) and the
/// incremental maintenance path (incremental.cc).
///
/// Sharing one implementation is not cosmetic: the incremental path's
/// equivalence contract (DESIGN.md §8) promises that an exact refit
/// reproduces a from-scratch fit *bit for bit*, which requires both paths
/// to run the same accumulation order and the same singularity policy.
/// All sums run in the canonical blocked order of core/kernels, so they
/// also match the hoisted column marginals and per-series cross terms of
/// RecomputeDerived and a maintained co-moment's exact refit over the
/// same columns (DESIGN.md §10).

#include <cmath>
#include <cstddef>

#include "core/affine.h"
#include "core/kernels.h"

namespace affinity::core::fit {

/// Packed symmetric 3×3 Gram of the design matrix [c1, c2, 1m]:
/// order g11, g12, g13, g22, g23, g33.
struct Gram3 {
  double g[6];
};

/// Row-major 3×3 matrix (the cached inverse normal-equation factor).
struct Mat3 {
  double v[9];
};

/// Gram of [c1, c2, 1m] in one fused pass (the per-pivot cost). Each
/// accumulator is an independent blocked chain, so the entries are
/// bit-identical to the matching PairMatrixMeasures sums over the same
/// columns (dot11/dot12/dot22/h1/h2) and to the hoisted column marginals
/// RecomputeDerived assembles them from.
inline Gram3 ComputeGram(const double* c1, const double* c2, std::size_t m,
                         std::size_t anchor = 0) {
  double g[5];  // s11, s12, s22, h1, h2
  kernels::FusedGram5(c1, c2, m, g, anchor);
  return Gram3{{g[0], g[1], g[3], g[2], g[4], static_cast<double>(m)}};
}

/// Assembles the Gram from pre-computed pivot measures — the same six sums
/// ComputeGram produces, so the two construction routes agree bitwise.
inline Gram3 GramFromMeasures(const PairMatrixMeasures& pm) {
  return Gram3{{pm.dot11, pm.dot12, pm.h1, pm.dot22, pm.h2, static_cast<double>(pm.m)}};
}

/// Inverts the packed symmetric Gram; returns false when (numerically)
/// singular — i.e. the pivot columns are collinear or constant.
inline bool InvertGram(const Gram3& gm, Mat3* out) {
  const double a = gm.g[0], b = gm.g[1], c = gm.g[2];
  const double d = gm.g[3], e = gm.g[4], f = gm.g[5];
  // Full symmetric matrix [[a,b,c],[b,d,e],[c,e,f]].
  const double co00 = d * f - e * e;
  const double co01 = -(b * f - c * e);
  const double co02 = b * e - c * d;
  const double det = a * co00 + b * co01 + c * co02;
  // Scale-aware singularity test.
  const double scale = std::fabs(a) + std::fabs(d) + std::fabs(f) + 1e-30;
  if (std::fabs(det) < 1e-12 * scale * scale * scale) return false;
  const double inv = 1.0 / det;
  const double co11 = a * f - c * c;
  const double co12 = -(a * e - b * c);
  const double co22 = a * d - b * b;
  out->v[0] = co00 * inv;
  out->v[1] = co01 * inv;
  out->v[2] = co02 * inv;
  out->v[3] = co01 * inv;
  out->v[4] = co11 * inv;
  out->v[5] = co12 * inv;
  out->v[6] = co02 * inv;
  out->v[7] = co12 * inv;
  out->v[8] = co22 * inv;
  return true;
}

/// Right-hand side of the free-column fit: ([c1,c2,1]ᵀ t). Each entry is
/// its own blocked chain, so the incremental path assembles it bit for bit
/// from BlockedDot(s_u, s_v) and the target series' Σ r·s and Σ s
/// (DESIGN.md §8).
inline void ComputeRhs(const double* c1, const double* c2, const double* t, std::size_t m,
                       double rhs[3], std::size_t anchor = 0) {
  kernels::FusedCross3(c1, c2, t, m, rhs, anchor);
}

/// x = ginv · rhs.
inline void Solve3(const Mat3& ginv, const double rhs[3], double x[3]) {
  x[0] = ginv.v[0] * rhs[0] + ginv.v[1] * rhs[1] + ginv.v[2] * rhs[2];
  x[1] = ginv.v[3] * rhs[0] + ginv.v[4] * rhs[1] + ginv.v[5] * rhs[2];
  x[2] = ginv.v[6] * rhs[0] + ginv.v[7] * rhs[1] + ginv.v[8] * rhs[2];
}

/// Arithmetic tail of the rank-deficient fallback, taking the four
/// pre-accumulated sums (Σc1², Σc1, Σc1·t, Σt). Split out so the
/// incremental path can feed it from maintained accumulators in O(1)
/// instead of re-reading the window.
inline void SolveRankDeficient(double s11, double h1, double r0, double r2, std::size_t m,
                               double x[3]) {
  const double md = static_cast<double>(m);
  const double det = s11 * md - h1 * h1;
  if (std::fabs(det) < 1e-12 * (std::fabs(s11) + 1.0) * md) {
    x[0] = 0.0;
    x[1] = 0.0;
    x[2] = m == 0 ? 0.0 : r2 / md;
    return;
  }
  x[0] = (r0 * md - h1 * r2) / det;
  x[1] = 0.0;
  x[2] = (s11 * r2 - h1 * r0) / det;
}

/// Degenerate fallback when the Gram is singular (pivot columns collinear):
/// fit t ≈ x0·c1 + x2·1 only. Sums run as the same blocked chains the
/// incremental path feeds SolveRankDeficient from (pivot measures, the
/// co-moment and the target's Σ s), keeping the two routes bit-identical.
inline void FitRankDeficient(const double* c1, const double* t, std::size_t m, double x[3],
                             std::size_t anchor = 0) {
  const kernels::Marginals mc = kernels::ColumnMarginals(c1, m, anchor);
  // Σc1·t / Σt as the same chains ComputeRhs runs (r0 = chain of
  // BlockedDot(c1, t), r2 = BlockedSum(t)).
  const double r0 = kernels::BlockedDot(c1, t, m, anchor);
  const double r2 = kernels::BlockedSum(t, m, anchor);
  SolveRankDeficient(mc.sumsq, mc.sum, r0, r2, m, x);
}

/// Assembles the transform from the free-column solution; the common
/// column's coefficients are exact by construction (see symex.h docs).
inline AffineTransform MakeTransform(bool series_first, const double x[3]) {
  AffineTransform t;
  if (series_first) {
    t.a11 = 1.0;
    t.a21 = 0.0;
    t.b1 = 0.0;
    t.a12 = x[0];
    t.a22 = x[1];
    t.b2 = x[2];
  } else {
    t.a12 = 0.0;
    t.a22 = 1.0;
    t.b2 = 0.0;
    t.a11 = x[0];
    t.a21 = x[1];
    t.b1 = x[2];
  }
  return t;
}

}  // namespace affinity::core::fit

#endif  // AFFINITY_CORE_FIT_KERNELS_H_
