#include "core/symex.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/stopwatch.h"
#include "core/fit_kernels.h"
#include "ts/stats.h"

namespace affinity::core {

namespace {

using fit::ComputeGram;
using fit::ComputeRhs;
using fit::FitRankDeficient;
using fit::Gram3;
using fit::InvertGram;
using fit::MakeTransform;
using fit::Mat3;
using fit::Solve3;

/// The marching/fitting engine shared by SYMEX and SYMEX+. It writes into
/// the model's hash maps via explicit references handed over by RunSymex.
///
/// Execution is split in two: `March()` walks the two fronts sequentially
/// (the marching order *is* the pivot-assignment policy, so it cannot be
/// reordered) while only recording work items; `Fit()` then performs the
/// least-squares fits as a deterministic chunked parallel loop — each
/// item writes its own pre-inserted hash slot, so no synchronization is
/// needed and the fitted model is identical at any thread count.
class SymexRunner {
 public:
  using AffHash = std::unordered_map<std::uint64_t, AffineRecord>;
  using PivotHash = std::unordered_map<std::uint64_t, PivotHashEntry>;

  SymexRunner(const ts::DataMatrix& data, const AfclstResult& clustering,
              const SymexOptions& options, AffHash* aff_hash, PivotHash* pivot_hash,
              SymexStats* stats)
      : data_(data),
        clustering_(clustering),
        options_(options),
        aff_hash_(aff_hash),
        pivot_hash_(pivot_hash),
        stats_(stats),
        n_(data.n()),
        m_(data.m()),
        anchor_(data.anchor_row()),
        total_pairs_(ts::SequencePairCount(data.n())) {}

  void March() {
    if (n_ < 2) return;
    // Two fronts (Algorithm 2): ee from the corner inward, ew from the
    // middle outward. 0-based: ee = (0, n-1); ew = (mid, mid+1).
    const long n = static_cast<long>(n_);
    const long mid = (n - 2) / 2;
    long ee_u = 0, ee_v = n - 1;
    long ew_u = mid, ew_v = mid + 1;
    int flip = 0;
    while (!Done()) {
      const bool ee_alive = ee_u <= n - 2 || ee_v >= 1;
      const bool ew_alive = ew_u >= 0 || ew_v <= n - 1;
      if (!ee_alive && !ew_alive) break;
      if (flip == 0) {
        if (ee_alive) {
          CreatePivots(ee_u, ee_v);
          ++ee_u;
          --ee_v;
        }
        flip = 1;
      } else {
        if (ew_alive) {
          CreatePivots(ew_u, ew_v);
          --ew_u;
          ++ew_v;
        }
        flip = 0;
      }
    }
  }

  /// Fits every relationship recorded by March(). SYMEX+ first computes
  /// the per-pivot inverse normal-equation factors (parallel over pivots),
  /// then solves the per-pair right-hand sides (parallel over pairs);
  /// plain SYMEX re-derives the pseudo-inverse per pair, with per-chunk
  /// scratch.
  void Fit(const ExecContext& exec) {
    if (options_.cache_pseudo_inverse) {
      ParallelChunks(exec, factor_order_.size(),
                     [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) {
                       for (std::size_t i = lo; i < hi; ++i) {
                         const FactorRef& ref = factor_order_[i];
                         const Gram3 gram = ComputeGram(ref.c1, ref.c2, m_, anchor_);
                         ref.entry->ok = InvertGram(gram, &ref.entry->ginv);
                       }
                     });
      stats_->cache_misses += factor_order_.size();
      stats_->cache_hits += work_.size() - factor_order_.size();
      ParallelChunks(exec, work_.size(),
                     [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) {
                       for (std::size_t i = lo; i < hi; ++i) FitCached(work_[i]);
                     });
      return;
    }
    ParallelChunks(exec, work_.size(), [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) {
      std::vector<double> scratch(3 * m_);
      for (std::size_t i = lo; i < hi; ++i) FitUncached(work_[i], scratch.data());
    });
  }

 private:
  /// One deferred fit: the pre-inserted record plus its sequence pair.
  struct WorkItem {
    AffineRecord* rec;
    ts::SeriesId u;
    ts::SeriesId v;
  };

  bool Done() const {
    return aff_hash_->size() >= total_pairs_ || aff_hash_->size() >= options_.max_relationships;
  }

  /// Algorithm 2's CreatePivots: a row scan at uz (pivots (uz, ω(v))) and a
  /// column scan at vz (pivots (ω(u), vz)).
  void CreatePivots(long uz, long vz) {
    const long n = static_cast<long>(n_);
    if (uz >= 0 && uz <= n - 2) {
      for (long v = uz + 1; v < n; ++v) {
        if (Done()) return;
        SolveInsert(static_cast<ts::SeriesId>(uz), static_cast<ts::SeriesId>(v),
                    /*series_first=*/true);
      }
    }
    if (vz >= 1 && vz <= n - 1) {
      for (long u = 0; u < vz; ++u) {
        if (Done()) return;
        SolveInsert(static_cast<ts::SeriesId>(u), static_cast<ts::SeriesId>(vz),
                    /*series_first=*/false);
      }
    }
  }

  /// Algorithm 2's SolveInsert: skip if already related, otherwise record
  /// the relationship, its pivot, and a deferred fit work item.
  void SolveInsert(ts::SeriesId u, ts::SeriesId v, bool series_first) {
    const ts::SequencePair e(u, v);
    auto [it, inserted] = aff_hash_->try_emplace(e.Key());
    if (!inserted) return;

    PivotPair pivot;
    pivot.series_first = series_first;
    if (series_first) {
      pivot.series = u;
      pivot.cluster = static_cast<std::uint32_t>(clustering_.assignment[v]);
    } else {
      pivot.series = v;
      pivot.cluster = static_cast<std::uint32_t>(clustering_.assignment[u]);
    }

    AffineRecord& rec = it->second;
    rec.pivot = pivot;
    pivot_hash_->try_emplace(pivot.Key(), PivotHashEntry{pivot, {}});
    if (options_.cache_pseudo_inverse) {
      // Create the factor slot now (first-seen pivot order); computed in
      // parallel by Fit(). Slot addresses are stable under rehash.
      auto [fit, factor_inserted] = factor_cache_.try_emplace(pivot.Key());
      if (factor_inserted) {
        const double* c1;
        const double* c2;
        const double* t_unused;
        Columns(pivot, u, v, &c1, &c2, &t_unused);
        factor_order_.push_back(FactorRef{&fit->second, c1, c2});
      }
    }
    work_.push_back(WorkItem{&rec, u, v});
  }

  /// The design columns of a fit: pivot matrix columns (c1, c2) and the
  /// free target column t, resolved from the pivot and the pair.
  void Columns(const PivotPair& pivot, ts::SeriesId u, ts::SeriesId v, const double** c1,
               const double** c2, const double** t) const {
    const double* center = clustering_.centers.ColData(pivot.cluster);
    if (pivot.series_first) {
      *c1 = data_.ColumnData(u);
      *c2 = center;
      *t = data_.ColumnData(v);
    } else {
      *c1 = center;
      *c2 = data_.ColumnData(v);
      *t = data_.ColumnData(u);
    }
  }

  /// SYMEX+ path: the inverse normal-equation factor was computed once per
  /// pivot; only the right-hand side is pair-specific.
  void FitCached(const WorkItem& item) {
    const PivotPair& pivot = item.rec->pivot;
    const double* c1;
    const double* c2;
    const double* t;
    Columns(pivot, item.u, item.v, &c1, &c2, &t);
    const auto it = factor_cache_.find(pivot.Key());
    double x[3];
    if (!it->second.ok) {
      FitRankDeficient(pivot.series_first ? c1 : c2, t, m_, x, anchor_);
      if (!pivot.series_first) std::swap(x[0], x[1]);
    } else {
      double rhs[3];
      ComputeRhs(c1, c2, t, m_, rhs, anchor_);
      Solve3(it->second.ginv, rhs, x);
    }
    item.rec->transform = MakeTransform(pivot.series_first, x);
  }

  /// Plain SYMEX path (Algorithm 2 verbatim): re-derive the pseudo-inverse
  /// of [O_p, 1m] for every sequence pair, materialize it (into the
  /// caller's 3×m scratch), then apply it.
  void FitUncached(const WorkItem& item, double* scratch) {
    const PivotPair& pivot = item.rec->pivot;
    const double* c1;
    const double* c2;
    const double* t;
    Columns(pivot, item.u, item.v, &c1, &c2, &t);
    double x[3];
    const Gram3 gram = ComputeGram(c1, c2, m_, anchor_);
    Mat3 ginv;
    if (!InvertGram(gram, &ginv)) {
      // Same fallback as the cached path: fit against the common *series*
      // column so both variants produce identical relationships.
      FitRankDeficient(pivot.series_first ? c1 : c2, t, m_, x, anchor_);
      if (!pivot.series_first) std::swap(x[0], x[1]);
      item.rec->transform = MakeTransform(pivot.series_first, x);
      return;
    }
    double* p0 = scratch;
    double* p1 = scratch + m_;
    double* p2 = scratch + 2 * m_;
    for (std::size_t i = 0; i < m_; ++i) {
      p0[i] = ginv.v[0] * c1[i] + ginv.v[1] * c2[i] + ginv.v[2];
      p1[i] = ginv.v[3] * c1[i] + ginv.v[4] * c2[i] + ginv.v[5];
      p2[i] = ginv.v[6] * c1[i] + ginv.v[7] * c2[i] + ginv.v[8];
    }
    double x0 = 0, x1 = 0, x2 = 0;
    for (std::size_t i = 0; i < m_; ++i) {
      // affinity-lint: allow(fp-accumulate): pseudo-inverse projection — sequential
      // reference path; the bulk fits use the same order via core/kernels
      x0 += p0[i] * t[i];
      x1 += p1[i] * t[i];
      x2 += p2[i] * t[i];
    }
    x[0] = x0;
    x[1] = x1;
    x[2] = x2;
    item.rec->transform = MakeTransform(pivot.series_first, x);
  }

  struct FactorEntry {
    Mat3 ginv;
    bool ok = false;
  };

  /// A factor to compute: the cache slot plus the pivot's design columns.
  struct FactorRef {
    FactorEntry* entry;
    const double* c1;
    const double* c2;
  };

  const ts::DataMatrix& data_;
  const AfclstResult& clustering_;
  const SymexOptions& options_;
  AffHash* aff_hash_;
  PivotHash* pivot_hash_;
  SymexStats* stats_;
  std::size_t n_;
  std::size_t m_;
  std::size_t anchor_;  ///< block-grid anchor of the window (DESIGN.md §10)
  std::size_t total_pairs_;
  std::unordered_map<std::uint64_t, FactorEntry> factor_cache_;
  std::vector<FactorRef> factor_order_;  ///< first-seen pivot order
  std::vector<WorkItem> work_;           ///< marching order
};

int LocationRow(Measure measure) {
  switch (measure) {
    case Measure::kMean:
      return 0;
    case Measure::kMedian:
      return 1;
    case Measure::kMode:
      return 2;
    default:
      return -1;
  }
}

}  // namespace

void AffinityModel::RecomputeDerived(const ExecContext& exec, const la::Matrix* sorted_columns,
                                     DerivedBlockCache* partials) {
  const ts::DataMatrix& data = data_;
  const std::size_t m = data.m();
  const std::size_t n = data.n();
  const std::size_t k = clustering_.k();
  const std::size_t anchor = data.anchor_row();

  // Every location and moment statistic a pivot needs is a per-*column*
  // quantity — only the dot12/cov12 cross terms are pair-specific — so
  // compute each distinct column (n series + k centres) exactly once
  // instead of once per pivot side. Every accumulator runs as its own
  // canonical blocked chain (core/kernels) at the window's grid anchor,
  // so the assembled values are bit-identical to the fused
  // per-pivot/gram kernels over the same columns (ComputeGram,
  // ComputePairMatrixMeasures, FusedPairMoments) — and, when `partials`
  // retains the chains across refreshes, to the cold pass they replace.
  struct ColumnStats {
    double sum = 0, sumsq = 0;      // h / dot diagonal chains
    double mean = 0, median = 0, mode = 0;
  };
  std::vector<ColumnStats> columns(n + k);
  if (partials != nullptr) {
    partials->columns.resize(n + k);
    partials->series.resize(n);
    partials->modes.resize(n + k);
    partials->last = kernels::BlockSpanStats{};
  }
  // Per-chunk stats folded in chunk order (§7 determinism of the counters).
  std::vector<kernels::BlockSpanStats> chunk_stats(
      partials != nullptr ? ExecNumChunks(n + k) : 0);
  const auto fold_stats = [&](std::size_t count) {
    if (partials == nullptr) return;
    for (const kernels::BlockSpanStats& s : chunk_stats) partials->last.Add(s);
    chunk_stats.assign(ExecNumChunks(count), kernels::BlockSpanStats{});
  };
  ParallelChunks(exec, n + k, [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
    // Per-chunk scratch: stats::Median/Mode allocate per call, which adds
    // up when this runs every streaming refresh. The order statistic and
    // the histogram argmax are permutation- and scratch-independent, so
    // the values match the stats:: functions bit for bit.
    std::vector<double> sorted;
    std::vector<std::uint32_t> hist;
    for (std::size_t c = lo; c < hi; ++c) {
      const double* x = c < n ? data.ColumnData(static_cast<ts::SeriesId>(c))
                              : clustering_.centers.ColData(c - n);
      ColumnStats& cs = columns[c];
      double sums[2];
      if (partials != nullptr) {
        partials->columns[c].SlideTo(
            anchor, m,
            [x](std::size_t i, double* v) {
              v[0] = x[i];
              v[1] = x[i] * x[i];
            },
            sums, &chunk_stats[chunk]);
      } else {
        const kernels::Marginals marg = kernels::ColumnMarginals(x, m, anchor);
        sums[0] = marg.sum;
        sums[1] = marg.sumsq;
      }
      cs.sum = sums[0];
      cs.sumsq = sums[1];
      cs.mean = m == 0 ? 0.0 : sums[0] / static_cast<double>(m);
      if (sorted_columns != nullptr && m > 0) {
        // Medians are order statistics and mode bins are counts, so the
        // pre-sorted view yields the same doubles the selection-based
        // kernels produce from the raw column.
        const double* sc = sorted_columns->ColData(c);
        const std::size_t mid = m / 2;
        cs.median = m % 2 == 1 ? sc[mid] : 0.5 * (sc[mid - 1] + sc[mid]);
        const double lo = sc[0];
        const double hi = sc[m - 1];
        DerivedBlockCache::ColumnModeHist* mh =
            partials != nullptr ? &partials->modes[c] : nullptr;
        if (hi <= lo) {
          cs.mode = lo;  // constant series (the estimator's short-circuit)
          if (mh != nullptr) mh->valid = false;
        } else if (mh == nullptr) {
          cs.mode = ts::stats::ModeSortedWithScratch(sc, m, ts::stats::kModeBins, &hist);
        } else if (mh->valid && mh->lo == lo && mh->hi == hi &&
                   mh->counts.size() == static_cast<std::size_t>(ts::stats::kModeBins)) {
          // The maintenance path delta-updated the integer bin counts
          // under an unchanged binning: finish with the identical argmax
          // and centre arithmetic.
          cs.mode = ts::stats::ModeFromHistogram(lo, hi, mh->counts);
        } else {
          // Extremes moved (or first use): re-fill the retained histogram
          // from the sorted view.
          cs.mode = ts::stats::ModeSortedWithScratch(sc, m, ts::stats::kModeBins, &mh->counts);
          mh->lo = lo;
          mh->hi = hi;
          mh->valid = true;
        }
      } else {
        cs.median = ts::stats::MedianWithScratch(x, m, &sorted);
        cs.mode = ts::stats::ModeWithScratch(x, m, ts::stats::kModeBins, &hist);
      }
    }
  });

  // Pivot measures: cached per-column stats plus the one cross sum. The
  // pass is memory-bound (two window columns per pivot), so iterate pivots
  // grouped by series column — the series column then stays cache-hot
  // across its ~k pivots. Each entry owns its output slot, so the order is
  // free to choose (and fixed: sorted by key, independent of hash layout).
  std::vector<PivotHashEntry*> pivot_entries;
  pivot_entries.reserve(pivot_hash_.size());
  for (auto& [key, entry] : pivot_hash_) pivot_entries.push_back(&entry);
  std::sort(pivot_entries.begin(), pivot_entries.end(),
            [](const PivotHashEntry* a, const PivotHashEntry* b) {
              return a->pivot.Key() < b->pivot.Key();
            });
  if (partials != nullptr) partials->pivots.resize(pivot_entries.size());
  fold_stats(pivot_entries.size());
  ParallelChunks(exec, pivot_entries.size(),
                 [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i) {
                     PivotHashEntry& entry = *pivot_entries[i];
                     const double* center = clustering_.centers.ColData(entry.pivot.cluster);
                     const double* series = data.ColumnData(entry.pivot.series);
                     const double* c1 = entry.pivot.series_first ? series : center;
                     const double* c2 = entry.pivot.series_first ? center : series;
                     const ColumnStats& cs_series = columns[entry.pivot.series];
                     const ColumnStats& cs_center = columns[n + entry.pivot.cluster];
                     const ColumnStats& cs1 = entry.pivot.series_first ? cs_series : cs_center;
                     const ColumnStats& cs2 = entry.pivot.series_first ? cs_center : cs_series;
                     // The one remaining O(window) term per pivot; the
                     // blocked chain equals ComputeGram's s12 bit for bit
                     // — retained across refreshes when `partials` is on
                     // (the sorted-by-key slot order is stable while the
                     // structure is frozen).
                     double s12;
                     if (partials != nullptr) {
                       partials->pivots[i].SlideTo(
                           anchor, m,
                           [c1, c2](std::size_t r, double* v) { v[0] = c1[r] * c2[r]; }, &s12,
                           &chunk_stats[chunk]);
                     } else {
                       s12 = kernels::BlockedDot(c1, c2, m, anchor);
                     }
                     PairMatrixMeasures& pm = entry.measures;
                     pm.m = m;
                     pm.mean[0] = cs1.mean;
                     pm.mean[1] = cs2.mean;
                     pm.median[0] = cs1.median;
                     pm.median[1] = cs2.median;
                     pm.mode[0] = cs1.mode;
                     pm.mode[1] = cs2.mode;
                     pm.dot11 = cs1.sumsq;
                     pm.dot12 = s12;
                     pm.dot22 = cs2.sumsq;
                     pm.h1 = cs1.sum;
                     pm.h2 = cs2.sum;
                     if (m > 0) {
                       const double inv_m = 1.0 / static_cast<double>(m);
                       pm.cov11 = cs1.sumsq * inv_m - cs1.mean * cs1.mean;
                       pm.cov12 = s12 * inv_m - cs1.mean * cs2.mean;
                       pm.cov22 = cs2.sumsq * inv_m - cs2.mean * cs2.mean;
                     } else {
                       pm.cov11 = pm.cov12 = pm.cov22 = 0;
                     }
                   }
                 });

  series_stats_.resize(n);
  series_affine_.resize(n);
  series_center_dot_.resize(n);
  fold_stats(n);
  ParallelChunks(exec, n, [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) {
      const double* s = data.ColumnData(static_cast<ts::SeriesId>(j));
      const ColumnStats& cs = columns[j];
      SeriesStats& st = series_stats_[j];
      st.sum = cs.sum;
      st.sumsq = cs.sumsq;
      st.mean = m == 0 ? 0.0 : cs.sum / static_cast<double>(m);
      st.variance =
          m == 0 ? 0.0
                 : std::max(0.0, cs.sumsq / static_cast<double>(m) - st.mean * st.mean);

      // Series-level fit s ≈ gain·r + offset (normal equations on [r, 1]).
      const int cluster = clustering_.assignment[j];
      const double* r = clustering_.centers.ColData(static_cast<std::size_t>(cluster));
      double& rs = series_center_dot_[j];
      if (partials != nullptr) {
        partials->series[j].SlideTo(
            anchor, m, [r, s](std::size_t i, double* v) { v[0] = r[i] * s[i]; }, &rs,
            &chunk_stats[chunk]);
      } else {
        rs = kernels::BlockedDot(r, s, m, anchor);
      }
      // The centre's normal-equation diagonals are the column-stats sums
      // (same accumulation chains, bitwise equal).
      const double rr = columns[n + static_cast<std::size_t>(cluster)].sumsq;
      const double hr = columns[n + static_cast<std::size_t>(cluster)].sum;
      const double md = static_cast<double>(m);
      const double det = rr * md - hr * hr;
      SeriesAffine& sa = series_affine_[j];
      if (std::fabs(det) < 1e-12 * (std::fabs(rr) + 1.0) * md) {
        sa.gain = 0.0;
        sa.offset = st.mean;
      } else {
        sa.gain = (rs * md - hr * cs.sum) / det;
        sa.offset = (rr * cs.sum - hr * rs) / det;
      }
    }
  });

  center_loc_.assign(3, std::vector<double>(k, 0.0));
  for (std::size_t l = 0; l < k; ++l) {
    center_loc_[0][l] = columns[n + l].mean;
    center_loc_[1][l] = columns[n + l].median;
    center_loc_[2][l] = columns[n + l].mode;
  }
  if (partials != nullptr) {
    for (const kernels::BlockSpanStats& s : chunk_stats) partials->last.Add(s);
  }
}

const AffineRecord* AffinityModel::FindRelationship(const ts::SequencePair& e) const {
  const auto it = aff_hash_.find(e.Key());
  return it == aff_hash_.end() ? nullptr : &it->second;
}

const PairMatrixMeasures* AffinityModel::FindPivotMeasures(const PivotPair& p) const {
  const auto it = pivot_hash_.find(p.Key());
  return it == pivot_hash_.end() ? nullptr : &it->second.measures;
}

StatusOr<double> AffinityModel::CenterLocation(Measure measure, int cluster) const {
  const int row = LocationRow(measure);
  if (row < 0) {
    return Status::InvalidArgument(std::string(MeasureName(measure)) + " is not an L-measure");
  }
  if (cluster < 0 || static_cast<std::size_t>(cluster) >= clustering_.k()) {
    return Status::OutOfRange("cluster id out of range");
  }
  return center_loc_[static_cast<std::size_t>(row)][static_cast<std::size_t>(cluster)];
}

StatusOr<double> AffinityModel::SeriesMeasure(Measure measure, ts::SeriesId v) const {
  if (v >= data_.n()) return Status::OutOfRange("series id out of range");
  const int row = LocationRow(measure);
  if (row < 0) {
    return Status::InvalidArgument(std::string(MeasureName(measure)) + " is not an L-measure");
  }
  const int cluster = clustering_.assignment[v];
  const SeriesAffine& sa = series_affine_[v];
  const double center_value =
      center_loc_[static_cast<std::size_t>(row)][static_cast<std::size_t>(cluster)];
  // Eq. (5) in 1-D: L(s_v) ≈ gain·L(r) + offset. Exact for the mean;
  // approximate for median/mode (affine maps are monotone, so the quantile
  // and histogram structure are preserved up to noise).
  return sa.gain * center_value + sa.offset;
}

StatusOr<double> AffinityModel::PairMeasure(Measure measure, const ts::SequencePair& e) const {
  if (e.v >= data_.n()) return Status::OutOfRange("series id out of range");
  if (IsLocation(measure)) {
    return Status::InvalidArgument(std::string(MeasureName(measure)) + " is not a pair measure");
  }
  const AffineRecord* rec = FindRelationship(e);
  if (rec == nullptr) {
    return Status::NotFound("no affine relationship for pair (" + std::to_string(e.u) + "," +
                            std::to_string(e.v) + ")");
  }
  const PairMatrixMeasures* pm = FindPivotMeasures(rec->pivot);
  AFFINITY_CHECK(pm != nullptr);

  switch (measure) {
    case Measure::kCovariance:
      return PropagateCovariance(*pm, rec->transform);
    case Measure::kDotProduct:
      return PropagateDotProduct(*pm, rec->transform);
    case Measure::kCorrelation: {
      AFFINITY_ASSIGN_OR_RETURN(double u, PairNormalizer(measure, e));
      if (u == 0.0) return 0.0;
      return PropagateCovariance(*pm, rec->transform) / u;
    }
    case Measure::kCosine: {
      AFFINITY_ASSIGN_OR_RETURN(double u, PairNormalizer(measure, e));
      if (u == 0.0) return 0.0;
      return PropagateDotProduct(*pm, rec->transform) / u;
    }
    case Measure::kJaccard: {
      const double d = PropagateDotProduct(*pm, rec->transform);
      const double denom = series_stats_[e.u].sumsq + series_stats_[e.v].sumsq - d;
      return denom == 0.0 ? 0.0 : d / denom;
    }
    case Measure::kDice: {
      const double d = PropagateDotProduct(*pm, rec->transform);
      const double denom = series_stats_[e.u].sumsq + series_stats_[e.v].sumsq;
      return denom == 0.0 ? 0.0 : 2.0 * d / denom;
    }
    default:
      return Status::InvalidArgument("unsupported measure");
  }
}

Status AffinityModel::PairMeasures6(const ts::SequencePair& e, double out[6]) const {
  if (e.v >= data_.n()) return Status::OutOfRange("series id out of range");
  const AffineRecord* rec = FindRelationship(e);
  if (rec == nullptr) {
    return Status::NotFound("no affine relationship for pair (" + std::to_string(e.u) + "," +
                            std::to_string(e.v) + ")");
  }
  const PairMatrixMeasures* pm = FindPivotMeasures(rec->pivot);
  AFFINITY_CHECK(pm != nullptr);
  PairMeasures6From(*rec, e, *pm, out);
  return Status::OK();
}

void AffinityModel::PairMeasures6From(const AffineRecord& rec, const ts::SequencePair& e,
                                      const PairMatrixMeasures& pm, double out[6]) const {
  // The same propagation and normalizer expressions as PairMeasure /
  // PairNormalizer, evaluated once and reused — every quotient below sees
  // the identical operands, so each slot matches the per-measure path bit
  // for bit.
  const double cov = PropagateCovariance(pm, rec.transform);
  const double dot = PropagateDotProduct(pm, rec.transform);
  const SeriesStats& su = series_stats_[e.u];
  const SeriesStats& sv = series_stats_[e.v];
  const double u_corr = std::sqrt(su.variance * sv.variance);
  const double u_cos = std::sqrt(su.sumsq * sv.sumsq);
  out[0] = cov;
  out[1] = dot;
  out[2] = u_corr == 0.0 ? 0.0 : cov / u_corr;
  out[3] = u_cos == 0.0 ? 0.0 : dot / u_cos;
  const double jaccard_denom = su.sumsq + sv.sumsq - dot;
  out[4] = jaccard_denom == 0.0 ? 0.0 : dot / jaccard_denom;
  const double dice_denom = su.sumsq + sv.sumsq;
  out[5] = dice_denom == 0.0 ? 0.0 : 2.0 * dot / dice_denom;
}

StatusOr<double> AffinityModel::PairNormalizer(Measure measure, const ts::SequencePair& e) const {
  if (e.v >= data_.n()) return Status::OutOfRange("series id out of range");
  switch (measure) {
    case Measure::kCorrelation:
      return std::sqrt(series_stats_[e.u].variance * series_stats_[e.v].variance);
    case Measure::kCosine:
      return std::sqrt(series_stats_[e.u].sumsq * series_stats_[e.v].sumsq);
    default:
      return Status::InvalidArgument(std::string(MeasureName(measure)) +
                                     " has no separable normalizer");
  }
}

StatusOr<AffinityModel> RunSymex(const ts::DataMatrix& data, AfclstResult clustering,
                                 const SymexOptions& symex_options, const ExecContext& exec) {
  if (data.n() < 2) {
    return Status::InvalidArgument("SYMEX requires at least 2 series");
  }
  AffinityModel model;
  model.data_ = data;
  model.clustering_ = std::move(clustering);

  // Marching (sequential structure discovery) + fitting (parallel).
  {
    Stopwatch watch;
    model.aff_hash_.reserve(
        std::min(ts::SequencePairCount(data.n()), symex_options.max_relationships));
    SymexRunner runner(model.data_, model.clustering_, symex_options, &model.aff_hash_,
                       &model.pivot_hash_, &model.stats_);
    runner.March();
    runner.Fit(exec);
    model.stats_.march_seconds = watch.ElapsedSeconds();
  }

  // Pre-processing: pivot measures, per-series stats, series-level
  // relationships, centre L-measures (the one-time O(nk·m + n·m) cost).
  {
    Stopwatch watch;
    model.RecomputeDerived(exec);
    model.stats_.preprocess_seconds = watch.ElapsedSeconds();
  }

  model.stats_.relationships = model.aff_hash_.size();
  model.stats_.pivots = model.pivot_hash_.size();
  return model;
}

StatusOr<AffinityModel> BuildAffinityModel(const ts::DataMatrix& data,
                                           const AfclstOptions& afclst_options,
                                           const SymexOptions& symex_options,
                                           const ExecContext& exec) {
  Stopwatch watch;
  AFFINITY_ASSIGN_OR_RETURN(AfclstResult clustering, RunAfclst(data, afclst_options, exec));
  const double afclst_seconds = watch.ElapsedSeconds();
  AFFINITY_ASSIGN_OR_RETURN(AffinityModel model,
                            RunSymex(data, std::move(clustering), symex_options, exec));
  model.stats_.afclst_seconds = afclst_seconds;
  return model;
}

}  // namespace affinity::core
