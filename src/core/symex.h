#ifndef AFFINITY_CORE_SYMEX_H_
#define AFFINITY_CORE_SYMEX_H_

/// \file symex.h
/// The SYMEX / SYMEX+ algorithms (Algorithm 2) and the resulting
/// `AffinityModel` — the queryable bundle of affine relationships, pivot
/// measures, and per-series normalizers that the WA method and the SCAPE
/// index are built from.
///
/// SYMEX systematically sweeps the sequence-pair set P with two marching
/// fronts (from the border inward and from the middle outward), assigning
/// each sequence pair e = (u, v) a pivot pair — (u, ω(v)) when covered by a
/// row scan, (ω(u), v) when covered by a column scan — and fitting the
/// affine relationship Se ≈ Op·Ae + 1·beᵀ by least squares. SYMEX+ caches
/// the per-pivot normal-equation factor so only the per-pair right-hand
/// side remains (the paper's pseudo-inverse cache, ~4× faster).
///
/// Because the pivot matrix shares one column with the sequence-pair matrix,
/// that column's transform coefficients are (1, 0, 0) *exactly*; we fix them
/// structurally and fit only the free column, which both accelerates the fit
/// and makes Lemma 1 (exact dot products) hold to machine precision.

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "core/afclst.h"
#include "core/affine.h"
#include "core/kernels.h"
#include "core/measures.h"
#include "ts/data_matrix.h"

namespace affinity::core {

/// A pivot pair p (Definition 2 or its mirror):
///  * series_first = true  → p = (u, ω(v)), O_p = [s_series, r_cluster];
///  * series_first = false → p = (ω(u), v), O_p = [r_cluster, s_series].
struct PivotPair {
  ts::SeriesId series = 0;
  std::uint32_t cluster = 0;
  bool series_first = true;

  /// Dense key for hashing (the paper's pivotHash key).
  std::uint64_t Key() const {
    return (static_cast<std::uint64_t>(series) << 33) |
           (static_cast<std::uint64_t>(cluster) << 1) |
           static_cast<std::uint64_t>(series_first);
  }
  bool operator==(const PivotPair& o) const {
    return series == o.series && cluster == o.cluster && series_first == o.series_first;
  }
};

/// One entry of the affHash map: the pivot a sequence pair is related to
/// and the fitted transform O_p → S_e.
struct AffineRecord {
  PivotPair pivot;
  AffineTransform transform;

  /// The β vector of Table 2 — the free (non-common) column's coefficients
  /// (a_1c, a_2c, b_c). Measure-independent, derived only from the
  /// relationship; the decoupled half of the SCAPE key.
  void Beta(double out[3]) const {
    if (pivot.series_first) {
      out[0] = transform.a12;
      out[1] = transform.a22;
      out[2] = transform.b2;
    } else {
      out[0] = transform.a11;
      out[1] = transform.a21;
      out[2] = transform.b1;
    }
  }
};

/// SYMEX configuration.
struct SymexOptions {
  /// true → SYMEX+ (per-pivot pseudo-inverse cache); false → plain SYMEX
  /// (Algorithm 2 verbatim: the pseudo-inverse is re-derived per pair).
  bool cache_pseudo_inverse = true;
  /// Stop after this many relationships (scalability sweeps, Fig. 13/14).
  std::size_t max_relationships = std::numeric_limits<std::size_t>::max();
};

/// Build-phase accounting, reported by benches.
struct SymexStats {
  std::size_t relationships = 0;     ///< |affHash|
  std::size_t pivots = 0;            ///< |pivotHash|
  std::size_t cache_hits = 0;        ///< pivot-factor cache hits (SYMEX+)
  std::size_t cache_misses = 0;      ///< pivot-factor cache misses
  double afclst_seconds = 0;         ///< clustering time
  double march_seconds = 0;          ///< marching + fitting time
  double preprocess_seconds = 0;     ///< pivot measures + per-series stats
};

/// Exact per-series statistics kept for normalizers (Eq. 8's "compute and
/// store Σ(y1), Σ(y2) separately") and for the L-measure relationships.
struct SeriesStats {
  double mean = 0;
  double variance = 0;  ///< population variance (correlation normalizer)
  double sumsq = 0;     ///< ‖s‖² (cosine/Jaccard/Dice normalizers)
  double sum = 0;
};

/// The series-level 1-D affine relationship s_v ≈ gain·r_ω(v) + offset·1
/// used for L-measures (one per series — the "linear in n" count of
/// Table 4's footnote).
struct SeriesAffine {
  double gain = 0;
  double offset = 0;
};

/// A pivotHash entry: the pivot pair plus its pre-computed measures
/// (filled during the pre-processing step of §4.1).
struct PivotHashEntry {
  PivotPair pivot;
  PairMatrixMeasures measures;
};

/// One relationship with its pivot's measures resolved: an entry of a
/// key-ordered walk over a model's relationships
/// (`IncrementalMaintainer::relationships_by_key`), the form the bulk WA
/// fill reads instead of hashing per pair.
struct RelationshipRef {
  const AffineRecord* rec = nullptr;
  const PairMatrixMeasures* pivot = nullptr;
};

/// Retained block partials of RecomputeDerived's O(window) chains — the
/// per-model slice of the BlockPartialCache (DESIGN.md §10): per-column
/// {Σx, Σx²} marginal chains, per-pivot Σc1·c2 (the dot12 cross term),
/// and per-series Σr·s (the series-level fit's cross term). Owned by
/// IncrementalMaintainer, which drops it whenever the frozen structure
/// changes (escalation, rebuild, restore); RecomputeDerived slides every
/// chain to the current window anchor, recomputing only the grid blocks
/// the slide touched and reusing the interior partials bit for bit.
struct DerivedBlockCache {
  /// Retained mode histogram of one window column. Bin counts are
  /// integers, so the maintenance path can delta-update them exactly
  /// (decrement evicted samples, increment entering ones) as long as the
  /// binning — the window (min, max) — is unchanged; any extremes change
  /// flips `valid` and RecomputeDerived re-fills from the sorted view.
  /// The published mode is then `ModeFromHistogram`, bitwise identical to
  /// the from-scratch estimator over the same samples.
  struct ColumnModeHist {
    double lo = 0.0;
    double hi = 0.0;
    std::vector<std::uint32_t> counts;
    bool valid = false;
  };

  std::vector<kernels::BlockChain<2>> columns;  ///< n series + k centres
  std::vector<kernels::BlockChain<1>> pivots;   ///< pivot dot12, sorted-by-key order
  std::vector<kernels::BlockChain<1>> series;   ///< per-series Σ centre·series
  std::vector<ColumnModeHist> modes;            ///< n + k mode histograms
  kernels::BlockSpanStats last;                 ///< touched/reused of the last refresh

  void Invalidate() {
    for (auto& chain : columns) chain.Invalidate();
    for (auto& chain : pivots) chain.Invalidate();
    for (auto& chain : series) chain.Invalidate();
    for (auto& mode : modes) mode.valid = false;
  }
};

/// The queryable output of SYMEX: everything the WA strategy and the SCAPE
/// index need. Owns a copy of the data matrix (used for naive verification
/// and pivot-measure computation).
class AffinityModel {
 public:
  /// The data the model was built over.
  const ts::DataMatrix& data() const { return data_; }

  /// AFCLST output the model was built with.
  const AfclstResult& clustering() const { return clustering_; }

  /// Number of affine relationships (= |P| when not truncated).
  std::size_t relationship_count() const { return aff_hash_.size(); }

  /// Number of distinct pivot pairs.
  std::size_t pivot_count() const { return pivot_hash_.size(); }

  /// Build statistics.
  const SymexStats& stats() const { return stats_; }

  /// The affine relationship of a sequence pair, or nullptr when the model
  /// was truncated before reaching it.
  const AffineRecord* FindRelationship(const ts::SequencePair& e) const;

  /// Pre-computed measures of a pivot matrix, or nullptr.
  const PairMatrixMeasures* FindPivotMeasures(const PivotPair& p) const;

  /// Exact per-series statistics.
  const SeriesStats& series_stats(ts::SeriesId v) const { return series_stats_[v]; }

  /// Series-level affine relationship of series v.
  const SeriesAffine& series_affine(ts::SeriesId v) const { return series_affine_[v]; }

  /// L-measure of cluster centre ℓ (measure must be an L-measure).
  StatusOr<double> CenterLocation(Measure measure, int cluster) const;

  // --- The WA method (Section 4.1) -----------------------------------------

  /// L-measure of one series through its series-level relationship: O(1).
  StatusOr<double> SeriesMeasure(Measure measure, ts::SeriesId v) const;

  /// T- or D-measure of a sequence pair through its affine relationship:
  /// O(1). NotFound when the (truncated) model lacks the relationship.
  StatusOr<double> PairMeasure(Measure measure, const ts::SequencePair& e) const;

  /// Exact stored normalizer U_e of a separable D-measure (Eq. 8).
  StatusOr<double> PairNormalizer(Measure measure, const ts::SequencePair& e) const;

  /// All six pair measures of `e` (covariance .. Dice, in `Measure -
  /// kCovariance` table order) through a single relationship lookup — the
  /// serving layer's bulk WA fill (DESIGN.md §11). Each `out[t]` is
  /// bitwise identical to the corresponding PairMeasure call (same
  /// expressions, same evaluation order; the propagated T-values and the
  /// normalizers are shared, which PairMeasure recomputes per call).
  /// NotFound when the (truncated) model lacks the relationship.
  Status PairMeasures6(const ts::SequencePair& e, double out[6]) const;

  /// As PairMeasures6 with the relationship and its pivot's matrix
  /// measures already in hand — the serving layer's bulk WA fill walks a
  /// key-ordered list of both (`RelationshipRef`) instead of hashing per
  /// pair. `rec` must be `e`'s record (as returned by FindRelationship)
  /// and `pm` its pivot's measures; the six values are bitwise identical
  /// to the lookup form.
  void PairMeasures6From(const AffineRecord& rec, const ts::SequencePair& e,
                         const PairMatrixMeasures& pm, double out[6]) const;

  /// Iterates all relationships in ascending pair-key order:
  /// fn(const ts::SequencePair&, const AffineRecord&). The sort makes the
  /// visit order canonical — SCAPE index layout and the model file
  /// inherit it, so they cannot drift with the hash implementation.
  template <typename Fn>
  void ForEachRelationship(Fn&& fn) const {
    std::vector<std::pair<std::uint64_t, const AffineRecord*>> items;
    items.reserve(aff_hash_.size());
    // affinity-lint: allow(unordered-iter): collect-then-sort — visits happen in key order below
    for (const auto& [key, rec] : aff_hash_) items.emplace_back(key, &rec);
    std::sort(items.begin(), items.end());
    for (const auto& [key, rec] : items) {
      const ts::SequencePair e{static_cast<ts::SeriesId>(key >> 32),
                               static_cast<ts::SeriesId>(key & 0xffffffffULL)};
      fn(e, *rec);
    }
  }

  /// Iterates all pivots in ascending pivot-key order:
  /// fn(const PivotPair&, const PairMatrixMeasures&).
  template <typename Fn>
  void ForEachPivot(Fn&& fn) const {
    std::vector<std::pair<std::uint64_t, const PivotHashEntry*>> items;
    items.reserve(pivot_hash_.size());
    // affinity-lint: allow(unordered-iter): collect-then-sort — visits happen in key order below
    for (const auto& [key, entry] : pivot_hash_) items.emplace_back(key, &entry);
    std::sort(items.begin(), items.end());
    for (const auto& [key, entry] : items) fn(entry->pivot, entry->measures);
  }

  /// Recomputes every derived quantity from `data()` and `clustering()`:
  /// pivot measures, per-series stats, series-level relationships, and the
  /// centre L-measures — exactly the pre-processing pass of RunSymex. The
  /// incremental maintenance path calls this after sliding the window so
  /// published moments and measures stay bit-identical to a from-scratch
  /// build over the same window and clustering (DESIGN.md §8).
  ///
  /// `sorted_columns`, when given, must hold every window column sorted
  /// ascending — columns 0..n-1 the data series, n..n+k-1 the cluster
  /// centres. Medians are then read as order statistics and modes binned
  /// by boundary bisection instead of a histogram pass (the maintenance
  /// path keeps these sorted incrementally). The published values are
  /// identical either way: order statistics and bin counts do not depend
  /// on the input permutation.
  ///
  /// `partials`, when given, retains the blocked partial sums of every
  /// O(window) chain across calls (DESIGN.md §10): each refresh then
  /// recomputes only the grid blocks the slide touched —
  /// O(interval + kBlockElems) per chain instead of O(window) — and the
  /// totals are bitwise identical to the cold pass by construction. The
  /// cache is valid only while the data/clustering structure is frozen
  /// (the incremental maintenance contract); its chain counts are
  /// (re)sized here on first use.
  void RecomputeDerived(const ExecContext& exec = {},
                        const la::Matrix* sorted_columns = nullptr,
                        DerivedBlockCache* partials = nullptr);

 private:
  friend class IncrementalMaintainer;
  friend StatusOr<AffinityModel> BuildAffinityModel(const ts::DataMatrix&, const AfclstOptions&,
                                                    const SymexOptions&, const ExecContext&);
  friend StatusOr<AffinityModel> RunSymex(const ts::DataMatrix&, AfclstResult,
                                          const SymexOptions&, const ExecContext&);
  friend Status WriteModelStream(const AffinityModel&, std::ostream&);
  friend StatusOr<AffinityModel> ReadModelStream(std::istream&);

  ts::DataMatrix data_;
  AfclstResult clustering_;
  SymexStats stats_;
  std::unordered_map<std::uint64_t, AffineRecord> aff_hash_;       // key: SequencePair::Key()
  std::unordered_map<std::uint64_t, PivotHashEntry> pivot_hash_;   // key: PivotPair::Key()
  std::vector<SeriesStats> series_stats_;                          // size n
  std::vector<SeriesAffine> series_affine_;                        // size n
  // Σ r_ω(v)·s_v per series: the series-level fit's cross term, and the
  // series-side entry of every relationship right-hand side whose target
  // is v (IncrementalMaintainer reads it). Not serialized.
  std::vector<double> series_center_dot_;                          // size n
  // L-measure values of the k centres: [measure][cluster];
  // rows: 0 = mean, 1 = median, 2 = mode.
  std::vector<std::vector<double>> center_loc_;
};

/// Runs AFCLST then SYMEX/SYMEX+ and finalizes the model (pivot measures,
/// per-series stats, series-level relationships). The marching order is
/// inherently sequential (it decides pivot assignment), but the fitting
/// and pre-processing passes fan out over `exec`; the model is identical
/// at any thread count.
StatusOr<AffinityModel> BuildAffinityModel(const ts::DataMatrix& data,
                                           const AfclstOptions& afclst_options,
                                           const SymexOptions& symex_options,
                                           const ExecContext& exec = {});

/// As above with a pre-computed clustering (lets benches reuse AFCLST output
/// across SYMEX variants).
StatusOr<AffinityModel> RunSymex(const ts::DataMatrix& data, AfclstResult clustering,
                                 const SymexOptions& symex_options,
                                 const ExecContext& exec = {});

}  // namespace affinity::core

#endif  // AFFINITY_CORE_SYMEX_H_
