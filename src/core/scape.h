#ifndef AFFINITY_CORE_SCAPE_H_
#define AFFINITY_CORE_SCAPE_H_

/// \file scape.h
/// The SCAPE (SCAlar ProjEction) index (Section 5).
///
/// For every pivot pair q the propagated value of an L/T-measure over a
/// related sequence pair d decomposes as  value = αqᵀ·βqd , where
///  * βqd = (a_1c, a_2c, b_c) comes *only* from the affine relationship
///    (c = the non-common column), and
///  * αq comes *only* from the pivot's pre-computed measures (Table 2).
///
/// Ordering the scalar projections ξqd = αqᵀβqd / ‖αq‖ per pivot turns a
/// measure-threshold (MET) query into a key-range scan after the threshold
/// conversion τ' = τ/‖αq‖, and a measure-range (MER) query into an
/// open-interval scan (§5.2). D-measures (value = ‖αq‖ξ / U) are served
/// from their base T-measure's keys with the §5.3 pruning: per-pivot
/// normalizer bounds [Umin, Umax] split each scan into an
/// accept-without-verification region, a reject region, and a (typically
/// narrow) verify band where the exact stored normalizer is consulted.
///
/// The paper keeps the keys in a B-tree per pivot. Here one sorted run per
/// (pivot, measure family) holds them — a structure-of-arrays of keys,
/// pairs and normalizers ordered by (ξ, pair); see DESIGN.md §2. Seeks are
/// binary searches, so keys, bounds and search complexity are unchanged.
/// The index is a batch structure: `Build` sorts each run once, and a
/// rebuilt model gets a new index. Streams build none (DESIGN.md §8):
/// their epochs answer every selection from the frozen WA tables.
///
/// Boundary semantics: the index stores ξ = αᵀβ/‖α‖ and queries compare
/// against τ/‖α‖, so an entity whose measure value equals the threshold to
/// within a few ulps may be classified to either side (the divide/multiply
/// round trip costs one rounding step relative to the WA strategy's direct
/// evaluation). Thresholds are real-valued cut points, not exact-match
/// predicates; ties at machine precision are unspecified, as with any
/// key-transformed index.
///
/// L-measures use the series-level relationships (one per series) with
/// per-cluster pivot nodes — the "linear in n" structure of Table 4.

#include <algorithm>
#include <array>
#include <limits>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "core/measures.h"
#include "core/symex.h"
#include "ts/data_matrix.h"

namespace affinity::core {

/// Pruning effectiveness counters for one query (§5.3 evaluation).
struct PruneStats {
  std::size_t accepted_unverified = 0;  ///< included without computing the measure
  std::size_t verified = 0;             ///< middle band: measure computed exactly
  std::size_t scanned_degenerate = 0;   ///< zero-normalizer entries checked directly

  PruneStats& operator+=(const PruneStats& o) {
    accepted_unverified += o.accepted_unverified;
    verified += o.verified;
    scanned_degenerate += o.scanned_degenerate;
    return *this;
  }
};

/// Result of a MET or MER query. L-measures fill `series`; T/D-measures
/// fill `pairs`. Order is unspecified (sort before comparing).
struct ScapeQueryResult {
  std::vector<ts::SeriesId> series;
  std::vector<ts::SequencePair> pairs;
  PruneStats prune;
};

/// Sentinel marking "this top-k entry has no series" (pair-measure
/// entries). A real series id can be 0, so absence needs an explicit
/// out-of-band value rather than a default of 0.
inline constexpr ts::SeriesId kNoSeries = std::numeric_limits<ts::SeriesId>::max();

/// One top-k result entry. For pair measures `pair` is set and `series`
/// stays `kNoSeries`; for L-measures `series` is set.
struct ScapeTopKEntry {
  ts::SequencePair pair;
  ts::SeriesId series = kNoSeries;
  double value = 0.0;

  /// True for L-measure entries (a series id is present).
  bool has_series() const { return series != kNoSeries; }
};

/// Result of a top-k query, ordered best-first.
struct ScapeTopKResult {
  std::vector<ScapeTopKEntry> entries;
  /// Entries whose value the answering path read. For the threshold
  /// algorithm: T/L measures examine |entries| plus the frontier
  /// overshoot, D-measures every entry their loose bound could not rule
  /// out. For a WN/WA sweep or an epoch's pass over its frozen table:
  /// every entity of the table (n series or n(n−1)/2 pairs), eligible
  /// under a quality predicate or not.
  std::size_t examined = 0;
};

/// The one rank order of top-k entries: by value in the query direction
/// (larger first when `largest`), value ties broken by (series, pair).
/// Every entity has a distinct (series, pair) key, so the order is total
/// over non-NaN values and a selection under it never depends on scan
/// order, chunking, or shard layout.
inline bool TopKBefore(const ScapeTopKEntry& a, const ScapeTopKEntry& b, bool largest) {
  if (a.value != b.value) return largest ? a.value > b.value : a.value < b.value;
  if (a.series != b.series) return a.series < b.series;
  return a.pair < b.pair;
}

/// One k-bounded selection pass under `TopKBefore`, shared by every
/// top-k (engine WN/WA, epoch pass, the routers' cross-shard runs, the
/// SCAPE threshold algorithm). A heap holds the best k entries offered so
/// far with the worst on top, so an offer costs at most one pop and one
/// push and memory stays O(k). Offers from parallel chunks may go to
/// per-chunk selectors joined with `Merge`: the total order makes the
/// result identical to one sequential pass.
class TopKSelector {
 public:
  /// With k = 0 the bar starts at the far end, past every finite value.
  TopKSelector(std::size_t k, bool largest)
      : k_(k), largest_(largest), bar_(k == 0 ? -Open(largest) : Open(largest)) {}

  /// False when an entry valued `value` cannot enter (k entries are kept
  /// and `value` ranks strictly after the worst of them) — a branch-light
  /// pre-check for hot passes: one comparison with the cached bar.
  /// `Offer` decides every other case (a NaN always reaches it).
  bool Admits(double value) const { return largest_ ? !(value < bar_) : !(value > bar_); }

  /// True when no entry valued `value` or worse can enter, whatever its
  /// tie key: k entries are kept and the worst of them has a value
  /// strictly better than `value` in the query direction. The threshold
  /// algorithm stops on this test against its frontier bound.
  bool Excludes(double value) const {
    if (k_ == 0) return true;
    if (heap_.size() < k_) return false;
    const double worst = heap_.front().value;
    return largest_ ? worst > value : worst < value;
  }

  void Offer(const ScapeTopKEntry& entry) {
    const RanksBefore before{largest_};
    if (heap_.size() < k_) {
      heap_.push_back(entry);
      std::push_heap(heap_.begin(), heap_.end(), before);
    } else if (k_ > 0 && TopKBefore(entry, heap_.front(), largest_)) {
      std::pop_heap(heap_.begin(), heap_.end(), before);
      heap_.back() = entry;
      std::push_heap(heap_.begin(), heap_.end(), before);
    } else {
      return;
    }
    if (heap_.size() == k_) bar_ = heap_.front().value;
  }

  /// Offers every entry `other` kept.
  void Merge(const TopKSelector& other) {
    for (const ScapeTopKEntry& entry : other.heap_) Offer(entry);
  }

  /// The kept entries, best-first.
  std::vector<ScapeTopKEntry> Finish() && {
    std::sort_heap(heap_.begin(), heap_.end(), RanksBefore{largest_});
    return std::move(heap_);
  }

 private:
  /// Heap comparator: `a` ranks before `b`. A std max-heap under it
  /// keeps the worst kept entry on top.
  struct RanksBefore {
    bool largest;
    bool operator()(const ScapeTopKEntry& a, const ScapeTopKEntry& b) const {
      return TopKBefore(a, b, largest);
    }
  };

  /// The bar of a selection with room left: every value clears it.
  static double Open(bool largest) {
    return largest ? -std::numeric_limits<double>::infinity()
                   : std::numeric_limits<double>::infinity();
  }

  std::size_t k_;
  bool largest_;
  /// The value an entry must reach to be admitted: the worst kept value
  /// once k entries are kept, `Open` before.
  double bar_;
  std::vector<ScapeTopKEntry> heap_;
};

/// K-way heap merge of best-first top-k runs (the gather half of a
/// scatter-gather top-k, DESIGN.md §9): each run must already be ordered
/// best-first under `largest`; the merged result is the global best `k`
/// entries, ranked by `TopKBefore`, so the merged order is deterministic
/// regardless of how entries were distributed over runs. `examined`
/// counts are summed.
ScapeTopKResult MergeTopK(const std::vector<ScapeTopKResult>& runs, std::size_t k, bool largest);

/// One side-list entry of a pair run: a zero normalizer (U == 0, the
/// D-value is defined 0) or a degenerate pivot (‖α‖ = 0, the T-value is
/// 0). Keeps ξ so T-measure queries can still evaluate value = ‖α‖·ξ.
struct ScapeSideEntry {
  ts::SequencePair pair;
  double u = 0.0;
  double xi = 0.0;
};

/// The sorted run of one (pivot, T-measure family): every entry with
/// ‖α‖ > 0 and U > 0, ordered by (ξ, pair), as parallel arrays — an
/// accepted span is appended straight from `pairs` at 8 bytes/entry of
/// read traffic, and only the D-measure verify band touches `us`.
struct PairRun {
  /// ‖α‖; 0 marks a degenerate pivot (value ≡ 0).
  double norm = 0.0;
  /// Bounds [Umin, Umax] on the normalizers of the run's entries.
  double u_min = std::numeric_limits<double>::infinity();
  double u_max = 0.0;
  std::vector<double> keys;             ///< ξ ascending, ties in pair order
  std::vector<ts::SequencePair> pairs;  ///< aligned with keys
  std::vector<double> us;               ///< exact normalizers, aligned with keys
  std::vector<ScapeSideEntry> side;     ///< the remaining entries, in pair order
};

/// The sorted run of one per-cluster L-measure family: the cluster's
/// series ordered by (ξ, series).
struct LocRun {
  double norm = 1.0;  ///< ‖α‖ = √(centre² + 1) ≥ 1, never degenerate
  std::vector<double> keys;
  std::vector<ts::SeriesId> series;  ///< aligned with keys
};

/// The pair-run family serving `m`: 0 = covariance (covariance,
/// correlation), 1 = dot product (dot product, cosine), −1 otherwise.
int PairFamilyOf(Measure m);

/// The L-measure family of `m` (0 = mean, 1 = median, 2 = mode), or −1 —
/// the slot of its per-cluster run and of its WA location table.
int LocationFamilyOf(Measure m);

/// The runs of one index, indexed by pivot slot: `pair[pivot][family]`
/// (0 = covariance, 1 = dot product) and `loc[cluster][family]` (0 =
/// mean, 1 = median, 2 = mode).
struct ScapeRuns {
  std::vector<std::array<PairRun, 2>> pair;
  std::vector<std::array<LocRun, 3>> loc;
};

/// MET query (Query 2) over `runs`: entities whose `measure` is greater
/// (or lesser) than `tau`. Pair entities come pivot by pivot, each
/// pivot's in key order. Unimplemented for Jaccard/Dice (no separable
/// normalizer — the engine falls back to WA compute-then-filter).
StatusOr<ScapeQueryResult> ScapeMeasureThreshold(const ScapeRuns& runs, Measure measure,
                                                 double tau, bool greater);

/// MER query (Query 3) over `runs`: entities whose `measure` lies strictly
/// inside (lo, hi). InvalidArgument when lo > hi.
StatusOr<ScapeQueryResult> ScapeMeasureRange(const ScapeRuns& runs, Measure measure, double lo,
                                             double hi);

/// Top-k query (extension) over `runs`: the k entities with the largest
/// (or smallest) value of `measure`, best-first, value ties in (series,
/// pair) order — Fagin's threshold algorithm. Each run is a stream walked
/// best key first whose frontier bounds everything it has not produced
/// (exactly for T/L-measures; through [Umin, Umax] for D-measures), and
/// the scan stops once the k-th selected entry ranks strictly before every
/// frontier bound. Unimplemented for Jaccard/Dice.
StatusOr<ScapeTopKResult> ScapeTopK(const ScapeRuns& runs, Measure measure, std::size_t k,
                                    bool largest);

/// The SCAPE index. Built once from an AffinityModel snapshot; queries are
/// read-only and lock-free.
class ScapeIndex {
 public:
  /// Builds the index over every affine relationship in `model`: a
  /// covariance and a dot-product run per pair pivot (serving covariance,
  /// dot product, correlation, cosine) and mean/median/mode runs per
  /// cluster (serving the L-measures), each sorted once. Per-pivot work
  /// fans out over `exec`; the built index is identical at any thread
  /// count.
  static StatusOr<ScapeIndex> Build(const AffinityModel& model, const ExecContext& exec = {});

  StatusOr<ScapeQueryResult> MeasureThreshold(Measure measure, double tau,
                                              bool greater = true) const {
    return ScapeMeasureThreshold(runs_, measure, tau, greater);
  }

  StatusOr<ScapeQueryResult> MeasureRange(Measure measure, double lo, double hi) const {
    return ScapeMeasureRange(runs_, measure, lo, hi);
  }

  StatusOr<ScapeTopKResult> TopK(Measure measure, std::size_t k, bool largest = true) const {
    return ScapeTopK(runs_, measure, k, largest);
  }

  /// The sorted runs every query reads.
  const ScapeRuns& runs() const { return runs_; }

  /// Number of pair-level pivot nodes.
  std::size_t pair_pivot_count() const { return runs_.pair.size(); }

  /// Number of indexed sequence-pair entries (per measure family).
  std::size_t pair_entry_count() const { return pair_entries_; }

  /// Number of indexed series entries (per L-measure).
  std::size_t series_entry_count() const { return series_entries_; }

  /// Wall-clock seconds spent building the index.
  double build_seconds() const { return build_seconds_; }

 private:
  ScapeIndex() = default;

  ScapeRuns runs_;
  std::size_t pair_entries_ = 0;
  std::size_t series_entries_ = 0;
  double build_seconds_ = 0.0;
};

}  // namespace affinity::core

#endif  // AFFINITY_CORE_SCAPE_H_
