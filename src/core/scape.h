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
/// Ordering the scalar projections ξqd = αqᵀβqd / ‖αq‖ in a B-tree per
/// pivot turns a measure-threshold (MET) query into a key-range scan after
/// the threshold conversion τ' = τ/‖αq‖, and a measure-range (MER) query
/// into an open-interval scan (§5.2). D-measures (value = ‖αq‖ξ / U) are
/// served from their base T-measure's tree with the §5.3 pruning: per-pivot
/// normalizer bounds [Umin, Umax] split each tree scan into an
/// accept-without-verification region, a reject region, and a (typically
/// narrow) verify band where the exact stored normalizer is consulted.
///
/// Where the paper is loose (a single key ordering cannot literally serve
/// α's pointing in different directions), we keep one sorted container per
/// (pivot, measure family) — see DESIGN.md §2. The β-decoupling and every
/// complexity claim are preserved.
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
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "btree/bplus_tree.h"
#include "common/exec_context.h"
#include "common/status.h"
#include "core/measures.h"
#include "core/symex.h"
#include "ts/data_matrix.h"

namespace affinity::serve {
class SnapshotBuilder;  // flattens the index into an immutable serving replica
}  // namespace affinity::serve

namespace affinity::core {

/// SCAPE construction options.
struct ScapeOptions {
  /// B-tree node fanout (entries per node before a split).
  std::size_t btree_fanout = 64;
};

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
/// sweep-style top-k (engine WN/WA, epoch pass, freshness blend, the
/// routers' cross-shard runs). A heap holds the best k entries offered
/// so far with the worst on top, so an offer costs at most one pop and
/// one push and memory stays O(k). Offers from parallel chunks may go to
/// per-chunk selectors joined with `Merge`: the total order makes the
/// result identical to one sequential pass.
class TopKSelector {
 public:
  TopKSelector(std::size_t k, bool largest) : k_(k), largest_(largest) {}

  /// False when an entry valued `value` cannot enter (k entries are kept
  /// and `value` ranks strictly after the worst of them) — a branch-light
  /// pre-check for hot passes; `Offer` decides every other case.
  bool Admits(double value) const {
    if (heap_.size() < k_) return true;
    if (k_ == 0) return false;
    const double worst = heap_.front().value;
    return largest_ ? value >= worst : value <= worst;
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
    }
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

  std::size_t k_;
  bool largest_;
  std::vector<ScapeTopKEntry> heap_;
};

/// Dirty ξ-interval of one (pivot, measure-family) tree across one
/// `ScapeIndex::Refresh`, for the serving layer's delta flatten
/// (DESIGN.md §11). The contract: every entry whose key ξ, cached
/// normalizer U, or tree membership changed during the refresh has both
/// its old and its new key inside [lo, hi]. Entries strictly outside the
/// interval were left untouched (the sparse-movement fast path), so their
/// sorted (key, entry) subsequence is identical to the previous epoch and
/// a flattened replica may splice it wholesale. `moved == 0` means the
/// tree is bit-identical to the previous epoch.
struct ScapeDeltaRange {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  std::size_t moved = 0;  ///< move operations recorded (0 = tree clean)

  /// Folds one move whose old key was `a` and new key is `b`.
  void Touch(double a, double b) {
    lo = std::min(lo, std::min(a, b));
    hi = std::max(hi, std::max(a, b));
    ++moved;
  }
};

/// Per-refresh dirty-range log, indexed like the index's pivot structures:
/// `pair[pivot][family]` (family 0 = covariance, 1 = dot product) and
/// `loc[cluster][family]` (0 = mean, 1 = median, 2 = mode). Valid only for
/// the refresh that filled it — consumers must use it against the prior
/// epoch's flatten of the same structure and discard it after any rebuild,
/// restore, or escalation.
struct ScapeDeltaLog {
  std::vector<std::array<ScapeDeltaRange, 2>> pair;
  std::vector<std::array<ScapeDeltaRange, 3>> loc;

  void Reset(std::size_t pair_pivots, std::size_t loc_pivots) {
    pair.assign(pair_pivots, {});
    loc.assign(loc_pivots, {});
  }
};

/// K-way heap merge of best-first top-k runs (the gather half of a
/// scatter-gather top-k, DESIGN.md §9): each run must already be ordered
/// best-first under `largest`; the merged result is the global best `k`
/// entries, ranked by `TopKBefore`, so the merged order is deterministic
/// regardless of how entries were distributed over runs. `examined`
/// counts are summed.
ScapeTopKResult MergeTopK(const std::vector<ScapeTopKResult>& runs, std::size_t k, bool largest);

/// The SCAPE index. Built once from an AffinityModel snapshot; queries are
/// read-only and lock-free.
class ScapeIndex {
 public:
  /// Builds the index over every affine relationship in `model`.
  /// Indexes covariance & dot-product trees per pair pivot (serving
  /// covariance, dot product, correlation, cosine) and mean/median/mode
  /// trees per cluster (serving the L-measures). Per-pivot tree
  /// construction fans out over `exec`; the built index is identical at
  /// any thread count (per-tree insertion order is fixed).
  static StatusOr<ScapeIndex> Build(const AffinityModel& model, const ScapeOptions& options = {},
                                    const ExecContext& exec = {});

  /// MET query (Query 2): entities whose `measure` is greater (or lesser)
  /// than `tau`. Unimplemented for Jaccard/Dice (no separable normalizer —
  /// the engine falls back to WA compute-then-filter).
  StatusOr<ScapeQueryResult> MeasureThreshold(Measure measure, double tau,
                                              bool greater = true) const;

  /// MER query (Query 3): entities whose `measure` lies strictly inside
  /// (lo, hi). InvalidArgument when lo > hi.
  StatusOr<ScapeQueryResult> MeasureRange(Measure measure, double lo, double hi) const;

  /// Re-keys the index in place against a maintained model whose derived
  /// state (pivot measures, per-series stats, series-level relationships,
  /// centre L-measures, transforms) has been refreshed for a new window —
  /// the incremental alternative to rebuilding the index (DESIGN.md §8).
  ///
  /// The relationship/pivot *structure* must be unchanged since Build (the
  /// incremental path freezes clustering and marching); only keys and
  /// cached normalizers move. Every entry's scalar projection ξ and
  /// normalizer U are recomputed from the model exactly as Build computes
  /// them, then moved inside its per-(pivot, family) tree by an erase +
  /// insert; entries migrate between a tree and its degenerate side list
  /// when a pivot or normalizer degenerates (or recovers). Per-pivot work
  /// fans out over `exec`; the refreshed index is identical — same entry
  /// sets, same equal-key order — to a from-scratch Build over the same
  /// model, at any thread count.
  ///
  /// Returns the number of index move operations (re-keys + migrations).
  ///
  /// Sparse-movement fast path: an in-tree entry whose recomputed key ξ and
  /// cached normalizer U are both bitwise-unchanged is left in place (no
  /// erase + insert). When `rekeys_skipped` is non-null it receives the
  /// number of such skipped moves (merged in chunk order, so the count is
  /// thread-count invariant). Note one measure-zero caveat: if a *different*
  /// entry of the same pivot re-keys onto exactly the skipped entry's key,
  /// the equal-key order can differ from a from-scratch rebuild (the rebuild
  /// files them in member order; the skip leaves the stale placement). Keys,
  /// entry sets, and query answers are unaffected.
  ///
  /// When `delta` is non-null it is reset to this index's pivot shape and
  /// receives the refresh's dirty ξ-ranges per (pivot, family) — the
  /// ScapeDeltaRange contract above. Each pivot is recorded by the one
  /// chunk that owns it, so the log is identical at any thread count.
  StatusOr<std::size_t> Refresh(const AffinityModel& model, const ExecContext& exec = {},
                                std::size_t* rekeys_skipped = nullptr,
                                ScapeDeltaLog* delta = nullptr);

  /// Top-k query (extension): the k entities with the largest (or smallest)
  /// value of `measure`, best-first.
  ///
  /// T- and L-measures stream each pivot tree in key order and k-way-merge
  /// (exact, no recomputation). D-measures use a Fagin-style threshold
  /// algorithm: per pivot, the frontier key ξ and the normalizer bounds
  /// [Umin, Umax] yield an upper bound on every remaining value, so the
  /// scan stops as soon as k verified values dominate all bounds.
  /// Unimplemented for Jaccard/Dice (as with MET/MER).
  StatusOr<ScapeTopKResult> TopK(Measure measure, std::size_t k, bool largest = true) const;

  /// Number of pair-level pivot nodes.
  std::size_t pair_pivot_count() const { return pair_pivots_.size(); }

  /// Number of indexed sequence-pair entries (per measure family).
  std::size_t pair_entry_count() const { return pair_entries_; }

  /// Number of indexed series entries (per L-measure).
  std::size_t series_entry_count() const { return series_entries_; }

  /// Wall-clock seconds spent building the index.
  double build_seconds() const { return build_seconds_; }

 private:
  /// One sequence-pair entry: the pair, its exact D-measure normalizer
  /// (correlation-U in the covariance tree, cosine-U in the dot tree), and
  /// its scalar-projection key ξ (kept so zero-normalizer entries parked in
  /// the side list can still answer T-measure queries).
  struct SeqEntry {
    ts::SequencePair e;
    double u = 0.0;
    double xi = 0.0;
  };

  /// Sorted container + key metadata for one (pivot, T-measure family).
  /// `member_keys` / `member_in_tree` shadow the owning node's `members`
  /// list with each entry's current location, so Refresh can erase by the
  /// key an entry was last filed under.
  struct PairTree {
    explicit PairTree(std::size_t fanout) : tree(fanout) {}
    double alpha[3] = {0, 0, 0};
    double norm = 0.0;  ///< ‖α‖; 0 marks a degenerate pivot (value ≡ 0)
    double u_min = std::numeric_limits<double>::infinity();
    double u_max = 0.0;
    btree::BPlusTree<SeqEntry> tree;        ///< keyed by ξ, entries with U > 0
    std::vector<SeqEntry> degenerate;       ///< U == 0 entries (D-value ≡ 0)
    std::vector<double> member_keys;        ///< current ξ, aligned with members
    std::vector<double> member_u;           ///< current normalizer U, aligned with members
    std::vector<std::uint8_t> member_in_tree;  ///< 1 = in tree, 0 = side list
  };

  /// Pivot node: trees for the two T-measure families (Fig. 7), plus the
  /// build-order member list the maintenance path walks (the order fixes
  /// equal-key placement, keeping refreshed and rebuilt indexes identical).
  struct PairPivotNode {
    explicit PairPivotNode(std::size_t fanout) : trees{PairTree(fanout), PairTree(fanout)} {}
    PivotPair pivot;
    std::array<PairTree, 2> trees;  ///< 0 = covariance, 1 = dot product
    std::vector<ts::SequencePair> members;  ///< grouped relationship order
    /// The members' affine records, cached at build time (hash nodes are
    /// stable; Refresh requires the same model instance it was built from).
    std::vector<const AffineRecord*> member_recs;
  };

  /// Per-cluster pivot node for the L-measures.
  struct LocTree {
    explicit LocTree(std::size_t fanout) : tree(fanout) {}
    double alpha[2] = {0, 0};
    double norm = 1.0;
    btree::BPlusTree<ts::SeriesId> tree;  ///< keyed by ξ over series
    std::vector<double> member_keys;      ///< current ξ, aligned with members
  };
  struct LocPivotNode {
    explicit LocPivotNode(std::size_t fanout)
        : trees{LocTree(fanout), LocTree(fanout), LocTree(fanout)} {}
    std::array<LocTree, 3> trees;  ///< 0 = mean, 1 = median, 2 = mode
    std::vector<ts::SeriesId> members;    ///< cluster members, series order
  };

  ScapeIndex() = default;

  /// The serving layer flattens the private pivot structures into sorted
  /// contiguous arrays (src/serve); queries never mutate through this seam.
  friend class affinity::serve::SnapshotBuilder;

  static int PairFamilyIndex(Measure m);      // 0 cov, 1 dot, -1 otherwise
  static int LocationFamilyIndex(Measure m);  // 0..2, -1 otherwise

  StatusOr<ScapeQueryResult> LocationThreshold(int family, double tau, bool greater) const;
  StatusOr<ScapeQueryResult> LocationRange(int family, double lo, double hi) const;
  StatusOr<ScapeQueryResult> PairThreshold(Measure measure, double tau, bool greater) const;
  StatusOr<ScapeQueryResult> PairRange(Measure measure, double lo, double hi) const;

  std::vector<PairPivotNode> pair_pivots_;
  std::vector<LocPivotNode> loc_pivots_;  ///< one per cluster
  std::size_t pair_entries_ = 0;
  std::size_t series_entries_ = 0;
  double build_seconds_ = 0.0;
};

}  // namespace affinity::core

#endif  // AFFINITY_CORE_SCAPE_H_
