#ifndef AFFINITY_CORE_PLANNER_H_
#define AFFINITY_CORE_PLANNER_H_

/// \file planner.h
/// A small rule/cost-based query planner (extension).
///
/// The paper benchmarks each strategy in isolation; a deployed system must
/// *choose* one per query. The planner encodes the cost model of Sections
/// 4–5 — per-measure naive kernel costs, O(1) affine propagation, and
/// index-scan costs — plus the hard capability rules (WF is correlation-
/// only, SCAPE cannot answer MEC, Jaccard/Dice are not indexable), and
/// returns the cheapest admissible strategy with an explanation.
///
/// `QueryEngine` (query.h) consults the planner for every
/// `QueryMethod::kAuto` query, deriving the capability set from whatever
/// has been attached; the chosen plan is surfaced in the response.
///
/// The planner never selects WF: its sketch-truncated correlations are a
/// coarse, per-query approximation, so automatic dispatch only reports
/// its availability in the rationale and callers opt in with an explicit
/// kDft. (WA/SCAPE answers are exact to machine precision for pair
/// measures — Lemma 1 — while median/mode propagate through the affine
/// fit as the close approximation the paper's design accepts; see
/// symex.h and DESIGN.md §3.)
///
/// Costs are abstract "scalar operation" counts, good for ranking
/// strategies, not for predicting wall time. The top-k rule is the one
/// checked against measured rows (see PlanTopK).

#include <cstdint>
#include <string>
#include <string_view>

#include "core/measures.h"

namespace affinity::core {

/// Strategy used to answer a query. `kAuto` defers the choice to the
/// QueryPlanner at query time. (Defined here — the planner is the layer
/// below the engine — and re-exported by query.h.)
enum class QueryMethod { kNaive, kAffine, kDft, kScape, kAuto };

/// Display name: "WN", "WA", "WF", "SCAPE", "AUTO".
std::string_view QueryMethodName(QueryMethod method);

struct PlanChoice;

/// Marks `plan` as answered from a published read-optimized snapshot
/// (serve/serving_snapshot.h) of epoch `generation`. Appends to the
/// rationale only — method and cost are untouched, so a snapshot-served
/// answer stays bitwise identical to the live engine's while EXPLAIN
/// output still shows where it ran.
void AnnotateSnapshotServed(PlanChoice* plan, std::uint64_t generation);

/// Notes on `plan` that a router gathered it over `shards` shards. For a
/// pair measure over more than one shard it adds that the `cross_pairs`
/// pairs spanning two shards are valued by WN (the router epoch's cross
/// co-moments), whatever strategy the shards run. Appends to the
/// rationale only.
void AnnotateScatterGather(PlanChoice* plan, Measure measure, std::size_t shards,
                           std::size_t cross_pairs);

/// Marks `plan` as post-filtered by the per-series quality predicate
/// (DESIGN.md §12): candidates touching a series whose composite quality
/// score fell below `min_quality` were excluded (`excluded` of them).
/// Appends to the rationale only — method and cost are untouched, so the
/// quality filter composes with any strategy.
void AnnotateQualityFiltered(PlanChoice* plan, double min_quality, std::size_t excluded);

/// The planner's verdict for one query.
struct PlanChoice {
  QueryMethod method = QueryMethod::kNaive;
  double estimated_cost = 0.0;  ///< abstract scalar-op count
  std::string rationale;        ///< human-readable explanation
};

/// Plans queries for a dataset of n series × m samples given which
/// structures have been built.
class QueryPlanner {
 public:
  /// Which strategies are available.
  struct Capabilities {
    bool has_model = false;    ///< WA (SYMEX output)
    bool has_scape = false;    ///< SCAPE index
    bool has_dft = false;      ///< WF sketches
    bool has_quality = false;  ///< per-series quality surface (DESIGN.md §12)
  };

  /// Shard topology of the deployment answering the query. The default is
  /// the unsharded (single-instance) case. With `shards > 1` the planner
  /// plans the *per-shard* strategy (n then means series per shard) and
  /// charges every candidate the scatter-gather surcharge: pairs spanning
  /// two shards are invisible to every per-shard structure, so the router
  /// evaluates them by the WN definition from its epoch's cross co-moments
  /// (shard_serve.h's `CrossMoments`, one exact sweep of the aligned shard
  /// snapshots per epoch) whatever strategy the shards run.
  struct Topology {
    std::size_t shards = 1;       ///< independent model instances
    std::size_t cross_pairs = 0;  ///< sequence pairs spanning two shards
  };

  QueryPlanner(std::size_t n, std::size_t m, Capabilities caps) : n_(n), m_(m), caps_(caps) {}

  QueryPlanner(std::size_t n, std::size_t m, Capabilities caps, Topology topology)
      : n_(n), m_(m), caps_(caps), topology_(topology) {}

  /// Plans Query 1 for a ψ of `ids` series.
  PlanChoice PlanMec(Measure measure, std::size_t ids) const;

  /// Plans Query 2 (full MET sweep). `selectivity` is the expected fraction
  /// of entities in the result (0..1; used to cost the index scan).
  /// Without SCAPE — every published epoch — a model plans WA: over an
  /// epoch one pass over the frozen table (DESIGN.md §11).
  PlanChoice PlanMet(Measure measure, double selectivity = 0.5) const;

  /// Plans Query 3 (full MER sweep), by PlanMet's rule.
  PlanChoice PlanMer(Measure measure, double selectivity = 0.5) const;

  /// Plans a top-k query.
  ///
  /// The cost rule: the SCAPE threshold algorithm (TA) is charged the
  /// per-pivot descent plus two heap operations for every entry its bound
  /// makes it examine — k entries for T- and L-measures, whose bound ‖α‖ξ
  /// is exact, and every entity for D-measures, whose bound ‖α‖ξ/U_min is
  /// loose. A WA pass reads every entity once at one lookup each and is
  /// chosen whenever it is cheaper: correlation and cosine plan WA
  /// whenever a model exists, while covariance, dot product and the
  /// L-measures keep SCAPE unless k covers nearly every entity. An epoch
  /// has no SCAPE index, so it plans every top-k as the WA pass over its
  /// frozen table.
  ///
  /// Measured (bench_micro `BM_TopK/live`, sensor data n = 256, window
  /// 1024, largest top-10; medians of 3 on a 4-core Intel Xeon, AVX2
  /// backend; µs, TA entries examined in brackets):
  ///   correlation:  TA 3003 [9577]  vs WA sweep 1765
  ///   covariance:   TA  133 [10]    vs WA sweep 1491
  /// The one measured case where the rule picks the slower path: stock
  /// data n = 128, window 4096, correlation smallest top-10, TA 117 [506]
  /// against the WA sweep's 460.
  PlanChoice PlanTopK(Measure measure, std::size_t k) const;

  /// Per-entity naive kernel cost of a measure (scalar ops) — the cost
  /// model behind every plan; exposed for tests and EXPLAIN output.
  double NaiveUnitCost(Measure measure) const;

 private:
  PlanChoice PlanSelection(Measure measure, double selectivity, bool top_k,
                           std::size_t k) const;

  /// Adds the scatter-gather surcharge (cross-shard WN sweep + k-way
  /// merge) to a per-shard plan and annotates the rationale. Identity when
  /// the topology is unsharded or the measure is per-series (L-measures
  /// never span shards).
  PlanChoice Shardify(PlanChoice choice, Measure measure) const;

  std::size_t n_;
  std::size_t m_;
  Capabilities caps_;
  Topology topology_{};
};

}  // namespace affinity::core

#endif  // AFFINITY_CORE_PLANNER_H_
