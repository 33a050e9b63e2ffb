#include "core/planner.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

namespace affinity::core {

namespace {

/// Entities a full selection sweep touches: series for L, pairs otherwise.
double EntityCount(Measure measure, std::size_t n) {
  return IsLocation(measure) ? static_cast<double>(n)
                             : static_cast<double>(n) * static_cast<double>(n - 1) / 2.0;
}

constexpr double kLookupCost = 24.0;  ///< hash probe + propagation flops (WA)
constexpr double kTreeStep = 8.0;     ///< run seek/emit per entry (SCAPE)
/// One sift through a heap of stream heads or kept candidates (~log2
/// levels of compare-and-move) — the top-k threshold algorithm pays two
/// per entry it examines (planner.h).
constexpr double kHeapOp = 12.0;
/// One sequential read and compare: a selection's pass over an epoch's
/// frozen table.
constexpr double kTableRead = 2.0;

}  // namespace

std::string_view QueryMethodName(QueryMethod method) {
  switch (method) {
    case QueryMethod::kNaive:
      return "WN";
    case QueryMethod::kAffine:
      return "WA";
    case QueryMethod::kDft:
      return "WF";
    case QueryMethod::kScape:
      return "SCAPE";
    case QueryMethod::kAuto:
      return "AUTO";
  }
  return "?";
}

void AnnotateSnapshotServed(PlanChoice* plan, std::uint64_t generation) {
  plan->rationale +=
      "; served from read-optimized snapshot (generation " + std::to_string(generation) + ")";
}

void AnnotateScatterGather(PlanChoice* plan, Measure measure, std::size_t shards,
                           std::size_t cross_pairs) {
  plan->rationale += "; scatter-gather over " + std::to_string(shards) + " shards";
  if (shards > 1 && !IsLocation(measure)) {
    plan->rationale +=
        " (+" + std::to_string(cross_pairs) + " cross-shard pairs via WN, k-way merge)";
  }
}

void AnnotateQualityFiltered(PlanChoice* plan, double min_quality, std::size_t excluded) {
  plan->rationale += "; quality filter min_quality=" + std::to_string(min_quality) +
                     " excluded " + std::to_string(excluded) + " candidate(s)";
}

double QueryPlanner::NaiveUnitCost(Measure measure) const {
  // Calibrated to the marginal-hoisted blocked kernels (DESIGN.md §10):
  // every pair measure costs one fused Σxy pass (2m flops); the hoisted
  // per-column marginals (amortized ~2m/n per pair over a full sweep) and
  // the O(1) moment assembly are folded into the constants, which keeps
  // the seed ordering dot < covariance < correlation the crossover tests
  // rely on.
  const double m = static_cast<double>(m_);
  switch (measure) {
    case Measure::kMean:
      return m;
    case Measure::kMedian:
      return 3.0 * m;  // selection network constant
    case Measure::kMode:
      return m * m;  // O(m²) density estimator (see stats.h)
    case Measure::kCovariance:
      return 2.5 * m;  // fused dot + mean assembly from hoisted marginals
    case Measure::kDotProduct:
      return 2.0 * m;  // the bare fused dot
    case Measure::kCorrelation:
      return 3.0 * m;  // + variance normalizer from hoisted marginals
    case Measure::kCosine:
    case Measure::kJaccard:
    case Measure::kDice:
      return 3.0 * m;  // + energy normalizer from hoisted marginals
  }
  return m;
}

PlanChoice QueryPlanner::Shardify(PlanChoice choice, Measure measure) const {
  if (topology_.shards <= 1 || IsLocation(measure)) return choice;
  // Pairs spanning two shards are outside every per-shard model/index; the
  // router evaluates them by the WN definition over the aligned shard
  // snapshots (one exact sweep per epoch, shared by its queries), then
  // k-way-merges the per-shard and cross-shard runs.
  choice.estimated_cost += static_cast<double>(topology_.cross_pairs) * NaiveUnitCost(measure);
  AnnotateScatterGather(&choice, measure, topology_.shards, topology_.cross_pairs);
  return choice;
}

PlanChoice QueryPlanner::PlanMec(Measure measure, std::size_t ids) const {
  const double entities = IsLocation(measure)
                              ? static_cast<double>(ids)
                              : static_cast<double>(ids) * static_cast<double>(ids + 1) / 2.0;
  const double wn_cost = entities * NaiveUnitCost(measure);
  if (caps_.has_model) {
    return Shardify(PlanChoice{QueryMethod::kAffine, entities * kLookupCost,
                               "WA: O(1) propagation per requested entity (model available)"},
                    measure);
  }
  return Shardify(PlanChoice{QueryMethod::kNaive, wn_cost, "WN: no model built"}, measure);
}

PlanChoice QueryPlanner::PlanSelection(Measure measure, double selectivity, bool top_k,
                                       std::size_t k) const {
  const double entities = EntityCount(measure, n_);
  const bool indexable =
      !IsDerived(measure) || HasSeparableNormalizer(measure);  // Jaccard/Dice are not

  if (caps_.has_scape && indexable) {
    // Per-pivot descent (log of entries); the k·n upper bound on pivots
    // is folded into the constant.
    const double descent = static_cast<double>(n_) * std::log2(2.0 + entities);
    if (!top_k) {
      // Over an epoch's frozen tables a WA selection is one pass reading
      // every entity once. SCAPE's loose D-measure bound ‖α‖ξ/U_min leaves
      // most entries in its verify bands, so the pass wins there; the
      // exact T/L bound accepts whole spans and verifies nothing, so SCAPE
      // keeps those (planner.h has the rule and the measured rows).
      if (caps_.has_model && caps_.frozen_wa && IsDerived(measure)) {
        return Shardify(
            PlanChoice{QueryMethod::kAffine, entities * kTableRead,
                       "WA: one pass over the epoch's frozen table (SCAPE's D-measure bound "
                       "would verify most of the " +
                           std::to_string(static_cast<std::size_t>(entities)) + " entities)"},
            measure);
      }
      return Shardify(PlanChoice{QueryMethod::kScape,
                                 descent + selectivity * entities * kTreeStep,
                                 "SCAPE: key-range scan per pivot, no per-entity computation"},
                      measure);
    }
    // Top-k: the threshold algorithm examines what its bound cannot rule
    // out — k entries under the exact T/L bound, every entity under the
    // loose D-measure bound ‖α‖ξ/U_min — at two heap operations each.
    // A WA pass reads every entity once, so it wins wherever the bound
    // is loose (planner.h has the rule and the measured rows).
    const double examined =
        IsDerived(measure) ? entities : std::min(static_cast<double>(k), entities);
    const double ta_cost = descent + examined * 2.0 * kHeapOp;
    const double wa_cost = entities * kLookupCost;
    if (caps_.has_model && wa_cost < ta_cost) {
      return Shardify(PlanChoice{QueryMethod::kAffine, wa_cost,
                                 "WA: one k-bounded pass over every entity (the threshold "
                                 "algorithm's bound would examine " +
                                     std::to_string(static_cast<std::size_t>(examined)) +
                                     " of " + std::to_string(static_cast<std::size_t>(entities)) +
                                     ")"},
                      measure);
    }
    return Shardify(PlanChoice{QueryMethod::kScape, ta_cost,
                               "SCAPE: threshold-algorithm top-k over pivot runs"},
                    measure);
  }
  if (caps_.has_model) {
    return Shardify(
        PlanChoice{QueryMethod::kAffine, entities * kLookupCost,
                   indexable ? "WA: model available but SCAPE not built"
                             : "WA: measure not SCAPE-indexable (no separable normalizer)"},
        measure);
  }
  // WF is never chosen automatically — its sketch truncation is a coarse
  // approximation; callers wanting it request kDft explicitly. The
  // rationale still reports its availability.
  const bool wf_applies = caps_.has_dft && measure == Measure::kCorrelation;
  return Shardify(
      PlanChoice{QueryMethod::kNaive, entities * NaiveUnitCost(measure),
                 wf_applies ? "WN: no model or index built (WF sketches available but "
                              "approximate; request WF explicitly)"
                            : "WN: no model or index built"},
      measure);
}

PlanChoice QueryPlanner::PlanMet(Measure measure, double selectivity) const {
  return PlanSelection(measure, selectivity, /*top_k=*/false, 0);
}

PlanChoice QueryPlanner::PlanMer(Measure measure, double selectivity) const {
  return PlanSelection(measure, selectivity, /*top_k=*/false, 0);
}

PlanChoice QueryPlanner::PlanTopK(Measure measure, std::size_t k) const {
  return PlanSelection(measure, 0.0, /*top_k=*/true, k);
}

}  // namespace affinity::core
