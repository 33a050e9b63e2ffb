#ifndef AFFINITY_CORE_QUERY_H_
#define AFFINITY_CORE_QUERY_H_

/// \file query.h
/// The three AFFINITY query types (Section 2.2) and a query engine that
/// answers each of them with any of the paper's four strategies:
///
///  * **WN** — naive: every value recomputed from the raw samples;
///  * **WA** — affine relationships (Section 4.1): O(1) per value after the
///    one-time SYMEX+ preprocessing;
///  * **WF** — top-5-DFT-coefficient approximation (correlation only);
///  * **SCAPE** — the index of Section 5 (MET/MER only);
///
/// or with **AUTO**, which consults the cost-based `QueryPlanner`
/// (planner.h) over the capabilities actually attached and dispatches to
/// the cheapest admissible strategy. Every response carries the
/// `ExecutedPlan` that answered it, for EXPLAIN-style introspection.
///
/// Full-sweep queries (MET/MER over all O(n²) sequence pairs, MEC pair
/// matrices, top-k) execute as deterministic chunked parallel loops over
/// the engine's `ExecContext` — results are identical at any thread
/// count (DESIGN.md §7).
///
/// The engine is the measurement surface of every benchmark: Figs. 9–12
/// time MEC under WN/WA; Figs. 15–16 and Table 4 time MET/MER under all
/// four strategies.

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "core/measures.h"
#include "core/planner.h"
#include "core/scape.h"
#include "core/symex.h"
#include "dft/dft_correlation.h"
#include "la/matrix.h"
#include "la/vector.h"
#include "ts/data_matrix.h"

namespace affinity::core {

/// The strategy that actually answered a query — the planner's choice
/// (cost estimate and rationale included) for `kAuto` queries, or a fixed
/// "explicitly requested" record otherwise.
using ExecutedPlan = PlanChoice;

/// Quality stamp of one answer (DESIGN.md §12): the worst composite
/// quality score among the series the answer touched, and how many
/// candidates the `min_quality` predicate excluded. `populated` is set
/// only when a quality surface was attached to the answering engine —
/// dense deployments without one are unchanged.
struct AnswerQuality {
  bool populated = false;
  double min_score = 1.0;   ///< worst score among touched series
  std::size_t excluded = 0; ///< candidates dropped by the predicate
};

/// Query 1 — measure computation over a set of series ψ.
struct MecRequest {
  Measure measure = Measure::kCovariance;
  std::vector<ts::SeriesId> ids;  ///< ψ ⊆ I
  /// Quality predicate (DESIGN.md §12): every id in ψ must have composite
  /// quality ≥ min_quality, else the query fails FailedPrecondition (the
  /// response shape is id-aligned, so silent exclusion is not an option).
  /// 0 (default) disables the predicate.
  double min_quality = 0.0;
};

/// MEC response: `location[i]` for L-measures (aligned with request ids),
/// or the |ψ|×|ψ| symmetric `pair_values` matrix for T/D-measures.
struct MecResponse {
  la::Vector location;
  la::Matrix pair_values;
  ExecutedPlan plan;
  AnswerQuality quality;
};

/// Query 2 — measure threshold: entities with measure > τ (or < τ).
struct MetRequest {
  Measure measure = Measure::kCovariance;
  double tau = 0.0;
  bool greater = true;
  /// Quality predicate: keep only entities whose series (both endpoints
  /// for pairs) score ≥ min_quality. 0 disables.
  double min_quality = 0.0;
};

/// Query 3 — measure range: entities with measure strictly in (lo, hi).
struct MerRequest {
  Measure measure = Measure::kCovariance;
  double lo = 0.0;
  double hi = 0.0;
  /// Quality predicate: keep only entities whose series (both endpoints
  /// for pairs) score ≥ min_quality. 0 disables.
  double min_quality = 0.0;
};

/// Top-k query (extension): the k entities with the largest (or smallest)
/// measure value.
struct TopKRequest {
  Measure measure = Measure::kCorrelation;
  std::size_t k = 10;
  bool largest = true;
  /// Quality predicate: only entities whose series (both endpoints for
  /// pairs) score ≥ min_quality compete for the k slots. 0 disables.
  double min_quality = 0.0;
};

/// Result of a MET/MER query: series ids for L-measures, sequence pairs for
/// T/D-measures. `prune` is populated by the SCAPE strategy only.
struct SelectionResult {
  std::vector<ts::SeriesId> series;
  std::vector<ts::SequencePair> pairs;
  PruneStats prune;
  ExecutedPlan plan;
  AnswerQuality quality;
};

/// Engine-level top-k result: the index-side entries plus the plan that
/// produced them.
struct TopKResult : ScapeTopKResult {
  ExecutedPlan plan;
  AnswerQuality quality;
};

/// The worst composite score among the series a top-k answer touched
/// (both endpoints of a pair entry); 1.0 for an empty answer.
/// `score(id)` returns the score of series `id`.
template <typename ScoreFn>
double WorstEntryScore(const std::vector<ScapeTopKEntry>& entries, const ScoreFn& score) {
  double worst = 1.0;
  for (const ScapeTopKEntry& e : entries) {
    worst = std::min(worst, e.has_series() ? score(e.series)
                                           : std::min(score(e.pair.u), score(e.pair.v)));
  }
  return worst;
}

/// A per-series quality surface as one answering path sees it (DESIGN.md
/// §12): the live engine's attached scores, an epoch's frozen copy of
/// them, or none. The engine and the snapshot paths check, filter and
/// stamp through this one implementation, so a served answer carries the
/// live engine's quality semantics bit for bit.
class QualitySurface {
 public:
  /// `scores` (nullptr = no surface) must outlive the view; `n` is the
  /// series count of the data the answer runs over.
  QualitySurface(const std::vector<double>* scores, std::size_t n) : scores_(scores), n_(n) {}

  bool attached() const { return scores_ != nullptr; }

  /// Composite score of series v (1.0 when detached or out of range).
  double Score(ts::SeriesId v) const {
    return scores_ == nullptr || v >= scores_->size() ? 1.0 : (*scores_)[v];
  }

  /// True when series v may take part in an answer under `min_quality`.
  bool Eligible(ts::SeriesId v, double min_quality) const {
    return min_quality <= 0.0 || Score(v) >= min_quality;
  }

  /// OK unless `min_quality > 0` cannot be served: FailedPrecondition
  /// when no surface is attached or it does not cover all n series.
  Status CheckPredicate(double min_quality) const;

  /// MET/MER post-filter: drops entities with a series (either endpoint
  /// of a pair) below `min_quality`, counts them in `excluded`, stamps
  /// the worst surviving score, and notes the filter in the plan. The
  /// measure and quality predicates are conjunctive, so filtering after
  /// any strategy (SCAPE included) is exact. No-op when detached.
  void FilterSelection(double min_quality, SelectionResult* out) const;

  /// Stamps a top-k answer with the worst score among its entries.
  /// No-op when detached.
  void StampTopK(TopKResult* out) const;

  /// Stamps a MEC answer with the worst score among the requested ids.
  /// MEC's response is id-aligned, so the predicate cannot exclude:
  /// FailedPrecondition when a requested id scores below
  /// `min_quality`. No-op when detached.
  Status StampMec(const MecRequest& request, AnswerQuality* out) const;

 private:
  const std::vector<double>* scores_;
  std::size_t n_;
};

/// Quality predicate on a top-k planned as SCAPE: the threshold
/// algorithm pops a fixed k entries with no notion of eligibility, so
/// restricting the competition to eligible series needs the sweep
/// (WA when a model is attached, else WN). Rewrites `plan` accordingly;
/// identity otherwise.
void RouteQualityTopK(double min_quality, bool has_model, ExecutedPlan* plan);

/// The tail of every sweep-style top-k (engine WN/WA, an epoch's pass
/// over its frozen table): `selected` must hold the best k eligible
/// entities best-first (a `TopKSelector` result); this fills `examined`
/// (every entity of the sweep), the quality exclusion count and plan
/// note when `min_quality > 0`, and the stamp.
TopKResult FinishSweepTopK(const TopKRequest& request, std::size_t n,
                           const QualitySurface& quality,
                           std::vector<ScapeTopKEntry> selected, ExecutedPlan plan);

/// The selection predicates — keep(value, a, b) — shared by the engine's
/// MET/MER sweeps, the served epoch sweeps, and the shard router's
/// cross-pair filter, so bound semantics (strict comparisons, open
/// ranges) are defined exactly once.
inline bool KeepGreater(double value, double tau, double /*unused*/) { return value > tau; }
inline bool KeepLesser(double value, double tau, double /*unused*/) { return value < tau; }
inline bool KeepInside(double value, double lo, double hi) { return lo < value && value < hi; }

/// Strategy-dispatching query processor.
///
/// The engine never owns its inputs; the caller guarantees that `data` (and
/// any attached model/index/estimator/thread pool) outlives it. `Affinity`
/// (framework.h) packages the ownership story for typical users.
class QueryEngine {
 public:
  /// An engine that can only answer with WN, sequentially.
  explicit QueryEngine(const ts::DataMatrix* data);

  /// Enables the WA strategy.
  void AttachModel(const AffinityModel* model) { model_ = model; }

  /// Enables the WF strategy (correlation only). Like WN, the WF strategy
  /// computes its approximation *per query* (sketch construction included)
  /// — this is how the paper's evaluation costs it. Callers wanting an
  /// amortized, pre-built estimator should use dft::DftCorrelationEstimator
  /// directly (the Affinity facade exposes one via wf()).
  void EnableDft(std::size_t coefficients = dft::kDefaultCoefficients) {
    wf_coefficients_ = coefficients;
  }

  /// Enables the SCAPE strategy (MET/MER).
  void AttachScape(const ScapeIndex* scape) { scape_ = scape; }

  /// Attaches the per-series quality surface (DESIGN.md §12): composite
  /// scores in [0, 1], one per series id. Enables the `min_quality`
  /// request predicate and stamps every answer's AnswerQuality. The
  /// vector must outlive the engine and track data_->n(); nullptr
  /// detaches (requests with min_quality > 0 then fail
  /// FailedPrecondition).
  void AttachQuality(const std::vector<double>* scores) { quality_ = scores; }

  /// The attached quality surface (nullptr when none).
  const std::vector<double>* quality() const { return quality_; }

  /// Sets the execution context used by full-sweep queries. The pool (if
  /// any) must outlive the engine; default is sequential.
  void SetExec(const ExecContext& exec) { exec_ = exec; }

  /// The engine's execution context.
  const ExecContext& exec() const { return exec_; }

  /// The planner capabilities implied by what is attached — the basis of
  /// every `kAuto` dispatch.
  QueryPlanner::Capabilities Capabilities() const;

  /// Query 1. FailedPrecondition when the strategy is not attached;
  /// InvalidArgument for strategy/measure mismatches (e.g. WF with a
  /// non-correlation measure) or out-of-range ids.
  StatusOr<MecResponse> Mec(const MecRequest& request,
                            QueryMethod method = QueryMethod::kAuto) const;

  /// Query 2 over all series (L) or all sequence pairs (T/D).
  StatusOr<SelectionResult> Met(const MetRequest& request,
                                QueryMethod method = QueryMethod::kAuto) const;

  /// Query 3 over all series (L) or all sequence pairs (T/D).
  StatusOr<SelectionResult> Mer(const MerRequest& request,
                                QueryMethod method = QueryMethod::kAuto) const;

  /// Top-k query (extension). WN/WA evaluate every eligible entity in
  /// one k-bounded pass (`TopKSelector`); SCAPE runs the index-side
  /// threshold algorithm. Results are best-first, value ties in
  /// (series, pair) order (`TopKBefore`).
  StatusOr<TopKResult> TopK(const TopKRequest& request,
                            QueryMethod method = QueryMethod::kAuto) const;

 private:
  /// kAuto → the planner's verdict over current capabilities (`plan` is
  /// called with a ready planner); anything else → an "explicitly
  /// requested" record. The single point where auto dispatch resolves.
  ExecutedPlan ResolvePlan(QueryMethod method,
                           const std::function<PlanChoice(const QueryPlanner&)>& plan) const;

  Status CheckIds(const std::vector<ts::SeriesId>& ids) const;
  StatusOr<double> Value(Measure measure, ts::SeriesId u, ts::SeriesId v,
                         QueryMethod method) const;
  StatusOr<double> SeriesValue(Measure measure, ts::SeriesId v, QueryMethod method) const;
  StatusOr<SelectionResult> SelectByPredicate(Measure measure, QueryMethod method,
                                              bool (*keep)(double, double, double), double a,
                                              double b) const;
  StatusOr<SelectionResult> SelectByPredicateDft(Measure measure,
                                                 bool (*keep)(double, double, double), double a,
                                                 double b) const;

  /// The attached quality surface over this engine's n series.
  QualitySurface quality_surface() const { return QualitySurface(quality_, data_->n()); }

  const ts::DataMatrix* data_;
  const AffinityModel* model_ = nullptr;
  std::size_t wf_coefficients_ = 0;  ///< 0 = WF disabled
  const ScapeIndex* scape_ = nullptr;
  const std::vector<double>* quality_ = nullptr;
  ExecContext exec_;
};

}  // namespace affinity::core

#endif  // AFFINITY_CORE_QUERY_H_
