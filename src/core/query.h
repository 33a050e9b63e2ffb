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
/// The engine is the one implementation of every query. It answers over
/// a batch model — the data matrix and whatever is attached — or over a
/// published serving epoch (`EpochView`, DESIGN.md §11), whose WA values
/// come from frozen tables instead of the model. There a WA MET, MER or
/// top-k is one walk of the table in lexicographic order, and a WA MEC
/// reads its cells by index; epochs run sequentially, so none of these
/// takes the chunked loop. Batch, the engine is the measurement surface
/// of every benchmark: Figs. 9–12 time MEC under WN/WA; Figs. 15–16 and
/// Table 4 time MET/MER under all four strategies.

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <optional>
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
/// them, or none. The engine checks, filters and stamps through it over
/// either, so a served answer carries the live engine's quality
/// semantics bit for bit.
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

/// MEC's id check over n series: InvalidArgument for an empty set,
/// OutOfRange for the first id ≥ n. The engine and the shard router's
/// MEC gather both run it, so codes and texts agree.
Status CheckMecIds(const std::vector<ts::SeriesId>& ids, std::size_t n);

/// Returns `body(keep)`, where `keep(value)` is the request's selection
/// predicate, resolved once per query so a pass inlines it. The engine's
/// MET/MER and the shard router's cross-pair filter both select through
/// these, so bound semantics (strict comparisons, open ranges) are
/// defined exactly once.
template <typename Body>
auto WithPredicate(const MetRequest& request, const Body& body) {
  const double tau = request.tau;
  if (request.greater) return body([tau](double value) { return value > tau; });
  return body([tau](double value) { return value < tau; });
}

template <typename Body>
auto WithPredicate(const MerRequest& request, const Body& body) {
  const double lo = request.lo;
  const double hi = request.hi;
  return body([lo, hi](double value) { return lo < value && value < hi; });
}

/// A published serving epoch as the engine reads it
/// (serve/serve_query.h binds one per query). Everything was frozen at
/// the epoch's publication point and must outlive the engine.
struct EpochView {
  std::uint64_t generation = 0;  ///< noted on every plan
  std::size_t n = 0;             ///< series in the window
  std::size_t m = 0;             ///< samples per series
  /// The dense window. Only the WN and WF branches call it, so an epoch
  /// materializes its copy-on-write window for those queries only.
  std::function<const ts::DataMatrix&()> dense;
  /// The live engine's capabilities and WF coefficient count at
  /// publication: kAuto plans, and WF sketches its window, exactly as
  /// the live engine did then.
  QueryPlanner::Capabilities caps;
  std::size_t wf_coefficients = 0;   ///< 0: WF not enabled
  const ScapeRuns* scape = nullptr;  ///< null: no SCAPE index
  /// The frozen WA surface: the exact per-series statistics (the MEC
  /// diagonal; null when the epoch has no WA at all) and, indexed by
  /// `Measure`, each measure's values — one per series for an
  /// L-measure, one per pair in lexicographic order for a pair measure.
  /// With `stats` set every table is present: streams refuse incomplete
  /// relationship sets, so the model that published the epoch held
  /// every value.
  const std::vector<SeriesStats>* stats = nullptr;
  std::array<const std::vector<double>*, kNumMeasures> wa_tables{};
  const std::vector<double>* quality = nullptr;  ///< null: no quality surface
};

/// Strategy-dispatching query processor.
///
/// The engine never owns its inputs; the caller guarantees that `data` (and
/// any attached model/index/estimator/thread pool) outlives it. `Affinity`
/// (framework.h) packages the ownership story for typical users.
class QueryEngine {
 public:
  /// An engine that can only answer with WN, sequentially.
  explicit QueryEngine(const ts::DataMatrix* data);

  /// An engine over a published epoch: it plans with the epoch's frozen
  /// capabilities, reads WA values from its frozen tables and SCAPE runs
  /// from its handles, sketches WF over its window, notes the generation
  /// on every plan, and runs sequentially.
  explicit QueryEngine(EpochView epoch);

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
  void AttachScape(const ScapeIndex* scape) {
    scape_ = scape != nullptr ? &scape->runs() : nullptr;
  }

  /// Attaches the per-series quality surface (DESIGN.md §12): composite
  /// scores in [0, 1], one per series id. Enables the `min_quality`
  /// request predicate and stamps every answer's AnswerQuality. The
  /// vector must outlive the engine and track data_->n(); nullptr
  /// detaches (requests with min_quality > 0 then fail
  /// FailedPrecondition).
  void AttachQuality(const std::vector<double>* scores) { quality_ = scores; }

  /// The attached quality surface (nullptr when none).
  const std::vector<double>* quality() const { return quality_; }

  /// The WF coefficient count (0 when WF is not enabled).
  std::size_t wf_coefficients() const { return wf_coefficients_; }

  /// Sets the execution context used by full-sweep queries. The pool (if
  /// any) must outlive the engine; default is sequential.
  void SetExec(const ExecContext& exec) { exec_ = exec; }

  /// The engine's execution context.
  const ExecContext& exec() const { return exec_; }

  /// The planner capabilities implied by what is attached (over an
  /// epoch: its frozen capabilities) — the basis of every `kAuto`
  /// dispatch.
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

  /// Notes the epoch's generation on `plan` (no-op for a batch engine).
  void NoteEpoch(ExecutedPlan* plan) const;

  std::size_t n() const { return epoch_ ? epoch_->n : data_->n(); }
  std::size_t m() const { return epoch_ ? epoch_->m : data_->m(); }

  /// The dense window — read by the WN and WF branches only.
  const ts::DataMatrix& dense() const { return epoch_ ? epoch_->dense() : *data_; }

  /// True when WA is attached: a model, or an epoch's frozen tables.
  bool has_wa() const { return model_ != nullptr || (epoch_ && epoch_->stats != nullptr); }

  /// The epoch's frozen WA values of `measure`; nullptr when there are
  /// none, and then `FrozenTableError` is the status of a query that
  /// needs them.
  const double* FrozenTable(Measure measure) const;

  /// FailedPrecondition without WA, InvalidArgument for a value outside
  /// the `Measure` enum (the only one without a table).
  Status FrozenTableError() const;

  /// WA top-k over the frozen table: one k-bounded walk in lexicographic
  /// order, eligible entities only — no per-entity StatusOr, no window.
  StatusOr<std::vector<ScapeTopKEntry>> FrozenTopK(const TopKRequest& request,
                                                   const QualitySurface& quality) const;

  /// WA MEC over the frozen tables: locations, or cells by
  /// `LexPairIndex` with the diagonal from the frozen per-series stats.
  StatusOr<MecResponse> FrozenMec(const MecRequest& request, MecResponse out) const;

  /// One value of the chunked sweeps: WN, or WA from the attached model.
  /// WA without a model reads the frozen tables (FrozenMec,
  /// SelectByPredicate, FrozenTopK) and never comes here.
  StatusOr<double> Value(Measure measure, ts::SeriesId u, ts::SeriesId v,
                         QueryMethod method) const;
  StatusOr<double> SeriesValue(Measure measure, ts::SeriesId v, QueryMethod method) const;

  /// MET/MER under `method` (WN, WA or WF; the caller answers SCAPE):
  /// every entity whose value passes `keep(value)` (`WithPredicate`), in
  /// id or lexicographic pair order. WA over an epoch is one walk of the
  /// frozen table.
  template <typename Keep>
  StatusOr<SelectionResult> SelectByPredicate(Measure measure, QueryMethod method,
                                              const Keep& keep) const;
  template <typename Keep>
  StatusOr<SelectionResult> SelectByPredicateDft(Measure measure, const Keep& keep) const;

  /// The attached quality surface over this engine's n series.
  QualitySurface quality_surface() const { return QualitySurface(quality_, n()); }

  const ts::DataMatrix* data_ = nullptr;  ///< the batch window; null over an epoch
  const AffinityModel* model_ = nullptr;
  std::size_t wf_coefficients_ = 0;  ///< 0 = WF disabled
  const ScapeRuns* scape_ = nullptr;
  const std::vector<double>* quality_ = nullptr;
  ExecContext exec_;
  std::optional<EpochView> epoch_;  ///< set when answering over an epoch
};

}  // namespace affinity::core

#endif  // AFFINITY_CORE_QUERY_H_
