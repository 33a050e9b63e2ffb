#include "core/query.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/kernels.h"

namespace affinity::core {

namespace {

/// Quality predicate on a top-k planned as SCAPE over an attached index:
/// the threshold algorithm pops a fixed k entries with no notion of
/// eligibility, so restricting the competition to eligible series needs
/// the sweep (WA when a model is attached, else WN). Rewrites `plan`
/// accordingly; identity otherwise. Without an index, a SCAPE top-k
/// fails whatever the predicate.
void RouteQualityTopK(double min_quality, const QueryPlanner::Capabilities& caps,
                      ExecutedPlan* plan) {
  if (min_quality <= 0.0 || plan->method != QueryMethod::kScape || !caps.has_scape) return;
  plan->method = caps.has_model ? QueryMethod::kAffine : QueryMethod::kNaive;
  plan->rationale += "; quality filter: SCAPE bypassed, " +
                     std::string(QueryMethodName(plan->method)) +
                     " sweep over eligible entities";
}

/// The tail of every sweep-style top-k (WN, WA from a model or a frozen
/// table): `selected` must hold the best k eligible entities best-first
/// (a `TopKSelector` result); this fills `examined` (every entity of the
/// sweep), the quality exclusion count and plan note when
/// `min_quality > 0`, and the stamp.
TopKResult FinishSweepTopK(const TopKRequest& request, std::size_t n,
                           const QualitySurface& quality,
                           std::vector<ScapeTopKEntry> selected, ExecutedPlan plan) {
  const bool location = IsLocation(request.measure);
  TopKResult out;
  out.entries = std::move(selected);
  out.examined = location ? n : ts::SequencePairCount(n);
  out.plan = std::move(plan);
  if (request.min_quality > 0.0) {
    std::size_t eligible = 0;
    for (std::size_t v = 0; v < n; ++v) {
      eligible += quality.Eligible(static_cast<ts::SeriesId>(v), request.min_quality) ? 1 : 0;
    }
    out.quality.excluded =
        out.examined - (location ? eligible : ts::SequencePairCount(eligible));
    AnnotateQualityFiltered(&out.plan, request.min_quality, out.quality.excluded);
  }
  quality.StampTopK(&out);
  return out;
}

/// A pair measure's WA value on the diagonal (u, u), from the exact
/// per-series statistics.
StatusOr<double> DiagonalValue(Measure measure, const SeriesStats& st) {
  switch (measure) {
    case Measure::kCovariance:
      return st.variance;
    case Measure::kDotProduct:
      return st.sumsq;
    case Measure::kCorrelation:
      return st.variance > 0.0 ? 1.0 : 0.0;
    case Measure::kCosine:
    case Measure::kJaccard:
    case Measure::kDice:
      return st.sumsq > 0.0 ? 1.0 : 0.0;
    default:
      return Status::InvalidArgument("not a pair measure");
  }
}

/// WA MET/MER over an epoch's frozen table of n series: one walk in id
/// order (an L-measure's table) or row by row in lexicographic pair order
/// (row u holds pairs (u, u + 1 + j)), keeping every entity whose value
/// passes `keep` — no window, no per-entity StatusOr, no chunks.
template <typename Keep>
SelectionResult FrozenSelect(const double* values, std::size_t n, bool location,
                             const Keep& keep) {
  SelectionResult out;
  if (location) {
    for (std::size_t v = 0; v < n; ++v) {
      if (keep(values[v])) out.series.push_back(static_cast<ts::SeriesId>(v));
    }
    return out;
  }
  // The answer grows before each row by at least the row's length, so the
  // scan only compares and stores: no per-pair call or capacity check,
  // whatever the compiler inlines. It tests four values at a time: in a
  // selective query most blocks keep nothing and cost one branch, and a
  // block that keeps something writes each candidate and steps past the
  // kept ones, with no branch per pair.
  std::vector<ts::SequencePair>& pairs = out.pairs;
  std::size_t size = 0;
  for (std::size_t u = 0; u + 1 < n; ++u) {
    const double* row = values + ts::PairsBeforeRow(u, n);
    const std::size_t len = n - u - 1;
    if (pairs.size() - size < len) pairs.resize(std::max(2 * pairs.size(), size + len));
    ts::SequencePair* kept = pairs.data() + size;
    // Writes pair (u, u + 1 + j) at `kept`, and keeps it when `pass`.
    const auto offer = [&](std::size_t j, bool pass) {
      kept->u = static_cast<ts::SeriesId>(u);
      kept->v = static_cast<ts::SeriesId>(u + 1 + j);
      kept += pass ? 1 : 0;
    };
    std::size_t j = 0;
    for (; j + 4 <= len; j += 4) {
      const bool k0 = keep(row[j]);
      const bool k1 = keep(row[j + 1]);
      const bool k2 = keep(row[j + 2]);
      const bool k3 = keep(row[j + 3]);
      if (!(k0 || k1 || k2 || k3)) continue;
      offer(j, k0);
      offer(j + 1, k1);
      offer(j + 2, k2);
      offer(j + 3, k3);
    }
    for (; j < len; ++j) offer(j, keep(row[j]));
    size = static_cast<std::size_t>(kept - pairs.data());
  }
  pairs.resize(size);
  return out;
}

}  // namespace

QueryEngine::QueryEngine(const ts::DataMatrix* data) : data_(data) {
  AFFINITY_CHECK(data != nullptr);
}

QueryEngine::QueryEngine(EpochView epoch)
    : wf_coefficients_(epoch.wf_coefficients),
      quality_(epoch.quality),
      epoch_(std::move(epoch)) {}

QueryPlanner::Capabilities QueryEngine::Capabilities() const {
  if (epoch_) return epoch_->caps;
  QueryPlanner::Capabilities caps;
  caps.has_model = model_ != nullptr;
  caps.has_scape = scape_ != nullptr;
  caps.has_dft = wf_coefficients_ > 0;
  caps.has_quality = quality_ != nullptr;
  return caps;
}

ExecutedPlan QueryEngine::ResolvePlan(
    QueryMethod method, const std::function<PlanChoice(const QueryPlanner&)>& plan) const {
  if (method != QueryMethod::kAuto) {
    ExecutedPlan explicit_plan;
    explicit_plan.method = method;
    explicit_plan.rationale = "explicitly requested " + std::string(QueryMethodName(method));
    return explicit_plan;
  }
  return plan(QueryPlanner(n(), m(), Capabilities()));
}

void QueryEngine::NoteEpoch(ExecutedPlan* plan) const {
  if (epoch_) AnnotateSnapshotServed(plan, epoch_->generation);
}

const double* QueryEngine::FrozenTable(Measure measure) const {
  const auto slot = static_cast<std::size_t>(measure);
  if (!epoch_ || epoch_->stats == nullptr || slot >= epoch_->wa_tables.size()) return nullptr;
  return epoch_->wa_tables[slot]->data();
}

Status QueryEngine::FrozenTableError() const {
  if (!has_wa()) return Status::FailedPrecondition("WA strategy not attached");
  // Only a value outside the enum has no table, and IsLocation counts it
  // as an L-measure, so it arrives from the L-measure paths.
  return Status::InvalidArgument("not an L-measure");
}

Status QualitySurface::CheckPredicate(double min_quality) const {
  if (min_quality <= 0.0) return Status::OK();
  if (scores_ == nullptr) {
    return Status::FailedPrecondition(
        "min_quality requires an attached per-series quality surface");
  }
  if (scores_->size() != n_) {
    return Status::FailedPrecondition("quality surface covers " +
                                      std::to_string(scores_->size()) + " series but n=" +
                                      std::to_string(n_));
  }
  return Status::OK();
}

void QualitySurface::FilterSelection(double min_quality, SelectionResult* out) const {
  if (!attached()) return;
  // Scores read through locals: the compaction stores could otherwise
  // alias the surface and force a reload per entity. remove_if writes
  // nothing until the first exclusion, so an unfiltered answer is only
  // read.
  const double* scores = scores_->data();
  const std::size_t size = scores_->size();
  const auto score = [&](ts::SeriesId v) { return v < size ? scores[v] : 1.0; };
  const auto below = [&](double s) { return min_quality > 0.0 && s < min_quality; };
  AnswerQuality q;
  q.populated = true;
  const auto series_end =
      std::remove_if(out->series.begin(), out->series.end(), [&](ts::SeriesId v) {
        const double s = score(v);
        if (below(s)) return true;
        q.min_score = std::min(q.min_score, s);
        return false;
      });
  q.excluded += static_cast<std::size_t>(out->series.end() - series_end);
  out->series.erase(series_end, out->series.end());
  const auto pairs_end =
      std::remove_if(out->pairs.begin(), out->pairs.end(), [&](const ts::SequencePair& p) {
        const double su = score(p.u);
        const double sv = score(p.v);
        if (below(su) || below(sv)) return true;
        q.min_score = std::min(q.min_score, std::min(su, sv));
        return false;
      });
  q.excluded += static_cast<std::size_t>(out->pairs.end() - pairs_end);
  out->pairs.erase(pairs_end, out->pairs.end());
  out->quality = q;
  if (min_quality > 0.0) AnnotateQualityFiltered(&out->plan, min_quality, q.excluded);
}

void QualitySurface::StampTopK(TopKResult* out) const {
  if (!attached()) return;
  out->quality.populated = true;
  out->quality.min_score =
      WorstEntryScore(out->entries, [&](ts::SeriesId v) { return Score(v); });
}

Status QualitySurface::StampMec(const MecRequest& request, AnswerQuality* out) const {
  if (!attached()) return Status::OK();
  out->populated = true;
  for (const ts::SeriesId id : request.ids) {
    const double s = Score(id);
    out->min_score = std::min(out->min_score, s);
    if (request.min_quality > 0.0 && s < request.min_quality) {
      return Status::FailedPrecondition(
          "series " + std::to_string(id) + " has quality " + std::to_string(s) +
          " below the requested min_quality " + std::to_string(request.min_quality));
    }
  }
  return Status::OK();
}

Status CheckMecIds(const std::vector<ts::SeriesId>& ids, std::size_t n) {
  if (ids.empty()) return Status::InvalidArgument("MEC requires a non-empty id set");
  for (const ts::SeriesId id : ids) {
    if (id >= n) {
      return Status::OutOfRange("series id " + std::to_string(id) + " out of range (n=" +
                                std::to_string(n) + ")");
    }
  }
  return Status::OK();
}

StatusOr<double> QueryEngine::SeriesValue(Measure measure, ts::SeriesId v,
                                          QueryMethod method) const {
  switch (method) {
    case QueryMethod::kNaive:
      return NaiveLocationMeasure(measure, dense().ColumnData(v), m());
    case QueryMethod::kAffine:
      AFFINITY_DCHECK(model_ != nullptr);
      return model_->SeriesMeasure(measure, v);
    default:
      return Status::InvalidArgument("L-measures support WN and WA only");
  }
}

StatusOr<double> QueryEngine::Value(Measure measure, ts::SeriesId u, ts::SeriesId v,
                                    QueryMethod method) const {
  switch (method) {
    case QueryMethod::kNaive: {
      const ts::DataMatrix& window = dense();
      return NaivePairMeasure(measure, window.ColumnData(u), window.ColumnData(v), window.m(),
                              window.anchor_row());
    }
    case QueryMethod::kAffine:
      AFFINITY_DCHECK(model_ != nullptr);
      // Diagonal entries come from the exact per-series statistics.
      if (u == v) return DiagonalValue(measure, model_->series_stats(u));
      return model_->PairMeasure(measure, ts::SequencePair(u, v));
    case QueryMethod::kDft:
      return Status::Internal("WF values are computed batch-wise (see Mec/Met/Mer)");
    case QueryMethod::kScape:
      return Status::InvalidArgument("SCAPE answers MET/MER queries, not MEC");
    case QueryMethod::kAuto:
      return Status::Internal("kAuto must be resolved before per-value dispatch");
  }
  return Status::Internal("unreachable");
}

StatusOr<MecResponse> QueryEngine::Mec(const MecRequest& request, QueryMethod method) const {
  AFFINITY_RETURN_IF_ERROR(CheckMecIds(request.ids, n()));
  const QualitySurface quality = quality_surface();
  AFFINITY_RETURN_IF_ERROR(quality.CheckPredicate(request.min_quality));
  AnswerQuality answer_quality;
  AFFINITY_RETURN_IF_ERROR(quality.StampMec(request, &answer_quality));
  ExecutedPlan plan = ResolvePlan(method, [&](const QueryPlanner& planner) {
    return planner.PlanMec(request.measure, request.ids.size());
  });
  method = plan.method;
  NoteEpoch(&plan);

  MecResponse out;
  out.plan = std::move(plan);
  out.quality = answer_quality;
  if (method == QueryMethod::kAffine && model_ == nullptr) {
    return FrozenMec(request, std::move(out));
  }
  const std::size_t count = request.ids.size();
  if (IsLocation(request.measure)) {
    out.location = la::Vector(count);
    AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
        exec_, count, [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) -> Status {
          for (std::size_t i = lo; i < hi; ++i) {
            auto value = SeriesValue(request.measure, request.ids[i], method);
            if (!value.ok()) return value.status();
            out.location[i] = *value;
          }
          return Status::OK();
        }));
    return out;
  }
  if (method == QueryMethod::kDft) {
    // WF computes its sketches from scratch per query (paper §6 cost model)
    // over just the requested series.
    if (wf_coefficients_ == 0) return Status::FailedPrecondition("WF strategy not enabled");
    if (request.measure != Measure::kCorrelation) {
      return Status::InvalidArgument("the WF method only supports the correlation coefficient");
    }
    const ts::DataMatrix& window = dense();
    la::Matrix subset(window.m(), count);
    for (std::size_t i = 0; i < count; ++i) subset.SetCol(i, window.Column(request.ids[i]));
    AFFINITY_ASSIGN_OR_RETURN(
        dft::DftCorrelationEstimator wf,
        dft::DftCorrelationEstimator::Build(ts::DataMatrix(std::move(subset)), wf_coefficients_,
                                            exec_));
    out.pair_values = wf.EstimateAll();
    return out;
  }
  out.pair_values = la::Matrix(count, count);
  // WN: hoist each requested column's marginals once — O(count·m) — then
  // exactly one fused blocked dot per cell; the diagonal reuses the
  // hoisted Σx² chain (bit-equal to BlockedDot(x, x)) with no extra scan.
  const ts::DataMatrix* window = method == QueryMethod::kNaive ? &dense() : nullptr;
  std::vector<kernels::Marginals> marginals;
  std::vector<const double*> cols;
  if (window != nullptr) {
    cols.resize(count);
    for (std::size_t i = 0; i < count; ++i) cols[i] = window->ColumnData(request.ids[i]);
    marginals = kernels::HoistMarginals(cols, window->m(), exec_, window->anchor_row());
  }
  // Row i fills cells (i, j) and (j, i) for j ≥ i — rows write disjoint
  // cell sets, so the chunked fill needs no synchronization.
  AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
      exec_, count, [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) -> Status {
        for (std::size_t i = lo; i < hi; ++i) {
          for (std::size_t j = i; j < count; ++j) {
            StatusOr<double> value = [&]() -> StatusOr<double> {
              if (window == nullptr) {
                return Value(request.measure, request.ids[i], request.ids[j], method);
              }
              const double dot = i == j ? marginals[i].sumsq
                                        : kernels::BlockedDot(cols[i], cols[j], window->m(),
                                                              window->anchor_row());
              return PairMeasureFromMoments(
                  request.measure,
                  PairMomentsFromMarginals(marginals[i], marginals[j], dot, window->m()));
            }();
            if (!value.ok()) return value.status();
            out.pair_values(i, j) = *value;
            out.pair_values(j, i) = *value;
          }
        }
        return Status::OK();
      }));
  return out;
}

StatusOr<MecResponse> QueryEngine::FrozenMec(const MecRequest& request, MecResponse out) const {
  const double* values = FrozenTable(request.measure);
  if (values == nullptr) return FrozenTableError();
  const std::vector<ts::SeriesId>& ids = request.ids;
  const std::size_t count = ids.size();
  if (IsLocation(request.measure)) {
    out.location = la::Vector(count);
    for (std::size_t i = 0; i < count; ++i) out.location[i] = values[ids[i]];
    return out;
  }
  const std::size_t n = epoch_->n;
  const std::vector<SeriesStats>& stats = *epoch_->stats;
  out.pair_values = la::Matrix(count, count);
  for (std::size_t i = 0; i < count; ++i) {
    // Diagonal entries come from the exact per-series statistics — as do
    // the cells of a repeated id.
    AFFINITY_ASSIGN_OR_RETURN(const double diagonal,
                              DiagonalValue(request.measure, stats[ids[i]]));
    out.pair_values(i, i) = diagonal;
    for (std::size_t j = i + 1; j < count; ++j) {
      const ts::SequencePair e(ids[i], ids[j]);
      const double value = e.u == e.v ? diagonal : values[ts::LexPairIndex(e.u, e.v, n)];
      out.pair_values(i, j) = value;
      out.pair_values(j, i) = value;
    }
  }
  return out;
}

template <typename Keep>
StatusOr<SelectionResult> QueryEngine::SelectByPredicateDft(Measure measure,
                                                            const Keep& keep) const {
  if (wf_coefficients_ == 0) return Status::FailedPrecondition("WF strategy not enabled");
  if (measure != Measure::kCorrelation) {
    return Status::InvalidArgument("the WF method only supports the correlation coefficient");
  }
  // Per-query sketch construction, then the O(c)-per-pair estimate.
  AFFINITY_ASSIGN_OR_RETURN(dft::DftCorrelationEstimator wf,
                            dft::DftCorrelationEstimator::Build(dense(), wf_coefficients_, exec_));
  SelectionResult out;
  const std::size_t n = this->n();
  if (n < 2) return out;
  const std::size_t total = ts::SequencePairCount(n);
  std::vector<std::vector<ts::SequencePair>> parts(ExecNumChunks(total));
  ParallelChunks(exec_, total, [&](std::size_t c, std::size_t lo, std::size_t hi) {
    ts::SequencePair p = ts::PairFromIndex(lo, n);
    std::size_t u = p.u, v = p.v;
    for (std::size_t i = lo; i < hi; ++i) {
      if (keep(wf.Estimate(static_cast<ts::SeriesId>(u), static_cast<ts::SeriesId>(v)))) {
        parts[c].emplace_back(static_cast<ts::SeriesId>(u), static_cast<ts::SeriesId>(v));
      }
      ts::NextPair(n, &u, &v);
    }
  });
  for (std::vector<ts::SequencePair>& part : parts) {
    out.pairs.insert(out.pairs.end(), part.begin(), part.end());
  }
  return out;
}

template <typename Keep>
StatusOr<SelectionResult> QueryEngine::SelectByPredicate(Measure measure, QueryMethod method,
                                                         const Keep& keep) const {
  if (method == QueryMethod::kDft) return SelectByPredicateDft(measure, keep);
  const std::size_t n = this->n();
  if (method == QueryMethod::kAffine && model_ == nullptr) {
    const bool location = IsLocation(measure);
    // Like the chunked sweep, a pass with nothing to evaluate cannot fail.
    if (n < (location ? 1u : 2u)) return SelectionResult{};
    const double* values = FrozenTable(measure);
    if (values == nullptr) return FrozenTableError();
    return FrozenSelect(values, n, location, keep);
  }
  SelectionResult out;
  if (IsLocation(measure)) {
    std::vector<std::vector<ts::SeriesId>> parts(ExecNumChunks(n));
    AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
        exec_, n, [&](std::size_t c, std::size_t lo, std::size_t hi) -> Status {
          for (std::size_t v = lo; v < hi; ++v) {
            auto value = SeriesValue(measure, static_cast<ts::SeriesId>(v), method);
            if (!value.ok()) return value.status();
            if (keep(*value)) parts[c].push_back(static_cast<ts::SeriesId>(v));
          }
          return Status::OK();
        }));
    for (std::vector<ts::SeriesId>& part : parts) {
      out.series.insert(out.series.end(), part.begin(), part.end());
    }
    return out;
  }
  if (n < 2) return out;
  // WN sweeps hoist every column's marginals once per query (O(n·m)),
  // then pay exactly one fused blocked dot per pair — the marginal
  // hoisting of DESIGN.md §10. Each pair's value is computed whole by one
  // chunk, so results stay bitwise identical at any thread count.
  const ts::DataMatrix* window = method == QueryMethod::kNaive ? &dense() : nullptr;
  std::vector<kernels::Marginals> marginals;
  if (window != nullptr) marginals = kernels::HoistMarginals(*window, exec_);
  const auto pair_value = [&](std::size_t u, std::size_t v) -> StatusOr<double> {
    if (window == nullptr) {
      return Value(measure, static_cast<ts::SeriesId>(u), static_cast<ts::SeriesId>(v), method);
    }
    const double dot = kernels::BlockedDot(window->ColumnData(static_cast<ts::SeriesId>(u)),
                                           window->ColumnData(static_cast<ts::SeriesId>(v)),
                                           window->m(), window->anchor_row());
    return PairMeasureFromMoments(
        measure, PairMomentsFromMarginals(marginals[u], marginals[v], dot, window->m()));
  };
  const std::size_t total = ts::SequencePairCount(n);
  std::vector<std::vector<ts::SequencePair>> parts(ExecNumChunks(total));
  AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
      exec_, total, [&](std::size_t c, std::size_t lo, std::size_t hi) -> Status {
        ts::SequencePair p = ts::PairFromIndex(lo, n);
        std::size_t u = p.u, v = p.v;
        for (std::size_t i = lo; i < hi; ++i) {
          auto value = pair_value(u, v);
          if (!value.ok()) return value.status();
          if (keep(*value)) {
            parts[c].emplace_back(static_cast<ts::SeriesId>(u), static_cast<ts::SeriesId>(v));
          }
          ts::NextPair(n, &u, &v);
        }
        return Status::OK();
      }));
  for (std::vector<ts::SequencePair>& part : parts) {
    out.pairs.insert(out.pairs.end(), part.begin(), part.end());
  }
  return out;
}

StatusOr<SelectionResult> QueryEngine::Met(const MetRequest& request, QueryMethod method) const {
  const QualitySurface quality = quality_surface();
  AFFINITY_RETURN_IF_ERROR(quality.CheckPredicate(request.min_quality));
  ExecutedPlan plan = ResolvePlan(
      method, [&](const QueryPlanner& planner) { return planner.PlanMet(request.measure); });
  method = plan.method;
  NoteEpoch(&plan);
  StatusOr<SelectionResult> result = [&]() -> StatusOr<SelectionResult> {
    if (method == QueryMethod::kScape) {
      if (scape_ == nullptr) return Status::FailedPrecondition("SCAPE index not attached");
      AFFINITY_ASSIGN_OR_RETURN(
          ScapeQueryResult r,
          ScapeMeasureThreshold(*scape_, request.measure, request.tau, request.greater));
      SelectionResult out;
      out.series = std::move(r.series);
      out.pairs = std::move(r.pairs);
      out.prune = r.prune;
      return out;
    }
    return WithPredicate(request, [&](const auto& keep) {
      return SelectByPredicate(request.measure, method, keep);
    });
  }();
  if (!result.ok()) return result.status();
  result->plan = std::move(plan);
  quality.FilterSelection(request.min_quality, &*result);
  return result;
}

StatusOr<SelectionResult> QueryEngine::Mer(const MerRequest& request, QueryMethod method) const {
  if (request.lo > request.hi) return Status::InvalidArgument("MER requires lo <= hi");
  const QualitySurface quality = quality_surface();
  AFFINITY_RETURN_IF_ERROR(quality.CheckPredicate(request.min_quality));
  ExecutedPlan plan = ResolvePlan(
      method, [&](const QueryPlanner& planner) { return planner.PlanMer(request.measure); });
  method = plan.method;
  NoteEpoch(&plan);
  StatusOr<SelectionResult> result = [&]() -> StatusOr<SelectionResult> {
    if (method == QueryMethod::kScape) {
      if (scape_ == nullptr) return Status::FailedPrecondition("SCAPE index not attached");
      AFFINITY_ASSIGN_OR_RETURN(
          ScapeQueryResult r,
          ScapeMeasureRange(*scape_, request.measure, request.lo, request.hi));
      SelectionResult out;
      out.series = std::move(r.series);
      out.pairs = std::move(r.pairs);
      out.prune = r.prune;
      return out;
    }
    return WithPredicate(request, [&](const auto& keep) {
      return SelectByPredicate(request.measure, method, keep);
    });
  }();
  if (!result.ok()) return result.status();
  result->plan = std::move(plan);
  quality.FilterSelection(request.min_quality, &*result);
  return result;
}

StatusOr<std::vector<ScapeTopKEntry>> QueryEngine::FrozenTopK(const TopKRequest& request,
                                                              const QualitySurface& quality) const {
  const std::size_t n = this->n();
  const bool location = IsLocation(request.measure);
  std::vector<char> eligible(n);
  std::size_t eligible_count = 0;
  for (std::size_t v = 0; v < n; ++v) {
    eligible[v] = quality.Eligible(static_cast<ts::SeriesId>(v), request.min_quality) ? 1 : 0;
    eligible_count += static_cast<std::size_t>(eligible[v]);
  }
  TopKSelector best(request.k, request.largest);
  // Like the chunked sweep, a pass with nothing to evaluate cannot fail.
  if (eligible_count < (location ? 1u : 2u)) return std::move(best).Finish();
  const double* values = FrozenTable(request.measure);
  if (values == nullptr) return FrozenTableError();
  if (location) {
    for (std::size_t v = 0; v < n; ++v) {
      if (eligible[v] != 0) {
        best.Offer(ScapeTopKEntry{ts::SequencePair{}, static_cast<ts::SeriesId>(v), values[v]});
      }
    }
    return std::move(best).Finish();
  }
  for (std::size_t u = 0; u + 1 < n; ++u) {
    if (eligible[u] == 0) continue;
    // Row u of the table — pairs (u, u + 1 + j) — beside the eligibility
    // of its partners, so the inner loop carries one index.
    const double* row = values + ts::PairsBeforeRow(u, n);
    const char* partner = eligible.data() + u + 1;
    for (std::size_t j = 0; j < n - u - 1; ++j) {
      // Once k entries are kept, few offers enter: the rare branch is laid
      // out of line, so the scan stays one short block of code.
      if (partner[j] != 0 && best.Admits(row[j])) [[unlikely]] {
        best.Offer(ScapeTopKEntry{ts::SequencePair(static_cast<ts::SeriesId>(u),
                                                   static_cast<ts::SeriesId>(u + 1 + j)),
                                  kNoSeries, row[j]});
      }
    }
  }
  return std::move(best).Finish();
}

StatusOr<TopKResult> QueryEngine::TopK(const TopKRequest& request, QueryMethod method) const {
  const QualitySurface quality = quality_surface();
  AFFINITY_RETURN_IF_ERROR(quality.CheckPredicate(request.min_quality));
  ExecutedPlan plan = ResolvePlan(method, [&](const QueryPlanner& planner) {
    return planner.PlanTopK(request.measure, request.k);
  });
  RouteQualityTopK(request.min_quality, Capabilities(), &plan);
  method = plan.method;
  NoteEpoch(&plan);
  if (method == QueryMethod::kScape) {
    if (scape_ == nullptr) return Status::FailedPrecondition("SCAPE index not attached");
    AFFINITY_ASSIGN_OR_RETURN(ScapeTopKResult r,
                              ScapeTopK(*scape_, request.measure, request.k, request.largest));
    TopKResult out;
    static_cast<ScapeTopKResult&>(out) = std::move(r);
    out.plan = std::move(plan);
    quality.StampTopK(&out);
    return out;
  }
  if (method == QueryMethod::kDft) {
    return Status::InvalidArgument("top-k supports WN, WA, and SCAPE");
  }
  const std::size_t n = this->n();
  if (method == QueryMethod::kAffine && model_ == nullptr) {
    AFFINITY_ASSIGN_OR_RETURN(std::vector<ScapeTopKEntry> selected, FrozenTopK(request, quality));
    return FinishSweepTopK(request, n, quality, std::move(selected), std::move(plan));
  }
  // WN, or WA from the model: every chunk runs its own k-bounded
  // selection over the eligible entities it evaluates, and the chunk
  // selections merge under the one total rank order — the same answer as
  // a sequential pass at any thread count.
  const std::size_t total = IsLocation(request.measure) ? n : ts::SequencePairCount(n);
  const auto eligible = [&](std::size_t v) {
    return quality.Eligible(static_cast<ts::SeriesId>(v), request.min_quality);
  };
  std::vector<TopKSelector> parts(ExecNumChunks(total),
                                  TopKSelector(request.k, request.largest));
  if (IsLocation(request.measure)) {
    AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
        exec_, total, [&](std::size_t c, std::size_t lo, std::size_t hi) -> Status {
          for (std::size_t v = lo; v < hi; ++v) {
            if (!eligible(v)) continue;
            auto value = SeriesValue(request.measure, static_cast<ts::SeriesId>(v), method);
            if (!value.ok()) return value.status();
            parts[c].Offer(
                ScapeTopKEntry{ts::SequencePair{}, static_cast<ts::SeriesId>(v), *value});
          }
          return Status::OK();
        }));
  } else {
    // Marginal-hoisted WN sweep, exactly as SelectByPredicate.
    const ts::DataMatrix* window = method == QueryMethod::kNaive ? &dense() : nullptr;
    std::vector<kernels::Marginals> marginals;
    if (window != nullptr) marginals = kernels::HoistMarginals(*window, exec_);
    AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
        exec_, total, [&](std::size_t c, std::size_t lo, std::size_t hi) -> Status {
          ts::SequencePair p = ts::PairFromIndex(lo, n);
          std::size_t u = p.u, v = p.v;
          for (std::size_t i = lo; i < hi; ++i, ts::NextPair(n, &u, &v)) {
            if (!eligible(u) || !eligible(v)) continue;
            StatusOr<double> value = [&]() -> StatusOr<double> {
              if (window == nullptr) {
                return Value(request.measure, static_cast<ts::SeriesId>(u),
                             static_cast<ts::SeriesId>(v), method);
              }
              const double dot =
                  kernels::BlockedDot(window->ColumnData(static_cast<ts::SeriesId>(u)),
                                      window->ColumnData(static_cast<ts::SeriesId>(v)),
                                      window->m(), window->anchor_row());
              return PairMeasureFromMoments(
                  request.measure,
                  PairMomentsFromMarginals(marginals[u], marginals[v], dot, window->m()));
            }();
            if (!value.ok()) return value.status();
            parts[c].Offer(ScapeTopKEntry{
                ts::SequencePair(static_cast<ts::SeriesId>(u), static_cast<ts::SeriesId>(v)),
                kNoSeries, *value});
          }
          return Status::OK();
        }));
  }
  TopKSelector best(request.k, request.largest);
  for (const TopKSelector& part : parts) best.Merge(part);
  return FinishSweepTopK(request, n, quality, std::move(best).Finish(), std::move(plan));
}

}  // namespace affinity::core
