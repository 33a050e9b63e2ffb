#include "serve/serve_query.h"

#include <string>
#include <utility>
#include <vector>

#include "core/kernels.h"

namespace affinity::serve {

namespace {

using core::ExecutedPlan;
using core::IsLocation;
using core::kNoSeries;
using core::Measure;
using core::MeasureName;
using core::QueryMethod;
using core::QueryMethodName;
using core::QueryPlanner;
using core::ScapeMeasureRange;
using core::ScapeMeasureThreshold;
using core::ScapeQueryResult;
using core::ScapeTopK;
using core::ScapeTopKEntry;
using core::ScapeTopKResult;
using core::SelectionResult;
using core::SeriesStats;

/// Mirrors QueryEngine::ResolvePlan over the snapshot's frozen shape and
/// capabilities — identical inputs, identical plan.
template <typename PlanFn>
ExecutedPlan ResolvePlanServed(const ServingSnapshot& snap, QueryMethod method, PlanFn&& plan) {
  if (method != QueryMethod::kAuto) {
    ExecutedPlan explicit_plan;
    explicit_plan.method = method;
    explicit_plan.rationale = "explicitly requested " + std::string(QueryMethodName(method));
    return explicit_plan;
  }
  return plan(QueryPlanner(snap.data.n(), snap.data.m(), snap.caps));
}

Status CheckIdsServed(const ServingSnapshot& snap, const std::vector<ts::SeriesId>& ids) {
  if (ids.empty()) return Status::InvalidArgument("MEC requires a non-empty id set");
  for (const ts::SeriesId id : ids) {
    if (id >= snap.data.n()) {
      return Status::OutOfRange("series id " + std::to_string(id) + " out of range (n=" +
                                std::to_string(snap.data.n()) + ")");
    }
  }
  return Status::OK();
}

/// Mirrors QueryEngine::SeriesValue: WN recomputes from the window copy,
/// WA reads the frozen L-measure table (kUnavailable when absent).
StatusOr<double> SeriesValueServed(const ServingSnapshot& snap, Measure measure, ts::SeriesId v,
                                   QueryMethod method) {
  switch (method) {
    case QueryMethod::kNaive:
      return core::NaiveLocationMeasure(measure, snap.data.ColumnData(v), snap.data.m());
    case QueryMethod::kAffine: {
      if (!snap.caps.has_model) return Status::FailedPrecondition("WA strategy not attached");
      const int family = core::LocationFamilyOf(measure);
      if (family < 0) return Status::InvalidArgument("not an L-measure");
      if (!snap.location_ok[static_cast<std::size_t>(family)]) {
        return Status::Unavailable("snapshot lacks the WA table for " +
                                   std::string(MeasureName(measure)));
      }
      return snap.location[static_cast<std::size_t>(family)][v];
    }
    default:
      return Status::InvalidArgument("L-measures support WN and WA only");
  }
}

/// Mirrors QueryEngine::Value: WN from the window copy, WA from the
/// frozen diagonal stats / lexicographic pair tables.
StatusOr<double> PairValueServed(const ServingSnapshot& snap, Measure measure, ts::SeriesId u,
                                 ts::SeriesId v, QueryMethod method) {
  switch (method) {
    case QueryMethod::kNaive:
      return core::NaivePairMeasure(measure, snap.data.ColumnData(u), snap.data.ColumnData(v),
                                    snap.data.m(), snap.data.anchor_row());
    case QueryMethod::kAffine: {
      if (!snap.caps.has_model) return Status::FailedPrecondition("WA strategy not attached");
      if (u == v) {
        const SeriesStats& st = snap.stats[u];
        switch (measure) {
          case Measure::kCovariance:
            return st.variance;
          case Measure::kDotProduct:
            return st.sumsq;
          case Measure::kCorrelation:
            return st.variance > 0.0 ? 1.0 : 0.0;
          case Measure::kCosine:
          case Measure::kJaccard:
            return st.sumsq > 0.0 ? 1.0 : 0.0;
          case Measure::kDice:
            return st.sumsq > 0.0 ? 1.0 : 0.0;
          default:
            return Status::InvalidArgument("not a pair measure");
        }
      }
      const int table = static_cast<int>(measure) - static_cast<int>(Measure::kCovariance);
      if (table < 0 || table >= 6) return Status::InvalidArgument("not a pair measure");
      if (!snap.pair_ok[static_cast<std::size_t>(table)]) {
        return Status::Unavailable("snapshot lacks the WA table for " +
                                   std::string(MeasureName(measure)));
      }
      const ts::SequencePair e(u, v);
      return snap.pair_values[static_cast<std::size_t>(table)]
                             [ts::LexPairIndex(e.u, e.v, snap.data.n())];
    }
    case QueryMethod::kDft:
      return Status::Internal("WF values are computed batch-wise (see Mec/Met/Mer)");
    case QueryMethod::kScape:
      return Status::InvalidArgument("SCAPE answers MET/MER queries, not MEC");
    case QueryMethod::kAuto:
      return Status::Internal("kAuto must be resolved before per-value dispatch");
  }
  return Status::Internal("unreachable");
}

/// Mirrors QueryEngine::SelectByPredicate sequentially — the sequential
/// lexicographic sweep equals the engine's chunk-concatenated order at
/// any thread count, so results match bitwise.
StatusOr<SelectionResult> SelectServed(const ServingSnapshot& snap, Measure measure,
                                       QueryMethod method,
                                       bool (*keep)(double, double, double), double a, double b) {
  SelectionResult out;
  const std::size_t n = snap.data.n();
  if (IsLocation(measure)) {
    for (std::size_t v = 0; v < n; ++v) {
      auto value = SeriesValueServed(snap, measure, static_cast<ts::SeriesId>(v), method);
      if (!value.ok()) return value.status();
      if (keep(*value, a, b)) out.series.push_back(static_cast<ts::SeriesId>(v));
    }
    return out;
  }
  if (n < 2) return out;
  std::vector<core::kernels::Marginals> marginals;
  if (method == QueryMethod::kNaive) {
    marginals = core::kernels::HoistMarginals(snap.data.dense(), ExecContext{});
  }
  for (std::size_t u = 0; u + 1 < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      StatusOr<double> value = [&]() -> StatusOr<double> {
        if (method != QueryMethod::kNaive) {
          return PairValueServed(snap, measure, static_cast<ts::SeriesId>(u),
                                 static_cast<ts::SeriesId>(v), method);
        }
        const double dot = core::kernels::BlockedDot(
            snap.data.ColumnData(static_cast<ts::SeriesId>(u)),
            snap.data.ColumnData(static_cast<ts::SeriesId>(v)), snap.data.m(),
            snap.data.anchor_row());
        return core::PairMeasureFromMoments(
            measure, core::PairMomentsFromMarginals(marginals[u], marginals[v], dot,
                                                    snap.data.m()));
      }();
      if (!value.ok()) return value.status();
      if (keep(*value, a, b)) {
        out.pairs.emplace_back(static_cast<ts::SeriesId>(u), static_cast<ts::SeriesId>(v));
      }
    }
  }
  return out;
}

/// The frozen WA table a top-k pass reads: the L-measure family's
/// location table or the pair measure's lexicographic table. Mirrors the
/// errors of the engine's per-entity WA path (SeriesValueServed /
/// PairValueServed): FailedPrecondition without a model, kUnavailable
/// when the epoch lacks the table.
StatusOr<const std::vector<double>*> WaTableServed(const ServingSnapshot& snap, Measure measure) {
  if (!snap.caps.has_model) return Status::FailedPrecondition("WA strategy not attached");
  const bool location = IsLocation(measure);
  const int slot = location ? core::LocationFamilyOf(measure)
                            : static_cast<int>(measure) - static_cast<int>(Measure::kCovariance);
  const bool ok = location ? snap.location_ok[static_cast<std::size_t>(slot)]
                           : snap.pair_ok[static_cast<std::size_t>(slot)];
  if (!ok) {
    return Status::Unavailable("snapshot lacks the WA table for " +
                               std::string(MeasureName(measure)));
  }
  return location ? &snap.location[static_cast<std::size_t>(slot)]
                  : &snap.pair_values[static_cast<std::size_t>(slot)];
}

/// The epoch's sweep top-k: one k-bounded pass over the eligible entities
/// in lexicographic order — WA straight out of the frozen table (no
/// per-entity StatusOr, no materialized candidate array), WN over the
/// window copy with the engine's marginal-hoisted kernels. The selection
/// order is total (`core::TopKBefore`), so the answer is bitwise the
/// engine's chunked selection over the same values.
StatusOr<std::vector<ScapeTopKEntry>> SweepTopKServed(const ServingSnapshot& snap,
                                                      const core::TopKRequest& request,
                                                      QueryMethod method,
                                                      const core::QualitySurface& quality) {
  const std::size_t n = snap.data.n();
  const bool location = IsLocation(request.measure);
  std::vector<char> eligible(n);
  std::size_t eligible_count = 0;
  for (std::size_t v = 0; v < n; ++v) {
    eligible[v] = quality.Eligible(static_cast<ts::SeriesId>(v), request.min_quality) ? 1 : 0;
    eligible_count += static_cast<std::size_t>(eligible[v]);
  }
  core::TopKSelector best(request.k, request.largest);
  // Like the engine, a sweep with nothing to evaluate cannot fail.
  if (eligible_count < (location ? 1u : 2u)) return std::move(best).Finish();

  if (method == QueryMethod::kAffine) {
    AFFINITY_ASSIGN_OR_RETURN(const std::vector<double>* table,
                              WaTableServed(snap, request.measure));
    const double* values = table->data();
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
      // Row u of the table — pairs (u, u + 1 + j) — beside the
      // eligibility of its partners, so the inner loop carries one index.
      const double* row = values + ts::PairsBeforeRow(u, n);
      const char* partner = eligible.data() + u + 1;
      for (std::size_t j = 0; j < n - u - 1; ++j) {
        if (partner[j] == 0 || !best.Admits(row[j])) continue;
        best.Offer(ScapeTopKEntry{ts::SequencePair(static_cast<ts::SeriesId>(u),
                                                   static_cast<ts::SeriesId>(u + 1 + j)),
                                  kNoSeries, row[j]});
      }
    }
    return std::move(best).Finish();
  }

  if (location) {
    for (std::size_t v = 0; v < n; ++v) {
      if (eligible[v] == 0) continue;
      AFFINITY_ASSIGN_OR_RETURN(const double value,
                                SeriesValueServed(snap, request.measure,
                                                  static_cast<ts::SeriesId>(v), method));
      best.Offer(ScapeTopKEntry{ts::SequencePair{}, static_cast<ts::SeriesId>(v), value});
    }
    return std::move(best).Finish();
  }
  const std::vector<core::kernels::Marginals> marginals =
      core::kernels::HoistMarginals(snap.data.dense(), ExecContext{});
  for (std::size_t u = 0; u + 1 < n; ++u) {
    if (eligible[u] == 0) continue;
    for (std::size_t v = u + 1; v < n; ++v) {
      if (eligible[v] == 0) continue;
      const double dot = core::kernels::BlockedDot(
          snap.data.ColumnData(static_cast<ts::SeriesId>(u)),
          snap.data.ColumnData(static_cast<ts::SeriesId>(v)), snap.data.m(),
          snap.data.anchor_row());
      AFFINITY_ASSIGN_OR_RETURN(
          const double value,
          core::PairMeasureFromMoments(request.measure,
                                       core::PairMomentsFromMarginals(marginals[u], marginals[v],
                                                                      dot, snap.data.m())));
      best.Offer(ScapeTopKEntry{
          ts::SequencePair(static_cast<ts::SeriesId>(u), static_cast<ts::SeriesId>(v)),
          kNoSeries, value});
    }
  }
  return std::move(best).Finish();
}

}  // namespace

StatusOr<core::MecResponse> SnapshotMec(const ServingSnapshot& snap,
                                        const core::MecRequest& request, QueryMethod method) {
  AFFINITY_RETURN_IF_ERROR(CheckIdsServed(snap, request.ids));
  const core::QualitySurface quality = snap.quality_surface();
  AFFINITY_RETURN_IF_ERROR(quality.CheckPredicate(request.min_quality));
  core::AnswerQuality answer_quality;
  AFFINITY_RETURN_IF_ERROR(quality.StampMec(request, &answer_quality));
  ExecutedPlan plan = ResolvePlanServed(snap, method, [&](const QueryPlanner& planner) {
    return planner.PlanMec(request.measure, request.ids.size());
  });
  method = plan.method;
  core::AnnotateSnapshotServed(&plan, snap.generation);

  core::MecResponse out;
  out.plan = std::move(plan);
  out.quality = answer_quality;
  const std::size_t count = request.ids.size();
  if (IsLocation(request.measure)) {
    out.location = la::Vector(count);
    for (std::size_t i = 0; i < count; ++i) {
      auto value = SeriesValueServed(snap, request.measure, request.ids[i], method);
      if (!value.ok()) return value.status();
      out.location[i] = *value;
    }
    return out;
  }
  if (method == QueryMethod::kDft) {
    // WF builds its sketches per query — nothing frozen can serve it.
    return Status::Unavailable("WF queries are not snapshot-servable");
  }
  out.pair_values = la::Matrix(count, count);
  std::vector<core::kernels::Marginals> marginals;
  std::vector<const double*> cols;
  if (method == QueryMethod::kNaive) {
    cols.resize(count);
    for (std::size_t i = 0; i < count; ++i) cols[i] = snap.data.ColumnData(request.ids[i]);
    marginals =
        core::kernels::HoistMarginals(cols, snap.data.m(), ExecContext{}, snap.data.anchor_row());
  }
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t j = i; j < count; ++j) {
      StatusOr<double> value = [&]() -> StatusOr<double> {
        if (method != QueryMethod::kNaive) {
          return PairValueServed(snap, request.measure, request.ids[i], request.ids[j], method);
        }
        const double dot = i == j ? marginals[i].sumsq
                                  : core::kernels::BlockedDot(cols[i], cols[j], snap.data.m(),
                                                              snap.data.anchor_row());
        return core::PairMeasureFromMoments(
            request.measure,
            core::PairMomentsFromMarginals(marginals[i], marginals[j], dot, snap.data.m()));
      }();
      if (!value.ok()) return value.status();
      out.pair_values(i, j) = *value;
      out.pair_values(j, i) = *value;
    }
  }
  return out;
}

StatusOr<SelectionResult> SnapshotMet(const ServingSnapshot& snap,
                                      const core::MetRequest& request, QueryMethod method) {
  const core::QualitySurface quality = snap.quality_surface();
  AFFINITY_RETURN_IF_ERROR(quality.CheckPredicate(request.min_quality));
  ExecutedPlan plan = ResolvePlanServed(
      snap, method, [&](const QueryPlanner& planner) { return planner.PlanMet(request.measure); });
  method = plan.method;
  StatusOr<SelectionResult> result = [&]() -> StatusOr<SelectionResult> {
    if (method == QueryMethod::kDft) {
      return Status::Unavailable("WF queries are not snapshot-servable");
    }
    if (method == QueryMethod::kScape) {
      if (!snap.has_scape) return Status::FailedPrecondition("SCAPE index not attached");
      AFFINITY_ASSIGN_OR_RETURN(
          ScapeQueryResult r,
          ScapeMeasureThreshold(snap.scape, request.measure, request.tau, request.greater));
      SelectionResult out;
      out.series = std::move(r.series);
      out.pairs = std::move(r.pairs);
      out.prune = r.prune;
      return out;
    }
    return SelectServed(snap, request.measure, method,
                        request.greater ? core::KeepGreater : core::KeepLesser, request.tau, 0.0);
  }();
  if (!result.ok()) return result.status();
  core::AnnotateSnapshotServed(&plan, snap.generation);
  result->plan = std::move(plan);
  quality.FilterSelection(request.min_quality, &*result);
  return result;
}

StatusOr<SelectionResult> SnapshotMer(const ServingSnapshot& snap,
                                      const core::MerRequest& request, QueryMethod method) {
  if (request.lo > request.hi) return Status::InvalidArgument("MER requires lo <= hi");
  const core::QualitySurface quality = snap.quality_surface();
  AFFINITY_RETURN_IF_ERROR(quality.CheckPredicate(request.min_quality));
  ExecutedPlan plan = ResolvePlanServed(
      snap, method, [&](const QueryPlanner& planner) { return planner.PlanMer(request.measure); });
  method = plan.method;
  StatusOr<SelectionResult> result = [&]() -> StatusOr<SelectionResult> {
    if (method == QueryMethod::kDft) {
      return Status::Unavailable("WF queries are not snapshot-servable");
    }
    if (method == QueryMethod::kScape) {
      if (!snap.has_scape) return Status::FailedPrecondition("SCAPE index not attached");
      AFFINITY_ASSIGN_OR_RETURN(ScapeQueryResult r, ScapeMeasureRange(snap.scape, request.measure,
                                                                      request.lo, request.hi));
      SelectionResult out;
      out.series = std::move(r.series);
      out.pairs = std::move(r.pairs);
      out.prune = r.prune;
      return out;
    }
    return SelectServed(snap, request.measure, method, core::KeepInside, request.lo, request.hi);
  }();
  if (!result.ok()) return result.status();
  core::AnnotateSnapshotServed(&plan, snap.generation);
  result->plan = std::move(plan);
  quality.FilterSelection(request.min_quality, &*result);
  return result;
}

StatusOr<core::TopKResult> SnapshotTopK(const ServingSnapshot& snap,
                                        const core::TopKRequest& request, QueryMethod method) {
  const core::QualitySurface quality = snap.quality_surface();
  AFFINITY_RETURN_IF_ERROR(quality.CheckPredicate(request.min_quality));
  ExecutedPlan plan = ResolvePlanServed(snap, method, [&](const QueryPlanner& planner) {
    return planner.PlanTopK(request.measure, request.k);
  });
  core::RouteQualityTopK(request.min_quality, snap.caps.has_model, &plan);
  method = plan.method;
  core::AnnotateSnapshotServed(&plan, snap.generation);
  if (method == QueryMethod::kScape) {
    if (!snap.has_scape) return Status::FailedPrecondition("SCAPE index not attached");
    AFFINITY_ASSIGN_OR_RETURN(ScapeTopKResult r,
                              ScapeTopK(snap.scape, request.measure, request.k, request.largest));
    core::TopKResult out;
    static_cast<ScapeTopKResult&>(out) = std::move(r);
    out.plan = std::move(plan);
    quality.StampTopK(&out);
    return out;
  }
  if (method == QueryMethod::kDft) {
    // The live engine rejects WF top-k outright; mirror its final answer
    // (kUnavailable would bounce to the live engine just to hear it).
    return Status::InvalidArgument("top-k supports WN, WA, and SCAPE");
  }
  AFFINITY_ASSIGN_OR_RETURN(std::vector<ScapeTopKEntry> selected,
                            SweepTopKServed(snap, request, method, quality));
  return core::FinishSweepTopK(request, snap.data.n(), quality, std::move(selected),
                               std::move(plan));
}

}  // namespace affinity::serve
