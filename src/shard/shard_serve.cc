#include "shard/shard_serve.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/exec_context.h"
#include "core/planner.h"

namespace affinity::shard {

namespace {

using core::ExecutedPlan;
using core::Measure;
using core::QueryMethod;
using core::QueryPlanner;
using core::ScapeTopKEntry;
using core::ScapeTopKResult;

/// The snapshot column of global series `id` (shard snapshots hold the
/// window copies; local order matches the live shard's DataMatrix).
const double* ColumnOf(const RouterSnapshot& snap, ts::SeriesId id) {
  return snap.shards[snap.shard_of[id]]->data.ColumnData(snap.local_of[id]);
}

/// Composite quality score of global series `id` as its shard's epoch
/// froze it — the served twin of ShardedAffinity::GlobalQualityScore.
double QualityOf(const RouterSnapshot& snap, ts::SeriesId id) {
  return snap.shards[snap.shard_of[id]]->quality_surface().Score(snap.local_of[id]);
}

/// Mirrors ShardedAffinity::ResolveShardPlan for the unblended path. A
/// RouterSnapshot only exists once the deployment is ready, so there is
/// no FailedPrecondition arm; blending is live-only (the facade handles
/// it before ever consulting a snapshot).
template <typename PlanFn>
ExecutedPlan ResolveRouterPlan(const RouterSnapshot& snap, QueryMethod method,
                               const PlanFn& plan) {
  if (method != QueryMethod::kAuto) {
    ExecutedPlan explicit_plan;
    explicit_plan.method = method;
    explicit_plan.rationale = "explicitly requested " +
                              std::string(core::QueryMethodName(method)) +
                              " per shard; scatter-gather over " +
                              std::to_string(snap.shards.size()) + " shards";
    return explicit_plan;
  }
  const QueryPlanner::Topology topology{
      snap.shards.size(), snap.cross.size(),
      snap.cross_view != nullptr ? snap.cross_view->stamped_count : 0};
  const QueryPlanner planner(snap.max_n, snap.window, snap.caps, topology);
  return plan(planner);
}

/// Mirrors ShardedAffinity::CrossPairValues (unblended): stamped pairs
/// answer O(1) from the frozen co-moments — the exact moments the live
/// cache serves at this generation — and the rest sweep the shard
/// snapshots' window copies with the canonical blocked kernels, which is
/// bitwise the live miss path over the same columns.
StatusOr<std::vector<double>> RouterCrossValues(const RouterSnapshot& snap, Measure measure) {
  std::vector<double> values(snap.cross.size());
  std::vector<std::size_t> swept;
  swept.reserve(snap.cross.size());
  const RouterSnapshot::CrossMomentView* view = snap.cross_view.get();
  for (std::size_t i = 0; i < snap.cross.size(); ++i) {
    if (view != nullptr && i < view->stamped.size() && view->stamped[i] != 0) {
      auto value = core::PairMeasureFromMoments(measure, view->moments[i]);
      if (!value.ok()) return value.status();
      values[i] = *value;
    } else {
      swept.push_back(i);
    }
  }
  if (!swept.empty()) {
    std::vector<core::CrossPair> resolved(swept.size());
    for (std::size_t j = 0; j < swept.size(); ++j) {
      const ts::SequencePair e = snap.cross[swept[j]];
      resolved[j] = core::CrossPair{e, ColumnOf(snap, e.u), ColumnOf(snap, e.v)};
    }
    AFFINITY_ASSIGN_OR_RETURN(
        const std::vector<double> swept_values,
        core::EvaluateCrossPairs(measure, resolved, snap.window, ExecContext{}, nullptr,
                                 nullptr, snap.anchor));
    for (std::size_t j = 0; j < swept.size(); ++j) values[swept[j]] = swept_values[j];
  }
  return values;
}

/// The shared MET/MER gather, mirroring SelectAcrossShards: per-shard
/// snapshot selections, local→global rewrite + sort, the cross-shard
/// sweep under `keep`, then the k-way merge.
template <typename PlanFn, typename ShardQuery>
StatusOr<core::SelectionResult> RouterSelect(const RouterSnapshot& snap, Measure measure,
                                             bool (*keep)(double, double, double), double a,
                                             double b, double min_quality, QueryMethod method,
                                             const PlanFn& plan, const ShardQuery& shard_query) {
  ExecutedPlan resolved = ResolveRouterPlan(snap, method, plan);
  const QueryMethod per_shard = method == QueryMethod::kAuto ? resolved.method : method;

  core::SelectionResult out;
  const bool location = core::IsLocation(measure);
  const std::size_t n_shards = snap.shards.size();
  std::vector<std::vector<ts::SeriesId>> series_runs(n_shards);
  std::vector<std::vector<ts::SequencePair>> pair_runs(n_shards);
  std::vector<core::AnswerQuality> qualities(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) {
    AFFINITY_ASSIGN_OR_RETURN(core::SelectionResult r, shard_query(*snap.shards[s], per_shard));
    out.prune += r.prune;
    qualities[s] = r.quality;
    if (location) {
      for (ts::SeriesId& v : r.series) v = snap.groups[s][v];
      std::sort(r.series.begin(), r.series.end());
      series_runs[s] = std::move(r.series);
    } else {
      for (ts::SequencePair& e : r.pairs) {
        e = ts::SequencePair(snap.groups[s][e.u], snap.groups[s][e.v]);
      }
      std::sort(r.pairs.begin(), r.pairs.end());
      pair_runs[s] = std::move(r.pairs);
    }
  }
  core::AnswerQuality merged = MergeShardQuality(qualities);
  if (!location && n_shards > 1) {
    AFFINITY_ASSIGN_OR_RETURN(const std::vector<double> values,
                              RouterCrossValues(snap, measure));
    pair_runs.push_back(KeepCrossPairs(
        snap.cross, values, keep, a, b, min_quality,
        [&](ts::SeriesId id) { return QualityOf(snap, id); }, &merged));  // already lex-sorted
  }
  if (location) {
    out.series = MergeSortedRuns(series_runs, std::less<ts::SeriesId>{});
  } else {
    out.pairs = MergeSortedRuns(pair_runs, std::less<ts::SequencePair>{});
  }
  out.quality = merged;
  if (min_quality > 0.0) core::AnnotateQualityFiltered(&resolved, min_quality, merged.excluded);
  core::AnnotateSnapshotServed(&resolved, snap.generation);
  out.plan = std::move(resolved);
  return out;
}

}  // namespace

StatusOr<core::SelectionResult> RouterMet(const RouterSnapshot& snap,
                                          const core::MetRequest& request,
                                          QueryMethod method) {
  return RouterSelect(
      snap, request.measure, request.greater ? core::KeepGreater : core::KeepLesser,
      request.tau, 0.0, request.min_quality, method,
      [&](const QueryPlanner& planner) { return planner.PlanMet(request.measure); },
      [&](const serve::ServingSnapshot& shard, QueryMethod m) {
        return serve::SnapshotMet(shard, request, m);
      });
}

StatusOr<core::SelectionResult> RouterMer(const RouterSnapshot& snap,
                                          const core::MerRequest& request,
                                          QueryMethod method) {
  if (request.lo > request.hi) return Status::InvalidArgument("MER requires lo <= hi");
  return RouterSelect(
      snap, request.measure, core::KeepInside, request.lo, request.hi, request.min_quality,
      method,
      [&](const QueryPlanner& planner) { return planner.PlanMer(request.measure); },
      [&](const serve::ServingSnapshot& shard, QueryMethod m) {
        return serve::SnapshotMer(shard, request, m);
      });
}

StatusOr<core::TopKResult> RouterTopK(const RouterSnapshot& snap,
                                      const core::TopKRequest& request, QueryMethod method) {
  ExecutedPlan plan = ResolveRouterPlan(snap, method, [&](const QueryPlanner& planner) {
    return planner.PlanTopK(request.measure, request.k);
  });
  const QueryMethod per_shard = method == QueryMethod::kAuto ? plan.method : method;

  std::vector<ScapeTopKResult> runs(snap.shards.size());
  std::vector<core::AnswerQuality> qualities(snap.shards.size());
  for (std::size_t s = 0; s < snap.shards.size(); ++s) {
    AFFINITY_ASSIGN_OR_RETURN(core::TopKResult r,
                              serve::SnapshotTopK(*snap.shards[s], request, per_shard));
    qualities[s] = r.quality;
    for (ScapeTopKEntry& entry : r.entries) {
      if (entry.has_series()) {
        entry.series = snap.groups[s][entry.series];
      } else {
        entry.pair = ts::SequencePair(snap.groups[s][entry.pair.u], snap.groups[s][entry.pair.v]);
      }
    }
    runs[s] = std::move(r);
  }
  core::AnswerQuality merged = MergeShardQuality(qualities);
  const auto score = [&](ts::SeriesId id) { return QualityOf(snap, id); };
  if (!core::IsLocation(request.measure) && snap.shards.size() > 1) {
    AFFINITY_ASSIGN_OR_RETURN(const std::vector<double> values,
                              RouterCrossValues(snap, request.measure));
    runs.push_back(CrossTopKRun(snap.cross, values, request, score, &merged.excluded));
  }
  core::TopKResult out;
  static_cast<ScapeTopKResult&>(out) = core::MergeTopK(runs, request.k, request.largest);
  // The stamp covers the entries that survived the merge, not the shard
  // minima (as the live router).
  merged.min_score = merged.populated ? core::WorstEntryScore(out.entries, score) : 1.0;
  out.quality = merged;
  if (request.min_quality > 0.0) {
    core::AnnotateQualityFiltered(&plan, request.min_quality, merged.excluded);
  }
  core::AnnotateSnapshotServed(&plan, snap.generation);
  out.plan = std::move(plan);
  return out;
}

StatusOr<core::MecResponse> RouterMec(const RouterSnapshot& snap, const core::MecRequest& request,
                                      QueryMethod method) {
  ExecutedPlan plan = ResolveRouterPlan(snap, method, [&](const QueryPlanner& planner) {
    return planner.PlanMec(request.measure, request.ids.size());
  });
  if (request.ids.empty()) return Status::InvalidArgument("MEC requires a non-empty id set");
  for (const ts::SeriesId id : request.ids) {
    if (id >= snap.n) {
      return Status::OutOfRange("series id " + std::to_string(id) + " out of range (n=" +
                                std::to_string(snap.n) + ")");
    }
  }
  const QueryMethod per_shard = method == QueryMethod::kAuto ? plan.method : method;

  // Slice the request per shard, remembering each id's request position.
  std::vector<std::vector<std::size_t>> positions(snap.shards.size());
  std::vector<core::MecRequest> slices(snap.shards.size());
  for (std::size_t i = 0; i < request.ids.size(); ++i) {
    const std::size_t s = snap.shard_of[request.ids[i]];
    positions[s].push_back(i);
    slices[s].measure = request.measure;
    slices[s].min_quality = request.min_quality;
    slices[s].ids.push_back(snap.local_of[request.ids[i]]);
  }

  const std::size_t count = request.ids.size();
  const bool location = core::IsLocation(request.measure);
  core::MecResponse out;
  if (location) {
    out.location = la::Vector(count);
  } else {
    out.pair_values = la::Matrix(count, count);
  }
  // Stamps of the shards the request touched (each slice enforced the
  // FailedPrecondition contract for its ids).
  std::vector<core::AnswerQuality> qualities;
  for (std::size_t s = 0; s < snap.shards.size(); ++s) {
    if (slices[s].ids.empty()) continue;
    AFFINITY_ASSIGN_OR_RETURN(core::MecResponse r,
                              serve::SnapshotMec(*snap.shards[s], slices[s], per_shard));
    qualities.push_back(r.quality);
    if (location) {
      for (std::size_t t = 0; t < positions[s].size(); ++t) {
        out.location[positions[s][t]] = r.location[t];
      }
    } else {
      for (std::size_t a = 0; a < positions[s].size(); ++a) {
        for (std::size_t b = 0; b < positions[s].size(); ++b) {
          out.pair_values(positions[s][a], positions[s][b]) = r.pair_values(a, b);
        }
      }
    }
  }
  if (!location) {
    // Cross-shard cells, mirroring the live router: each requested (i, j)
    // spanning two shards resolves its cross index by binary search into
    // the lex cross list; stamped pairs answer from the frozen co-moments,
    // the rest sweep the snapshot columns.
    std::vector<core::CrossPair> resolved;
    std::vector<std::pair<std::size_t, std::size_t>> cells;
    const RouterSnapshot::CrossMomentView* view = snap.cross_view.get();
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t j = i + 1; j < count; ++j) {
        if (snap.shard_of[request.ids[i]] == snap.shard_of[request.ids[j]]) continue;
        const ts::SeriesId u = request.ids[i];
        const ts::SeriesId v = request.ids[j];
        const ts::SequencePair e(u, v);
        const auto it = std::lower_bound(snap.cross.begin(), snap.cross.end(), e);
        const std::size_t cross_index = static_cast<std::size_t>(it - snap.cross.begin());
        if (view != nullptr && cross_index < view->stamped.size() &&
            view->stamped[cross_index] != 0) {
          AFFINITY_ASSIGN_OR_RETURN(
              const double value,
              core::PairMeasureFromMoments(request.measure, view->moments[cross_index]));
          out.pair_values(i, j) = value;
          out.pair_values(j, i) = value;
          continue;
        }
        resolved.push_back(core::CrossPair{e, ColumnOf(snap, u), ColumnOf(snap, v)});
        cells.emplace_back(i, j);
      }
    }
    if (!resolved.empty()) {
      AFFINITY_ASSIGN_OR_RETURN(
          const std::vector<double> values,
          core::EvaluateCrossPairs(request.measure, resolved, snap.window, ExecContext{},
                                   nullptr, nullptr, snap.anchor));
      for (std::size_t idx = 0; idx < cells.size(); ++idx) {
        out.pair_values(cells[idx].first, cells[idx].second) = values[idx];
        out.pair_values(cells[idx].second, cells[idx].first) = values[idx];
      }
    }
  }
  out.quality = MergeShardQuality(qualities);
  core::AnnotateSnapshotServed(&plan, snap.generation);
  out.plan = std::move(plan);
  return out;
}

core::AnswerQuality MergeShardQuality(const std::vector<core::AnswerQuality>& parts) {
  core::AnswerQuality merged;
  merged.populated = !parts.empty();
  for (const core::AnswerQuality& q : parts) {
    merged.populated = merged.populated && q.populated;
    merged.min_score = std::min(merged.min_score, q.min_score);
    merged.excluded += q.excluded;
  }
  return merged;
}

}  // namespace affinity::shard
