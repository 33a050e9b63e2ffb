#include "shard/shard_serve.h"

#include <algorithm>
#include <queue>
#include <string>
#include <utility>

#include "core/planner.h"

namespace affinity::shard {

namespace {

using core::ExecutedPlan;
using core::Measure;
using core::QueryMethod;
using core::QueryPlanner;
using core::ScapeTopKEntry;
using core::ScapeTopKResult;

// Cross-shard gather rules. No shard model covers a pair spanning two
// shards, so its quality predicate runs at the gather, against each
// endpoint's shard surface: `score(id)` returns the composite score of
// global series `id` as its shard's epoch froze it.

/// Folds per-shard answer stamps: populated only when there is at least
/// one part and every part was stamped; worst score; exclusions summed.
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

/// The cross pairs a MET/MER gather keeps, in `cross` (lex) order: those
/// with `keep(value(i), a, b)` whose endpoints, under `min_quality > 0`,
/// both score at least `min_quality`. Pairs the predicate drops count
/// into `merged->excluded`; when `merged->populated`, kept pairs fold
/// their worst endpoint score into `merged->min_score`.
template <typename ValueFn, typename ScoreFn>
std::vector<ts::SequencePair> KeepCrossPairs(const std::vector<ts::SequencePair>& cross,
                                             const ValueFn& value,
                                             bool (*keep)(double, double, double), double a,
                                             double b, double min_quality, const ScoreFn& score,
                                             core::AnswerQuality* merged) {
  std::vector<ts::SequencePair> kept;
  for (std::size_t i = 0; i < cross.size(); ++i) {
    if (!keep(value(i), a, b)) continue;
    const double su = score(cross[i].u);
    const double sv = score(cross[i].v);
    if (min_quality > 0.0 && (su < min_quality || sv < min_quality)) {
      ++merged->excluded;
      continue;
    }
    if (merged->populated) merged->min_score = std::min(merged->min_score, std::min(su, sv));
    kept.push_back(cross[i]);
  }
  return kept;
}

/// The cross-shard run of a top-k gather: one `core::TopKSelector` pass
/// over the cross pairs whose endpoints both score at least
/// `request.min_quality` (the rest count into `*excluded`); `examined`
/// counts every cross pair.
template <typename ValueFn, typename ScoreFn>
core::ScapeTopKResult CrossTopKRun(const std::vector<ts::SequencePair>& cross,
                                   const ValueFn& value, const core::TopKRequest& request,
                                   const ScoreFn& score, std::size_t* excluded) {
  core::TopKSelector best(request.k, request.largest);
  for (std::size_t i = 0; i < cross.size(); ++i) {
    if (request.min_quality > 0.0 &&
        (score(cross[i].u) < request.min_quality || score(cross[i].v) < request.min_quality)) {
      ++*excluded;
      continue;
    }
    best.Offer(core::ScapeTopKEntry{cross[i], core::kNoSeries, value(i)});
  }
  core::ScapeTopKResult run;
  run.entries = std::move(best).Finish();
  run.examined = cross.size();
  return run;
}

/// K-way heap merge of runs, each sorted ascending under `less`, into one
/// sorted vector — the gather step of a scatter-gather MET/MER (per-shard
/// answers plus the cross-shard run).
template <typename T, typename Less>
std::vector<T> MergeSortedRuns(const std::vector<std::vector<T>>& runs, Less less) {
  struct Head {
    std::size_t run;
    std::size_t pos;
  };
  const auto head_greater = [&](const Head& a, const Head& b) {
    return less(runs[b.run][b.pos], runs[a.run][a.pos]);
  };
  std::priority_queue<Head, std::vector<Head>, decltype(head_greater)> frontier(head_greater);
  std::size_t total = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    total += runs[r].size();
    if (!runs[r].empty()) frontier.push(Head{r, 0});
  }
  std::vector<T> out;
  out.reserve(total);
  while (!frontier.empty()) {
    const Head head = frontier.top();
    frontier.pop();
    out.push_back(runs[head.run][head.pos]);
    if (head.pos + 1 < runs[head.run].size()) frontier.push(Head{head.run, head.pos + 1});
  }
  return out;
}

/// The epoch column of global series `id` (shard snapshots hold the
/// window; local order matches the shard's DataMatrix).
const double* ColumnOf(const RouterSnapshot& snap, ts::SeriesId id) {
  return snap.shards[snap.routing->shard_of[id]]->data.ColumnData(snap.routing->local_of[id]);
}

/// Composite quality score of global series `id` as its shard's epoch
/// froze it.
double QualityOf(const RouterSnapshot& snap, ts::SeriesId id) {
  return snap.shards[snap.routing->shard_of[id]]->quality_surface().Score(
      snap.routing->local_of[id]);
}

/// The plan of one gather: an explicitly requested method per shard, or
/// the shard-aware planner over the epoch's capabilities, which charges
/// every candidate the cross-pair surcharge.
template <typename PlanFn>
ExecutedPlan ResolvePlan(const RouterSnapshot& snap, const GatherContext& gather,
                         const PlanFn& plan) {
  const QueryMethod method = gather.method;
  if (method != QueryMethod::kAuto) {
    ExecutedPlan explicit_plan;
    explicit_plan.method = method;
    explicit_plan.rationale = "explicitly requested " +
                              std::string(core::QueryMethodName(method)) +
                              " per shard; scatter-gather over " +
                              std::to_string(snap.shards.size()) + " shards";
    return explicit_plan;
  }
  const QueryPlanner::Topology topology{snap.shards.size(), snap.routing->cross.size()};
  const QueryPlanner planner(snap.max_n, snap.window, snap.caps, topology);
  return plan(planner);
}

/// The epoch's cross co-moments, filled by the first caller: marginals of
/// every series' shard column, then one blocked dot per cross pair, each
/// pair whole in one chunk of `gather.exec` — the same bits at any thread
/// count.
const CrossMoments& FilledCrossMoments(const RouterSnapshot& snap, const GatherContext& gather) {
  CrossMoments& table = *snap.cross_moments;
  std::call_once(table.once, [&] {
    const std::vector<ts::SequencePair>& cross = snap.routing->cross;
    std::vector<const double*> columns(snap.n);
    for (std::size_t id = 0; id < snap.n; ++id) {
      columns[id] = ColumnOf(snap, static_cast<ts::SeriesId>(id));
    }
    table.marginals = core::kernels::HoistMarginals(columns, snap.window, gather.exec, snap.anchor);
    table.dots.resize(cross.size());
    ParallelChunks(gather.exec, cross.size(), [&](std::size_t /*chunk*/, std::size_t lo,
                                                  std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        if (i + 1 < hi) {
          // The next pair's columns are a strided jump away; touch their
          // heads while this pair's dot pass runs.
          __builtin_prefetch(columns[cross[i + 1].u]);
          __builtin_prefetch(columns[cross[i + 1].v]);
        }
        table.dots[i] = core::kernels::BlockedDot(columns[cross[i].u], columns[cross[i].v],
                                                  snap.window, snap.anchor);
      }
    });
    if (gather.sweeps != nullptr) gather.sweeps->Add({cross.size(), snap.n});
  });
  return table;
}

/// Cross pair `i`'s value under the pair measure `measure`, from the
/// filled co-moments — bitwise `NaivePairMeasure` over the two shard
/// columns.
double CrossValue(const RouterSnapshot& snap, const CrossMoments& moments, Measure measure,
                  std::size_t i) {
  const ts::SequencePair pair = snap.routing->cross[i];
  const core::PairMoments pair_moments = core::PairMomentsFromMarginals(
      moments.marginals[pair.u], moments.marginals[pair.v], moments.dots[i], snap.window);
  return *core::PairMeasureFromMoments(measure, pair_moments);
}

/// The shared MET/MER gather: per-shard selections (`served(shard,
/// method)`), local→global rewrite and sort, the cross pairs under `keep`
/// and `min_quality`, then the k-way merge.
template <typename PlanFn, typename Served>
StatusOr<core::SelectionResult> RouterSelect(const RouterSnapshot& snap, Measure measure,
                                             bool (*keep)(double, double, double), double a,
                                             double b, double min_quality,
                                             const GatherContext& gather, const PlanFn& plan,
                                             const Served& served) {
  ExecutedPlan resolved = ResolvePlan(snap, gather, plan);
  const QueryMethod method = gather.method == QueryMethod::kAuto ? resolved.method : gather.method;

  const bool location = core::IsLocation(measure);
  const std::size_t n_shards = snap.shards.size();
  // One chunk per shard: per-shard scans run concurrently on the pool;
  // every write below is shard-disjoint.
  std::vector<std::vector<ts::SeriesId>> series_runs(n_shards);
  std::vector<std::vector<ts::SequencePair>> pair_runs(n_shards);
  std::vector<core::PruneStats> prunes(n_shards);
  std::vector<core::AnswerQuality> qualities(n_shards);
  AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
      gather.exec, n_shards, [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) -> Status {
        for (std::size_t s = lo; s < hi; ++s) {
          AFFINITY_ASSIGN_OR_RETURN(core::SelectionResult r, served(*snap.shards[s], method));
          prunes[s] = r.prune;
          qualities[s] = r.quality;
          if (location) {
            for (ts::SeriesId& v : r.series) v = snap.routing->groups[s][v];
            std::sort(r.series.begin(), r.series.end());
            series_runs[s] = std::move(r.series);
          } else {
            const std::vector<ts::SeriesId>& group = snap.routing->groups[s];
            for (ts::SequencePair& e : r.pairs) e = ts::SequencePair(group[e.u], group[e.v]);
            std::sort(r.pairs.begin(), r.pairs.end());
            pair_runs[s] = std::move(r.pairs);
          }
        }
        return Status::OK();
      }));
  core::SelectionResult out;
  for (const core::PruneStats& p : prunes) out.prune += p;
  // Cross-pair exclusions add to the shards'.
  core::AnswerQuality merged = MergeShardQuality(qualities);
  if (!location && n_shards > 1) {
    const CrossMoments& moments = FilledCrossMoments(snap, gather);
    const auto value = [&](std::size_t i) { return CrossValue(snap, moments, measure, i); };
    const auto score = [&](ts::SeriesId id) { return QualityOf(snap, id); };
    pair_runs.push_back(KeepCrossPairs(snap.routing->cross, value, keep, a, b, min_quality, score,
                                       &merged));  // already lex-sorted
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
                                          const GatherContext& gather) {
  return RouterSelect(
      snap, request.measure, request.greater ? core::KeepGreater : core::KeepLesser,
      request.tau, 0.0, request.min_quality, gather,
      [&](const QueryPlanner& planner) { return planner.PlanMet(request.measure); },
      [&](const serve::ServingSnapshot& shard, QueryMethod m) {
        return serve::SnapshotMet(shard, request, m);
      });
}

StatusOr<core::SelectionResult> RouterMer(const RouterSnapshot& snap,
                                          const core::MerRequest& request,
                                          const GatherContext& gather) {
  if (request.lo > request.hi) return Status::InvalidArgument("MER requires lo <= hi");
  return RouterSelect(
      snap, request.measure, core::KeepInside, request.lo, request.hi, request.min_quality,
      gather, [&](const QueryPlanner& planner) { return planner.PlanMer(request.measure); },
      [&](const serve::ServingSnapshot& shard, QueryMethod m) {
        return serve::SnapshotMer(shard, request, m);
      });
}

StatusOr<core::TopKResult> RouterTopK(const RouterSnapshot& snap,
                                      const core::TopKRequest& request,
                                      const GatherContext& gather) {
  ExecutedPlan plan = ResolvePlan(snap, gather, [&](const QueryPlanner& planner) {
    return planner.PlanTopK(request.measure, request.k);
  });
  const QueryMethod method = gather.method == QueryMethod::kAuto ? plan.method : gather.method;

  const std::size_t n_shards = snap.shards.size();
  std::vector<ScapeTopKResult> runs(n_shards);
  std::vector<core::AnswerQuality> qualities(n_shards);
  AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
      gather.exec, n_shards, [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) -> Status {
        for (std::size_t s = lo; s < hi; ++s) {
          AFFINITY_ASSIGN_OR_RETURN(core::TopKResult r,
                                    serve::SnapshotTopK(*snap.shards[s], request, method));
          qualities[s] = r.quality;
          const std::vector<ts::SeriesId>& group = snap.routing->groups[s];
          for (ScapeTopKEntry& entry : r.entries) {
            if (entry.has_series()) {
              entry.series = group[entry.series];
            } else {
              entry.pair = ts::SequencePair(group[entry.pair.u], group[entry.pair.v]);
            }
          }
          runs[s] = std::move(r);
        }
        return Status::OK();
      }));
  // Per-shard answers already restricted their own competition; cross
  // pairs compete only when both endpoints are eligible.
  core::AnswerQuality merged = MergeShardQuality(qualities);
  const auto score = [&](ts::SeriesId id) { return QualityOf(snap, id); };
  if (!core::IsLocation(request.measure) && n_shards > 1) {
    const CrossMoments& moments = FilledCrossMoments(snap, gather);
    const auto value = [&](std::size_t i) { return CrossValue(snap, moments, request.measure, i); };
    runs.push_back(CrossTopKRun(snap.routing->cross, value, request, score, &merged.excluded));
  }
  core::TopKResult out;
  static_cast<ScapeTopKResult&>(out) = core::MergeTopK(runs, request.k, request.largest);
  // The stamp covers the entries that survived the merge, not the shard
  // minima.
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
                                      const GatherContext& gather) {
  ExecutedPlan plan = ResolvePlan(snap, gather, [&](const QueryPlanner& planner) {
    return planner.PlanMec(request.measure, request.ids.size());
  });
  AFFINITY_RETURN_IF_ERROR(core::CheckMecIds(request.ids, snap.n));
  const QueryMethod method = gather.method == QueryMethod::kAuto ? plan.method : gather.method;

  // Slice the request per shard, remembering each id's request position.
  const std::size_t n_shards = snap.shards.size();
  std::vector<std::vector<std::size_t>> positions(n_shards);
  std::vector<core::MecRequest> slices(n_shards);
  const RoutingTables& routing = *snap.routing;
  for (std::size_t i = 0; i < request.ids.size(); ++i) {
    const std::size_t s = routing.shard_of[request.ids[i]];
    positions[s].push_back(i);
    slices[s].measure = request.measure;
    slices[s].min_quality = request.min_quality;
    slices[s].ids.push_back(routing.local_of[request.ids[i]]);
  }

  const std::size_t count = request.ids.size();
  const bool location = core::IsLocation(request.measure);
  core::MecResponse out;
  if (location) {
    out.location = la::Vector(count);
  } else {
    out.pair_values = la::Matrix(count, count);
  }
  // One chunk per shard (writes are shard-disjoint request positions).
  std::vector<core::AnswerQuality> qualities(n_shards);
  AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
      gather.exec, n_shards, [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) -> Status {
        for (std::size_t s = lo; s < hi; ++s) {
          if (slices[s].ids.empty()) continue;
          AFFINITY_ASSIGN_OR_RETURN(core::MecResponse r,
                                    serve::SnapshotMec(*snap.shards[s], slices[s], method));
          qualities[s] = r.quality;
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
        return Status::OK();
      }));
  if (!location) {
    // Cross-shard cells: every requested (i, j) spanning two shards, found
    // in the lex `cross` list.
    const CrossMoments* moments = nullptr;
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t j = i + 1; j < count; ++j) {
        if (routing.shard_of[request.ids[i]] == routing.shard_of[request.ids[j]]) continue;
        if (moments == nullptr) moments = &FilledCrossMoments(snap, gather);
        const auto at = std::lower_bound(routing.cross.begin(), routing.cross.end(),
                                         ts::SequencePair(request.ids[i], request.ids[j]));
        const double value = CrossValue(snap, *moments, request.measure,
                                        static_cast<std::size_t>(at - routing.cross.begin()));
        out.pair_values(i, j) = value;
        out.pair_values(j, i) = value;
      }
    }
  }
  // Stamps of the shards the request touched (each slice enforced the
  // FailedPrecondition contract for its ids).
  std::vector<core::AnswerQuality> touched;
  for (std::size_t s = 0; s < n_shards; ++s) {
    if (!slices[s].ids.empty()) touched.push_back(qualities[s]);
  }
  out.quality = MergeShardQuality(touched);
  core::AnnotateSnapshotServed(&plan, snap.generation);
  out.plan = std::move(plan);
  return out;
}

}  // namespace affinity::shard
