#ifndef AFFINITY_SHARD_SHARD_SERVE_H_
#define AFFINITY_SHARD_SHARD_SERVE_H_

/// \file shard_serve.h
/// Lock-free snapshot serving for the *sharded* deployment (DESIGN.md
/// §11): an immutable `RouterSnapshot` bundles every shard's published
/// `serve::ServingSnapshot` for one lockstep refresh epoch together with
/// the routing tables (partition maps, the lex cross-pair list) and a
/// frozen view of the cross co-moment cache, so a scatter-gather
/// MET/MER/MEC/top-k can execute end-to-end against immutable state —
/// zero locks, zero waiting on in-flight slides.
///
/// The `RouterMet`/`RouterMer`/`RouterMec`/`RouterTopK` free functions
/// mirror `ShardedAffinity`'s gather exactly (same plan resolution, same
/// local→global rewrite + sort, same k-way merges, same cross-pair
/// arithmetic), so answers are bitwise identical to the live router over
/// the same epoch. Cross pairs stamped in the frozen co-moment view are
/// served O(1) from `core::PairMeasureFromMoments`; the rest sweep the
/// shard snapshots' window copies with the canonical blocked kernels —
/// the exact values the live miss path computes and re-serves.
///
/// Freshness blending is inherently live (it reads the rolling
/// marginals), so router snapshots serve only the unblended path; the
/// facade keeps handling `FreshnessOptions::max_staleness`. Anything a
/// shard snapshot cannot serve (e.g. WF) propagates
/// `StatusCode::kUnavailable`, and the caller falls back to the live
/// service.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "common/status.h"
#include "core/query.h"
#include "serve/serve_query.h"
#include "serve/serving_snapshot.h"
#include "ts/data_matrix.h"

namespace affinity::shard {

/// An immutable serving replica of one sharded deployment at one lockstep
/// refresh epoch. Holds shared ownership of every shard's serving
/// snapshot; no pointer into the live service survives in here.
struct RouterSnapshot {
  /// The router's cross generation at publication (≥ 1; lockstep epochs).
  std::uint64_t generation = 0;
  /// Window geometry shared by every shard snapshot.
  std::size_t window = 0;
  /// The shard snapshots' shared block-grid anchor.
  std::size_t anchor = 0;
  /// Global series count.
  std::size_t n = 0;

  /// Shard s's serving snapshot for this epoch.
  std::vector<std::shared_ptr<const serve::ServingSnapshot>> shards;

  // --- Routing tables (frozen copies of the partitioner) -------------------
  std::vector<std::size_t> shard_of;               ///< global id → shard
  std::vector<ts::SeriesId> local_of;              ///< global id → shard-local id
  std::vector<std::vector<ts::SeriesId>> groups;   ///< shard → local → global id

  /// Every pair spanning two shards, (u, v)-lex in global ids.
  std::vector<ts::SequencePair> cross;

  // --- Frozen cross co-moment view (cross_cache.h, at publication) ---------
  /// One immutable freeze of the cross co-moment cache, shared across
  /// epochs whose cache contents did not change between publications (the
  /// router compares the cache's mutation version and re-freezes only on
  /// change — the common steady state with the cache disabled shares one
  /// view forever).
  struct CrossMomentView {
    /// `stamped[i]` is 1 iff cross pair i's co-moments were stamped at
    /// the freezing generation; its moments sit in `moments[i]`. Both are
    /// cross-list-aligned (all zeros when the cache is disabled).
    std::vector<std::uint8_t> stamped;
    std::vector<core::PairMoments> moments;
    /// Number of 1s in `stamped` — the planner's cached_cross_pairs.
    /// NOTE: the live router's count keeps growing as queries miss-fill
    /// the cache after publication, so a served plan's *cost/rationale*
    /// may differ from the live plan's; the chosen method (and hence
    /// every answer value) cannot (the surcharge applies after strategy
    /// selection).
    std::size_t stamped_count = 0;
  };
  std::shared_ptr<const CrossMomentView> cross_view;

  /// Capability intersection over the shards and the widest shard width —
  /// the live router's kAuto planner inputs.
  core::QueryPlanner::Capabilities caps;
  std::size_t max_n = 0;
};

// ---------------------------------------------------------------------------
// Cross-shard gather rules, shared by the live router (ShardedAffinity) and
// the Router* serving paths so both filter and stamp identically. No shard
// model covers a pair spanning two shards, so its quality predicate runs
// at the gather, against each endpoint's shard surface: `score(id)` returns
// the composite score of global series `id` (the live shard's published
// scores, or the shard epoch's frozen copy — the same values at one epoch).
// ---------------------------------------------------------------------------

/// Folds per-shard answer stamps: populated only when there is at least
/// one part and every part was stamped; worst score; exclusions summed.
core::AnswerQuality MergeShardQuality(const std::vector<core::AnswerQuality>& parts);

/// The cross pairs a MET/MER gather keeps, in `cross` (lex) order: those
/// with `keep(values[i], a, b)` whose endpoints, under `min_quality > 0`,
/// both score at least `min_quality`. Pairs the predicate drops count
/// into `merged->excluded`; when `merged->populated`, kept pairs fold
/// their worst endpoint score into `merged->min_score`.
template <typename ScoreFn>
std::vector<ts::SequencePair> KeepCrossPairs(const std::vector<ts::SequencePair>& cross,
                                             const std::vector<double>& values,
                                             bool (*keep)(double, double, double), double a,
                                             double b, double min_quality, const ScoreFn& score,
                                             core::AnswerQuality* merged) {
  std::vector<ts::SequencePair> kept;
  for (std::size_t i = 0; i < cross.size(); ++i) {
    if (!keep(values[i], a, b)) continue;
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
template <typename ScoreFn>
core::ScapeTopKResult CrossTopKRun(const std::vector<ts::SequencePair>& cross,
                                   const std::vector<double>& values,
                                   const core::TopKRequest& request, const ScoreFn& score,
                                   std::size_t* excluded) {
  core::TopKSelector best(request.k, request.largest);
  for (std::size_t i = 0; i < cross.size(); ++i) {
    if (request.min_quality > 0.0 &&
        (score(cross[i].u) < request.min_quality || score(cross[i].v) < request.min_quality)) {
      ++*excluded;
      continue;
    }
    best.Offer(core::ScapeTopKEntry{cross[i], core::kNoSeries, values[i]});
  }
  core::ScapeTopKResult run;
  run.entries = std::move(best).Finish();
  run.examined = cross.size();
  return run;
}

/// K-way heap merge of runs, each sorted ascending under `less`, into one
/// sorted vector — the gather step of a scatter-gather MET/MER (per-shard
/// answers plus the cross-shard run), shared by the live router and the
/// Router* serving paths so both merge identically.
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

/// Query 1 against a router snapshot. Mirrors `ShardedAffinity::Mec`
/// (unblended path); answers carry no per-shard freshness — the snapshot
/// is one coherent epoch. The Router* paths answer `min_quality` from the
/// shard epochs' frozen scores, with the live router's stamps.
StatusOr<core::MecResponse> RouterMec(const RouterSnapshot& snap, const core::MecRequest& request,
                                      core::QueryMethod method = core::QueryMethod::kAuto);

/// Query 2 against a router snapshot. Mirrors `ShardedAffinity::Met`.
StatusOr<core::SelectionResult> RouterMet(const RouterSnapshot& snap,
                                          const core::MetRequest& request,
                                          core::QueryMethod method = core::QueryMethod::kAuto);

/// Query 3 against a router snapshot. Mirrors `ShardedAffinity::Mer`.
StatusOr<core::SelectionResult> RouterMer(const RouterSnapshot& snap,
                                          const core::MerRequest& request,
                                          core::QueryMethod method = core::QueryMethod::kAuto);

/// Top-k against a router snapshot. Mirrors `ShardedAffinity::TopK`.
StatusOr<core::TopKResult> RouterTopK(const RouterSnapshot& snap,
                                      const core::TopKRequest& request,
                                      core::QueryMethod method = core::QueryMethod::kAuto);

}  // namespace affinity::shard

#endif  // AFFINITY_SHARD_SHARD_SERVE_H_
