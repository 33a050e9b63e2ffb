#include "shard/sharded.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <utility>

#include "core/serialize.h"

namespace affinity::shard {

namespace {

using core::AppendResult;
using core::CrossPair;
using core::ExecutedPlan;
using core::FreshnessOptions;
using core::FreshnessReport;
using core::Measure;
using core::QueryMethod;
using core::QueryPlanner;
using core::ScapeTopKEntry;
using core::ScapeTopKResult;

// --- Manifest framing (composes with serialize.h model payloads) ----------

constexpr char kManifestMagic[4] = {'A', 'F', 'F', 'S'};
// v2 added the cross co-moment cache tuning (budget, exact_resync_period)
// so a restored router keeps its watch-list instead of silently reverting
// to a disabled cache. v1 manifests still load with the cache defaults
// they were written under. v3 dropped the SCAPE B-tree fanout field (the
// index keeps sorted runs, which have no fanout); v1/v2 manifests still
// load, skipping it.
constexpr std::uint32_t kManifestVersion = 3;
constexpr std::uint32_t kMinManifestVersion = 1;

void WriteU32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}
void WriteU64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}
void WriteF64(std::ostream& out, double v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

bool ReadU32(std::istream& in, std::uint32_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof *v);
  return in.gcount() == sizeof *v;
}
bool ReadU64(std::istream& in, std::uint64_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof *v);
  return in.gcount() == sizeof *v;
}
bool ReadF64(std::istream& in, double* v) {
  in.read(reinterpret_cast<char*>(v), sizeof *v);
  return in.gcount() == sizeof *v;
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardRouter.
// ---------------------------------------------------------------------------

ShardRouter::ShardRouter(SeriesPartitioner partitioner) : partitioner_(std::move(partitioner)) {
  scatter_.resize(partitioner_.shards());
  for (std::size_t s = 0; s < partitioner_.shards(); ++s) {
    scatter_[s].resize(partitioner_.group(s).size());
  }
  // Cross-shard pairs, (u, v)-lex in global ids, fixed for the router's
  // lifetime: the complement of the per-shard pair sets.
  const std::size_t n = partitioner_.n();
  cross_pairs_.reserve(partitioner_.cross_pair_count());
  for (std::size_t u = 0; u + 1 < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (partitioner_.shard_of(static_cast<ts::SeriesId>(u)) !=
          partitioner_.shard_of(static_cast<ts::SeriesId>(v))) {
        cross_pairs_.emplace_back(static_cast<ts::SeriesId>(u), static_cast<ts::SeriesId>(v));
      }
    }
  }
}

const std::vector<std::vector<double>>& ShardRouter::Scatter(const std::vector<double>& row) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    const auto id = static_cast<ts::SeriesId>(i);
    scatter_[partitioner_.shard_of(id)][partitioner_.local_id(id)] = row[i];
  }
  return scatter_;
}

// ---------------------------------------------------------------------------
// ShardedAffinity: construction and ingest.
// ---------------------------------------------------------------------------

ShardedAffinity::ShardedAffinity(ShardedOptions options, SeriesPartitioner partitioner,
                                 std::unique_ptr<ThreadPool> pool)
    : pool_(std::move(pool)),
      exec_{pool_.get()},
      options_(std::move(options)),
      router_(std::move(partitioner)) {}

StatusOr<ShardedAffinity> ShardedAffinity::Create(const std::vector<std::string>& names,
                                                  const ShardedOptions& options) {
  AFFINITY_ASSIGN_OR_RETURN(
      SeriesPartitioner partitioner,
      SeriesPartitioner::Create(names, options.shards, options.partition));
  // Validate against the *smallest* shard so bad geometry reports before
  // any pool or table is built.
  std::size_t min_group = names.size();
  for (std::size_t s = 0; s < partitioner.shards(); ++s) {
    min_group = std::min(min_group, partitioner.group(s).size());
  }
  AFFINITY_RETURN_IF_ERROR(core::ValidateStreamingOptions(options.streaming, min_group));
  // One pool shared by every shard: scatter appends fan out across it, and
  // per-shard refreshes run concurrently on it (nested parallel loops
  // degrade to in-worker sequential execution — one worker per shard).
  std::unique_ptr<ThreadPool> pool;
  if (options.streaming.build.threads != 1) {
    pool = std::make_unique<ThreadPool>(options.streaming.build.threads);
  }
  ShardedAffinity service(options, std::move(partitioner), std::move(pool));
  AFFINITY_RETURN_IF_ERROR(service.InitShards(names));
  return service;
}

Status ShardedAffinity::InitShards(const std::vector<std::string>& names) {
  const SeriesPartitioner& partitioner = router_.partitioner();
  shards_.reserve(partitioner.shards());
  for (std::size_t s = 0; s < partitioner.shards(); ++s) {
    std::vector<std::string> local_names;
    local_names.reserve(partitioner.group(s).size());
    for (const ts::SeriesId id : partitioner.group(s)) local_names.push_back(names[id]);
    AFFINITY_ASSIGN_OR_RETURN(
        core::StreamingAffinity stream,
        core::StreamingAffinity::CreateWith(local_names, options_.streaming, exec_));
    shards_.push_back(std::move(stream));
  }
  append_results_.resize(shards_.size());
  cross_cache_ =
      CrossMomentCache(router_.cross_pairs(), options_.streaming.window, options_.cross_cache);
  return Status::OK();
}

AppendResult ShardedAffinity::Append(const std::vector<double>& row) {
  AppendResult out;
  if (row.size() != router_.partitioner().n()) {
    out.status = Status::InvalidArgument("row has " + std::to_string(row.size()) +
                                         " values, service has " +
                                         std::to_string(router_.partitioner().n()) + " series");
    return out;
  }
  const std::vector<std::vector<double>>& scattered = router_.Scatter(row);
  ++rows_;
  // Roll the cross watch-list before the shard appends: a refresh below
  // absorbs this row, so the rolled live window must already include it
  // when the post-refresh Stamp freezes it as the snapshot moments.
  cross_cache_.Observe(row);
  // One chunk per shard: appends (and any due refreshes) run concurrently
  // on the shared pool, each shard's own maintenance sequential within its
  // worker.
  ParallelChunks(exec_, shards_.size(), [&](std::size_t /*chunk*/, std::size_t lo,
                                            std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) append_results_[s] = shards_[s].Append(scattered[s]);
  });
  return FinishAppend();
}

AppendResult ShardedAffinity::AppendMasked(const std::vector<double>& values,
                                           const std::vector<std::uint8_t>& valid,
                                           const std::vector<std::uint8_t>& filled) {
  AppendResult out;
  const std::size_t n = router_.partitioner().n();
  if (values.size() != n) {
    out.status = Status::InvalidArgument("row has " + std::to_string(values.size()) +
                                         " values, service has " + std::to_string(n) + " series");
    return out;
  }
  if (valid.size() != n || filled.size() != n) {
    out.status = Status::InvalidArgument("mask sizes must match the row");
    return out;
  }
  const std::vector<std::vector<double>>& scattered = router_.Scatter(values);
  // Scatter the masks along the same per-shard groups. (Allocates per
  // call — the dirty path trades hot-path purity for the quality surface;
  // the dense Append stays allocation-free.)
  std::vector<std::vector<std::uint8_t>> valid_s(shards_.size());
  std::vector<std::vector<std::uint8_t>> filled_s(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto& group = router_.partitioner().group(s);
    valid_s[s].resize(group.size());
    filled_s[s].resize(group.size());
    for (std::size_t i = 0; i < group.size(); ++i) {
      valid_s[s][i] = valid[group[i]];
      filled_s[s][i] = filled[group[i]];
    }
  }
  ++rows_;
  cross_cache_.Observe(values);
  ParallelChunks(exec_, shards_.size(), [&](std::size_t /*chunk*/, std::size_t lo,
                                            std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      append_results_[s] = shards_[s].AppendMasked(scattered[s], valid_s[s], filled_s[s]);
    }
  });
  return FinishAppend();
}

AppendResult ShardedAffinity::FinishAppend() {
  AppendResult out;
  // Aggregate: first error by shard index; any refresh / escalation shows,
  // with the mode of the lowest refreshed shard.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const AppendResult& r = append_results_[s];
    if (!r.status.ok() && out.status.ok()) {
      out.status = Status(r.status.code(), "shard " + std::to_string(s) + ": " +
                                               std::string(r.status.message()));
    }
    if (r.refreshed && !out.refreshed) {
      out.refreshed = true;
      out.mode = r.mode;
    }
    out.escalated = out.escalated || r.escalated;
  }
  if (out.refreshed) {
    ++cross_generation_;
    if (out.escalated || !out.status.ok()) {
      // Conservative: a rebuild (or a half-failed lockstep refresh)
      // re-froze shard state; drop the stamps and let the next sweep
      // re-fill exactly.
      cross_cache_.Invalidate();
    } else {
      cross_cache_.Stamp(cross_generation_, SnapshotAnchor());
    }
    // Every shard republished its serving snapshot during this lockstep
    // refresh; bundle them (plus the just-stamped co-moment view) into a
    // fresh router epoch. A half-failed refresh keeps the previous epoch
    // (its shard snapshots are still the last coherent lockstep set).
    if (out.status.ok()) PublishRouterSnapshot();
  }
  return out;
}

void ShardedAffinity::PublishRouterSnapshot() {
  if (!ready()) return;
  auto snap = std::make_shared<RouterSnapshot>();
  snap->generation = cross_generation_;
  snap->window = options_.streaming.window;
  snap->n = router_.partitioner().n();
  snap->shards.reserve(shards_.size());
  core::QueryPlanner::Capabilities caps{true, true, true};
  std::size_t max_n = 0;
  for (const core::StreamingAffinity& shard : shards_) {
    std::shared_ptr<const serve::ServingSnapshot> shard_snap = shard.serving();
    // Defensive: a ready shard has always published (Refresh/Rebuild/
    // Restore all do); without a full lockstep set there is no coherent
    // epoch to serve, so keep the previous one.
    if (shard_snap == nullptr) return;
    caps.has_model = caps.has_model && shard_snap->caps.has_model;
    caps.has_scape = caps.has_scape && shard_snap->caps.has_scape;
    caps.has_dft = caps.has_dft && shard_snap->caps.has_dft;
    max_n = std::max(max_n, shard_snap->data.n());
    snap->shards.push_back(std::move(shard_snap));
  }
  snap->anchor = snap->shards[0]->data.anchor_row();
  snap->caps = caps;
  snap->max_n = max_n;
  const SeriesPartitioner& partitioner = router_.partitioner();
  snap->shard_of.resize(partitioner.n());
  snap->local_of.resize(partitioner.n());
  for (std::size_t i = 0; i < partitioner.n(); ++i) {
    const auto id = static_cast<ts::SeriesId>(i);
    snap->shard_of[i] = partitioner.shard_of(id);
    snap->local_of[i] = partitioner.local_id(id);
  }
  snap->groups.reserve(partitioner.shards());
  for (std::size_t s = 0; s < partitioner.shards(); ++s) {
    snap->groups.push_back(partitioner.group(s));
  }
  snap->cross = router_.cross_pairs();
  // Re-freeze the cross co-moment view only when the cache's exportable
  // state actually changed since the last publish (its mutation version
  // moved). Otherwise the prior epoch's immutable view is shared — with
  // the cache disabled (version pinned at 0) every epoch after the first
  // shares one all-unstamped view forever.
  if (last_cross_view_ == nullptr || cross_cache_.version() != last_cross_view_version_) {
    auto view = std::make_shared<RouterSnapshot::CrossMomentView>();
    cross_cache_.ExportStamped(cross_generation_, &view->stamped, &view->moments);
    // A disabled cache exports empty vectors; pad to the cross list so the
    // serve path treats every pair as unstamped (raw sweep), like the live
    // path with the cache off.
    view->stamped.resize(snap->cross.size(), 0);
    view->moments.resize(snap->cross.size());
    std::size_t stamped = 0;
    for (const std::uint8_t flag : view->stamped) stamped += flag;
    view->stamped_count = stamped;
    last_cross_view_ = std::move(view);
    last_cross_view_version_ = cross_cache_.version();
  }
  snap->cross_view = last_cross_view_;
  if (publisher_ == nullptr) {
    publisher_ = std::make_unique<serve::EpochPublisher<RouterSnapshot>>(
        options_.streaming.serving_history);
  }
  publisher_->Publish(std::move(snap));
}

std::size_t ShardedAffinity::SnapshotAnchor() const {
  // Lockstep refreshes keep every shard snapshot on the same trailing
  // window, hence on the same absolute block grid; shard 0 speaks for
  // all (callers only run on a ready deployment).
  return shards_.empty() || !shards_[0].ready()
             ? 0
             : shards_[0].framework()->data().anchor_row();
}

bool ShardedAffinity::ready() const {
  for (const core::StreamingAffinity& shard : shards_) {
    if (!shard.ready()) return false;
  }
  return !shards_.empty();
}

core::MaintenanceProfile ShardedAffinity::maintenance() const {
  std::vector<core::MaintenanceProfile> profiles;
  profiles.reserve(shards_.size());
  for (const core::StreamingAffinity& shard : shards_) profiles.push_back(shard.maintenance());
  return core::AggregateShardProfiles(profiles);
}

std::vector<std::size_t> ShardedAffinity::snapshot_ages() const {
  std::vector<std::size_t> ages;
  ages.reserve(shards_.size());
  for (const core::StreamingAffinity& shard : shards_) ages.push_back(shard.snapshot_age());
  return ages;
}

Status ShardedAffinity::Rebuild() {
  // A manual rebuild re-snapshots every shard mid-interval; the cached
  // generation no longer describes the snapshots, so drop it.
  ++cross_generation_;
  cross_cache_.Invalidate();
  AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
      exec_, shards_.size(), [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) -> Status {
        for (std::size_t s = lo; s < hi; ++s) {
          AFFINITY_RETURN_IF_ERROR(shards_[s].Rebuild());
        }
        return Status::OK();
      }));
  PublishRouterSnapshot();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Scatter-gather queries.
// ---------------------------------------------------------------------------

std::vector<ShardFreshness> ShardedAffinity::Freshness(const FreshnessOptions& options) const {
  std::vector<ShardFreshness> out(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    out[s].snapshot_age = shards_[s].snapshot_age();
    out[s].blended =
        options.max_staleness > 0 && out[s].snapshot_age > options.max_staleness;
  }
  return out;
}

bool ShardedAffinity::NeedsBlend(const FreshnessOptions& options) const {
  if (options.max_staleness == 0) return false;
  for (const core::StreamingAffinity& shard : shards_) {
    if (shard.snapshot_age() > options.max_staleness) return true;
  }
  return false;
}

StatusOr<ExecutedPlan> ShardedAffinity::ResolveShardPlan(
    const std::function<core::PlanChoice(const QueryPlanner&)>& plan,
    const FreshnessOptions& options) const {
  if (!ready()) {
    return Status::FailedPrecondition("no shard snapshots yet (need window rows)");
  }
  // Blend trumps strategy choice: a stale deployment answers with the
  // live-marginal blend sweep whatever is attached.
  if (NeedsBlend(options)) {
    std::size_t max_age = 0;
    for (const core::StreamingAffinity& shard : shards_) {
      max_age = std::max(max_age, shard.snapshot_age());
    }
    ExecutedPlan blended;
    blended.method = QueryMethod::kAffine;
    blended.rationale = "freshness blend over " + std::to_string(shards_.size()) +
                        " shards: snapshot structure (age " + std::to_string(max_age) +
                        " rows) rescaled by live rolling marginals";
    return blended;
  }
  if (options.method != QueryMethod::kAuto) {
    ExecutedPlan explicit_plan;
    explicit_plan.method = options.method;
    explicit_plan.rationale = "explicitly requested " +
                              std::string(core::QueryMethodName(options.method)) +
                              " per shard; scatter-gather over " +
                              std::to_string(shards_.size()) + " shards";
    return explicit_plan;
  }
  // Shard-aware auto dispatch: capabilities every shard can serve, per-
  // shard dimensions, and the cross-pair surcharge via the Topology.
  QueryPlanner::Capabilities caps{true, true, true};
  std::size_t max_n = 0;
  for (const core::StreamingAffinity& shard : shards_) {
    const QueryPlanner::Capabilities c = shard.framework()->engine().Capabilities();
    caps.has_model = caps.has_model && c.has_model;
    caps.has_scape = caps.has_scape && c.has_scape;
    caps.has_dft = caps.has_dft && c.has_dft;
    max_n = std::max(max_n, shard.framework()->data().n());
  }
  const QueryPlanner::Topology topology{shards_.size(),
                                        router_.partitioner().cross_pair_count(),
                                        cross_cache_.StampedCount(cross_generation_)};
  const QueryPlanner planner(max_n, options_.streaming.window, caps, topology);
  return plan(planner);
}

StatusOr<std::vector<double>> ShardedAffinity::CrossPairValues(Measure measure,
                                                               bool blend) const {
  const std::vector<ts::SequencePair>& cross = router_.cross_pairs();
  const SeriesPartitioner& partitioner = router_.partitioner();
  const std::size_t window = options_.streaming.window;
  const auto resolve = [&](const ts::SequencePair e) {
    const core::StreamingAffinity& su = shards_[partitioner.shard_of(e.u)];
    const core::StreamingAffinity& sv = shards_[partitioner.shard_of(e.v)];
    return CrossPair{e, su.framework()->data().ColumnData(partitioner.local_id(e.u)),
                     sv.framework()->data().ColumnData(partitioner.local_id(e.v))};
  };

  // Warm watched pairs answer from their stamped co-moments — zero raw
  // column scans; everything else goes through the marginal-hoisted sweep,
  // whose per-pair moments re-fill the cache. The freshness blend bypasses
  // the cache (it sweeps twice over the same snapshot anyway).
  std::vector<double> values(cross.size());
  const bool use_cache = !blend && cross_cache_.enabled();
  std::vector<std::size_t> swept;  // cross indices needing the raw sweep
  if (use_cache) {
    swept.reserve(cross.size());
    for (std::size_t i = 0; i < cross.size(); ++i) {
      core::PairMoments pm;
      if (cross_cache_.Lookup(i, cross_generation_, &pm)) {
        auto value = core::PairMeasureFromMoments(measure, pm);
        if (!value.ok()) return value.status();
        values[i] = *value;
      } else {
        swept.push_back(i);
      }
    }
  } else {
    swept.resize(cross.size());
    for (std::size_t i = 0; i < cross.size(); ++i) swept[i] = i;
  }

  std::vector<CrossPair> resolved(swept.size());
  for (std::size_t j = 0; j < swept.size(); ++j) resolved[j] = resolve(cross[swept[j]]);
  if (!resolved.empty()) {
    std::vector<core::PairMoments> moments;
    AFFINITY_ASSIGN_OR_RETURN(
        const std::vector<double> swept_values,
        core::EvaluateCrossPairs(measure, resolved, window, exec_,
                                 use_cache ? &moments : nullptr, &cross_sweep_stats_,
                                 SnapshotAnchor()));
    for (std::size_t j = 0; j < swept.size(); ++j) {
      values[swept[j]] = swept_values[j];
      if (use_cache) cross_cache_.Store(swept[j], cross_generation_, moments[j]);
    }
  }
  if (!blend || measure == Measure::kCorrelation) return values;
  // Blend: snapshot correlation carries the structure, live rolling
  // moments the marginals (same semantics as the per-shard blend). In
  // blend mode `resolved` covers every cross pair, index-aligned.
  AFFINITY_ASSIGN_OR_RETURN(const std::vector<double> rhos,
                            core::EvaluateCrossPairs(Measure::kCorrelation, resolved, window,
                                                     exec_, nullptr, &cross_sweep_stats_,
                                                     SnapshotAnchor()));
  for (std::size_t i = 0; i < cross.size(); ++i) {
    const ts::SequencePair e = cross[i];
    const ts::RollingStats& ru =
        shards_[partitioner.shard_of(e.u)].rolling_stats()[partitioner.local_id(e.u)];
    const ts::RollingStats& rv =
        shards_[partitioner.shard_of(e.v)].rolling_stats()[partitioner.local_id(e.v)];
    values[i] = core::BlendPairMeasure(measure, rhos[i], values[i], ru, rv);
  }
  return values;
}

double ShardedAffinity::GlobalQualityScore(ts::SeriesId global) const {
  const SeriesPartitioner& partitioner = router_.partitioner();
  const std::vector<double>& scores = shards_[partitioner.shard_of(global)].quality_scores();
  const ts::SeriesId local = partitioner.local_id(global);
  return local < scores.size() ? scores[local] : 1.0;
}

StatusOr<ShardedSelection> ShardedAffinity::SelectAcrossShards(
    Measure measure, bool (*keep)(double, double, double), double a, double b,
    double min_quality, const std::function<core::PlanChoice(const QueryPlanner&)>& plan,
    const std::function<StatusOr<core::SelectionResult>(
        const core::StreamingAffinity&, const FreshnessOptions&, FreshnessReport*)>& shard_query,
    const FreshnessOptions& options) const {
  AFFINITY_ASSIGN_OR_RETURN(ExecutedPlan resolved, ResolveShardPlan(plan, options));
  ShardedSelection out;
  out.shards = Freshness(options);
  FreshnessOptions per_shard = options;
  if (options.method == QueryMethod::kAuto) per_shard.method = resolved.method;

  const SeriesPartitioner& partitioner = router_.partitioner();
  const bool location = core::IsLocation(measure);
  const std::size_t n_shards = shards_.size();
  // One chunk per shard, like Append: per-shard index scans run
  // concurrently on the pool; every write below is shard-disjoint.
  std::vector<std::vector<ts::SeriesId>> series_runs(n_shards);
  std::vector<std::vector<ts::SequencePair>> pair_runs(n_shards);
  std::vector<core::PruneStats> prunes(n_shards);
  std::vector<core::AnswerQuality> qualities(n_shards);
  AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
      exec_, n_shards, [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) -> Status {
        for (std::size_t s = lo; s < hi; ++s) {
          FreshnessReport report;
          AFFINITY_ASSIGN_OR_RETURN(core::SelectionResult r,
                                    shard_query(shards_[s], per_shard, &report));
          out.shards[s] = ShardFreshness{report.snapshot_age, report.blended};
          prunes[s] = r.prune;
          qualities[s] = r.quality;
          if (location) {
            for (ts::SeriesId& v : r.series) v = partitioner.global_id(s, v);
            std::sort(r.series.begin(), r.series.end());
            series_runs[s] = std::move(r.series);
          } else {
            for (ts::SequencePair& e : r.pairs) {
              e = ts::SequencePair(partitioner.global_id(s, e.u), partitioner.global_id(s, e.v));
            }
            std::sort(r.pairs.begin(), r.pairs.end());
            pair_runs[s] = std::move(r.pairs);
          }
        }
        return Status::OK();
      }));
  for (const core::PruneStats& p : prunes) out.result.prune += p;
  // Cross-pair exclusions add to the shards' (shard_serve.h gather rules).
  core::AnswerQuality merged = MergeShardQuality(qualities);
  if (!location && n_shards > 1) {
    AFFINITY_ASSIGN_OR_RETURN(const std::vector<double> values,
                              CrossPairValues(measure, NeedsBlend(options)));
    pair_runs.push_back(KeepCrossPairs(
        router_.cross_pairs(), values, keep, a, b, min_quality,
        [&](ts::SeriesId id) { return GlobalQualityScore(id); }, &merged));  // lex-sorted
  }
  if (location) {
    out.result.series = MergeSortedRuns(series_runs, std::less<ts::SeriesId>{});
  } else {
    out.result.pairs = MergeSortedRuns(pair_runs, std::less<ts::SequencePair>{});
  }
  out.result.quality = merged;
  if (min_quality > 0.0) {
    core::AnnotateQualityFiltered(&resolved, min_quality, merged.excluded);
  }
  out.result.plan = std::move(resolved);
  return out;
}

StatusOr<ShardedSelection> ShardedAffinity::Met(const core::MetRequest& request,
                                                const FreshnessOptions& options) const {
  return SelectAcrossShards(
      request.measure, request.greater ? core::KeepGreater : core::KeepLesser, request.tau, 0.0,
      request.min_quality,
      [&](const QueryPlanner& planner) { return planner.PlanMet(request.measure); },
      [&](const core::StreamingAffinity& shard, const FreshnessOptions& per_shard,
          FreshnessReport* report) { return shard.Met(request, per_shard, report); },
      options);
}

StatusOr<ShardedSelection> ShardedAffinity::Mer(const core::MerRequest& request,
                                                const FreshnessOptions& options) const {
  if (request.lo > request.hi) return Status::InvalidArgument("MER requires lo <= hi");
  return SelectAcrossShards(
      request.measure, core::KeepInside, request.lo, request.hi, request.min_quality,
      [&](const QueryPlanner& planner) { return planner.PlanMer(request.measure); },
      [&](const core::StreamingAffinity& shard, const FreshnessOptions& per_shard,
          FreshnessReport* report) { return shard.Mer(request, per_shard, report); },
      options);
}

StatusOr<ShardedTopK> ShardedAffinity::TopK(const core::TopKRequest& request,
                                            const FreshnessOptions& options) const {
  AFFINITY_ASSIGN_OR_RETURN(
      ExecutedPlan plan,
      ResolveShardPlan(
          [&](const QueryPlanner& planner) {
            return planner.PlanTopK(request.measure, request.k);
          },
          options));
  ShardedTopK out;
  out.shards = Freshness(options);
  FreshnessOptions per_shard = options;
  if (options.method == QueryMethod::kAuto) per_shard.method = plan.method;

  const SeriesPartitioner& partitioner = router_.partitioner();
  std::vector<ScapeTopKResult> runs(shards_.size());
  std::vector<core::AnswerQuality> qualities(shards_.size());
  AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
      exec_, shards_.size(), [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) -> Status {
        for (std::size_t s = lo; s < hi; ++s) {
          FreshnessReport report;
          AFFINITY_ASSIGN_OR_RETURN(core::TopKResult r,
                                    shards_[s].TopK(request, per_shard, &report));
          out.shards[s] = ShardFreshness{report.snapshot_age, report.blended};
          qualities[s] = r.quality;
          for (ScapeTopKEntry& entry : r.entries) {
            if (entry.has_series()) {
              entry.series = partitioner.global_id(s, entry.series);
            } else {
              entry.pair = ts::SequencePair(partitioner.global_id(s, entry.pair.u),
                                            partitioner.global_id(s, entry.pair.v));
            }
          }
          runs[s] = std::move(r);
        }
        return Status::OK();
      }));
  // Per-shard answers already restricted their own competition; cross
  // pairs compete only when both endpoints are eligible.
  core::AnswerQuality merged = MergeShardQuality(qualities);
  const auto score = [&](ts::SeriesId id) { return GlobalQualityScore(id); };
  if (!core::IsLocation(request.measure) && shards_.size() > 1) {
    AFFINITY_ASSIGN_OR_RETURN(const std::vector<double> values,
                              CrossPairValues(request.measure, NeedsBlend(options)));
    runs.push_back(
        CrossTopKRun(router_.cross_pairs(), values, request, score, &merged.excluded));
  }
  static_cast<ScapeTopKResult&>(out.result) = core::MergeTopK(runs, request.k, request.largest);
  // The stamp covers the entries that survived the merge, not the shard
  // minima.
  merged.min_score = merged.populated ? core::WorstEntryScore(out.result.entries, score) : 1.0;
  out.result.quality = merged;
  if (request.min_quality > 0.0) {
    core::AnnotateQualityFiltered(&plan, request.min_quality, merged.excluded);
  }
  out.result.plan = std::move(plan);
  return out;
}

StatusOr<ShardedMec> ShardedAffinity::Mec(const core::MecRequest& request,
                                          const FreshnessOptions& options) const {
  AFFINITY_ASSIGN_OR_RETURN(
      ExecutedPlan plan,
      ResolveShardPlan(
          [&](const QueryPlanner& planner) {
            return planner.PlanMec(request.measure, request.ids.size());
          },
          options));
  if (request.ids.empty()) return Status::InvalidArgument("MEC requires a non-empty id set");
  const SeriesPartitioner& partitioner = router_.partitioner();
  for (const ts::SeriesId id : request.ids) {
    if (id >= partitioner.n()) {
      return Status::OutOfRange("series id " + std::to_string(id) + " out of range (n=" +
                                std::to_string(partitioner.n()) + ")");
    }
  }
  ShardedMec out;
  out.shards = Freshness(options);
  FreshnessOptions per_shard = options;
  if (options.method == QueryMethod::kAuto) per_shard.method = plan.method;

  // Slice the request per shard, remembering each id's request position.
  std::vector<std::vector<std::size_t>> positions(shards_.size());
  std::vector<core::MecRequest> slices(shards_.size());
  for (std::size_t i = 0; i < request.ids.size(); ++i) {
    const std::size_t s = partitioner.shard_of(request.ids[i]);
    positions[s].push_back(i);
    slices[s].measure = request.measure;
    slices[s].min_quality = request.min_quality;
    slices[s].ids.push_back(partitioner.local_id(request.ids[i]));
  }

  const std::size_t count = request.ids.size();
  const bool location = core::IsLocation(request.measure);
  if (location) {
    out.response.location = la::Vector(count);
  } else {
    out.response.pair_values = la::Matrix(count, count);
  }
  // One chunk per shard (writes are shard-disjoint request positions).
  std::vector<core::AnswerQuality> qualities(shards_.size());
  std::vector<char> sliced(shards_.size(), 0);
  AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
      exec_, shards_.size(), [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) -> Status {
        for (std::size_t s = lo; s < hi; ++s) {
          if (slices[s].ids.empty()) continue;
          FreshnessReport report;
          AFFINITY_ASSIGN_OR_RETURN(core::MecResponse r,
                                    shards_[s].Mec(slices[s], per_shard, &report));
          out.shards[s] = ShardFreshness{report.snapshot_age, report.blended};
          qualities[s] = r.quality;
          sliced[s] = 1;
          if (location) {
            for (std::size_t t = 0; t < positions[s].size(); ++t) {
              out.response.location[positions[s][t]] = r.location[t];
            }
          } else {
            for (std::size_t a = 0; a < positions[s].size(); ++a) {
              for (std::size_t b = 0; b < positions[s].size(); ++b) {
                out.response.pair_values(positions[s][a], positions[s][b]) = r.pair_values(a, b);
              }
            }
          }
        }
        return Status::OK();
      }));
  if (!location) {
    // Cross-shard cells: resolve each requested (i, j) spanning two shards
    // against the aligned snapshots and evaluate naively (blended when the
    // staleness bound trips). Warm watched pairs answer from their cached
    // co-moments instead — the router's cross list is lex-sorted, so each
    // cell's cross index resolves by binary search.
    const bool blend = NeedsBlend(options);
    const bool use_cache = !blend && cross_cache_.enabled();
    const std::vector<ts::SequencePair>& cross = router_.cross_pairs();
    std::vector<CrossPair> resolved;
    std::vector<std::pair<std::size_t, std::size_t>> cells;
    std::vector<std::size_t> cell_cross_index;  // aligned with cells; for Store
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t j = i + 1; j < count; ++j) {
        if (partitioner.shard_of(request.ids[i]) == partitioner.shard_of(request.ids[j])) {
          continue;
        }
        const ts::SeriesId u = request.ids[i];
        const ts::SeriesId v = request.ids[j];
        const ts::SequencePair e(u, v);
        const auto it = std::lower_bound(cross.begin(), cross.end(), e);
        const std::size_t cross_index = static_cast<std::size_t>(it - cross.begin());
        if (use_cache) {
          core::PairMoments pm;
          if (cross_cache_.Lookup(cross_index, cross_generation_, &pm)) {
            AFFINITY_ASSIGN_OR_RETURN(const double value,
                                      core::PairMeasureFromMoments(request.measure, pm));
            out.response.pair_values(i, j) = value;
            out.response.pair_values(j, i) = value;
            continue;
          }
        }
        const core::StreamingAffinity& su = shards_[partitioner.shard_of(u)];
        const core::StreamingAffinity& sv = shards_[partitioner.shard_of(v)];
        resolved.push_back(
            CrossPair{e, su.framework()->data().ColumnData(partitioner.local_id(u)),
                      sv.framework()->data().ColumnData(partitioner.local_id(v))});
        cells.emplace_back(i, j);
        cell_cross_index.push_back(cross_index);
      }
    }
    if (!resolved.empty()) {
      const std::size_t window = options_.streaming.window;
      std::vector<core::PairMoments> moments;
      AFFINITY_ASSIGN_OR_RETURN(
          std::vector<double> values,
          core::EvaluateCrossPairs(request.measure, resolved, window, exec_,
                                   use_cache ? &moments : nullptr, &cross_sweep_stats_,
                                   SnapshotAnchor()));
      if (use_cache) {
        for (std::size_t idx = 0; idx < resolved.size(); ++idx) {
          cross_cache_.Store(cell_cross_index[idx], cross_generation_, moments[idx]);
        }
      }
      if (blend && request.measure != Measure::kCorrelation) {
        AFFINITY_ASSIGN_OR_RETURN(
            const std::vector<double> rhos,
            core::EvaluateCrossPairs(Measure::kCorrelation, resolved, window, exec_, nullptr,
                                     &cross_sweep_stats_, SnapshotAnchor()));
        for (std::size_t idx = 0; idx < resolved.size(); ++idx) {
          const ts::SeriesId u = request.ids[cells[idx].first];
          const ts::SeriesId v = request.ids[cells[idx].second];
          const ts::RollingStats& ru =
              shards_[partitioner.shard_of(u)].rolling_stats()[partitioner.local_id(u)];
          const ts::RollingStats& rv =
              shards_[partitioner.shard_of(v)].rolling_stats()[partitioner.local_id(v)];
          values[idx] = core::BlendPairMeasure(request.measure, rhos[idx], values[idx], ru, rv);
        }
      }
      for (std::size_t idx = 0; idx < cells.size(); ++idx) {
        out.response.pair_values(cells[idx].first, cells[idx].second) = values[idx];
        out.response.pair_values(cells[idx].second, cells[idx].first) = values[idx];
      }
    }
  }
  // Merged stamp over the shards the request actually touched (every id
  // lands in exactly one slice, and each slice already enforced the
  // FailedPrecondition contract for its ids).
  std::vector<core::AnswerQuality> touched;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (sliced[s]) touched.push_back(qualities[s]);
  }
  out.response.quality = MergeShardQuality(touched);
  out.response.plan = std::move(plan);
  return out;
}

// ---------------------------------------------------------------------------
// Shard-manifest persistence.
// ---------------------------------------------------------------------------

Status ShardedAffinity::Save(const std::string& path) const {
  if (!ready()) {
    return Status::FailedPrecondition("every shard needs a snapshot before Save");
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  const SeriesPartitioner& partitioner = router_.partitioner();

  out.write(kManifestMagic, sizeof kManifestMagic);
  WriteU32(out, kManifestVersion);
  WriteU64(out, partitioner.shards());
  WriteU64(out, partitioner.n());
  WriteU32(out, static_cast<std::uint32_t>(partitioner.scheme()));
  for (std::size_t i = 0; i < partitioner.n(); ++i) {
    WriteU32(out, static_cast<std::uint32_t>(partitioner.shard_of(static_cast<ts::SeriesId>(i))));
  }
  // Streaming geometry and build/maintenance tuning the restored
  // deployment must agree on (a post-restore escalation rebuilds with
  // these, so they cannot silently reset to defaults).
  WriteU64(out, options_.streaming.window);
  WriteU64(out, options_.streaming.rebuild_interval);
  WriteU32(out, options_.streaming.mode == core::UpdateMode::kIncremental ? 1 : 0);
  WriteU64(out, options_.streaming.segment_capacity);
  WriteU64(out, options_.streaming.build.afclst.k);
  WriteU32(out, static_cast<std::uint32_t>(options_.streaming.build.afclst.max_iterations));
  WriteU32(out, static_cast<std::uint32_t>(options_.streaming.build.afclst.min_changes));
  WriteU64(out, options_.streaming.build.afclst.seed);
  WriteU32(out, options_.streaming.build.symex.cache_pseudo_inverse ? 1 : 0);
  WriteU64(out, options_.streaming.build.symex.max_relationships);
  WriteU32(out, options_.streaming.build.build_scape ? 1 : 0);
  WriteU32(out, options_.streaming.build.build_dft ? 1 : 0);
  WriteU64(out, options_.streaming.build.dft_coefficients);
  WriteF64(out, options_.streaming.incremental.refit_drift_threshold);
  WriteU64(out, options_.streaming.incremental.exact_refit_period);
  WriteF64(out, options_.streaming.incremental.escalation_factor);
  WriteF64(out, options_.streaming.incremental.escalation_slack);
  WriteU64(out, options_.cross_cache.budget);
  WriteU64(out, options_.cross_cache.exact_resync_period);
  // One model payload per shard (serialize.h framing).
  for (const core::StreamingAffinity& shard : shards_) {
    AFFINITY_RETURN_IF_ERROR(core::WriteModelStream(shard.framework()->model(), out));
  }
  out.flush();
  if (!out) return Status::IoError("write to '" + path + "' failed");
  return Status::OK();
}

StatusOr<ShardedAffinity> ShardedAffinity::Load(const std::string& path, std::size_t threads) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");

  char magic[4] = {};
  in.read(magic, sizeof magic);
  if (in.gcount() != 4 || std::memcmp(magic, kManifestMagic, 4) != 0) {
    return Status::InvalidArgument("'" + path + "' is not an AFFINITY shard manifest");
  }
  std::uint32_t version = 0;
  if (!ReadU32(in, &version) || version < kMinManifestVersion || version > kManifestVersion) {
    return Status::InvalidArgument("unsupported shard manifest version");
  }
  std::uint64_t shards = 0;
  std::uint64_t n = 0;
  std::uint32_t scheme_raw = 0;
  if (!ReadU64(in, &shards) || !ReadU64(in, &n) || !ReadU32(in, &scheme_raw) || shards == 0 ||
      shards > (1u << 20) || n > (1u << 28) || scheme_raw > 1) {
    return Status::InvalidArgument("'" + path + "': corrupt shard manifest header");
  }
  std::vector<std::uint32_t> assignment(n);
  for (auto& a : assignment) {
    if (!ReadU32(in, &a)) {
      return Status::InvalidArgument("'" + path + "': corrupt shard assignment");
    }
  }
  ShardedOptions options;
  options.shards = static_cast<std::size_t>(shards);
  options.partition = static_cast<PartitionScheme>(scheme_raw);
  std::uint64_t window = 0;
  std::uint64_t interval = 0;
  std::uint32_t mode = 0;
  std::uint64_t segment_capacity = 0;
  if (!ReadU64(in, &window) || !ReadU64(in, &interval) || !ReadU32(in, &mode) ||
      !ReadU64(in, &segment_capacity) || mode > 1) {
    return Status::InvalidArgument("'" + path + "': corrupt streaming geometry");
  }
  options.streaming.window = static_cast<std::size_t>(window);
  options.streaming.rebuild_interval = static_cast<std::size_t>(interval);
  options.streaming.mode = mode == 1 ? core::UpdateMode::kIncremental : core::UpdateMode::kRebuild;
  options.streaming.segment_capacity = static_cast<std::size_t>(segment_capacity);
  std::uint64_t k = 0;
  std::uint32_t max_iterations = 0;
  std::uint32_t min_changes = 0;
  std::uint64_t afclst_seed = 0;
  std::uint32_t cache_pinv = 0;
  std::uint64_t max_relationships = 0;
  std::uint32_t build_scape = 0;
  std::uint32_t build_dft = 0;
  std::uint64_t dft_coefficients = 0;
  std::uint64_t refit_period = 0;
  std::uint64_t unused_fanout = 0;  // v1/v2 only
  core::IncrementalOptions incremental;
  if (!ReadU64(in, &k) || !ReadU32(in, &max_iterations) || !ReadU32(in, &min_changes) ||
      !ReadU64(in, &afclst_seed) || !ReadU32(in, &cache_pinv) ||
      !ReadU64(in, &max_relationships) || (version < 3 && !ReadU64(in, &unused_fanout)) ||
      !ReadU32(in, &build_scape) || !ReadU32(in, &build_dft) ||
      !ReadU64(in, &dft_coefficients) || !ReadF64(in, &incremental.refit_drift_threshold) ||
      !ReadU64(in, &refit_period) || !ReadF64(in, &incremental.escalation_factor) ||
      !ReadF64(in, &incremental.escalation_slack) || cache_pinv > 1 || build_scape > 1 ||
      build_dft > 1) {
    return Status::InvalidArgument("'" + path + "': corrupt build-tuning section");
  }
  options.streaming.build.afclst.k = static_cast<std::size_t>(k);
  options.streaming.build.afclst.max_iterations = static_cast<int>(max_iterations);
  options.streaming.build.afclst.min_changes = static_cast<int>(min_changes);
  options.streaming.build.afclst.seed = afclst_seed;
  options.streaming.build.symex.cache_pseudo_inverse = cache_pinv == 1;
  options.streaming.build.symex.max_relationships = static_cast<std::size_t>(max_relationships);
  options.streaming.build.build_scape = build_scape == 1;
  options.streaming.build.build_dft = build_dft == 1;
  options.streaming.build.dft_coefficients = static_cast<std::size_t>(dft_coefficients);
  incremental.exact_refit_period = static_cast<std::size_t>(refit_period);
  options.streaming.incremental = incremental;
  if (version >= 2) {
    std::uint64_t cache_budget = 0;
    std::uint64_t cache_resync = 0;
    if (!ReadU64(in, &cache_budget) || !ReadU64(in, &cache_resync) || cache_resync == 0) {
      return Status::InvalidArgument("'" + path + "': corrupt cross-cache section");
    }
    options.cross_cache.budget = static_cast<std::size_t>(cache_budget);
    options.cross_cache.exact_resync_period = static_cast<std::size_t>(cache_resync);
  }  // v1: pre-cache manifests keep the CrossCacheOptions defaults.
  options.streaming.build.threads = threads;

  AFFINITY_ASSIGN_OR_RETURN(
      SeriesPartitioner partitioner,
      SeriesPartitioner::FromAssignment(assignment, options.shards, options.partition));

  std::unique_ptr<ThreadPool> pool;
  if (threads != 1) pool = std::make_unique<ThreadPool>(threads);
  ShardedAffinity service(options, std::move(partitioner), std::move(pool));
  service.shards_.reserve(options.shards);
  for (std::size_t s = 0; s < options.shards; ++s) {
    auto model = core::ReadModelStream(in);
    if (!model.ok()) {
      return Status(model.status().code(), "'" + path + "' shard " + std::to_string(s) + ": " +
                                               std::string(model.status().message()));
    }
    if (model->data().n() != service.router_.partitioner().group(s).size()) {
      return Status::InvalidArgument("'" + path + "' shard " + std::to_string(s) +
                                     ": model width disagrees with the shard assignment");
    }
    AFFINITY_ASSIGN_OR_RETURN(
        core::StreamingAffinity stream,
        core::StreamingAffinity::Restore(std::move(model).value(), options.streaming,
                                         service.exec_));
    service.shards_.push_back(std::move(stream));
  }
  service.append_results_.resize(options.shards);
  // The co-moment cache restores cold (the manifest carries no rings):
  // its stamps stay invalid until a full window of appends has been
  // observed and a lockstep refresh stamps it.
  service.cross_cache_ = CrossMomentCache(service.router_.cross_pairs(),
                                          options.streaming.window, options.cross_cache);
  // Restore-ordering audit (ISSUE 5): the restored snapshots form a real
  // generation, so the router's counter must not sit at the cache's
  // never-stamped sentinel 0 — a Lookup/Store at 0 would alias every
  // Invalidate()d entry (now also CHECKed inside the cache). Starting at
  // 1 makes post-restore sweeps legal miss-fills: the first query misses
  // (nothing is stamped), re-fills at generation 1, and repeats serve
  // warm until the next lockstep refresh advances the generation.
  service.cross_generation_ = 1;
  // Logical row numbering restarts at `window` (each restored shard's
  // resident window is its whole history).
  service.rows_ = options.streaming.window;
  // First router epoch: the restored shard snapshots form generation 1
  // (every restored shard published in Restore), with an all-cold cross
  // view — serve sweeps fill in until the first lockstep refresh.
  service.PublishRouterSnapshot();
  return service;
}

}  // namespace affinity::shard
