#include "core/streaming.h"

#include <algorithm>
#include <cmath>

#include "common/stopwatch.h"
#include "common/thread_annotations.h"

namespace affinity::core {

namespace {

/// Segment capacity keeping post-compaction residency O(window): small
/// windows get small segments, large ones cap at the storage default.
/// Rounded down to a power of two so derived segments always tile the
/// canonical summation blocks (`kernels::kBlockElems`, itself a power of
/// two) — segment boundaries then never straddle a block boundary, the
/// layout the retained-partial cache is designed around (DESIGN.md §10).
std::size_t DeriveSegmentCapacity(const StreamingOptions& options) {
  if (options.segment_capacity > 0) return options.segment_capacity;
  const std::size_t raw = std::clamp<std::size_t>(options.window / 4, 16, 1024);
  std::size_t pow2 = 16;
  while (pow2 * 2 <= raw) pow2 *= 2;
  return pow2;
}

}  // namespace

Status ValidateStreamingOptions(const StreamingOptions& options, std::size_t series_count) {
  if (series_count < 2) {
    return Status::InvalidArgument("streaming requires at least 2 series (have " +
                                   std::to_string(series_count) + ")");
  }
  if (options.window < 2) {
    return Status::InvalidArgument("streaming requires window >= 2");
  }
  if (options.window > (std::size_t{1} << 24)) {
    return Status::InvalidArgument("window " + std::to_string(options.window) +
                                   " exceeds the 2^24 sanity bound");
  }
  if (options.rebuild_interval < 1) {
    return Status::InvalidArgument("streaming requires rebuild_interval >= 1");
  }
  if (options.incremental.exact_refit_period < 1) {
    return Status::InvalidArgument("streaming requires exact_refit_period >= 1");
  }
  if (options.incremental.escalation_factor <= 0.0) {
    return Status::InvalidArgument("streaming requires escalation_factor > 0");
  }
  return Status::OK();
}

double BlendPairMeasure(Measure measure, double snapshot_corr, double snapshot_value,
                        const ts::RollingStats& u, const ts::RollingStats& v) {
  const double m = static_cast<double>(u.count());
  if (m == 0.0) return snapshot_value;
  const double var_u = u.Variance();
  const double var_v = v.Variance();
  // The blended covariance: snapshot correlation × live scales. A live
  // constant series has zero covariance with anything, exactly.
  const double cov = (var_u > 0.0 && var_v > 0.0)
                         ? snapshot_corr * std::sqrt(var_u * var_v)
                         : 0.0;
  // Population identity Σuv = m·(cov + mean_u·mean_v) lifts the blend to
  // the dot product, and the live energies normalize the rest.
  const double dot = m * (cov + u.Mean() * v.Mean());
  switch (measure) {
    case Measure::kCovariance:
      return cov;
    case Measure::kCorrelation:
      // Scale-free: the live marginals carry no cross information.
      return snapshot_corr;
    case Measure::kDotProduct:
      return dot;
    case Measure::kCosine: {
      const double denom = std::sqrt(u.SumSquares() * v.SumSquares());
      return denom > 0.0 ? dot / denom : snapshot_value;
    }
    case Measure::kJaccard: {
      const double denom = u.SumSquares() + v.SumSquares() - dot;
      return denom != 0.0 ? dot / denom : snapshot_value;
    }
    case Measure::kDice: {
      const double denom = u.SumSquares() + v.SumSquares();
      return denom > 0.0 ? 2.0 * dot / denom : snapshot_value;
    }
    default:
      return snapshot_value;  // L-measures are not pair measures
  }
}

StatusOr<StreamingAffinity> StreamingAffinity::Create(const std::vector<std::string>& names,
                                                      const StreamingOptions& options) {
  AFFINITY_RETURN_IF_ERROR(ValidateStreamingOptions(options, names.size()));
  // One pool for the stream's lifetime: every refresh reuses it, so the
  // per-refresh cost is the refresh itself, never thread setup.
  std::unique_ptr<ThreadPool> pool;
  if (options.build.threads != 1) {
    pool = std::make_unique<ThreadPool>(options.build.threads);
  }
  ExecContext exec{pool.get()};
  storage::DataMatrixTable table(DeriveSegmentCapacity(options));
  for (const std::string& name : names) {
    if (name.empty()) return Status::InvalidArgument("series names must be non-empty");
    AFFINITY_RETURN_IF_ERROR(table.RegisterSeries(name, "stream", 1.0).status());
  }
  StreamingAffinity stream(std::move(table), options, std::move(pool), exec);
  stream.InitBuffers(names.size());
  return stream;
}

StatusOr<StreamingAffinity> StreamingAffinity::CreateWith(const std::vector<std::string>& names,
                                                          const StreamingOptions& options,
                                                          const ExecContext& exec) {
  AFFINITY_RETURN_IF_ERROR(ValidateStreamingOptions(options, names.size()));
  storage::DataMatrixTable table(DeriveSegmentCapacity(options));
  for (const std::string& name : names) {
    if (name.empty()) return Status::InvalidArgument("series names must be non-empty");
    AFFINITY_RETURN_IF_ERROR(table.RegisterSeries(name, "stream", 1.0).status());
  }
  StreamingAffinity stream(std::move(table), options, nullptr, exec);
  stream.InitBuffers(names.size());
  return stream;
}

StatusOr<StreamingAffinity> StreamingAffinity::Restore(AffinityModel model,
                                                       const StreamingOptions& options,
                                                       const ExecContext& exec) {
  const std::size_t n = model.data().n();
  const std::size_t m = model.data().m();
  AFFINITY_RETURN_IF_ERROR(ValidateStreamingOptions(options, n));
  if (m != options.window) {
    return Status::InvalidArgument("checkpointed window has " + std::to_string(m) +
                                   " rows but options.window is " +
                                   std::to_string(options.window));
  }
  // The checkpointed window becomes the resident table content; logical
  // row numbering restarts at `window`.
  storage::DataMatrixTable table(DeriveSegmentCapacity(options));
  for (const std::string& name : model.data().names()) {
    if (name.empty()) return Status::InvalidArgument("series names must be non-empty");
    AFFINITY_RETURN_IF_ERROR(table.RegisterSeries(name, "stream", 1.0).status());
  }
  std::vector<double> row(n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) row[j] = model.data().matrix()(i, j);
    AFFINITY_RETURN_IF_ERROR(table.AppendRow(row));
  }
  StreamingAffinity stream(std::move(table), options, nullptr, exec);
  stream.InitBuffers(n);
  // Replay the window through the rolling moments (and the quality tracker,
  // as fully observed rows — a checkpoint stores no masks) so the live
  // marginals match the restored snapshot exactly.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      row[j] = model.data().matrix()(i, j);
      stream.rolling_[j].Push(row[j]);
    }
    stream.quality_->Push(row.data(), nullptr, nullptr);
  }
  stream.RefreshQualityScores();
  AFFINITY_ASSIGN_OR_RETURN(Affinity fw,
                            Affinity::FromModelWith(std::move(model), options.build, exec));
  stream.framework_ = std::make_unique<Affinity>(std::move(fw));
  stream.framework_->mutable_engine()->AttachQuality(stream.quality_scores_.get());
  stream.shared_->rows.store(m, std::memory_order_relaxed);
  stream.snapshot_row_ = m;
  stream.rebuilds_ = 1;
  if (options.mode == UpdateMode::kIncremental) {
    AFFINITY_ASSIGN_OR_RETURN(
        IncrementalMaintainer maintainer,
        IncrementalMaintainer::Create(stream.framework_->mutable_model(),
                                      stream.framework_->mutable_scape(), options.incremental,
                                      exec));
    stream.maintainer_ = std::make_unique<IncrementalMaintainer>(std::move(maintainer));
    stream.maintenance_.mean_relative_residual =
        stream.maintainer_->profile().mean_relative_residual;
    stream.maintenance_.baseline_mean_residual =
        stream.maintainer_->profile().baseline_mean_residual;
  }
  // A restored stream is immediately queryable, so it serves immediately
  // too: publish the first epoch from the restored stack.
  stream.PublishServingSnapshot();
  return stream;
}

void StreamingAffinity::InitBuffers(std::size_t series_count) {
  rolling_.reserve(series_count);
  for (std::size_t j = 0; j < series_count; ++j) {
    rolling_.emplace_back(options_.window);
  }
  quality_ = std::make_unique<ts::QualityTracker>(series_count, options_.window);
  quality_scores_->assign(series_count, 1.0);
  if (options_.mode == UpdateMode::kIncremental) {
    // One interval of rows, preallocated once: the append hot path copies
    // into this pool and never allocates in steady state.
    pending_.resize(options_.rebuild_interval);
    for (auto& pending_row : pending_) pending_row.reserve(series_count);
  }
}

AppendResult StreamingAffinity::Append(const std::vector<double>& row) {
  return AppendRow(row, nullptr, nullptr);
}

AppendResult StreamingAffinity::AppendMasked(const std::vector<double>& values,
                                             const std::vector<std::uint8_t>& valid,
                                             const std::vector<std::uint8_t>& filled) {
  AppendResult out;
  if (valid.size() != values.size() || filled.size() != values.size()) {
    out.status = Status::InvalidArgument(
        "AppendMasked masks must match the row (" + std::to_string(values.size()) +
        " values, " + std::to_string(valid.size()) + " valid, " +
        std::to_string(filled.size()) + " filled)");
    return out;
  }
  return AppendRow(values, valid.data(), filled.data());
}

AFFINITY_HOT AppendResult StreamingAffinity::AppendRow(const std::vector<double>& values,
                                                       const std::uint8_t* valid,
                                                       const std::uint8_t* filled) {
  AppendResult out;
  // Reject non-finite input before any state mutates: one NaN reaching the
  // rolling moments (or the window) would poison every downstream sum, and
  // a partially applied row would desynchronize table/rolling/quality.
  // Dirty streams pre-repair through ts::StreamAligner, which emits dense
  // finite rows plus the masks.
  for (std::size_t j = 0; j < values.size(); ++j) {
    if (!std::isfinite(values[j])) {
      out.status = Status::InvalidArgument(
          "row value for series " + std::to_string(j) +
          " is not finite; align dirty streams through ts::StreamAligner + AppendMasked");
      return out;
    }
  }
  out.status = table_.AppendRow(values);
  if (!out.status.ok()) return out;
  const std::size_t rows = shared_->rows.fetch_add(1, std::memory_order_relaxed) + 1;
  ++rows_since_refresh_;
  // O(1)-per-sample window moments (ts/rolling): the live marginals behind
  // the freshness blend, current even while the snapshot ages.
  for (std::size_t j = 0; j < values.size(); ++j) rolling_[j].Push(values[j]);
  // The quality surface takes the row's masks; a plain append is a fully
  // observed row (null masks).
  quality_->Push(values.data(), valid, filled);
  if (options_.mode == UpdateMode::kIncremental && framework_ != nullptr) {
    if (pending_used_ == pending_.size()) pending_.emplace_back();
    pending_[pending_used_].assign(values.begin(), values.end());
    ++pending_used_;
  }
  if (rows >= options_.window &&
      (framework_ == nullptr || rows_since_refresh_ >= options_.rebuild_interval)) {
    out = Refresh();
  }
  // Absorbed rows are reclaimed at segment granularity so resident storage
  // stays O(window) on unbounded streams.
  if (rows > options_.window) {
    table_.CompactBefore(rows - options_.window);
  }
  return out;
}

StatusOr<ts::SeriesQuality> StreamingAffinity::series_quality(ts::SeriesId v) const {
  if (v >= quality_->n()) {
    return Status::OutOfRange("series id " + std::to_string(v) + " out of range");
  }
  return quality_->Quality(v);
}

void StreamingAffinity::RefreshQualityScores() {
  const std::vector<double>& scores = quality_->Scores();
  quality_scores_->assign(scores.begin(), scores.end());
}

AppendResult StreamingAffinity::Refresh() {
  AppendResult out;
  if (options_.mode == UpdateMode::kIncremental && maintainer_ != nullptr) {
    out.mode = UpdateMode::kIncremental;
    auto escalate = maintainer_->Advance(pending_, pending_used_, exec_);
    pending_used_ = 0;
    if (!escalate.ok()) {
      // The maintainer may be half-mutated; recover by re-freezing the
      // whole stack from the table (the rows are all still there) rather
      // than resuming delta maintenance on corrupted state.
      ++maintenance_.escalations;
      out.escalated = true;
      out.status = Rebuild();
      out.refreshed = out.status.ok();
      return out;
    }
    // Accumulate maintenance accounting across maintainer generations
    // (escalation re-freezes the structure and resets the maintainer).
    maintenance_.AbsorbRefresh(maintainer_->profile());
    ++refreshes_;
    snapshot_row_ = rows_ingested();
    rows_since_refresh_ = 0;
    if (*escalate) {
      ++maintenance_.escalations;
      out.escalated = true;
      out.status = Rebuild();
      out.refreshed = out.status.ok();
      return out;
    }
    // WF sketches (when built) are refreshed over the slid window so the
    // facade stays coherent — only when the incremental snapshot is kept
    // (a rebuild constructs fresh sketches itself).
    out.status = framework_->RefreshWf();
    out.refreshed = out.status.ok();
    if (out.refreshed) {
      // The quality surface advances with the snapshot it describes.
      RefreshQualityScores();
      PublishServingSnapshot();
    }
    return out;
  }
  out.mode = UpdateMode::kRebuild;
  out.status = Rebuild();
  out.refreshed = out.status.ok();
  return out;
}

Status StreamingAffinity::Rebuild() {
  if (rows_ingested() < options_.window) {
    return Status::FailedPrecondition("need " + std::to_string(options_.window) +
                                      " rows before the first rebuild (have " +
                                      std::to_string(rows_ingested()) + ")");
  }
  AFFINITY_ASSIGN_OR_RETURN(ts::DataMatrix snapshot, table_.Snapshot());
  AFFINITY_ASSIGN_OR_RETURN(ts::DataMatrix window, ts::TailWindow(snapshot, options_.window));
  // Quality advances to the rebuilt window first: the AFCLST pivot-hygiene
  // exclusion (when enabled) and the engine's quality surface must both
  // describe the window this build is about to freeze.
  RefreshQualityScores();
  AffinityOptions build = options_.build;
  if (build.afclst.min_center_quality > 0.0) {
    build.afclst.series_quality = *quality_scores_;
  }
  AFFINITY_ASSIGN_OR_RETURN(Affinity fw, Affinity::BuildWith(window, build, exec_));
  framework_ = std::make_unique<Affinity>(std::move(fw));
  framework_->mutable_engine()->AttachQuality(quality_scores_.get());
  maintainer_ = nullptr;
  if (options_.mode == UpdateMode::kIncremental) {
    AFFINITY_ASSIGN_OR_RETURN(
        IncrementalMaintainer maintainer,
        IncrementalMaintainer::Create(framework_->mutable_model(), framework_->mutable_scape(),
                                      options_.incremental, exec_));
    maintainer_ = std::make_unique<IncrementalMaintainer>(std::move(maintainer));
    maintenance_.mean_relative_residual = maintainer_->profile().mean_relative_residual;
    maintenance_.baseline_mean_residual = maintainer_->profile().baseline_mean_residual;
  }
  pending_used_ = 0;
  snapshot_row_ = rows_ingested();
  rows_since_refresh_ = 0;
  ++rebuilds_;
  PublishServingSnapshot();
  return Status::OK();
}

void StreamingAffinity::PublishServingSnapshot() {
  if (framework_ == nullptr) return;
  if (publisher_ == nullptr) {
    publisher_ = std::make_unique<serve::EpochPublisher<serve::ServingSnapshot>>(
        options_.serving_history);
  }
  ++serving_generation_;
  Stopwatch watch;
  serve::PublishStats stats;
  const QueryEngine& engine = framework_->engine();
  std::shared_ptr<const serve::ServingSnapshot> next;
  {
    // COW window segments, the index's run handles, bulk WA refill.
    // BuildDelta declines (nullptr) only when the table cannot cover the
    // window at the model's anchor — a checkpoint restored with an anchor
    // the fresh table does not share — and the full copy below takes
    // over; both publish identical bits. The prior epoch is released
    // before Publish so a retired epoch can be recycled.
    const auto prior = publisher_->Acquire();
    next = serve::SnapshotBuilder::BuildDelta(
        framework_->model(), framework_->scape(),
        maintainer_ != nullptr ? &maintainer_->relationships_by_key() : nullptr, table_,
        prior.get(), engine.Capabilities(), engine.quality(), serving_generation_,
        rows_ingested(), exec_, &stats, std::move(serving_scratch_));
    serving_scratch_.reset();
  }
  if (next == nullptr) {
    next = serve::SnapshotBuilder::Build(framework_->model(), framework_->scape(),
                                         engine.Capabilities(), engine.quality(),
                                         serving_generation_, rows_ingested(), &stats);
  }
  // Recycle the retired epoch (no surviving readers) into the next build:
  // its tables are rewritten in place, so steady-state publication
  // neither frees nor allocates the replica's memory.
  if (auto retired = publisher_->Publish(std::move(next));
      retired != nullptr && retired.use_count() == 1) {
    // use_count() is a relaxed load: the acquire fence orders every
    // access of the last reader (before its releasing reference drop)
    // before the in-place rewrite. Taking and dropping one more reference
    // states the same edge as an acquire-release update of the count,
    // which thread sanitizers model and a standalone fence they do not.
    std::atomic_thread_fence(std::memory_order_acquire);
    std::shared_ptr<const serve::ServingSnapshot>(retired).reset();
    serving_scratch_ = std::const_pointer_cast<serve::ServingSnapshot>(std::move(retired));
    // Its run handles go now, not at the next build: the runs they pin
    // are the buffers the index's next Refresh recycles.
    serving_scratch_->scape.pair.clear();
    serving_scratch_->scape.loc.clear();
  }
  const double seconds = watch.ElapsedSeconds();
  ++maintenance_.epochs_published;
  if (stats.delta) ++maintenance_.epochs_delta;
  maintenance_.window_segments_reused += stats.window_segments_reused;
  maintenance_.scape_runs_shared += stats.runs_shared;
  maintenance_.scape_runs_spliced += stats.runs_rewritten;
  maintenance_.snapshot_bytes_copied += stats.bytes_copied;
  maintenance_.publish_seconds += seconds;
  maintenance_.last_publish_seconds = seconds;
}

std::shared_ptr<const serve::ServingSnapshot> StreamingAffinity::BuildColdSnapshot() const {
  if (framework_ == nullptr) return nullptr;
  const QueryEngine& engine = framework_->engine();
  const auto build = [&](const ScapeIndex* scape) {
    return serve::SnapshotBuilder::Build(framework_->model(), scape, engine.Capabilities(),
                                         engine.quality(), serving_generation_, snapshot_row_);
  };
  if (framework_->scape() == nullptr) return build(nullptr);
  // Runs from a fresh sort of the maintained model, not the live index:
  // against the published epoch this checks every Refresh (re-key plus
  // insertion pass) against a cold build.
  auto cold = ScapeIndex::Build(framework_->model(), exec_);
  if (!cold.ok()) return nullptr;
  return build(&*cold);
}

// ---------------------------------------------------------------------------
// Freshness-bounded queries (DESIGN.md §9).
// ---------------------------------------------------------------------------

ExecutedPlan StreamingAffinity::BlendPlan(std::size_t age) {
  ExecutedPlan plan;
  plan.method = QueryMethod::kAffine;
  plan.rationale = "freshness blend: snapshot structure (age " + std::to_string(age) +
                   " rows) rescaled by live rolling marginals";
  return plan;
}

StatusOr<double> StreamingAffinity::BlendedSeriesValue(Measure measure, ts::SeriesId v) const {
  if (!ready()) return Status::FailedPrecondition("no snapshot yet");
  if (v >= rolling_.size()) {
    return Status::OutOfRange("series id " + std::to_string(v) + " out of range");
  }
  switch (measure) {
    case Measure::kMean:
      // The rolling window serves the live mean exactly.
      return rolling_[v].Mean();
    case Measure::kMedian:
    case Measure::kMode:
      // No O(1) live form — the snapshot value stands (documented).
      return framework_->model().SeriesMeasure(measure, v);
    default:
      return Status::InvalidArgument("not an L-measure");
  }
}

StatusOr<double> StreamingAffinity::BlendedPairValue(Measure measure, ts::SeriesId u,
                                                     ts::SeriesId v) const {
  if (!ready()) return Status::FailedPrecondition("no snapshot yet");
  const std::size_t n = rolling_.size();
  if (u >= n || v >= n) return Status::OutOfRange("series id out of range");
  if (u == v) return Status::InvalidArgument("blended pair values require u != v");
  const AffinityModel& model = framework_->model();
  const ts::SequencePair e(u, v);
  // Structure from the snapshot: the WA correlation when the relationship
  // exists, the naive snapshot correlation otherwise (truncated models).
  double rho;
  if (auto wa = model.PairMeasure(Measure::kCorrelation, e); wa.ok()) {
    rho = *wa;
  } else {
    const ts::DataMatrix& snap = framework_->data();
    AFFINITY_ASSIGN_OR_RETURN(rho, NaivePairMeasure(Measure::kCorrelation, snap.ColumnData(e.u),
                                                    snap.ColumnData(e.v), snap.m(),
                                                    snap.anchor_row()));
  }
  double fallback;
  if (auto wa = model.PairMeasure(measure, e); wa.ok()) {
    fallback = *wa;
  } else {
    const ts::DataMatrix& snap = framework_->data();
    AFFINITY_ASSIGN_OR_RETURN(fallback, NaivePairMeasure(measure, snap.ColumnData(e.u),
                                                         snap.ColumnData(e.v), snap.m(),
                                                         snap.anchor_row()));
  }
  return BlendPairMeasure(measure, rho, fallback, rolling_[e.u], rolling_[e.v]);
}

StatusOr<SelectionResult> StreamingAffinity::BlendedSelect(Measure measure,
                                                           bool (*keep)(double, double, double),
                                                           double a, double b) const {
  SelectionResult out;
  const std::size_t n = rolling_.size();
  if (IsLocation(measure)) {
    for (std::size_t v = 0; v < n; ++v) {
      AFFINITY_ASSIGN_OR_RETURN(const double value,
                                BlendedSeriesValue(measure, static_cast<ts::SeriesId>(v)));
      if (keep(value, a, b)) out.series.push_back(static_cast<ts::SeriesId>(v));
    }
    return out;
  }
  if (n < 2) return out;
  const std::vector<ts::SequencePair> pairs = ts::AllSequencePairs(n);
  std::vector<std::vector<ts::SequencePair>> parts(ExecNumChunks(pairs.size()));
  AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
      exec_, pairs.size(), [&](std::size_t c, std::size_t lo, std::size_t hi) -> Status {
        for (std::size_t i = lo; i < hi; ++i) {
          auto value = BlendedPairValue(measure, pairs[i].u, pairs[i].v);
          if (!value.ok()) return value.status();
          if (keep(*value, a, b)) parts[c].push_back(pairs[i]);
        }
        return Status::OK();
      }));
  for (std::vector<ts::SequencePair>& part : parts) {
    out.pairs.insert(out.pairs.end(), part.begin(), part.end());
  }
  return out;
}

StatusOr<TopKResult> StreamingAffinity::BlendedTopK(const TopKRequest& request) const {
  const std::size_t n = rolling_.size();
  const std::size_t total =
      IsLocation(request.measure) ? n : ts::SequencePairCount(n);
  TopKSelector best(request.k, request.largest);
  if (IsLocation(request.measure)) {
    for (std::size_t v = 0; v < n; ++v) {
      AFFINITY_ASSIGN_OR_RETURN(const double value,
                                BlendedSeriesValue(request.measure, static_cast<ts::SeriesId>(v)));
      best.Offer(ScapeTopKEntry{ts::SequencePair{}, static_cast<ts::SeriesId>(v), value});
    }
  } else {
    const std::vector<ts::SequencePair> pairs = ts::AllSequencePairs(n);
    std::vector<TopKSelector> parts(ExecNumChunks(pairs.size()),
                                    TopKSelector(request.k, request.largest));
    AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
        exec_, pairs.size(), [&](std::size_t c, std::size_t lo, std::size_t hi) -> Status {
          for (std::size_t i = lo; i < hi; ++i) {
            auto value = BlendedPairValue(request.measure, pairs[i].u, pairs[i].v);
            if (!value.ok()) return value.status();
            parts[c].Offer(ScapeTopKEntry{pairs[i], kNoSeries, *value});
          }
          return Status::OK();
        }));
    for (const TopKSelector& part : parts) best.Merge(part);
  }
  TopKResult out;
  out.entries = std::move(best).Finish();
  out.examined = total;
  return out;
}

StatusOr<MecResponse> StreamingAffinity::BlendedMec(const MecRequest& request) const {
  if (request.ids.empty()) return Status::InvalidArgument("MEC requires a non-empty id set");
  const std::size_t n = rolling_.size();
  for (const ts::SeriesId id : request.ids) {
    if (id >= n) {
      return Status::OutOfRange("series id " + std::to_string(id) + " out of range (n=" +
                                std::to_string(n) + ")");
    }
  }
  MecResponse out;
  const std::size_t count = request.ids.size();
  if (IsLocation(request.measure)) {
    out.location = la::Vector(count);
    for (std::size_t i = 0; i < count; ++i) {
      AFFINITY_ASSIGN_OR_RETURN(out.location[i],
                                BlendedSeriesValue(request.measure, request.ids[i]));
    }
    return out;
  }
  out.pair_values = la::Matrix(count, count);
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t j = i; j < count; ++j) {
      double value;
      if (request.ids[i] == request.ids[j]) {
        // Diagonal: live per-series moments (the engine's diagonal
        // semantics, served from the rolling window).
        const ts::RollingStats& rs = rolling_[request.ids[i]];
        switch (request.measure) {
          case Measure::kCovariance:
            value = rs.Variance();
            break;
          case Measure::kDotProduct:
            value = rs.SumSquares();
            break;
          case Measure::kCorrelation:
            value = rs.Variance() > 0.0 ? 1.0 : 0.0;
            break;
          case Measure::kCosine:
          case Measure::kJaccard:
          case Measure::kDice:
            value = rs.SumSquares() > 0.0 ? 1.0 : 0.0;
            break;
          default:
            return Status::InvalidArgument("not a pair measure");
        }
      } else {
        AFFINITY_ASSIGN_OR_RETURN(
            value, BlendedPairValue(request.measure, request.ids[i], request.ids[j]));
      }
      out.pair_values(i, j) = value;
      out.pair_values(j, i) = value;
    }
  }
  return out;
}

StatusOr<FreshnessReport> StreamingAffinity::PrepareFreshness(
    const serve::ServingSnapshot* snap, const FreshnessOptions& options,
    FreshnessReport* report) const {
  // Zero the report unconditionally first: every exit of every freshness
  // query path — the readiness error included — leaves the caller's
  // report in a defined state instead of whatever it last held.
  if (report != nullptr) *report = FreshnessReport{};
  if (snap == nullptr) return Status::FailedPrecondition("no snapshot yet (need window rows)");
  // The count is read after the epoch was acquired, so it covers every row
  // that epoch absorbed.
  FreshnessReport freshness;
  freshness.snapshot_age = rows_ingested() - snap->snapshot_row;
  freshness.blended = options.max_staleness > 0 && freshness.snapshot_age > options.max_staleness;
  if (report != nullptr) *report = freshness;
  return freshness;
}

StatusOr<MecResponse> StreamingAffinity::Mec(const MecRequest& request,
                                             const FreshnessOptions& options,
                                             FreshnessReport* report) const {
  const auto snap = serving();
  AFFINITY_ASSIGN_OR_RETURN(const FreshnessReport freshness,
                            PrepareFreshness(snap.get(), options, report));
  if (!freshness.blended) {
    // Serve from the published replica (the live structures only change
    // at publication points, so the snapshot is the live state — answers
    // are bitwise identical). kUnavailable is the snapshot's "cannot
    // serve this" verdict; everything else is the final answer, success
    // or error.
    auto served = serve::SnapshotMec(*snap, request, options.method);
    if (served.status().code() != StatusCode::kUnavailable) return served;
    shared_->serve_fallbacks.fetch_add(1, std::memory_order_relaxed);
    return framework_->engine().Mec(request, options.method);
  }
  AFFINITY_ASSIGN_OR_RETURN(MecResponse out, BlendedMec(request));
  out.plan = BlendPlan(freshness.snapshot_age);
  return out;
}

StatusOr<SelectionResult> StreamingAffinity::Met(const MetRequest& request,
                                                 const FreshnessOptions& options,
                                                 FreshnessReport* report) const {
  const auto snap = serving();
  AFFINITY_ASSIGN_OR_RETURN(const FreshnessReport freshness,
                            PrepareFreshness(snap.get(), options, report));
  if (!freshness.blended) {
    auto served = serve::SnapshotMet(*snap, request, options.method);
    if (served.status().code() != StatusCode::kUnavailable) return served;
    shared_->serve_fallbacks.fetch_add(1, std::memory_order_relaxed);
    return framework_->engine().Met(request, options.method);
  }
  AFFINITY_ASSIGN_OR_RETURN(
      SelectionResult out,
      BlendedSelect(request.measure, request.greater ? KeepGreater : KeepLesser, request.tau,
                    0.0));
  out.plan = BlendPlan(freshness.snapshot_age);
  return out;
}

StatusOr<SelectionResult> StreamingAffinity::Mer(const MerRequest& request,
                                                 const FreshnessOptions& options,
                                                 FreshnessReport* report) const {
  const auto snap = serving();
  AFFINITY_ASSIGN_OR_RETURN(const FreshnessReport freshness,
                            PrepareFreshness(snap.get(), options, report));
  if (request.lo > request.hi) return Status::InvalidArgument("MER requires lo <= hi");
  if (!freshness.blended) {
    auto served = serve::SnapshotMer(*snap, request, options.method);
    if (served.status().code() != StatusCode::kUnavailable) return served;
    shared_->serve_fallbacks.fetch_add(1, std::memory_order_relaxed);
    return framework_->engine().Mer(request, options.method);
  }
  AFFINITY_ASSIGN_OR_RETURN(SelectionResult out,
                            BlendedSelect(request.measure, KeepInside, request.lo, request.hi));
  out.plan = BlendPlan(freshness.snapshot_age);
  return out;
}

StatusOr<TopKResult> StreamingAffinity::TopK(const TopKRequest& request,
                                             const FreshnessOptions& options,
                                             FreshnessReport* report) const {
  const auto snap = serving();
  AFFINITY_ASSIGN_OR_RETURN(const FreshnessReport freshness,
                            PrepareFreshness(snap.get(), options, report));
  if (!freshness.blended) {
    auto served = serve::SnapshotTopK(*snap, request, options.method);
    if (served.status().code() != StatusCode::kUnavailable) return served;
    shared_->serve_fallbacks.fetch_add(1, std::memory_order_relaxed);
    return framework_->engine().TopK(request, options.method);
  }
  AFFINITY_ASSIGN_OR_RETURN(TopKResult out, BlendedTopK(request));
  out.plan = BlendPlan(freshness.snapshot_age);
  return out;
}

}  // namespace affinity::core
