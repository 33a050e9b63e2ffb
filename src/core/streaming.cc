#include "core/streaming.h"

#include <algorithm>
#include <cmath>

#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "ts/rolling.h"

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
  const std::size_t pairs = ts::SequencePairCount(series_count);
  if (options.build.symex.max_relationships < pairs) {
    return Status::InvalidArgument(
        "streaming requires every relationship: max_relationships " +
        std::to_string(options.build.symex.max_relationships) + " is below the " +
        std::to_string(pairs) + " pairs of " + std::to_string(series_count) + " series");
  }
  return Status::OK();
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
  if (model.relationship_count() != ts::SequencePairCount(n)) {
    return Status::InvalidArgument("checkpointed model holds " +
                                   std::to_string(model.relationship_count()) + " of the " +
                                   std::to_string(ts::SequencePairCount(n)) +
                                   " relationships of its " + std::to_string(n) +
                                   " series; streams require every one");
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
  // Replay the window through the quality tracker as fully observed rows
  // (a checkpoint stores no masks).
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) row[j] = model.data().matrix()(i, j);
    stream.quality_->Push(row.data(), nullptr, nullptr);
  }
  stream.RefreshQualityScores();
  AFFINITY_RETURN_IF_ERROR(stream.BuildFramework([&](const AffinityOptions& build) {
    return Affinity::FromModelWith(std::move(model), build, exec);
  }));
  stream.shared_->rows.store(m, std::memory_order_relaxed);
  stream.snapshot_row_ = m;
  stream.rebuilds_ = 1;
  // A restored stream is immediately queryable, so it serves immediately
  // too: publish the first epoch from the restored stack.
  stream.PublishServingSnapshot();
  return stream;
}

Status StreamingAffinity::BuildFramework(
    const std::function<StatusOr<Affinity>(const AffinityOptions&)>& build) {
  // What a stream maintains is what its epochs read: the model, whose WA
  // values fill the frozen tables, and the WF coefficient count. No served
  // query plans SCAPE, and a served WF answer sketches its epoch's window
  // per query, so neither the index nor the amortized WF estimator is
  // built, whatever `options_.build` asks (DESIGN.md §8).
  AffinityOptions options = options_.build;
  options.build_scape = false;
  options.build_dft = false;
  AFFINITY_ASSIGN_OR_RETURN(Affinity fw, build(options));
  framework_ = std::make_unique<Affinity>(std::move(fw));
  QueryEngine* engine = framework_->mutable_engine();
  engine->AttachQuality(quality_scores_.get());
  if (options_.build.build_dft) engine->EnableDft(options_.build.dft_coefficients);
  maintainer_ = nullptr;
  if (options_.mode == UpdateMode::kIncremental) {
    AFFINITY_ASSIGN_OR_RETURN(IncrementalMaintainer maintainer,
                              IncrementalMaintainer::Create(framework_->mutable_model(),
                                                            options_.incremental, exec_,
                                                            &maintenance_));
    maintainer_ = std::make_unique<IncrementalMaintainer>(std::move(maintainer));
  }
  return Status::OK();
}

void StreamingAffinity::InitBuffers(std::size_t series_count) {
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
  // window would poison every downstream sum, and a partially applied row
  // would desynchronize table and quality.
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
    auto escalate = maintainer_->Advance(pending_, pending_used_, exec_, &maintenance_);
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
    out.refreshed = true;
    // The quality surface advances with the snapshot it describes.
    RefreshQualityScores();
    PublishServingSnapshot();
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
  AFFINITY_RETURN_IF_ERROR(BuildFramework([&](AffinityOptions build) {
    if (build.afclst.min_center_quality > 0.0) build.afclst.series_quality = *quality_scores_;
    return Affinity::BuildWith(window, build, exec_);
  }));
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
    publisher_ = std::make_unique<serve::EpochPublisher<serve::ServingSnapshot>>();
  }
  ++serving_generation_;
  Stopwatch watch;
  serve::PublishStats stats;
  const QueryEngine& engine = framework_->engine();
  std::shared_ptr<const serve::ServingSnapshot> next;
  {
    // COW window segments, bulk WA refill. BuildDelta declines (nullptr)
    // only when the table cannot cover the window at the model's anchor —
    // a checkpoint restored with an anchor the fresh table does not share
    // — and the full copy below takes over; both publish identical bits.
    // The prior epoch is released before Publish so a retired epoch can be
    // recycled.
    const auto prior = publisher_->Acquire();
    next = serve::SnapshotBuilder::BuildDelta(
        framework_->model(),
        maintainer_ != nullptr ? &maintainer_->relationships_by_key() : nullptr, table_,
        prior.get(), engine, serving_generation_, rows_ingested(), exec_, &stats,
        std::move(serving_scratch_));
    serving_scratch_.reset();
  }
  if (next == nullptr) {
    next = serve::SnapshotBuilder::Build(framework_->model(), engine, serving_generation_,
                                         rows_ingested(), &stats);
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
  }
  const double seconds = watch.ElapsedSeconds();
  ++maintenance_.epochs_published;
  if (stats.delta) ++maintenance_.epochs_delta;
  maintenance_.window_segments_reused += stats.window_segments_reused;
  maintenance_.snapshot_bytes_copied += stats.bytes_copied;
  maintenance_.publish_seconds += seconds;
  maintenance_.last_publish_seconds = seconds;
}

std::shared_ptr<const serve::ServingSnapshot> StreamingAffinity::BuildColdSnapshot() const {
  if (framework_ == nullptr) return nullptr;
  return serve::SnapshotBuilder::Build(framework_->model(), framework_->engine(),
                                       serving_generation_, snapshot_row_);
}

// ---------------------------------------------------------------------------
// Queries (DESIGN.md §9).
// ---------------------------------------------------------------------------

Status StreamingAffinity::PrepareFreshness(const serve::ServingSnapshot* snap,
                                           FreshnessReport* report) const {
  // Zero the report unconditionally first: every exit of every query path
  // — the readiness error included — leaves the caller's report in a
  // defined state instead of whatever it last held.
  if (report != nullptr) *report = FreshnessReport{};
  if (snap == nullptr) return Status::FailedPrecondition("no snapshot yet (need window rows)");
  // The count is read after the epoch was acquired, so it covers every row
  // that epoch absorbed.
  if (report != nullptr) report->snapshot_age = rows_ingested() - snap->snapshot_row;
  return Status::OK();
}

StatusOr<MecResponse> StreamingAffinity::Mec(const MecRequest& request,
                                             const FreshnessOptions& options,
                                             FreshnessReport* report) const {
  const auto snap = serving();
  AFFINITY_RETURN_IF_ERROR(PrepareFreshness(snap.get(), report));
  return serve::SnapshotMec(*snap, request, options.method);
}

StatusOr<SelectionResult> StreamingAffinity::Met(const MetRequest& request,
                                                 const FreshnessOptions& options,
                                                 FreshnessReport* report) const {
  const auto snap = serving();
  AFFINITY_RETURN_IF_ERROR(PrepareFreshness(snap.get(), report));
  return serve::SnapshotMet(*snap, request, options.method);
}

StatusOr<SelectionResult> StreamingAffinity::Mer(const MerRequest& request,
                                                 const FreshnessOptions& options,
                                                 FreshnessReport* report) const {
  const auto snap = serving();
  AFFINITY_RETURN_IF_ERROR(PrepareFreshness(snap.get(), report));
  return serve::SnapshotMer(*snap, request, options.method);
}

StatusOr<TopKResult> StreamingAffinity::TopK(const TopKRequest& request,
                                             const FreshnessOptions& options,
                                             FreshnessReport* report) const {
  const auto snap = serving();
  AFFINITY_RETURN_IF_ERROR(PrepareFreshness(snap.get(), report));
  return serve::SnapshotTopK(*snap, request, options.method);
}

}  // namespace affinity::core
