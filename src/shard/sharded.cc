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
using core::FreshnessOptions;

// --- Manifest framing (composes with serialize.h model payloads) ----------

constexpr char kManifestMagic[4] = {'A', 'F', 'F', 'S'};
// v2 added two cross co-moment cache fields (budget, exact_resync_period)
// after the build tuning; v3 dropped the SCAPE B-tree fanout field (the
// index keeps sorted runs, which have no fanout); v4 dropped the cache
// fields with the cache. Older manifests still load: v1/v2 skip the
// fanout, v2/v3 read the cache fields and discard them.
constexpr std::uint32_t kManifestVersion = 4;
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
  // The routing tables are fixed for the router's lifetime. Cross-shard
  // pairs, (u, v)-lex in global ids, are the complement of the per-shard
  // pair sets.
  auto routing = std::make_shared<RoutingTables>();
  const std::size_t n = partitioner_.n();
  routing->shard_of.resize(n);
  routing->local_of.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<ts::SeriesId>(i);
    routing->shard_of[i] = partitioner_.shard_of(id);
    routing->local_of[i] = partitioner_.local_id(id);
  }
  for (std::size_t s = 0; s < partitioner_.shards(); ++s) {
    routing->groups.push_back(partitioner_.group(s));
  }
  routing->cross.reserve(partitioner_.cross_pair_count());
  for (std::size_t u = 0; u + 1 < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (routing->shard_of[u] != routing->shard_of[v]) {
        routing->cross.emplace_back(static_cast<ts::SeriesId>(u), static_cast<ts::SeriesId>(v));
      }
    }
  }
  routing_ = std::move(routing);
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
  shared_->rows.fetch_add(1, std::memory_order_relaxed);
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
  shared_->rows.fetch_add(1, std::memory_order_relaxed);
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
    ++generation_;
    // Every shard republished its serving snapshot during this lockstep
    // refresh; bundle them into a fresh router epoch. A half-failed
    // refresh keeps the previous epoch (its shard snapshots are still the
    // last coherent lockstep set).
    if (out.status.ok()) PublishRouterSnapshot();
  }
  return out;
}

void ShardedAffinity::PublishRouterSnapshot() {
  if (!ready()) return;
  auto snap = std::make_shared<RouterSnapshot>();
  snap->generation = generation_;
  snap->window = options_.streaming.window;
  snap->n = router_.partitioner().n();
  snap->shards.reserve(shards_.size());
  core::QueryPlanner::Capabilities caps{.has_model = true, .has_dft = true};
  std::size_t max_n = 0;
  for (const core::StreamingAffinity& shard : shards_) {
    std::shared_ptr<const serve::ServingSnapshot> shard_snap = shard.serving();
    // Defensive: a ready shard has always published (Refresh/Rebuild/
    // Restore all do); without a full lockstep set there is no coherent
    // epoch to serve, so keep the previous one.
    if (shard_snap == nullptr) return;
    caps.has_model = caps.has_model && shard_snap->caps.has_model;
    caps.has_dft = caps.has_dft && shard_snap->caps.has_dft;
    max_n = std::max(max_n, shard_snap->data.n());
    snap->shards.push_back(std::move(shard_snap));
  }
  snap->anchor = snap->shards[0]->data.anchor_row();
  snap->caps = caps;
  snap->max_n = max_n;
  snap->routing = router_.routing();
  if (publisher_ == nullptr) {
    publisher_ = std::make_unique<serve::EpochPublisher<RouterSnapshot>>();
  }
  publisher_->Publish(std::move(snap));
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
  // A manual rebuild re-snapshots every shard mid-interval: a new epoch.
  ++generation_;
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

StatusOr<ShardedAffinity::Query> ShardedAffinity::BeginQuery(
    const FreshnessOptions& options) const {
  Query query;
  query.epoch = serving();
  if (query.epoch == nullptr) {
    return Status::FailedPrecondition("no shard snapshots yet (need window rows)");
  }
  // The row count is read after the epoch was acquired, so it covers
  // every row that epoch absorbed: ages never underflow.
  const std::size_t rows = rows_ingested();
  query.ages.resize(query.epoch->shards.size());
  for (std::size_t s = 0; s < query.ages.size(); ++s) {
    query.ages[s].snapshot_age = rows - query.epoch->shards[s]->snapshot_row;
  }
  query.gather.method = options.method;
  query.gather.exec = exec_;
  query.gather.sweeps = &shared_->sweeps;
  return query;
}

StatusOr<ShardedSelection> ShardedAffinity::Met(const core::MetRequest& request,
                                                const FreshnessOptions& options) const {
  AFFINITY_ASSIGN_OR_RETURN(const Query query, BeginQuery(options));
  ShardedSelection out;
  AFFINITY_ASSIGN_OR_RETURN(out.result, RouterMet(*query.epoch, request, query.gather));
  out.shards = query.ages;
  return out;
}

StatusOr<ShardedSelection> ShardedAffinity::Mer(const core::MerRequest& request,
                                                const FreshnessOptions& options) const {
  AFFINITY_ASSIGN_OR_RETURN(const Query query, BeginQuery(options));
  ShardedSelection out;
  AFFINITY_ASSIGN_OR_RETURN(out.result, RouterMer(*query.epoch, request, query.gather));
  out.shards = query.ages;
  return out;
}

StatusOr<ShardedTopK> ShardedAffinity::TopK(const core::TopKRequest& request,
                                            const FreshnessOptions& options) const {
  AFFINITY_ASSIGN_OR_RETURN(const Query query, BeginQuery(options));
  ShardedTopK out;
  AFFINITY_ASSIGN_OR_RETURN(out.result, RouterTopK(*query.epoch, request, query.gather));
  out.shards = query.ages;
  return out;
}

StatusOr<ShardedMec> ShardedAffinity::Mec(const core::MecRequest& request,
                                          const FreshnessOptions& options) const {
  AFFINITY_ASSIGN_OR_RETURN(const Query query, BeginQuery(options));
  ShardedMec out;
  AFFINITY_ASSIGN_OR_RETURN(out.response, RouterMec(*query.epoch, request, query.gather));
  out.shards = query.ages;
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
  if (version == 2 || version == 3) {
    std::uint64_t unused_cache_budget = 0;
    std::uint64_t unused_cache_resync = 0;
    if (!ReadU64(in, &unused_cache_budget) || !ReadU64(in, &unused_cache_resync) ||
        unused_cache_resync == 0) {
      return Status::InvalidArgument("'" + path + "': corrupt cross-cache section");
    }
  }
  options.streaming.build.threads = threads;

  AFFINITY_ASSIGN_OR_RETURN(
      SeriesPartitioner partitioner,
      SeriesPartitioner::FromAssignment(assignment, options.shards, options.partition));

  std::unique_ptr<ThreadPool> pool;
  if (threads != 1) pool = std::make_unique<ThreadPool>(threads);
  ShardedAffinity service(options, std::move(partitioner), std::move(pool));
  service.shards_.reserve(options.shards);
  for (std::size_t s = 0; s < options.shards; ++s) {
    const auto shard_error = [&](const Status& status) {
      return Status(status.code(), "'" + path + "' shard " + std::to_string(s) + ": " +
                                       std::string(status.message()));
    };
    auto model = core::ReadModelStream(in);
    if (!model.ok()) return shard_error(model.status());
    if (model->data().n() != service.router_.partitioner().group(s).size()) {
      return shard_error(
          Status::InvalidArgument("model width disagrees with the shard assignment"));
    }
    auto stream = core::StreamingAffinity::Restore(std::move(model).value(), options.streaming,
                                                   service.exec_);
    if (!stream.ok()) return shard_error(stream.status());
    service.shards_.push_back(std::move(stream).value());
  }
  service.append_results_.resize(options.shards);
  // The restored shard snapshots form a real epoch (every restored shard
  // published in Restore): generation 1, as a fresh router's first
  // lockstep refresh. Logical row numbering restarts at `window` (each
  // restored shard's resident window is its whole history).
  service.generation_ = 1;
  service.shared_->rows.store(options.streaming.window, std::memory_order_relaxed);
  service.PublishRouterSnapshot();
  return service;
}

}  // namespace affinity::shard
