// Steady-state streaming refresh latency: incremental maintenance vs full
// rebuild (DESIGN.md §8), over the synthetic stock generator — plus the
// sharded-router scaling sweep (DESIGN.md §9).
//
// For every (window, interval) configuration the harness feeds a
// StreamingAffinity past its first build, then times each subsequent
// refresh (the Append calls that absorb one interval). The incremental
// path pays O(interval) per relationship plus O(n·window) exact
// recomputation; the rebuild path pays the full AFCLST → SYMEX+ build
// (streams build no SCAPE index). The headline row is window=1024,
// interval=1, where the delta path must be ≥ 5× faster.
//
// With --shards=LIST (e.g. --shards=1,8) the harness instead sweeps
// `ShardedAffinity` at each shard count over one shared pool, timing the
// steady-state interval (scatter appends + concurrent per-shard
// incremental refreshes), and reports each shard count's speedup over the
// first listed one plus the cross-shard pairs one epoch sweeps (its first
// cross reader fills the epoch's cross co-moments; later queries only read
// them). It enforces no bound; it exits non-zero only on errors.
//
// Output: human-readable rows on stdout, plus google-benchmark-compatible
// JSON with --benchmark_format=json [--benchmark_out=FILE] so CI can
// upload a BENCH_*.json artifact without needing the benchmark library.
//
// With --serve the harness instead runs the lock-free serving gates
// (DESIGN.md §11): on one epoch at window 4096, kAuto's MET plan for a
// covariance and a correlation request (the WA table pass for both; each
// served answer must select the same pairs as batch SCAPE over the
// stream's model, whose median is printed beside the pass's, ungated),
// and reader throughput of kAuto correlation top-k under interval=1
// slides vs idle (the median of three alternated phase pairs must stay
// ≥ 80%) — both enforced with a non-zero exit.
//
// With --serve-publish it runs the epoch-publication gate: steady-state
// publication (COW window + bulk WA refill) at window 4096 / interval 1
// must be ≥ 4× faster than a from-scratch `SnapshotBuilder::Build` of the
// same state, with stats, locations and pair tables identical to a cold
// build, and bytes-copied accounting per epoch — also enforced with a
// non-zero exit.
//
// With --dirty it runs the dirty-ingestion checks (DESIGN.md §12): the
// steady-state refresh cost of a stream carrying ~5% gaps through
// AppendMasked versus the dense Append baseline (reported), and — with a
// non-zero exit — that the dirty stream publishes its quality surface and
// answers a MET with a quality stamp.
//
//   $ ./bench_streaming --quick
//   $ ./bench_streaming --benchmark_format=json --benchmark_out=BENCH_streaming.json
//   $ ./bench_streaming --quick --shards=1,8 --benchmark_out=BENCH_shard_streaming.json
//   $ ./bench_streaming --quick --serve --benchmark_out=BENCH_serve.json
//   $ ./bench_streaming --quick --serve-publish --benchmark_out=BENCH_serve_publish.json
//   $ ./bench_streaming --quick --dirty --benchmark_out=BENCH_dirty.json

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <cstdint>

#include "common/random.h"
#include "common/stopwatch.h"
#include "core/kernels.h"
#include "core/streaming.h"
#include "serve/serve_query.h"
#include "shard/sharded.h"
#include "ts/generators.h"

namespace {

using namespace affinity;

struct Config {
  std::size_t window;
  std::size_t interval;
  core::UpdateMode mode;
};

struct Result {
  Config config;
  std::size_t refreshes = 0;
  double mean_seconds = 0;
  double min_seconds = 0;
  std::size_t refits = 0;
  // Retained block-partial accounting (incremental mode; zeros otherwise).
  std::size_t recompute_blocks_touched = 0;
  std::size_t recompute_blocks_reused = 0;
};

const char* ModeName(core::UpdateMode mode) {
  return mode == core::UpdateMode::kIncremental ? "incremental" : "rebuild";
}

struct ShardConfig {
  std::size_t shards;
  std::size_t threads;
  std::size_t window;
  std::size_t interval;
};

struct ShardResult {
  ShardConfig config;
  std::size_t refreshes = 0;
  double mean_seconds = 0;
  double min_seconds = 0;
  std::size_t refits = 0;
  std::size_t pairs_swept_per_epoch = 0;  ///< cross pairs swept while 8 METs read one epoch
};

ShardResult RunShardConfig(const ShardConfig& config, const ts::Dataset& feed,
                           std::size_t measured) {
  shard::ShardedOptions options;
  options.shards = config.shards;
  options.streaming.window = config.window;
  options.streaming.rebuild_interval = config.interval;
  options.streaming.mode = core::UpdateMode::kIncremental;
  options.streaming.build.afclst.k = config.shards > 1 ? 3 : 6;
  options.streaming.build.build_dft = false;
  options.streaming.build.threads = config.threads;
  auto service = shard::ShardedAffinity::Create(feed.matrix.names(), options);
  if (!service.ok()) {
    std::fprintf(stderr, "sharded create failed: %s\n", service.status().ToString().c_str());
    std::exit(1);
  }

  std::vector<double> row(feed.matrix.n());
  std::size_t next = 0;
  const auto append = [&]() {
    for (std::size_t j = 0; j < feed.matrix.n(); ++j) {
      row[j] = feed.matrix.matrix()(next % feed.matrix.m(), j);
    }
    ++next;
    const auto result = service->Append(row);
    if (!result.ok()) {
      std::fprintf(stderr, "sharded append failed: %s\n", result.status.ToString().c_str());
      std::exit(1);
    }
    return result;
  };

  while (!service->ready()) append();
  for (std::size_t i = 0; i < config.interval; ++i) append();

  ShardResult out;
  out.config = config;
  out.min_seconds = 1e300;
  double total = 0;
  for (std::size_t r = 0; r < measured; ++r) {
    Stopwatch watch;
    bool refreshed = false;
    for (std::size_t i = 0; i < config.interval; ++i) refreshed |= append().refreshed;
    const double seconds = watch.ElapsedSeconds();
    if (!refreshed) {
      std::fprintf(stderr, "expected a refresh per interval\n");
      std::exit(1);
    }
    total += seconds;
    out.min_seconds = std::min(out.min_seconds, seconds);
    ++out.refreshes;
  }
  out.mean_seconds = total / static_cast<double>(out.refreshes);
  out.refits = service->maintenance().relationships_refit;

  // Warm probe: repeated MET on the freshly published epoch, counting the
  // cross-shard pairs swept for all of them (the epoch's one fill).
  constexpr int kProbes = 8;
  const shard::CrossSweepStats before = service->cross_sweep_stats();
  for (int q = 0; q < kProbes; ++q) {
    auto met = service->Met({core::Measure::kCorrelation, 0.5, true});
    if (!met.ok()) {
      std::fprintf(stderr, "warm MET failed: %s\n", met.status().ToString().c_str());
      std::exit(1);
    }
  }
  out.pairs_swept_per_epoch = service->cross_sweep_stats().pairs_scanned - before.pairs_scanned;
  return out;
}

int RunShardSweep(const std::vector<std::size_t>& shard_counts, bool quick, bool json,
                  const std::string& out_path) {
  ts::DatasetSpec spec;
  spec.num_series = 128;
  spec.num_samples = 2048;
  spec.num_clusters = 6;
  spec.noise_level = 0.015;
  spec.seed = 7;
  const ts::Dataset feed = ts::MakeStockData(spec);
  const std::size_t measured = quick ? 8 : 32;
  const std::size_t threads = 8;

  std::vector<ShardConfig> configs;
  for (const std::size_t shards : shard_counts) {
    configs.push_back({shards, threads, 256, 16});
    configs.push_back({shards, threads, 256, 1});
  }

  std::printf("# bench_streaming --shards — steady-state sharded refresh latency, "
              "stock generator (n=%zu, threads=%zu)\n", spec.num_series, threads);
  std::printf(
      "shards,threads,window,interval,refreshes,mean_us,min_us,pairs_swept_per_epoch\n");
  std::vector<ShardResult> results;
  for (const ShardConfig& config : configs) {
    ShardResult r = RunShardConfig(config, feed, measured);
    results.push_back(r);
    std::printf("%zu,%zu,%zu,%zu,%zu,%.1f,%.1f,%zu\n", config.shards, config.threads,
                config.window, config.interval, r.refreshes, r.mean_seconds * 1e6,
                r.min_seconds * 1e6, r.pairs_swept_per_epoch);
  }

  // Scaling headline: each shard count vs the first listed (typically 1).
  if (results.size() > 2) {
    std::printf("\nshards,interval,speedup_vs_first\n");
    for (std::size_t i = 2; i < results.size(); ++i) {
      const ShardResult& base = results[i % 2];
      const ShardResult& r = results[i];
      std::printf("%zu,%zu,%.2fx\n", r.config.shards, r.config.interval,
                  base.mean_seconds / r.mean_seconds);
    }
  }

  if (json) {
    FILE* out = out_path.empty() ? stdout : std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"context\": {\"executable\": \"bench_streaming\", "
                 "\"mode\": \"sharded\", \"num_series\": %zu, \"threads\": %zu, "
                 "\"kernel_backend\": \"%s\"},\n"
                 "  \"benchmarks\": [\n", spec.num_series, threads,
                 core::kernels::ActiveBackendName());
    for (std::size_t i = 0; i < results.size(); ++i) {
      const ShardResult& r = results[i];
      std::fprintf(out,
                   "    {\"name\": \"shard_refresh/shards:%zu/threads:%zu/window:%zu/"
                   "interval:%zu\", \"run_type\": \"iteration\", \"iterations\": %zu, "
                   "\"real_time\": %.3f, \"cpu_time\": %.3f, \"time_unit\": \"us\", "
                   "\"refits\": %zu, \"pairs_swept_per_epoch\": %zu}%s\n",
                   r.config.shards, r.config.threads, r.config.window, r.config.interval,
                   r.refreshes, r.mean_seconds * 1e6, r.mean_seconds * 1e6, r.refits,
                   r.pairs_swept_per_epoch, i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    if (!out_path.empty()) std::fclose(out);
  }
  return 0;
}

// --- Retained block-partial sweep (ISSUE 5 acceptance) ---------------------
//
// Steady-state incremental refreshes at interval 1, with the
// BlockPartialCache on vs off: the retained path must cut the exact
// RecomputeDerived/refit recomputation cost ≥ 3× at window 4096 and show
// recompute_blocks_reused > 0 (interior block partials actually served
// from the cache).

struct Dot12Config {
  std::size_t window;
  bool retain;
};

struct Dot12Result {
  Dot12Config config;
  std::size_t refreshes = 0;
  double mean_refresh_us = 0;
  double mean_recompute_us = 0;
  std::size_t blocks_touched = 0;
  std::size_t blocks_reused = 0;
  std::size_t prefix_resumes = 0;
};

Dot12Result RunDot12Config(const Dot12Config& config, const ts::Dataset& feed,
                           std::size_t measured) {
  core::StreamingOptions options;
  options.window = config.window;
  options.rebuild_interval = 1;
  options.mode = core::UpdateMode::kIncremental;
  options.incremental.retain_block_partials = config.retain;
  options.build.afclst.k = 4;
  options.build.build_dft = false;
  auto stream = core::StreamingAffinity::Create(feed.matrix.names(), options);
  if (!stream.ok()) {
    std::fprintf(stderr, "create failed: %s\n", stream.status().ToString().c_str());
    std::exit(1);
  }
  std::vector<double> row(feed.matrix.n());
  std::size_t next = 0;
  const auto append = [&]() {
    for (std::size_t j = 0; j < feed.matrix.n(); ++j) {
      row[j] = feed.matrix.matrix()(next % feed.matrix.m(), j);
    }
    ++next;
    const auto result = stream->Append(row);
    if (!result.ok()) {
      std::fprintf(stderr, "append failed: %s\n", result.status.ToString().c_str());
      std::exit(1);
    }
    return result;
  };
  while (!stream->ready()) append();
  // Warm past every slot's first refit, so the retained chains are past
  // their cold build: a co-moment chain is built by its slot's first refit
  // after Create, one slot in `exact_refit_period` per refresh.
  for (std::size_t i = 0; i < options.incremental.exact_refit_period + 2; ++i) append();

  Dot12Result out;
  out.config = config;
  const core::MaintenanceProfile before = stream->maintenance();
  Stopwatch watch;
  for (std::size_t r = 0; r < measured; ++r) append();
  const double total_seconds = watch.ElapsedSeconds();
  const core::MaintenanceProfile after = stream->maintenance();
  out.refreshes = after.refreshes - before.refreshes;
  out.mean_refresh_us = total_seconds * 1e6 / static_cast<double>(out.refreshes);
  out.mean_recompute_us = (after.recompute_seconds - before.recompute_seconds) * 1e6 /
                          static_cast<double>(out.refreshes);
  out.blocks_touched = after.recompute_blocks_touched - before.recompute_blocks_touched;
  out.blocks_reused = after.recompute_blocks_reused - before.recompute_blocks_reused;
  out.prefix_resumes = after.recompute_prefix_resumes - before.recompute_prefix_resumes;
  return out;
}

int RunDot12Sweep(bool quick, bool json, const std::string& out_path) {
  ts::DatasetSpec spec;
  spec.num_series = 32;
  spec.num_samples = 6144;
  spec.num_clusters = 4;
  spec.noise_level = 0.015;
  spec.seed = 7;
  const ts::Dataset feed = ts::MakeStockData(spec);
  const std::size_t measured = quick ? 16 : 64;

  std::vector<Dot12Config> configs;
  for (const std::size_t window : {std::size_t{1024}, std::size_t{4096}}) {
    configs.push_back({window, true});
    configs.push_back({window, false});
  }
  std::printf("# bench_streaming --dot12 — retained block partials vs cold exact "
              "recomputation (n=%zu, interval=1)\n", spec.num_series);
  std::printf("window,retain,refreshes,mean_refresh_us,mean_recompute_us,"
              "recompute_blocks_touched,recompute_blocks_reused,prefix_resumes\n");
  std::vector<Dot12Result> results;
  for (const Dot12Config& config : configs) {
    Dot12Result r = RunDot12Config(config, feed, measured);
    results.push_back(r);
    std::printf("%zu,%s,%zu,%.1f,%.1f,%zu,%zu,%zu\n", config.window,
                config.retain ? "on" : "off", r.refreshes, r.mean_refresh_us,
                r.mean_recompute_us, r.blocks_touched, r.blocks_reused, r.prefix_resumes);
  }
  std::printf("\nwindow,recompute_speedup_retained\n");
  bool gate_ok = true;
  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    const double speedup = results[i + 1].mean_recompute_us / results[i].mean_recompute_us;
    std::printf("%zu,%.2fx\n", results[i].config.window, speedup);
    // The ISSUE 5 acceptance gate, enforced (not just reported): at
    // window 4096 / interval 1 retention must cut the exact recompute
    // cost ≥3× and actually reuse interior block partials.
    if (results[i].config.window == 4096 &&
        (speedup < 3.0 || results[i].blocks_reused == 0)) {
      std::fprintf(stderr,
                   "FAIL: retained partials at window 4096 give %.2fx (< 3x) "
                   "or zero reused blocks (%zu)\n",
                   speedup, results[i].blocks_reused);
      gate_ok = false;
    }
  }
  if (json) {
    FILE* out = out_path.empty() ? stdout : std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    // The dispatched backend makes runner generations comparable: a
    // scalar-only runner's µs rows must not be trended against avx2 ones.
    std::fprintf(out, "{\n  \"context\": {\"executable\": \"bench_streaming\", "
                 "\"mode\": \"dot12_slide\", \"num_series\": %zu, "
                 "\"kernel_backend\": \"%s\"},\n  \"benchmarks\": [\n",
                 spec.num_series, core::kernels::ActiveBackendName());
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Dot12Result& r = results[i];
      std::fprintf(out,
                   "    {\"name\": \"dot12_slide/window:%zu/retain:%s\", "
                   "\"run_type\": \"iteration\", \"iterations\": %zu, "
                   "\"real_time\": %.3f, \"cpu_time\": %.3f, \"time_unit\": \"us\", "
                   "\"recompute_us\": %.3f, \"recompute_blocks_touched\": %zu, "
                   "\"recompute_blocks_reused\": %zu, \"prefix_resumes\": %zu}%s\n",
                   r.config.window, r.config.retain ? "on" : "off", r.refreshes,
                   r.mean_refresh_us, r.mean_refresh_us, r.mean_recompute_us,
                   r.blocks_touched, r.blocks_reused, r.prefix_resumes,
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    if (!out_path.empty()) std::fclose(out);
  }
  return gate_ok ? 0 : 1;
}

double MedianUs(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t h = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[h] : 0.5 * (samples[h - 1] + samples[h]);
}

// --- Lock-free serving sweep (--serve) -------------------------------------
//
// Two enforced gates, non-zero exit on failure:
//  1. The epoch's selection plan. On one epoch at window 4096 (n = 384),
//     two MET requests: covariance at τ = 0 (91% of pairs pass) and
//     correlation at τ = 0.9. (a) kAuto plans the WA pass over the frozen
//     pair table for both — an epoch has no SCAPE index (exact, no
//     timing); (b) each served answer selects the same pair set as batch
//     SCAPE over the stream's model (`ScapeIndex::Build`). Both medians
//     and their ratio are printed, ungated: covariance at τ = 0 is the
//     one measured request where SCAPE was faster. n is sized so each walk
//     is memory-bound (tens of thousands of pairs); tiny instances measure
//     per-query fixed cost, not the walk.
//  2. Serving under maintenance: sustained kAuto correlation top-k
//     (k = 10) throughput from reader threads while the owner slides at
//     interval 1 (a refresh per append) must stay ≥ 80% of the
//     idle-stream throughput — queries never wait on maintenance. A top-k
//     pass reads every pair whatever the values, so its cost does not
//     drift with the epoch a phase reads. Idle and maintained phases
//     alternate three times and the median of the three ratios is gated:
//     one short phase pair spreads too widely on a shared host to tell.
//     The writer is paced to ~10% CPU duty so the gate measures serving
//     interference (blocking), not core fair-share on a single-core CI
//     box.

/// One gate-1 request: what kAuto planned, the served pass's and batch
/// SCAPE's medians, and the entries SCAPE verified.
struct ServeSelection {
  const char* name = "";
  core::MetRequest req;
  core::QueryMethod planned = core::QueryMethod::kAuto;
  double scape_us = 0;
  double wa_us = 0;
  double scape_over_pass = 0;  ///< scape_us / wa_us (ungated)
  std::size_t verified = 0;
  std::size_t selected = 0;
};

struct ServeResult {
  ServeSelection selections[2];
  std::vector<double> qps_ratios;  ///< maintained / idle, per phase pair
  double idle_qps = 0;             ///< median over the idle phases
  double maintained_qps = 0;       ///< median over the maintained phases
  double qps_ratio = 0;            ///< median of `qps_ratios`
  std::uint64_t epochs = 0;
  // Publication accounting of the gate-2 stream (DESIGN.md §11).
  core::MaintenanceProfile profile;
};

int RunServeSweep(bool quick, bool json, const std::string& out_path) {
  ServeResult result;
  bool gate_ok = true;

  // Gate 1: the epoch's selection plan at window 4096.
  {
    ts::DatasetSpec spec;
    spec.num_series = 384;
    spec.num_samples = 6144;
    spec.num_clusters = 6;
    spec.noise_level = 0.015;
    spec.seed = 7;
    const ts::Dataset feed = ts::MakeStockData(spec);
    core::StreamingOptions options;
    options.window = 4096;
    options.rebuild_interval = 16;
    options.mode = core::UpdateMode::kIncremental;
    options.build.afclst.k = 6;
    options.build.build_dft = false;
    auto stream = core::StreamingAffinity::Create(feed.matrix.names(), options);
    if (!stream.ok()) {
      std::fprintf(stderr, "create failed: %s\n", stream.status().ToString().c_str());
      return 1;
    }
    std::vector<double> row(feed.matrix.n());
    std::size_t next = 0;
    while (!stream->ready() || next < options.window + options.rebuild_interval) {
      for (std::size_t j = 0; j < feed.matrix.n(); ++j) {
        row[j] = feed.matrix.matrix()(next % feed.matrix.m(), j);
      }
      ++next;
      if (!stream->Append(row).ok()) {
        std::fprintf(stderr, "append failed\n");
        return 1;
      }
    }
    auto snap = stream->serving();
    if (snap == nullptr) {
      std::fprintf(stderr, "no serving snapshot after refresh\n");
      return 1;
    }
    // Batch SCAPE over the stream's model, with the stream's quality
    // surface so both sides pay the same answer stamp.
    const core::AffinityModel& model = stream->framework()->model();
    auto index = core::ScapeIndex::Build(model);
    if (!index.ok()) {
      std::fprintf(stderr, "SCAPE build failed: %s\n", index.status().ToString().c_str());
      return 1;
    }
    core::QueryEngine batch(&model.data());
    batch.AttachModel(&model);
    batch.AttachScape(&*index);
    batch.AttachQuality(&stream->quality_scores());
    result.selections[0].name = "covariance_tau0";
    result.selections[0].req = core::MetRequest{core::Measure::kCovariance, 0.0, true};
    result.selections[1].name = "correlation_tau0.9";
    result.selections[1].req = core::MetRequest{core::Measure::kCorrelation, 0.9, true};
    const std::size_t repeats = quick ? 60 : 300;
    std::size_t keep = 0;  // defeat dead-code elimination
    for (ServeSelection& sel : result.selections) {
      // (a) The plan, then (b) agreement with batch SCAPE.
      auto served = serve::SnapshotMet(*snap, sel.req, core::QueryMethod::kAuto);
      auto scape = batch.Met(sel.req, core::QueryMethod::kScape);
      if (!served.ok() || !scape.ok()) {
        std::fprintf(stderr, "%s MET failed\n", sel.name);
        return 1;
      }
      sel.planned = served->plan.method;
      sel.verified = scape->prune.verified;
      sel.selected = served->pairs.size();
      if (sel.planned != core::QueryMethod::kAffine) {
        std::fprintf(stderr, "FAIL: %s: kAuto planned %s, expected WA\n", sel.name,
                     std::string(core::QueryMethodName(sel.planned)).c_str());
        gate_ok = false;
      }
      std::sort(scape->pairs.begin(), scape->pairs.end());
      if (scape->pairs != served->pairs) {
        std::fprintf(stderr, "FAIL: %s: the served pass and batch SCAPE selected different pairs\n",
                     sel.name);
        gate_ok = false;
      }
      // (c) Reported only: the two alternate query by query and each
      // side's median is compared, so drift on a shared host biases
      // neither side.
      std::vector<double> scape_samples;
      std::vector<double> wa_samples;
      for (std::size_t r = 0; r < repeats; ++r) {
        Stopwatch scape_watch;
        auto a = batch.Met(sel.req, core::QueryMethod::kScape);
        scape_samples.push_back(scape_watch.ElapsedSeconds() * 1e6);
        Stopwatch wa_watch;
        auto b = serve::SnapshotMet(*snap, sel.req, core::QueryMethod::kAuto);
        wa_samples.push_back(wa_watch.ElapsedSeconds() * 1e6);
        if (a.ok()) keep += a->pairs.size();
        if (b.ok()) keep += b->pairs.size();
      }
      sel.scape_us = MedianUs(scape_samples);
      sel.wa_us = MedianUs(wa_samples);
      sel.scape_over_pass = sel.scape_us / sel.wa_us;
    }
    if (keep == 0) std::fprintf(stderr, "# (empty selections)\n");
  }

  // Gate 2: reader throughput under interval=1 slides vs idle.
  {
    ts::DatasetSpec spec;
    spec.num_series = 64;
    spec.num_samples = 2048;
    spec.num_clusters = 4;
    spec.noise_level = 0.015;
    spec.seed = 7;
    const ts::Dataset feed = ts::MakeStockData(spec);
    core::StreamingOptions options;
    options.window = 256;
    options.rebuild_interval = 1;
    options.mode = core::UpdateMode::kIncremental;
    options.build.afclst.k = 4;
    options.build.build_dft = false;
    auto stream = core::StreamingAffinity::Create(feed.matrix.names(), options);
    if (!stream.ok()) {
      std::fprintf(stderr, "create failed: %s\n", stream.status().ToString().c_str());
      return 1;
    }
    std::vector<double> row(feed.matrix.n());
    std::size_t next = 0;
    const auto append = [&]() {
      for (std::size_t j = 0; j < feed.matrix.n(); ++j) {
        row[j] = feed.matrix.matrix()(next % feed.matrix.m(), j);
      }
      ++next;
      if (!stream->Append(row).ok()) {
        std::fprintf(stderr, "append failed\n");
        std::exit(1);
      }
    };
    while (!stream->ready()) append();
    append();  // one slide so the steady-state epoch is the serving one

    // Measure the per-append slide+refresh+publish cost, then pace the
    // writer at ~10% duty (sleep 9× the append cost between slides). On a
    // single-core runner a free-running writer would simply take its CPU
    // fair-share from the readers — the gate is about whether queries
    // *block* on maintenance, and a blocked reader craters far below the
    // fair-share floor this pacing establishes.
    double append_seconds;
    {
      const std::size_t warm = 16;
      Stopwatch watch;
      for (std::size_t i = 0; i < warm; ++i) append();
      append_seconds = watch.ElapsedSeconds() / static_cast<double>(warm);
    }
    const auto pace = std::chrono::duration<double>(append_seconds * 9.0);

    const double duration = quick ? 0.3 : 0.8;
    const std::size_t readers = 2;
    const core::TopKRequest req{core::Measure::kCorrelation, 10, true};
    const auto run_phase = [&](bool slide) {
      std::atomic<bool> stop{false};
      std::atomic<std::size_t> queries{0};
      std::vector<std::thread> pool;
      for (std::size_t r = 0; r < readers; ++r) {
        pool.emplace_back([&stream, &stop, &queries, &req] {
          while (!stop.load(std::memory_order_relaxed)) {
            auto s = stream->serving();
            if (s == nullptr) continue;
            auto topk = serve::SnapshotTopK(*s, req, core::QueryMethod::kAuto);
            if (topk.ok()) queries.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
      Stopwatch watch;
      if (slide) {
        while (watch.ElapsedSeconds() < duration) {
          append();
          std::this_thread::sleep_for(pace);
        }
      } else {
        while (watch.ElapsedSeconds() < duration) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }
      const double elapsed = watch.ElapsedSeconds();
      stop.store(true);
      for (std::thread& t : pool) t.join();
      return static_cast<double>(queries.load()) / elapsed;
    };
    const std::uint64_t before = stream->serving()->generation;
    std::vector<double> idle;
    std::vector<double> maintained;
    for (int pair = 0; pair < 3; ++pair) {
      idle.push_back(run_phase(false));
      maintained.push_back(run_phase(true));
      result.qps_ratios.push_back(maintained.back() / idle.back());
    }
    result.epochs = stream->serving()->generation - before;
    std::vector<double> ratios = result.qps_ratios;
    result.qps_ratio = MedianUs(ratios);
    result.idle_qps = MedianUs(idle);
    result.maintained_qps = MedianUs(maintained);
    if (result.qps_ratio < 0.80) {
      std::fprintf(stderr,
                   "FAIL: QPS under interval=1 slides is %.0f%% of idle (< 80%%; median of "
                   "%.3f, %.3f, %.3f)\n",
                   result.qps_ratio * 100.0, result.qps_ratios[0], result.qps_ratios[1],
                   result.qps_ratios[2]);
      gate_ok = false;
    }
    if (result.epochs == 0) {
      std::fprintf(stderr, "FAIL: no epochs published during the maintained phases\n");
      gate_ok = false;
    }
    result.profile = stream->maintenance();
  }

  std::printf("# bench_streaming --serve — lock-free snapshot serving\n");
  std::printf("metric,value\n");
  for (const ServeSelection& sel : result.selections) {
    std::printf("%s_plan,%s\n", sel.name, std::string(core::QueryMethodName(sel.planned)).c_str());
    std::printf("%s_scape_us,%.1f\n", sel.name, sel.scape_us);
    std::printf("%s_wa_us,%.1f\n", sel.name, sel.wa_us);
    std::printf("%s_scape_over_pass,%.2f\n", sel.name, sel.scape_over_pass);
    std::printf("%s_scape_verified,%zu\n", sel.name, sel.verified);
    std::printf("%s_selected,%zu\n", sel.name, sel.selected);
  }
  std::printf("idle_qps,%.0f\n", result.idle_qps);
  std::printf("maintained_qps,%.0f\n", result.maintained_qps);
  std::printf("qps_ratio,%.3f\n", result.qps_ratio);
  std::printf("qps_ratios,%.3f/%.3f/%.3f\n", result.qps_ratios[0], result.qps_ratios[1],
              result.qps_ratios[2]);
  std::printf("epochs_published,%llu\n", static_cast<unsigned long long>(result.epochs));
  std::printf("epochs_delta,%zu\n", result.profile.epochs_delta);
  std::printf("window_segments_reused,%zu\n", result.profile.window_segments_reused);
  std::printf("snapshot_bytes_copied,%zu\n", result.profile.snapshot_bytes_copied);

  if (json) {
    FILE* out = out_path.empty() ? stdout : std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"context\": {\"executable\": \"bench_streaming\", "
                 "\"mode\": \"serve\", \"kernel_backend\": \"%s\"},\n  \"benchmarks\": [\n",
                 core::kernels::ActiveBackendName());
    for (const ServeSelection& sel : result.selections) {
      std::fprintf(out,
                   "    {\"name\": \"serve_met/%s/window:4096\", \"run_type\": \"iteration\", "
                   "\"iterations\": 1, \"real_time\": %.3f, \"cpu_time\": %.3f, "
                   "\"time_unit\": \"us\", \"plan\": \"%s\", \"scape_us\": %.3f, "
                   "\"wa_us\": %.3f, \"scape_over_pass\": %.3f, \"scape_verified\": %zu, "
                   "\"selected\": %zu},\n",
                   sel.name, sel.wa_us, sel.wa_us,
                   std::string(core::QueryMethodName(sel.planned)).c_str(), sel.scape_us,
                   sel.wa_us, sel.scape_over_pass, sel.verified, sel.selected);
    }
    std::fprintf(out,
                 "    {\"name\": \"serve_qps/interval:1\", \"run_type\": \"iteration\", "
                 "\"iterations\": 1, \"real_time\": %.3f, \"cpu_time\": %.3f, "
                 "\"time_unit\": \"us\", \"idle_qps\": %.1f, \"maintained_qps\": %.1f, "
                 "\"qps_ratio\": %.3f, \"epochs_published\": %llu, \"epochs_delta\": %zu, "
                 "\"window_segments_reused\": %zu, \"snapshot_bytes_copied\": %zu}\n",
                 1e6 / (result.maintained_qps > 0 ? result.maintained_qps : 1.0),
                 1e6 / (result.maintained_qps > 0 ? result.maintained_qps : 1.0),
                 result.idle_qps, result.maintained_qps, result.qps_ratio,
                 static_cast<unsigned long long>(result.epochs), result.profile.epochs_delta,
                 result.profile.window_segments_reused, result.profile.snapshot_bytes_copied);
    std::fprintf(out, "  ]\n}\n");
    if (!out_path.empty()) std::fclose(out);
  }
  return gate_ok ? 0 : 1;
}

// --- Incremental epoch publication sweep (--serve-publish) -----------------
//
// Enforced with a non-zero exit: at window 4096 / interval 1,
// steady-state publication (COW window segments + bulk WA refill) must be
// ≥ 4× faster than a from-scratch `SnapshotBuilder::Build` of the same
// state — while publishing bitwise-identical snapshots (stats, locations
// and pair tables spot-checked here against a cold build; the exhaustive
// per-epoch identity sweep lives in serve_delta_test). The refresh median
// is reported beside it, ungated, so work moved between publication and
// the refresh stays visible.

struct ServePublishResult {
  std::size_t epochs = 0;        ///< measured steady-state publications
  std::size_t delta_epochs = 0;  ///< ... of which went through BuildDelta
  double delta_mean_us = 0;      ///< median publication wall time, delta path
  double full_mean_us = 0;       ///< median from-scratch Build wall time
  double publish_speedup = 0;    ///< full / delta
  double refresh_us = 0;         ///< median maintainer refresh wall time (ungated)
  std::size_t delta_bytes_per_epoch = 0;
  std::size_t full_bytes_per_epoch = 0;
  std::size_t window_segments_reused = 0;
};

/// Spread line for the CSV output: a noisy host (this gate runs on shared
/// CI runners) shows up as a wide p10..p90 band around the median.
void PrintSpread(const char* name, const std::vector<double>& sorted) {
  if (sorted.empty()) return;
  const double p10 = sorted[sorted.size() / 10];
  const double p90 = sorted[sorted.size() - 1 - sorted.size() / 10];
  std::printf("%s_p10_us,%.1f\n%s_p90_us,%.1f\n", name, p10, name, p90);
}

int RunServePublishSweep(bool quick, bool json, const std::string& out_path) {
  ts::DatasetSpec spec;
  spec.num_series = 128;
  spec.num_samples = 6144;
  spec.num_clusters = 6;
  spec.noise_level = 0.015;
  spec.seed = 7;
  const ts::Dataset feed = ts::MakeStockData(spec);
  core::StreamingOptions options;
  options.window = 4096;
  options.rebuild_interval = 1;
  options.mode = core::UpdateMode::kIncremental;
  options.build.afclst.k = 6;
  options.build.build_dft = false;
  auto stream = core::StreamingAffinity::Create(feed.matrix.names(), options);
  if (!stream.ok()) {
    std::fprintf(stderr, "create failed: %s\n", stream.status().ToString().c_str());
    return 1;
  }
  std::vector<double> row(feed.matrix.n());
  std::size_t next = 0;
  const auto append = [&]() {
    for (std::size_t j = 0; j < feed.matrix.n(); ++j) {
      row[j] = feed.matrix.matrix()(next % feed.matrix.m(), j);
    }
    ++next;
    if (!stream->Append(row).ok()) {
      std::fprintf(stderr, "append failed\n");
      std::exit(1);
    }
  };
  while (!stream->ready()) append();
  // Warm slides: steady state starts once the first refreshes have
  // recycled a retired epoch.
  for (int i = 0; i < 4; ++i) append();

  ServePublishResult result;
  bool gate_ok = true;

  // Steady-state publication: the publish-side profile isolates its cost
  // from the rest of the slide (absorb, quality, compaction). Slides and
  // from-scratch builds alternate in *blocks* — blocks keep the
  // within-phase cache behaviour of real steady state (a serving stream
  // never builds from scratch between slides), while the alternation
  // keeps clock/frequency drift from biasing one side of the ratio.
  // Medians keep a descheduled slide from skewing the gate.
  const std::size_t rounds = 4;
  const std::size_t slides_per_round = quick ? 8 : 24;
  const std::size_t fulls_per_round = quick ? 3 : 8;
  std::vector<double> delta_samples;
  std::vector<double> refresh_samples;
  std::vector<double> full_samples;
  delta_samples.reserve(rounds * slides_per_round);
  refresh_samples.reserve(rounds * slides_per_round);
  full_samples.reserve(rounds * fulls_per_round);
  serve::PublishStats full_stats;
  const core::MaintenanceProfile before = stream->maintenance();
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t r = 0; r < slides_per_round; ++r) {
      append();
      delta_samples.push_back(stream->maintenance().last_publish_seconds * 1e6);
      refresh_samples.push_back(stream->maintenance().last_refresh_seconds * 1e6);
    }
    for (std::size_t r = 0; r < fulls_per_round; ++r) {
      full_stats = serve::PublishStats();
      Stopwatch full_watch;
      auto full = serve::SnapshotBuilder::Build(
          stream->framework()->model(), stream->framework()->engine(),
          stream->serving()->generation, stream->serving()->snapshot_row, &full_stats);
      full_samples.push_back(full_watch.ElapsedSeconds() * 1e6);
      if (full == nullptr) {
        std::fprintf(stderr, "from-scratch build failed\n");
        return 1;
      }
    }
  }
  const core::MaintenanceProfile after = stream->maintenance();
  result.epochs = after.epochs_published - before.epochs_published;
  result.delta_epochs = after.epochs_delta - before.epochs_delta;
  result.delta_mean_us = MedianUs(delta_samples);
  result.full_mean_us = MedianUs(full_samples);
  result.full_bytes_per_epoch = full_stats.bytes_copied;
  result.delta_bytes_per_epoch =
      (after.snapshot_bytes_copied - before.snapshot_bytes_copied) / result.epochs;
  result.window_segments_reused = after.window_segments_reused - before.window_segments_reused;
  result.refresh_us = MedianUs(refresh_samples);
  if (result.delta_epochs != result.epochs) {
    std::fprintf(stderr, "FAIL: only %zu of %zu steady-state epochs used the delta path\n",
                 result.delta_epochs, result.epochs);
    gate_ok = false;
  }

  // The bitwise spot check: what was published against a cold build of
  // the same state.
  auto published = stream->serving();
  auto cold = stream->BuildColdSnapshot();
  if (published == nullptr || cold == nullptr) {
    std::fprintf(stderr, "no snapshot to compare\n");
    return 1;
  }
  bool identical = published->generation == cold->generation &&
                   published->snapshot_row == cold->snapshot_row &&
                   published->stats.size() == cold->stats.size() &&
                   published->location == cold->location &&
                   published->pair_values == cold->pair_values;
  for (std::size_t v = 0; identical && v < cold->stats.size(); ++v) {
    const core::SeriesStats& got = published->stats[v];
    const core::SeriesStats& want = cold->stats[v];
    identical = got.mean == want.mean && got.variance == want.variance &&
                got.sum == want.sum && got.sumsq == want.sumsq;
  }
  if (!identical) {
    std::fprintf(stderr, "FAIL: published snapshot diverged from the cold build\n");
    gate_ok = false;
  }
  result.publish_speedup = result.full_mean_us / result.delta_mean_us;
  if (result.publish_speedup < 4.0) {
    std::fprintf(stderr,
                 "FAIL: delta publication %.2fx vs from-scratch build (< 4x) at window 4096 / "
                 "interval 1\n",
                 result.publish_speedup);
    gate_ok = false;
  }

  std::printf("# bench_streaming --serve-publish — incremental epoch publication "
              "(window=4096, interval=1, n=%zu)\n", spec.num_series);
  std::printf("metric,value\n");
  std::printf("epochs,%zu\n", result.epochs);
  std::printf("delta_epochs,%zu\n", result.delta_epochs);
  std::printf("delta_publish_us,%.1f\n", result.delta_mean_us);
  std::printf("full_publish_us,%.1f\n", result.full_mean_us);
  PrintSpread("delta_publish", delta_samples);
  PrintSpread("full_publish", full_samples);
  std::printf("publish_speedup,%.2fx\n", result.publish_speedup);
  std::printf("refresh_us,%.1f\n", result.refresh_us);
  PrintSpread("refresh", refresh_samples);
  std::printf("delta_bytes_per_epoch,%zu\n", result.delta_bytes_per_epoch);
  std::printf("full_bytes_per_epoch,%zu\n", result.full_bytes_per_epoch);
  std::printf("window_segments_reused,%zu\n", result.window_segments_reused);

  if (json) {
    FILE* out = out_path.empty() ? stdout : std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"context\": {\"executable\": \"bench_streaming\", "
                 "\"mode\": \"serve_publish\", \"num_series\": %zu, "
                 "\"kernel_backend\": \"%s\"},\n  \"benchmarks\": [\n",
                 spec.num_series, core::kernels::ActiveBackendName());
    std::fprintf(out,
                 "    {\"name\": \"serve_publish_delta/window:4096/interval:1\", "
                 "\"run_type\": \"iteration\", \"iterations\": %zu, \"real_time\": %.3f, "
                 "\"cpu_time\": %.3f, \"time_unit\": \"us\", \"bytes_per_epoch\": %zu, "
                 "\"window_segments_reused\": %zu, \"refresh_us\": %.3f},\n",
                 result.delta_epochs, result.delta_mean_us, result.delta_mean_us,
                 result.delta_bytes_per_epoch, result.window_segments_reused, result.refresh_us);
    std::fprintf(out,
                 "    {\"name\": \"serve_publish_full/window:4096/interval:1\", "
                 "\"run_type\": \"iteration\", \"iterations\": 1, \"real_time\": %.3f, "
                 "\"cpu_time\": %.3f, \"time_unit\": \"us\", \"bytes_per_epoch\": %zu, "
                 "\"publish_speedup\": %.3f}\n",
                 result.full_mean_us, result.full_mean_us, result.full_bytes_per_epoch,
                 result.publish_speedup);
    std::fprintf(out, "  ]\n}\n");
    if (!out_path.empty()) std::fclose(out);
  }
  return gate_ok ? 0 : 1;
}

// --- Dirty-ingestion sweep (--dirty) ---------------------------------------
//
// Reported (not gated — the quality surface costs what it costs): the
// steady-state refresh latency of a stream fed through AppendMasked with
// ~5% of samples gapped (aligner-style: forward-filled within the
// horizon, flagged beyond it) versus the dense Append baseline, plus the
// published quality surface and a MET spot check over the dirty stream.
// Checked (non-zero exit): the quality surface is published, one score
// per series, and the MET answers with a quality stamp.

struct DirtyResult {
  std::size_t refreshes = 0;
  double dirty_mean_us = 0;
  double dense_mean_us = 0;
  double gap_ratio = 0;   ///< observed invalid-cell fraction of the fed rows
  double fill_ratio = 0;  ///< observed forward-filled fraction
  double quality_min = 0;
  double quality_mean = 0;
  double met_min_score = 0;
  std::size_t met_pairs = 0;
};

int RunDirtySweep(bool quick, bool json, const std::string& out_path) {
  DirtyResult result;

  // Steady-state refresh with ~5% gaps, against the dense baseline on the
  // same values. The dirty feed reproduces the aligner's emission: a
  // missing sample carries the last value forward, counts as filled while
  // the gap is ≤ max_fill rows old and as an explicit gap beyond that.
  {
    ts::DatasetSpec spec;
    spec.num_series = 64;
    spec.num_samples = 2048;
    spec.num_clusters = 4;
    spec.noise_level = 0.015;
    spec.seed = 7;
    const ts::Dataset feed = ts::MakeStockData(spec);
    const std::size_t n = feed.matrix.n();
    const std::size_t window = 512;
    const std::size_t interval = 16;
    const std::size_t measured = quick ? 8 : 32;
    const std::size_t max_fill = 4;

    core::StreamingOptions options;
    options.window = window;
    options.rebuild_interval = interval;
    options.mode = core::UpdateMode::kIncremental;
    options.build.afclst.k = 4;
    options.build.build_dft = false;

    auto dirty = core::StreamingAffinity::Create(feed.matrix.names(), options);
    auto dense = core::StreamingAffinity::Create(feed.matrix.names(), options);
    if (!dirty.ok() || !dense.ok()) {
      std::fprintf(stderr, "create failed\n");
      return 1;
    }

    // Dirty stream: aligner-style masked rows with ~5% missing samples.
    // Outages are bursty (runs of 1–10 rows) so some runs outlive the
    // fill horizon and the stream carries explicit gaps, not just fills.
    Xoshiro256 rng(41);
    std::vector<double> last(n, 0.0);
    std::vector<std::size_t> gap_age(n, 0);
    std::vector<std::size_t> gap_left(n, 0);
    std::vector<double> values(n);
    std::vector<std::uint8_t> valid(n);
    std::vector<std::uint8_t> filled(n);
    std::size_t cells = 0, gap_cells = 0, fill_cells = 0;
    std::size_t next = 0;
    const auto append_dirty = [&]() {
      for (std::size_t j = 0; j < n; ++j) {
        const double fresh = feed.matrix.matrix()(next % feed.matrix.m(), j);
        if (gap_left[j] == 0 && rng.NextDouble() < 0.01) {
          gap_left[j] = 1 + rng.NextBounded(10);
        }
        const bool missing = gap_left[j] > 0;
        if (missing) {
          --gap_left[j];
          ++gap_age[j];
          values[j] = last[j];
          if (gap_age[j] <= max_fill) {
            valid[j] = 1;
            filled[j] = 1;
            ++fill_cells;
          } else {
            valid[j] = 0;
            filled[j] = 0;
            ++gap_cells;
          }
        } else {
          gap_age[j] = 0;
          last[j] = fresh;
          values[j] = fresh;
          valid[j] = 1;
          filled[j] = 0;
        }
        ++cells;
      }
      ++next;
      if (!dirty->AppendMasked(values, valid, filled).ok()) {
        std::fprintf(stderr, "masked append failed\n");
        std::exit(1);
      }
    };
    while (!dirty->ready()) append_dirty();
    for (std::size_t i = 0; i < interval; ++i) append_dirty();
    double dirty_total = 0;
    {
      Stopwatch watch;
      for (std::size_t r = 0; r < measured; ++r) {
        for (std::size_t i = 0; i < interval; ++i) append_dirty();
        ++result.refreshes;
      }
      dirty_total = watch.ElapsedSeconds();
    }

    // Dense baseline: the same generator values through plain Append, on
    // its own stream so the two measurements never interleave.
    double dense_total = 0;
    {
      std::vector<double> row(n);
      std::size_t dense_next = 0;
      const auto append_dense = [&]() {
        for (std::size_t j = 0; j < n; ++j) {
          row[j] = feed.matrix.matrix()(dense_next % feed.matrix.m(), j);
        }
        ++dense_next;
        if (!dense->Append(row).ok()) {
          std::fprintf(stderr, "append failed\n");
          std::exit(1);
        }
      };
      while (!dense->ready()) append_dense();
      for (std::size_t i = 0; i < interval; ++i) append_dense();
      Stopwatch watch;
      for (std::size_t r = 0; r < measured; ++r) {
        for (std::size_t i = 0; i < interval; ++i) append_dense();
      }
      dense_total = watch.ElapsedSeconds();
    }
    result.dirty_mean_us = dirty_total * 1e6 / static_cast<double>(measured);
    result.dense_mean_us = dense_total * 1e6 / static_cast<double>(measured);
    result.gap_ratio = static_cast<double>(gap_cells) / static_cast<double>(cells);
    result.fill_ratio = static_cast<double>(fill_cells) / static_cast<double>(cells);

    const std::vector<double>& scores = dirty->quality_scores();
    if (scores.size() != n) {
      std::fprintf(stderr, "FAIL: quality surface not published (%zu scores)\n", scores.size());
      return 1;
    }
    double qmin = 1.0, qsum = 0.0;
    for (const double s : scores) {
      qmin = std::min(qmin, s);
      qsum += s;
    }
    result.quality_min = qmin;
    result.quality_mean = qsum / static_cast<double>(n);

    core::MetRequest req;
    req.measure = core::Measure::kCorrelation;
    req.tau = 0.5;
    req.greater = true;
    auto met = dirty->Met(req);
    if (!met.ok() || !met->quality.populated) {
      std::fprintf(stderr, "FAIL: MET over the dirty stream did not answer with quality\n");
      return 1;
    }
    result.met_pairs = met->pairs.size();
    result.met_min_score = met->quality.min_score;
  }

  std::printf("# bench_streaming --dirty — dirty-stream refresh (DESIGN.md §12)\n");
  std::printf("metric,value\n");
  std::printf("dirty_refresh_mean_us,%.1f\n", result.dirty_mean_us);
  std::printf("dense_refresh_mean_us,%.1f\n", result.dense_mean_us);
  std::printf("dirty_over_dense,%.3f\n", result.dirty_mean_us / result.dense_mean_us);
  std::printf("gap_ratio,%.4f\n", result.gap_ratio);
  std::printf("fill_ratio,%.4f\n", result.fill_ratio);
  std::printf("quality_min,%.4f\n", result.quality_min);
  std::printf("quality_mean,%.4f\n", result.quality_mean);
  std::printf("met_pairs,%zu\n", result.met_pairs);
  std::printf("met_min_score,%.4f\n", result.met_min_score);

  if (json) {
    FILE* out = out_path.empty() ? stdout : std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"context\": {\"executable\": \"bench_streaming\", "
                 "\"mode\": \"dirty\", \"kernel_backend\": \"%s\"},\n  \"benchmarks\": [\n",
                 core::kernels::ActiveBackendName());
    std::fprintf(out,
                 "    {\"name\": \"dirty_refresh/window:512/interval:16/gaps:5pct\", "
                 "\"run_type\": \"iteration\", \"iterations\": %zu, \"real_time\": %.3f, "
                 "\"cpu_time\": %.3f, \"time_unit\": \"us\", \"dense_us\": %.3f, "
                 "\"gap_ratio\": %.4f, \"fill_ratio\": %.4f, \"quality_min\": %.4f, "
                 "\"quality_mean\": %.4f, \"met_pairs\": %zu, \"met_min_score\": %.4f}\n",
                 result.refreshes, result.dirty_mean_us, result.dirty_mean_us,
                 result.dense_mean_us, result.gap_ratio, result.fill_ratio, result.quality_min,
                 result.quality_mean, result.met_pairs, result.met_min_score);
    std::fprintf(out, "  ]\n}\n");
    if (!out_path.empty()) std::fclose(out);
  }
  return 0;
}

Result RunConfig(const Config& config, const ts::Dataset& feed, std::size_t measured) {
  core::StreamingOptions options;
  options.window = config.window;
  options.rebuild_interval = config.interval;
  options.mode = config.mode;
  options.build.afclst.k = 6;
  options.build.build_dft = false;
  auto stream = core::StreamingAffinity::Create(feed.matrix.names(), options);
  if (!stream.ok()) {
    std::fprintf(stderr, "create failed: %s\n", stream.status().ToString().c_str());
    std::exit(1);
  }

  std::vector<double> row(feed.matrix.n());
  std::size_t next = 0;
  const auto append = [&]() {
    for (std::size_t j = 0; j < feed.matrix.n(); ++j) {
      row[j] = feed.matrix.matrix()(next % feed.matrix.m(), j);
    }
    ++next;
    const auto result = stream->Append(row);
    if (!result.ok()) {
      std::fprintf(stderr, "append failed: %s\n", result.status.ToString().c_str());
      std::exit(1);
    }
    return result;
  };

  // Warm up through the first full build plus one refresh.
  while (!stream->ready()) append();
  for (std::size_t i = 0; i < config.interval; ++i) append();

  Result out;
  out.config = config;
  out.min_seconds = 1e300;
  double total = 0;
  for (std::size_t r = 0; r < measured; ++r) {
    Stopwatch watch;
    bool refreshed = false;
    for (std::size_t i = 0; i < config.interval; ++i) refreshed |= append().refreshed;
    const double seconds = watch.ElapsedSeconds();
    if (!refreshed) {
      std::fprintf(stderr, "expected a refresh per interval\n");
      std::exit(1);
    }
    total += seconds;
    out.min_seconds = std::min(out.min_seconds, seconds);
    ++out.refreshes;
  }
  out.mean_seconds = total / static_cast<double>(out.refreshes);
  out.refits = stream->maintenance().relationships_refit;
  out.recompute_blocks_touched = stream->maintenance().recompute_blocks_touched;
  out.recompute_blocks_reused = stream->maintenance().recompute_blocks_reused;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool quick = false;
  bool dot12 = false;
  bool serve = false;
  bool serve_publish = false;
  bool dirty = false;
  std::string out_path;
  std::vector<std::size_t> shard_counts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--benchmark_format=json") == 0) json = true;
    else if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) out_path = argv[i] + 16;
    else if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    else if (std::strcmp(argv[i], "--dot12") == 0) dot12 = true;
    else if (std::strcmp(argv[i], "--serve") == 0) serve = true;
    else if (std::strcmp(argv[i], "--serve-publish") == 0) serve_publish = true;
    else if (std::strcmp(argv[i], "--dirty") == 0) dirty = true;
    else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      for (const char* p = argv[i] + 9; *p != '\0';) {
        char* end = nullptr;
        const unsigned long v = std::strtoul(p, &end, 10);
        if (end == p || v == 0) {
          std::fprintf(stderr, "bad --shards list\n");
          return 1;
        }
        shard_counts.push_back(static_cast<std::size_t>(v));
        p = *end == ',' ? end + 1 : end;
      }
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: %s [--quick] [--dot12] [--serve] [--serve-publish] [--dirty] "
                  "[--shards=N,M,...] [--benchmark_format=json] [--benchmark_out=FILE]\n",
                  argv[0]);
      return 0;
    }
  }

  if (dirty) {
    return RunDirtySweep(quick, json, out_path);
  }
  if (serve_publish) {
    return RunServePublishSweep(quick, json, out_path);
  }
  if (serve) {
    return RunServeSweep(quick, json, out_path);
  }
  if (dot12) {
    return RunDot12Sweep(quick, json, out_path);
  }
  if (!shard_counts.empty()) {
    return RunShardSweep(shard_counts, quick, json, out_path);
  }

  // Synthetic stock generator (Table 3 stand-in) at a width that keeps the
  // rebuild baseline affordable (the paper's n=996 would take minutes per
  // rebuild config; the incremental/rebuild gap only widens with n).
  ts::DatasetSpec spec;
  spec.num_series = 128;
  spec.num_samples = 2048;
  spec.num_clusters = 6;
  spec.noise_level = 0.015;
  spec.seed = 7;
  const ts::Dataset feed = ts::MakeStockData(spec);

  const std::size_t measured_incremental = quick ? 8 : 32;
  const std::size_t measured_rebuild = quick ? 4 : 12;

  std::vector<Config> configs;
  for (const std::size_t window : {std::size_t{256}, std::size_t{1024}}) {
    for (const std::size_t interval : {std::size_t{1}, std::size_t{16}}) {
      configs.push_back({window, interval, core::UpdateMode::kIncremental});
      configs.push_back({window, interval, core::UpdateMode::kRebuild});
    }
  }

  std::printf("# bench_streaming — steady-state refresh latency, stock generator "
              "(n=%zu)\n", spec.num_series);
  std::printf("window,interval,mode,refreshes,mean_us,min_us\n");
  std::vector<Result> results;
  for (const Config& config : configs) {
    const std::size_t measured =
        config.mode == core::UpdateMode::kIncremental ? measured_incremental : measured_rebuild;
    Result r = RunConfig(config, feed, measured);
    results.push_back(r);
    std::printf("%zu,%zu,%s,%zu,%.1f,%.1f\n", config.window, config.interval,
                ModeName(config.mode), r.refreshes, r.mean_seconds * 1e6, r.min_seconds * 1e6);
  }

  // Headline speedups (the ≥5× acceptance bar lives at 1024/1).
  std::printf("\nwindow,interval,rebuild_over_incremental\n");
  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    const Result& inc = results[i];
    const Result& reb = results[i + 1];
    std::printf("%zu,%zu,%.2fx\n", inc.config.window, inc.config.interval,
                reb.mean_seconds / inc.mean_seconds);
  }

  if (json) {
    FILE* out = out_path.empty() ? stdout : std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"context\": {\"executable\": \"bench_streaming\", "
                 "\"num_series\": %zu, \"kernel_backend\": \"%s\"},\n  \"benchmarks\": [\n",
                 spec.num_series, core::kernels::ActiveBackendName());
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Result& r = results[i];
      std::fprintf(out,
                   "    {\"name\": \"steady_refresh/window:%zu/interval:%zu/mode:%s\", "
                   "\"run_type\": \"iteration\", \"iterations\": %zu, "
                   "\"real_time\": %.3f, \"cpu_time\": %.3f, \"time_unit\": \"us\", "
                   "\"refits\": %zu, "
                   "\"recompute_blocks_touched\": %zu, "
                   "\"recompute_blocks_reused\": %zu}%s\n",
                   r.config.window, r.config.interval, ModeName(r.config.mode), r.refreshes,
                   r.mean_seconds * 1e6, r.mean_seconds * 1e6, r.refits,
                   r.recompute_blocks_touched, r.recompute_blocks_reused,
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    if (!out_path.empty()) std::fclose(out);
  }
  return 0;
}
