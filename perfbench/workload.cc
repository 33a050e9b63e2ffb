// perfbench_workload — runs one fixed-work workload of the repo benchmark
// (perfbench/README.md) and prints its raw measurements as one JSON object.
//
//   perfbench_workload --workload slide|query|sharded --seed N --seconds S
//                    [--trace 0|1]
//
// Inputs are generated from the seed before any timing starts. One client
// drives the public facades (core::StreamingAffinity, shard::ShardedAffinity,
// ts::StreamAligner) in a closed loop, engine threads = 1. The schedule is a
// fixed sequence of operations whose length is proportional to --seconds, so
// one seed always runs the same operations. Every public call is timed with
// steady_clock; with --trace 1 each call is also kept as a span (name, start,
// end, step id) and all spans are written out at exit. Counters come from
// return values and from maintenance(), read outside the timed calls. After
// the timed phase, sampled answers are recomputed with the naive (WN)
// kernels of core/measures.h. run.py turns this output into metrics.

#include <emmintrin.h>  // _mm_clflush, _mm_mfence: the calibrator runs on x86 only
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/random.h"
#include "core/kernels.h"
#include "core/measures.h"
#include "core/streaming.h"
#include "shard/sharded.h"
#include "ts/generators.h"
#include "ts/ingest.h"

namespace {

using affinity::Status;
using affinity::Xoshiro256;
namespace core = affinity::core;
namespace shard = affinity::shard;
namespace ts = affinity::ts;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_workload: %s\n", message.c_str());
  std::exit(2);
}

// --- Workload definitions ---------------------------------------------------

enum class Op : int { kMet = 0, kMer = 1, kTopK = 2, kMec = 3 };
constexpr int kNumOps = 4;
const char* const kOpNames[kNumOps] = {"met", "mer", "topk", "mec"};

// Oracle tolerances, in correlation units (covariances are compared
// relative to sigma_u sigma_v). Snapshot answers come from delta-maintained
// WA/SCAPE state, which tracks the from-scratch values to round-off
// (DESIGN.md §8, §10); kTol is the bound the repository's own WA-against-
// naive test uses (tests/integration_test.cc). On dirty sensor series
// deviations of 1.1e-8 occur. An entity whose oracle value lies within
// kGuard of a bound (or of the k-th value, for top-k) counts neither way.
constexpr double kTol = 1e-7;
constexpr double kGuard = 1e-7;
constexpr double kMinQuality = 0.9;
constexpr std::size_t kTopK = 10;
constexpr std::size_t kMecIds = 64;
// Set-up repetitions per run; setup_s is their median.
constexpr std::size_t kSetups = 7;

struct Workload {
  std::string name;              // slide, query or sharded
  std::string generator;         // "stock" or "sensor"
  std::size_t n = 0;             // series
  std::size_t window = 0;        // analysis window, rows
  std::size_t interval = 0;      // rebuild_interval
  std::size_t k = 0;             // AFCLST clusters
  std::size_t shards = 1;        // range shards
  double steps_per_second = 0;   // schedule length per --seconds
  std::size_t warm_steps = 0;    // excluded from measurement
  std::size_t verify_every = 0;  // keep every Nth answer for the oracle
};

// Sizes follow the benchmark's README; steps_per_second makes one run last
// about --seconds on the reference host.
Workload MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "slide") {
    w.generator = "stock";
    w.n = 128, w.window = 4096, w.interval = 1, w.k = 6;
    w.steps_per_second = 105, w.warm_steps = 12, w.verify_every = 53;
  } else if (name == "query") {
    w.generator = "sensor";
    w.n = 256, w.window = 1024, w.interval = 64, w.k = 8;
    w.steps_per_second = 700, w.warm_steps = 384, w.verify_every = 37;
  } else if (name == "sharded") {
    w.generator = "stock";
    w.n = 256, w.window = 1024, w.interval = 16, w.k = 4, w.shards = 4;
    w.steps_per_second = 105, w.warm_steps = 32, w.verify_every = 61;
  } else {
    Die("unknown workload '" + name + "' (slide, query, sharded)");
  }
  return w;
}

struct QuerySpec {
  Op op = Op::kMet;
  double a = 0.0;                 // MET τ / MER lo
  double b = 0.0;                 // MER hi
  double min_quality = 0.0;       // 0 = no quality predicate
  std::vector<ts::SeriesId> ids;  // MEC ψ
};

// One workload step: an optional ingest, then an optional query.
struct Step {
  bool ingest = false;
  int query = -1;
};

QuerySpec DrawQuery(Op op, std::size_t n, Xoshiro256* rng) {
  QuerySpec q;
  q.op = op;
  switch (op) {
    case Op::kMet:
      q.a = rng->Uniform(0.90, 0.99);
      break;
    case Op::kMer:
      q.a = rng->Uniform(0.85, 0.97);
      q.b = q.a + 0.02;
      break;
    case Op::kTopK:
      break;
    case Op::kMec: {
      std::vector<ts::SeriesId> all(n);
      for (std::size_t i = 0; i < n; ++i) all[i] = static_cast<ts::SeriesId>(i);
      for (std::size_t i = 0; i < kMecIds; ++i) {
        std::swap(all[i], all[i + rng->NextBounded(n - i)]);
      }
      q.ids.assign(all.begin(), all.begin() + kMecIds);
      break;
    }
  }
  return q;
}

// --- Inputs -----------------------------------------------------------------

// The synthetic series of a workload are fixed (the generators' Table 3
// seeds), so every run seed meets the same correlation structure and the
// work per query stays comparable across seeds. The run seed picks where in
// that stream the run starts, among the first kMaxOffset rows, every query
// parameter, and the dirt of the `query` feed. Starts up to 1024 rows apart
// moved the SCAPE entries examined per `slide` top-k query by ±8%.
constexpr std::size_t kMaxOffset = 64;

// `samples` rows of the workload's series, starting at a seeded offset.
std::vector<std::vector<double>> Generate(const Workload& w, std::size_t samples,
                                          std::uint64_t seed) {
  ts::DatasetSpec spec;
  spec.num_series = w.n;
  spec.num_samples = samples + kMaxOffset;
  spec.num_clusters = w.generator == "stock" ? std::max<std::size_t>(w.k, 6) : w.k;
  spec.noise_level = w.generator == "stock" ? 0.015 : 0.02;
  spec.seed = w.generator == "stock" ? 7 : 42;
  const ts::Dataset data = w.generator == "stock" ? ts::MakeStockData(spec)
                                                  : ts::MakeSensorData(spec);
  const std::size_t offset = Xoshiro256(seed ^ 0x5eed0ff5e7ULL).NextBounded(kMaxOffset);
  std::vector<std::vector<double>> rows(samples, std::vector<double>(w.n));
  for (std::size_t t = 0; t < samples; ++t) {
    for (std::size_t j = 0; j < w.n; ++j) rows[t][j] = data.matrix.matrix()(offset + t, j);
  }
  return rows;
}

std::vector<std::string> SeriesNames(std::size_t n) {
  std::vector<std::string> names(n);
  for (std::size_t j = 0; j < n; ++j) names[j] = "s" + std::to_string(j);
  return names;
}

// A timestamped sample for the aligner.
struct Event {
  ts::SeriesId series = 0;
  double timestamp = 0.0;
  double value = 0.0;
};

// The dirty sensor feed of the `query` workload: samples arrive jittered,
// some missing, some non-finite, a few late or duplicated, and up to four
// series (four seeded draws) suffer long outages. Step t delivers events[offset[t], offset[t+1]);
// afterwards the program emits every slot up to t - kLateness.
struct DirtyFeed {
  static constexpr std::int64_t kLateness = 2;
  std::vector<Event> events;
  std::vector<std::size_t> offset;
};

DirtyFeed MakeDirtyFeed(const std::vector<std::vector<double>>& rows, std::uint64_t seed) {
  const std::size_t slots = rows.size();
  const std::size_t n = rows[0].size();
  Xoshiro256 rng(seed ^ 0xd1b54a32d192ed03ULL);
  std::vector<std::uint8_t> dirty(n, 0);
  for (int i = 0; i < 4; ++i) dirty[rng.NextBounded(n)] = 1;
  std::vector<std::vector<Event>> by_step(slots + 8);
  std::vector<std::size_t> outage(n, 0);
  for (std::size_t s = 0; s < slots; ++s) {
    for (std::size_t j = 0; j < n; ++j) {
      if (outage[j] > 0) {
        --outage[j];
        continue;
      }
      if (dirty[j] != 0 && rng.NextDouble() < 0.05) {
        outage[j] = 4 + rng.NextBounded(36);
        continue;
      }
      const double u = rng.NextDouble();
      if (u < 0.02) continue;  // dropped sample
      Event e;
      e.series = static_cast<ts::SeriesId>(j);
      e.timestamp = static_cast<double>(s);
      e.value = rows[s][j];
      if (u < 0.022) e.value = std::nan("");
      if (rng.NextDouble() < 0.2) e.timestamp += rng.Uniform(-0.3, 0.3);
      std::size_t delay = 0;
      if (rng.NextDouble() < 0.01) delay = 1 + rng.NextBounded(4);  // > kLateness → late
      by_step[s + delay].push_back(e);
      // A re-sent sample: the aligner counts a duplicate.
      if (rng.NextDouble() < 0.002) by_step[s + delay].push_back(e);
    }
  }
  DirtyFeed feed;
  feed.offset.push_back(0);
  for (const auto& step : by_step) {
    feed.events.insert(feed.events.end(), step.begin(), step.end());
    feed.offset.push_back(feed.events.size());
  }
  return feed;
}

// --- Recording --------------------------------------------------------------

enum SpanName : int {
  kSpanAppend = 0,    // StreamingAffinity::Append / AppendMasked
  kSpanRouterAppend,  // ShardedAffinity::Append
  kSpanAlign,         // StreamAligner::Push ... EmitUpTo for one step
  kSpanQuery,         // + Op: one facade query
  kNumSpanNames = kSpanQuery + kNumOps,
};
const char* const kSpanNames[kNumSpanNames] = {
    "core.streaming.append",
    "shard.router.append",
    "ts.ingest.align",
    "query.met",
    "query.mer",
    "query.topk",
    "query.mec",
};

struct Span {
  int name = 0;
  bool published = false;  // append spans: the call published an epoch
  std::uint64_t step = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Order-independent answer checksum: a sum of mixed words per element.
std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}
std::uint64_t Bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}
std::uint64_t PairWord(ts::SequencePair p) {
  return (static_cast<std::uint64_t>(p.u) << 32) | p.v;
}

// An answer kept for the oracle.
struct Kept {
  std::size_t index = 0;      // answer index within the measured phase
  std::size_t spec = 0;       // index into the query specs
  std::size_t epoch_end = 0;  // rows ingested when the answering epoch was published
  std::vector<ts::SequencePair> pairs;
  std::vector<core::ScapeTopKEntry> entries;
  affinity::la::Matrix mec;
};

const core::SelectionResult& Core(const core::SelectionResult& r) { return r; }
const core::SelectionResult& Core(const shard::ShardedSelection& r) { return r.result; }
const core::TopKResult& Core(const core::TopKResult& r) { return r; }
const core::TopKResult& Core(const shard::ShardedTopK& r) { return r.result; }
const core::MecResponse& Core(const core::MecResponse& r) { return r; }
const core::MecResponse& Core(const shard::ShardedMec& r) { return r.response; }

std::size_t SnapshotAge(const core::StreamingAffinity& s) { return s.snapshot_age(); }
std::size_t SnapshotAge(const shard::ShardedAffinity& s) { return s.snapshot_ages()[0]; }

// Durations of one kind of call, with the time each started.
struct Samples {
  std::vector<double> us;
  std::vector<std::int64_t> at_ns;

  void Add(std::int64_t start, std::int64_t end) {
    us.push_back(static_cast<double>(end - start) / 1e3);
    at_ns.push_back(start);
  }
  void Reserve(std::size_t n) {
    us.reserve(n);
    at_ns.reserve(n);
  }
};

// A fixed unit of work that belongs to the benchmark, not the program:
// 2000 independent lookups of seeded keys in a 2 MiB open-addressing hash
// table. Just before the timed lookups, the cache line of each key's home
// slot is flushed from every cache level, so each lookup reads memory (a
// probe leaves that line for about 2% of keys). Its time therefore depends
// on how fast the host serves memory at that moment, not on what the
// program left in the caches. A chunk runs every kPeriodNs between
// operations; run.py reads every timing against the chunks around it
// (README.md, "Host speed").
class Calibrator {
 public:
  static constexpr std::size_t kKeys = 65536;
  static constexpr std::size_t kSlots = std::size_t{1} << 18;  // a quarter full
  static constexpr std::size_t kLookups = 2000;
  static constexpr std::int64_t kPeriodNs = 20'000'000;

  Calibrator() : keys_(kKeys), slots_(kSlots, 0) {
    Xoshiro256 rng(0xca1b);
    for (std::uint64_t& key : keys_) {
      key = rng.Next() | 1;  // 0 marks an empty slot
      std::size_t h = Home(key);
      while (slots_[h] != 0) h = (h + 1) % kSlots;
      slots_[h] = key;
    }
  }

  std::vector<std::int64_t> at_ns, chunk_ns;

  // Runs one chunk when kPeriodNs have passed since the last one.
  void Tick() {
    if (NowNs() - last_ns_ >= kPeriodNs) Chunk();
  }

  void Chunk() {
    for (std::size_t i = 0; i < kLookups; ++i) _mm_clflush(&slots_[Home(Key(i))]);
    _mm_mfence();
    const std::int64_t start = NowNs();
    for (std::size_t i = 0; i < kLookups; ++i) {
      const std::uint64_t key = Key(i);
      std::size_t h = Home(key);
      while (slots_[h] != key) h = (h + 1) % kSlots;
      found_ += h;
    }
    last_ns_ = NowNs();
    at_ns.push_back(start);
    chunk_ns.push_back(last_ns_ - start);
    next_key_ = (next_key_ + kLookups) % kKeys;
  }

  // Read by the output, so the work cannot be optimized away.
  double sink() const { return static_cast<double>(found_); }

 private:
  static std::size_t Home(std::uint64_t key) { return Mix(key) % kSlots; }
  std::uint64_t Key(std::size_t i) const { return keys_[(next_key_ + i) % kKeys]; }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> slots_;
  std::size_t next_key_ = 0;  // first key of the next chunk's lookups
  std::uint64_t found_ = 0;
  std::int64_t last_ns_ = 0;
};

class Recorder {
 public:
  explicit Recorder(bool trace) : trace_(trace) {}

  bool recording = false;  // false during set-up and warm-up
  std::uint64_t step = 0;

  Samples setup, first_build;
  Samples publish, append;  // ingest operations that did / did not publish
  Samples query[kNumOps];
  std::size_t rows = 0;
  std::vector<Span> spans;
  std::map<std::string, double> counters;
  std::uint64_t checksum = 0;
  std::size_t attempted = 0;
  std::size_t answers = 0;
  std::vector<std::string> failures;
  std::vector<Kept> kept;
  std::size_t verify_every = 1;

  void AddSpan(int name, std::int64_t start, std::int64_t end, bool published = false) {
    if (trace_ && recording) spans.push_back(Span{name, published, step, start, end});
  }

  // One ingest operation: `rows_appended` rows went in between start and end.
  void Ingest(std::int64_t start, std::int64_t end, const core::AppendResult& r,
              std::size_t rows_appended) {
    if (!recording) {
      if (!r.ok()) Die("warm-up append failed: " + r.status.ToString());
      return;
    }
    ++attempted;
    rows += rows_appended;
    (r.refreshed ? publish : append).Add(start, end);
    counters["ops.ingest"] += 1;
    counters["ops.rows"] += static_cast<double>(rows_appended);
    if (r.refreshed) counters["ops.published"] += 1;
    if (r.escalated) counters["ops.escalated"] += 1;
    checksum += Mix(0xa11ce ^ (static_cast<std::uint64_t>(r.refreshed) << 1) ^ r.escalated);
    if (!r.ok()) Fail("ingest", r.status);
  }

  // Times one facade query and accounts its answer.
  template <class Facade, class Call>
  void Query(const Facade& facade, Op op, std::size_t spec, Call&& call) {
    const std::int64_t start = NowNs();
    auto result = call();
    const std::int64_t end = NowNs();
    if (!recording) {
      if (!result.ok()) Die("warm-up query failed: " + result.status().ToString());
      return;
    }
    const int o = static_cast<int>(op);
    AddSpan(kSpanQuery + o, start, end);
    ++attempted;
    query[o].Add(start, end);
    counters[std::string("ops.") + kOpNames[o]] += 1;
    if (!result.ok()) {
      Fail(kOpNames[o], result.status());
      return;
    }
    const std::size_t index = answers++;
    Kept* keep = nullptr;
    if (index % verify_every == 0) {
      kept.push_back(Kept{});
      keep = &kept.back();
      keep->index = index;
      keep->spec = spec;
      keep->epoch_end = facade.rows_ingested() - SnapshotAge(facade);
    }
    Account(op, Core(*result), keep);
  }

 private:
  void Fail(const char* what, const Status& status) {
    failures.push_back("operation " + std::to_string(attempted - 1) + " (" + what + ", step " +
                       std::to_string(step) + "): " + status.ToString());
  }

  void Plan(const std::string& prefix, const core::ExecutedPlan& plan,
            const core::AnswerQuality& quality) {
    const char* method = "other";
    if (plan.method == core::QueryMethod::kScape) method = "scape";
    if (plan.method == core::QueryMethod::kAffine) method = "wa";
    if (plan.method == core::QueryMethod::kNaive) method = "wn";
    counters["plan." + prefix + "." + method] += 1;
    counters["plan." + prefix + ".estimated_cost"] += plan.estimated_cost;
    counters["quality.excluded"] += static_cast<double>(quality.excluded);
  }

  void Account(Op op, const core::SelectionResult& r, Kept* keep) {
    const std::string p = kOpNames[static_cast<int>(op)];
    counters["entities." + p] += static_cast<double>(r.pairs.size() + r.series.size());
    counters["scape." + p + ".accepted"] += static_cast<double>(r.prune.accepted_unverified);
    counters["scape." + p + ".verified"] += static_cast<double>(r.prune.verified);
    Plan(p, r.plan, r.quality);
    std::uint64_t h = Mix(static_cast<std::uint64_t>(op) + 1 + (r.pairs.size() << 8));
    for (const auto& pair : r.pairs) h += Mix(PairWord(pair));
    checksum += Mix(h);
    if (keep != nullptr) keep->pairs = r.pairs;
  }

  void Account(Op op, const core::TopKResult& r, Kept* keep) {
    counters["entities.topk"] += static_cast<double>(r.entries.size());
    counters["scape.topk.examined"] += static_cast<double>(r.examined);
    Plan("topk", r.plan, r.quality);
    std::uint64_t h = Mix(static_cast<std::uint64_t>(op) + 1 + (r.entries.size() << 8));
    for (const auto& e : r.entries) h += Mix(PairWord(e.pair) ^ Mix(Bits(e.value)));
    checksum += Mix(h);
    if (keep != nullptr) keep->entries = r.entries;
  }

  void Account(Op op, const core::MecResponse& r, Kept* keep) {
    const std::size_t c = r.pair_values.rows();
    counters["entities.mec"] += static_cast<double>(c * (c - 1) / 2);
    Plan("mec", r.plan, r.quality);
    std::uint64_t h = Mix(static_cast<std::uint64_t>(op) + 1 + (c << 8));
    for (std::size_t i = 0; i < c; ++i) {
      for (std::size_t j = i + 1; j < c; ++j) {
        h += Mix(Bits(r.pair_values(i, j)) ^ (i << 20 | j));
      }
    }
    checksum += Mix(h);
    if (keep != nullptr) keep->mec = r.pair_values;
  }

  bool trace_;
};

template <class Facade>
void SendQuery(const Facade& f, const QuerySpec& q, std::size_t spec, Recorder* rec) {
  const core::FreshnessOptions fresh;  // kAuto, no staleness bound
  switch (q.op) {
    case Op::kMet: {
      core::MetRequest r{core::Measure::kCorrelation, q.a, true, q.min_quality};
      rec->Query(f, q.op, spec, [&] { return f.Met(r, fresh); });
      break;
    }
    case Op::kMer: {
      core::MerRequest r{core::Measure::kCorrelation, q.a, q.b, q.min_quality};
      rec->Query(f, q.op, spec, [&] { return f.Mer(r, fresh); });
      break;
    }
    case Op::kTopK: {
      core::TopKRequest r{core::Measure::kCorrelation, kTopK, true, q.min_quality};
      rec->Query(f, q.op, spec, [&] { return f.TopK(r, fresh); });
      break;
    }
    case Op::kMec: {
      core::MecRequest r{core::Measure::kCovariance, q.ids, 0.0};
      rec->Query(f, q.op, spec, [&] { return f.Mec(r, fresh); });
      break;
    }
  }
}

// --- Ingest paths -----------------------------------------------------------

// Dense rows straight into Append (slide, sharded).
template <class Facade>
struct DenseIngest {
  const std::vector<std::vector<double>>* rows = nullptr;
  int span = kSpanAppend;

  void Reset() {}
  const double* Row(std::size_t r) const { return (*rows)[r].data(); }

  core::AppendResult Run(Facade& f, Recorder* rec) {
    const std::vector<double>& row = (*rows)[f.rows_ingested()];
    const std::int64_t start = NowNs();
    core::AppendResult r = f.Append(row);
    const std::int64_t end = NowNs();
    rec->AddSpan(span, start, end, r.refreshed);
    rec->Ingest(start, end, r, 1);
    return r;
  }
};

// Timestamped samples through the aligner, then AppendMasked (query).
struct AlignedIngest {
  const DirtyFeed* feed = nullptr;
  std::size_t n = 0;
  std::optional<ts::StreamAligner> aligner;
  std::size_t next_step = 0;
  std::vector<ts::AlignedRow> out;
  // The dense repaired rows, for the oracle: room for one row per step of
  // the feed, allocated and written before the peak RSS is reset, so that
  // filling it adds nothing to peak_rss_mb.
  std::vector<double> emitted;
  std::size_t emitted_rows = 0;

  AlignedIngest(const DirtyFeed* f, std::size_t series)
      : feed(f), n(series), emitted((f->offset.size() - 1) * series) {}

  void Reset() {
    aligner.emplace(n, ts::IngestOptions{});
    next_step = 0;
    emitted_rows = 0;
  }
  const double* Row(std::size_t r) const { return emitted.data() + r * n; }

  core::AppendResult Run(core::StreamingAffinity& f, Recorder* rec) {
    const std::size_t t = next_step++;
    out.clear();
    const std::int64_t start = NowNs();
    for (std::size_t e = feed->offset[t]; e < feed->offset[t + 1]; ++e) {
      const Event& ev = feed->events[e];
      if (Status s = aligner->Push(ev.series, ev.timestamp, ev.value); !s.ok()) {
        Die("aligner rejected a sample: " + s.ToString());
      }
    }
    aligner->EmitUpTo(static_cast<double>(static_cast<std::int64_t>(t) -
                                          DirtyFeed::kLateness + 1),
                      &out);
    const std::int64_t aligned = NowNs();
    core::AppendResult r;
    for (const ts::AlignedRow& row : out) {
      core::AppendResult one = f.AppendMasked(row);
      if (!one.ok() && r.ok()) r.status = one.status;
      r.refreshed = r.refreshed || one.refreshed;
      r.escalated = r.escalated || one.escalated;
    }
    const std::int64_t end = NowNs();
    rec->AddSpan(kSpanAlign, start, aligned);
    rec->AddSpan(kSpanAppend, aligned, end, r.refreshed);
    rec->Ingest(start, end, r, out.size());
    for (const ts::AlignedRow& row : out) {
      std::copy(row.values.begin(), row.values.end(), emitted.begin() + emitted_rows++ * n);
    }
    return r;
  }
};

// --- Oracle -----------------------------------------------------------------

// WN values over one epoch's window, computed on first use.
class EpochOracle {
 public:
  EpochOracle(std::size_t n, std::size_t window) : n_(n), window_(window) {}

  template <class Ingest>
  void Load(const Ingest& ingest, std::size_t end) {
    if (end == end_) return;
    end_ = end;
    cols_.assign(n_, std::vector<double>(window_));
    for (std::size_t t = 0; t < window_; ++t) {
      const double* row = ingest.Row(end - window_ + t);
      for (std::size_t j = 0; j < n_; ++j) cols_[j][t] = row[j];
    }
    corr_.clear();
  }

  double Corr(ts::SeriesId u, ts::SeriesId v) {
    if (corr_.empty()) {
      corr_.assign(n_ * n_, 0.0);
      for (std::size_t a = 0; a < n_; ++a) {
        for (std::size_t b = a + 1; b < n_; ++b) {
          corr_[a * n_ + b] = Pair(core::Measure::kCorrelation, a, b);
        }
      }
    }
    return u < v ? corr_[u * n_ + v] : corr_[v * n_ + u];
  }

  double Pair(core::Measure m, std::size_t u, std::size_t v) const {
    auto value = core::NaivePairMeasure(m, cols_[u].data(), cols_[v].data(), window_);
    if (!value.ok()) Die("oracle: " + value.status().ToString());
    return *value;
  }

  std::size_t n() const { return n_; }

 private:
  std::size_t n_, window_;
  std::size_t end_ = static_cast<std::size_t>(-1);
  std::vector<std::vector<double>> cols_;
  std::vector<double> corr_;
};

// Checks one kept answer against the oracle; returns "" when it agrees.
std::string Verify(const Kept& k, const QuerySpec& q, EpochOracle* o,
                   const std::vector<double>* scores) {
  const std::size_t n = o->n();
  const auto eligible = [&](std::size_t u, std::size_t v) {
    return q.min_quality <= 0.0 || scores == nullptr ||
           ((*scores)[u] >= q.min_quality && (*scores)[v] >= q.min_quality);
  };
  if (q.op == Op::kMet || q.op == Op::kMer) {
    std::vector<std::uint8_t> got(n * n, 0);
    for (const auto& p : k.pairs) {
      if (p.u >= p.v || p.v >= n) return "malformed pair";
      if (got[p.u * n + p.v]++ != 0) return "duplicate pair";
    }
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = u + 1; v < n; ++v) {
        const double c = o->Corr(u, v);
        bool guard = std::fabs(c - q.a) <= kGuard;
        bool in = c > q.a;
        if (q.op == Op::kMer) {
          guard = guard || std::fabs(c - q.b) <= kGuard;
          in = in && c < q.b;
        }
        if (guard) continue;
        in = in && eligible(u, v);
        if (in != (got[u * n + v] != 0)) {
          char buf[160];
          std::snprintf(buf, sizeof buf, "pair (%zu,%zu) corr=%.17g %s", u, v, c,
                        in ? "missing" : "unexpected");
          return buf;
        }
      }
    }
    return "";
  }
  if (q.op == Op::kTopK) {
    std::vector<double> values;
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = u + 1; v < n; ++v) {
        if (eligible(u, v)) values.push_back(o->Corr(u, v));
      }
    }
    const std::size_t want = std::min(kTopK, values.size());
    if (k.entries.size() != want) return "wrong entry count";
    std::nth_element(values.begin(), values.begin() + (want - 1), values.end(),
                     std::greater<double>());
    const double kth = values[want - 1];
    std::vector<std::uint8_t> got(n * n, 0);
    for (const auto& e : k.entries) {
      if (e.pair.u >= e.pair.v || e.pair.v >= n) return "malformed entry";
      const double c = o->Corr(e.pair.u, e.pair.v);
      if (std::fabs(c - e.value) > kTol) return "entry value off the oracle";
      if (c < kth - kGuard || !eligible(e.pair.u, e.pair.v)) return "entry below the k-th value";
      got[e.pair.u * n + e.pair.v] = 1;
    }
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = u + 1; v < n; ++v) {
        if (eligible(u, v) && o->Corr(u, v) > kth + kGuard && got[u * n + v] == 0) {
          return "top-k entry missing";
        }
      }
    }
    return "";
  }
  const std::size_t c = q.ids.size();
  if (k.mec.rows() != c || k.mec.cols() != c) return "wrong MEC shape";
  std::vector<double> var(c);
  for (std::size_t i = 0; i < c; ++i) {
    var[i] = o->Pair(core::Measure::kCovariance, q.ids[i], q.ids[i]);
  }
  for (std::size_t i = 0; i < c; ++i) {
    for (std::size_t j = i + 1; j < c; ++j) {
      const double want = o->Pair(core::Measure::kCovariance, q.ids[i], q.ids[j]);
      const double scale = std::sqrt(std::max(var[i] * var[j], 0.0));
      if (std::fabs(k.mec(i, j) - want) > kTol * std::max(scale, 1e-300)) {
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "MEC cell (%u,%u) = %.17g, oracle %.17g, sigma_u sigma_v %.3g", q.ids[i],
                      q.ids[j], k.mec(i, j), want, scale);
        return buf;
      }
    }
  }
  return "";
}

// --- Output -----------------------------------------------------------------

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void PrintInts(const std::string& key, const std::vector<std::int64_t>& v) {
  std::printf("\"%s\": [", key.c_str());
  for (std::size_t i = 0; i < v.size(); ++i) std::printf(i ? ",%" PRId64 : "%" PRId64, v[i]);
  std::printf("],\n");
}

void PrintSamples(const std::string& key, const Samples& s) {
  std::printf("\"%s_us\": [", key.c_str());
  for (std::size_t i = 0; i < s.us.size(); ++i) std::printf(i ? ",%.9g" : "%.9g", s.us[i]);
  std::printf("],\n");
  PrintInts(key + "_at", s.at_ns);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else {
      Die("unknown argument " + key);
    }
  }
  if (a.workload.empty() || !(a.seconds > 0)) {
    Die("usage: perfbench_workload --workload NAME --seed N --seconds S [--trace 0|1]");
  }
  return a;
}

// A field of /proc/self/status, in KiB (VmRSS, VmHWM).
long StatusKb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtol(line.c_str() + field.size() + 1, nullptr, 10);
    }
  }
  Die("no " + field + " in /proc/self/status");
}

// Returns freed heap pages to the system, resets the peak RSS (VmHWM) to
// the current RSS and returns that RSS. What the process holds now, the
// inputs above all, then does not count in VmHWM minus the value returned.
long ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  if (!clear) Die("cannot reset the peak RSS through /proc/self/clear_refs");
  return StatusKb("VmRSS");
}

// --- The run ----------------------------------------------------------------

template <class Facade, class Ingest, class Create>
int Run(const Args& args, const Workload& w, const std::vector<Step>& steps,
        const std::vector<QuerySpec>& specs, Ingest& ingest, Create create,
        std::map<std::string, double> (*layer_counters)(const Facade&, const Ingest&)) {
  Recorder rec(args.trace);
  rec.verify_every = w.verify_every;
  rec.spans.reserve(args.trace ? steps.size() * 3 : 0);
  for (auto& q : rec.query) q.Reserve(steps.size());
  rec.publish.Reserve(steps.size());
  rec.append.Reserve(steps.size());
  Calibrator cal;
  const long rss_base_kb = ResetPeakRss();

  // Set-up: Create → fill the window → first build → first epoch published.
  std::optional<Facade> facade;
  // Calibration chunks bracket every repetition (set-up is one unbroken
  // sequence of calls, so nothing runs inside it).
  for (std::size_t rep = 0; rep < kSetups; ++rep) {
    facade.reset();
    ingest.Reset();
    for (int c = 0; c < 3; ++c) cal.Chunk();
    const std::int64_t start = NowNs();
    auto created = create();
    if (!created.ok()) Die("create failed: " + created.status().ToString());
    facade.emplace(std::move(*created));
    std::int64_t build_start = 0, build_end = 0;
    while (!facade->ready()) {
      build_start = NowNs();
      core::AppendResult r = ingest.Run(*facade, &rec);
      build_end = NowNs();
      if (!r.ok()) Die("set-up append failed: " + r.status.ToString());
    }
    rec.setup.Add(start, NowNs());
    rec.first_build.Add(build_start, build_end);
    for (int c = 0; c < 3; ++c) cal.Chunk();
  }
  Facade& f = *facade;

  // Quality scores of each epoch a kept answer came from (the surface is
  // refreshed only at publication, so the current one is that epoch's).
  std::map<std::size_t, std::vector<double>> scores;
  const auto run_step = [&](const Step& s) {
    if (s.ingest) ingest.Run(f, &rec);
    if (s.query < 0) return;
    const std::size_t kept = rec.kept.size();
    SendQuery(f, specs[static_cast<std::size_t>(s.query)], static_cast<std::size_t>(s.query),
               &rec);
    if constexpr (std::is_same_v<Facade, core::StreamingAffinity>) {
      if (rec.kept.size() > kept) scores.try_emplace(rec.kept.back().epoch_end, f.quality_scores());
    }
  };

  for (std::size_t i = 0; i < w.warm_steps; ++i) {
    run_step(steps[i]);
    cal.Tick();
  }

  const auto before = layer_counters(f, ingest);
  rec.recording = true;
  const std::int64_t phase_start = NowNs();
  for (std::size_t i = w.warm_steps; i < steps.size(); ++i) {
    rec.step = i - w.warm_steps;
    run_step(steps[i]);
    cal.Tick();
  }
  const std::int64_t phase_end = NowNs();
  rec.recording = false;
  const long rss_hwm_kb = StatusKb("VmHWM");
  for (const auto& [key, value] : layer_counters(f, ingest)) {
    rec.counters[key] = value - (before.count(key) != 0 ? before.at(key) : 0.0);
  }

  // Oracle, after timing stops.
  EpochOracle oracle(w.n, w.window);
  std::size_t matched = 0;
  std::vector<std::string> mismatches;
  for (const Kept& k : rec.kept) {
    oracle.Load(ingest, k.epoch_end);
    const QuerySpec& q = specs[k.spec];
    const auto it = scores.find(k.epoch_end);
    const std::vector<double>* s = it != scores.end() ? &it->second : nullptr;
    if (q.min_quality > 0 && s == nullptr) Die("no quality scores recorded for an epoch");
    const std::string why = Verify(k, q, &oracle, s);
    if (why.empty()) {
      ++matched;
    } else {
      mismatches.push_back("answer " + std::to_string(k.index) + " (" +
                           kOpNames[static_cast<int>(q.op)] + "): " + why);
    }
  }
  for (const auto& m : rec.failures) std::fprintf(stderr, "non-OK %s\n", m.c_str());
  for (const auto& m : mismatches) std::fprintf(stderr, "mismatch %s\n", m.c_str());

  std::size_t counts[kNumOps] = {};
  for (std::size_t i = w.warm_steps; i < steps.size(); ++i) {
    const Step& s = steps[i];
    if (s.query >= 0) ++counts[static_cast<int>(specs[static_cast<std::size_t>(s.query)].op)];
  }
  std::printf("{\n\"stamp\": {\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"seconds\": %g, \"trace\": %d, \"nproc\": %ld, \"cpu\": \"%s\", "
              "\"backend\": \"%s\", \"threads\": 1, \"generator\": \"%s\", \"n\": %zu, "
              "\"window\": %zu, \"interval\": %zu, \"k\": %zu, \"shards\": %zu, "
              "\"setups\": %zu, \"warm_steps\": %zu, \"steps\": %zu, \"ops\": {\"met\": %zu, "
              "\"mer\": %zu, \"topk\": %zu, \"mec\": %zu}},\n",
              w.name.c_str(), args.seed, args.seconds, args.trace ? 1 : 0,
              sysconf(_SC_NPROCESSORS_ONLN), Escape(CpuModel()).c_str(),
              core::kernels::ActiveBackendName(), w.generator.c_str(), w.n, w.window, w.interval,
              w.k, w.shards, kSetups, w.warm_steps, steps.size() - w.warm_steps, counts[0],
              counts[1], counts[2], counts[3]);
  PrintSamples("setup", rec.setup);
  PrintSamples("first_build", rec.first_build);
  PrintSamples("publish", rec.publish);
  PrintSamples("append", rec.append);
  for (int o = 0; o < kNumOps; ++o) PrintSamples(kOpNames[o], rec.query[o]);
  PrintInts("cal_at", cal.at_ns);
  PrintInts("cal_ns", cal.chunk_ns);
  std::printf("\"cal_sink\": %.17g,\n", cal.sink());
  std::printf("\"rows\": %zu,\n\"measured_wall_s\": %.9f,\n", rec.rows,
              static_cast<double>(phase_end - phase_start) / 1e9);
  std::printf("\"rss_base_kb\": %ld,\n\"rss_hwm_kb\": %ld,\n", rss_base_kb, rss_hwm_kb);
  std::printf("\"attempted\": %zu,\n\"failed_ops\": %zu,\n\"verified\": %zu,\n\"matched\": %zu,\n",
              rec.attempted, rec.failures.size(), rec.kept.size(), matched);
  std::printf("\"checksum\": \"%016" PRIx64 "\",\n\"counters\": {", rec.checksum);
  bool first = true;
  for (const auto& [key, value] : rec.counters) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", key.c_str(), value);
    first = false;
  }
  std::printf("},\n\"span_names\": [");
  for (int i = 0; i < kNumSpanNames; ++i) std::printf(i ? ", \"%s\"" : "\"%s\"", kSpanNames[i]);
  std::printf("],\n\"phase_ns\": [%" PRId64 ", %" PRId64 "],\n\"spans\": [", phase_start,
              phase_end);
  for (std::size_t i = 0; i < rec.spans.size(); ++i) {
    const Span& s = rec.spans[i];
    std::printf("%s[%d, %d, %" PRIu64 ", %" PRId64 ", %" PRId64 "]", i ? ",\n" : "", s.name,
                s.published ? 1 : 0, s.step, s.start_ns, s.end_ns);
  }
  std::printf("]\n}\n");
  return 0;
}

std::map<std::string, double> MaintenanceCounters(const core::MaintenanceProfile& p) {
  return {
      {"maint.refreshes", static_cast<double>(p.refreshes)},
      {"maint.relationships_updated", static_cast<double>(p.relationships_updated)},
      {"maint.relationships_refit", static_cast<double>(p.relationships_refit)},
      {"maint.tree_rekeys", static_cast<double>(p.tree_rekeys)},
      {"maint.scape_rekeys_skipped", static_cast<double>(p.scape_rekeys_skipped)},
      {"maint.escalations", static_cast<double>(p.escalations)},
      {"maint.recompute_blocks_touched", static_cast<double>(p.recompute_blocks_touched)},
      {"maint.recompute_blocks_reused", static_cast<double>(p.recompute_blocks_reused)},
      {"publish.serve_fallbacks", static_cast<double>(p.serve_fallbacks)},
      {"publish.epochs", static_cast<double>(p.epochs_published)},
      {"publish.epochs_delta", static_cast<double>(p.epochs_delta)},
      {"publish.window_segments_reused", static_cast<double>(p.window_segments_reused)},
      {"publish.scape_runs_shared", static_cast<double>(p.scape_runs_shared)},
      {"publish.scape_runs_spliced", static_cast<double>(p.scape_runs_spliced)},
      {"publish.bytes_copied", static_cast<double>(p.snapshot_bytes_copied)},
  };
}

core::StreamingOptions StreamingOptionsFor(const Workload& w) {
  core::StreamingOptions o;
  o.window = w.window;
  o.rebuild_interval = w.interval;
  o.mode = core::UpdateMode::kIncremental;
  o.build.afclst.k = w.k;
  o.build.build_dft = false;
  o.build.threads = 1;
  return o;
}

std::size_t MeasuredSteps(const Args& args, const Workload& w) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(args.seconds * w.steps_per_second)));
}

int RunSlideOrSharded(const Args& args, const Workload& w) {
  const std::size_t measured = MeasuredSteps(args, w);
  const std::size_t total = w.warm_steps + measured;
  const std::vector<std::vector<double>> rows = Generate(w, w.window + total + 1, args.seed);
  const std::vector<std::string> names = SeriesNames(w.n);

  Xoshiro256 rng(args.seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<Step> steps(total);
  std::vector<QuerySpec> specs;
  // Every row is followed by the next query of a fixed MET → MER → top-k →
  // MEC rotation; on slide every row also publishes an epoch.
  for (std::size_t i = 0; i < total; ++i) {
    steps[i].ingest = true;
    steps[i].query = static_cast<int>(i);
    specs.push_back(DrawQuery(static_cast<Op>(i % kNumOps), w.n, &rng));
  }

  if (w.name == "slide") {
    DenseIngest<core::StreamingAffinity> ingest{&rows, kSpanAppend};
    return Run<core::StreamingAffinity>(
        args, w, steps, specs, ingest,
        [&] { return core::StreamingAffinity::Create(names, StreamingOptionsFor(w)); },
        +[](const core::StreamingAffinity& f, const DenseIngest<core::StreamingAffinity>&) {
          return MaintenanceCounters(f.maintenance());
        });
  }
  shard::ShardedOptions options;
  options.shards = w.shards;
  options.partition = shard::PartitionScheme::kRange;
  options.streaming = StreamingOptionsFor(w);
  DenseIngest<shard::ShardedAffinity> ingest{&rows, kSpanRouterAppend};
  return Run<shard::ShardedAffinity>(
      args, w, steps, specs, ingest,
      [&] { return shard::ShardedAffinity::Create(names, options); },
      +[](const shard::ShardedAffinity& f, const DenseIngest<shard::ShardedAffinity>&) {
        auto c = MaintenanceCounters(f.maintenance());
        c["cross.pairs_scanned"] = static_cast<double>(f.cross_sweep_stats().pairs_scanned);
        c["cross.columns_hoisted"] = static_cast<double>(f.cross_sweep_stats().columns_hoisted);
        return c;
      });
}

int RunQueryWorkload(const Args& args, const Workload& w) {
  const std::size_t measured = MeasuredSteps(args, w);
  const std::size_t total = w.warm_steps + measured;
  // One row per two queries: steps 0, 3, 6, ... ingest; the rest query.
  const std::size_t slots = w.window + DirtyFeed::kLateness + total / 3 + 8;
  const DirtyFeed feed = MakeDirtyFeed(Generate(w, slots, args.seed), args.seed);
  const std::vector<std::string> names = SeriesNames(w.n);

  Xoshiro256 rng(args.seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<Step> steps(total);
  std::vector<QuerySpec> specs;
  std::size_t per_op[kNumOps] = {};
  for (std::size_t i = 0; i < total; ++i) {
    if (i % 3 == 0) {
      steps[i].ingest = true;
      continue;
    }
    const Op op = static_cast<Op>(rng.NextBounded(kNumOps));
    QuerySpec q = DrawQuery(op, w.n, &rng);
    // A fixed quarter of the MET / MER / top-k queries carry a quality predicate.
    if (op != Op::kMec && per_op[static_cast<int>(op)]++ % 4 == 3) q.min_quality = kMinQuality;
    steps[i].query = static_cast<int>(specs.size());
    specs.push_back(std::move(q));
  }

  AlignedIngest ingest(&feed, w.n);
  return Run<core::StreamingAffinity>(
      args, w, steps, specs, ingest,
      [&] { return core::StreamingAffinity::Create(names, StreamingOptionsFor(w)); },
      +[](const core::StreamingAffinity& f, const AlignedIngest& in) {
        auto c = MaintenanceCounters(f.maintenance());
        const ts::IngestStats& s = in.aligner->stats();
        c["ingest.samples"] = static_cast<double>(s.samples);
        c["ingest.snapped"] = static_cast<double>(s.snapped);
        c["ingest.duplicates"] = static_cast<double>(s.duplicates);
        c["ingest.late"] = static_cast<double>(s.late);
        c["ingest.nonfinite"] = static_cast<double>(s.nonfinite);
        c["ingest.rows"] = static_cast<double>(s.rows);
        c["ingest.fills"] = static_cast<double>(s.fills);
        c["ingest.gaps"] = static_cast<double>(s.gaps);
        return c;
      });
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload w = MakeWorkload(args.workload);
  return w.name == "query" ? RunQueryWorkload(args, w) : RunSlideOrSharded(args, w);
}
