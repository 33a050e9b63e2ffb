// Micro-benchmarks (google-benchmark) for the kernels behind the paper's
// design choices — the ablation data DESIGN.md §5 calls for:
//
//  * least-squares fit with vs without the cached normal-equation factor
//    (the SYMEX vs SYMEX+ ablation, per fit);
//  * measure propagation vs from-scratch computation (the WA vs WN gap,
//    per pair);
//  * histogram mode vs the O(m²) naive density mode (why the paper's mode
//    speedups are enormous);
//  * FFT sizes used by the WF comparator (720 and 1950 are not powers of
//    two → Bluestein);
//  * parallel scaling: MET/MER WN/WA sweeps and Affinity::Build at 1, 2,
//    4, and hardware_concurrency threads over the (scaled) stock dataset.
//
// Perf trajectory: run with
//   bench_micro --benchmark_format=json --benchmark_out=micro.json
// and compare the "threads" counter across PRs; each parallel benchmark
// exports its thread count as a counter so the JSON is self-describing.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/affine.h"
#include "core/framework.h"
#include "core/kernels.h"
#include "core/lsfd.h"
#include "core/streaming.h"
#include "dft/fft.h"
#include "la/solve.h"
#include "la/svd.h"
#include "serve/serve_query.h"
#include "shard/sharded.h"
#include "ts/generators.h"
#include "ts/ingest.h"
#include "ts/stats.h"

// ---------------------------------------------------------------------------
// Global allocation counter: replacement operator new/delete so the
// streaming/router hot-path benchmarks can report allocations per append
// (the DESIGN.md §9 zero-allocation claim, measured rather than asserted).
//
// GCC treats the replaced operator new as the builtin and then flags the
// malloc/free pairing at every inlined call site (false positive), so
// silence that diagnostic file-wide.
// ---------------------------------------------------------------------------

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) == 0) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace affinity;

std::size_t AllocCount() { return g_alloc_count.load(std::memory_order_relaxed); }

la::Matrix RandomPair(std::size_t m, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  la::Matrix x(m, 2);
  for (std::size_t j = 0; j < 2; ++j) {
    for (std::size_t i = 0; i < m; ++i) x(i, j) = rng.Uniform(-2.0, 2.0);
  }
  return x;
}

std::vector<double> RandomSeries(std::size_t m, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> x(m);
  for (auto& v : x) v = rng.Gaussian(10.0, 3.0);
  return x;
}

// --- LSFD -------------------------------------------------------------------

void BM_Lsfd(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const la::Matrix x = RandomPair(m, 1);
  const la::Matrix y = RandomPair(m, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Lsfd(x, y));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Lsfd)->Arg(128)->Arg(720)->Arg(1950)->Complexity(benchmark::oN);

// --- Affine fitting: the SYMEX vs SYMEX+ per-fit ablation --------------------

void BM_FitWithoutCache(benchmark::State& state) {
  // Plain SYMEX re-derives the pseudo-inverse of the m×3 design per pair.
  const auto m = static_cast<std::size_t>(state.range(0));
  const la::Matrix source = RandomPair(m, 3);
  const la::Matrix target = RandomPair(m, 4);
  la::Matrix design(m, 3);
  for (std::size_t i = 0; i < m; ++i) {
    design(i, 0) = source(i, 0);
    design(i, 1) = source(i, 1);
    design(i, 2) = 1.0;
  }
  for (auto _ : state) {
    auto pinv = la::PseudoInverse(design);
    benchmark::DoNotOptimize(pinv->Multiply(target));
  }
}
BENCHMARK(BM_FitWithoutCache)->Arg(720)->Arg(1950);

void BM_FitWithCache(benchmark::State& state) {
  // SYMEX+ amortizes the factor: per pair only the 3×rhs products remain.
  const auto m = static_cast<std::size_t>(state.range(0));
  const la::Matrix source = RandomPair(m, 3);
  const la::Matrix target = RandomPair(m, 4);
  la::Matrix design(m, 3);
  for (std::size_t i = 0; i < m; ++i) {
    design(i, 0) = source(i, 0);
    design(i, 1) = source(i, 1);
    design(i, 2) = 1.0;
  }
  const la::Matrix pinv = *la::PseudoInverse(design);  // cached once
  for (auto _ : state) {
    benchmark::DoNotOptimize(pinv.Multiply(target));
  }
}
BENCHMARK(BM_FitWithCache)->Arg(720)->Arg(1950);

// --- Propagation vs from-scratch ---------------------------------------------

void BM_PropagateCovariance(benchmark::State& state) {
  const la::Matrix x = RandomPair(720, 5);
  const core::PairMatrixMeasures pm =
      core::ComputePairMatrixMeasures(x.ColData(0), x.ColData(1), 720);
  core::AffineTransform t;
  t.a12 = 1.7;
  t.a22 = -0.3;
  t.b2 = 4.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::PropagateCovariance(pm, t));
  }
}
BENCHMARK(BM_PropagateCovariance);

void BM_ScratchCovariance(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::vector<double> x = RandomSeries(m, 6);
  const std::vector<double> y = RandomSeries(m, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::stats::Covariance(x.data(), y.data(), m));
  }
}
BENCHMARK(BM_ScratchCovariance)->Arg(720)->Arg(1950);

// --- Blocked summation kernels (DESIGN.md §10) -------------------------------
//
// Named BM_Kernel* so CI can carve them into BENCH_kernels.json with
// --benchmark_filter=Kernel. Throughput kernels report bytes/second
// (GB/s in the JSON); the sweep pair reports pairs/second — the fused,
// marginal-hoisted sweep's design target is ≥ 2× the seed's multi-pass
// loop on derived measures at window ≥ 1024. The rows are reported, not
// enforced: bench_micro exits 0 whatever they read.

void BM_KernelScalarDot(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::vector<double> x = RandomSeries(m, 21);
  const std::vector<double> y = RandomSeries(m, 22);
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t i = 0; i < m; ++i) acc += x[i] * y[i];
    benchmark::DoNotOptimize(acc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * m * sizeof(double)));
}
BENCHMARK(BM_KernelScalarDot)->Arg(1024)->Arg(4096)->Arg(65536);

void BM_KernelBlockedDot(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::vector<double> x = RandomSeries(m, 21);
  const std::vector<double> y = RandomSeries(m, 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::kernels::BlockedDot(x.data(), y.data(), m));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * m * sizeof(double)));
}
BENCHMARK(BM_KernelBlockedDot)->Arg(1024)->Arg(4096)->Arg(65536);

void BM_KernelColumnMarginals(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::vector<double> x = RandomSeries(m, 23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::kernels::ColumnMarginals(x.data(), m));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m * sizeof(double)));
}
BENCHMARK(BM_KernelColumnMarginals)->Arg(1024)->Arg(65536);

void BM_KernelFusedPairMoments(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::vector<double> x = RandomSeries(m, 24);
  const std::vector<double> y = RandomSeries(m, 25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ComputePairMoments(x.data(), y.data(), m));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * m * sizeof(double)));
}
BENCHMARK(BM_KernelFusedPairMoments)->Arg(1024)->Arg(65536);

// --- SIMD backend rows (DESIGN.md §10) ---------------------------------------
//
// Named BM_Simd* so CI carves them into BENCH_simd.json with
// --benchmark_filter=Simd. One GB/s row per (chain kernel, backend):
// range(0) selects forced scalar (0) vs the dispatched best backend (1),
// range(1) is the window; the row label records which backend actually
// ran, so artifacts stay comparable across runner generations. The design
// target is dispatched BlockedDot and FusedPairMoments rows ≥ 2× their
// scalar rows at window 4096 on SIMD hardware; the rows are reported, not
// enforced. The prefetch sweep tunes kDefaultPrefetchDistance at
// memory-resident sizes.

/// Selects the row's backend, runs the loop, restores the entry backend.
template <class Fn>
void RunBackendRow(benchmark::State& state, std::size_t bytes_per_iter, const Fn& fn) {
  namespace k = core::kernels;
  const k::Backend saved = k::ActiveBackend();
  k::Backend row = k::Backend::kScalar;
  if (state.range(0) != 0) AFFINITY_CHECK(k::ParseBackend("auto", &row));
  AFFINITY_CHECK(k::SetBackend(row));
  state.SetLabel(k::ActiveBackendName());
  for (auto _ : state) fn();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes_per_iter));
  k::SetBackend(saved);
}

void BM_SimdBlockedSum(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(1));
  const std::vector<double> x = RandomSeries(m, 31);
  RunBackendRow(state, m * sizeof(double), [&] {
    benchmark::DoNotOptimize(core::kernels::BlockedSum(x.data(), m));
  });
}
BENCHMARK(BM_SimdBlockedSum)->ArgsProduct({{0, 1}, {4096, 65536}});

void BM_SimdBlockedDot(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(1));
  const std::vector<double> x = RandomSeries(m, 32);
  const std::vector<double> y = RandomSeries(m, 33);
  RunBackendRow(state, 2 * m * sizeof(double), [&] {
    benchmark::DoNotOptimize(core::kernels::BlockedDot(x.data(), y.data(), m));
  });
}
BENCHMARK(BM_SimdBlockedDot)->ArgsProduct({{0, 1}, {4096, 65536}});

void BM_SimdColumnMarginals(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(1));
  const std::vector<double> x = RandomSeries(m, 34);
  RunBackendRow(state, m * sizeof(double), [&] {
    benchmark::DoNotOptimize(core::kernels::ColumnMarginals(x.data(), m));
  });
}
BENCHMARK(BM_SimdColumnMarginals)->ArgsProduct({{0, 1}, {4096, 65536}});

void BM_SimdFusedDot3(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(1));
  const std::vector<double> x = RandomSeries(m, 35);
  const std::vector<double> y = RandomSeries(m, 36);
  RunBackendRow(state, 2 * m * sizeof(double), [&] {
    double xy, xx, yy;
    core::kernels::FusedDot3(x.data(), y.data(), m, &xy, &xx, &yy);
    benchmark::DoNotOptimize(xy + xx + yy);
  });
}
BENCHMARK(BM_SimdFusedDot3)->ArgsProduct({{0, 1}, {4096, 65536}});

void BM_SimdFusedCross3(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(1));
  const std::vector<double> c1 = RandomSeries(m, 37);
  const std::vector<double> c2 = RandomSeries(m, 38);
  const std::vector<double> t = RandomSeries(m, 39);
  RunBackendRow(state, 3 * m * sizeof(double), [&] {
    double out[3];
    core::kernels::FusedCross3(c1.data(), c2.data(), t.data(), m, out);
    benchmark::DoNotOptimize(out[0] + out[1] + out[2]);
  });
}
BENCHMARK(BM_SimdFusedCross3)->ArgsProduct({{0, 1}, {4096, 65536}});

void BM_SimdFusedGram5(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(1));
  const std::vector<double> c1 = RandomSeries(m, 40);
  const std::vector<double> c2 = RandomSeries(m, 41);
  RunBackendRow(state, 2 * m * sizeof(double), [&] {
    double out[5];
    core::kernels::FusedGram5(c1.data(), c2.data(), m, out);
    benchmark::DoNotOptimize(out[0] + out[4]);
  });
}
BENCHMARK(BM_SimdFusedGram5)->ArgsProduct({{0, 1}, {4096, 65536}});

void BM_SimdFusedPairMoments(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(1));
  const std::vector<double> x = RandomSeries(m, 42);
  const std::vector<double> y = RandomSeries(m, 43);
  RunBackendRow(state, 2 * m * sizeof(double), [&] {
    double out[5];
    core::kernels::FusedPairMoments(x.data(), y.data(), m, out);
    benchmark::DoNotOptimize(out[0] + out[4]);
  });
}
BENCHMARK(BM_SimdFusedPairMoments)->ArgsProduct({{0, 1}, {4096, 65536}});

void BM_SimdPrefetchSweep(benchmark::State& state) {
  // Dispatched BlockedDot at a memory-resident size (the columns don't
  // fit in cache), sweeping the software-prefetch lookahead. range(0) is
  // the distance in elements; 0 disables the prefetch entirely.
  namespace k = core::kernels;
  const std::size_t m = std::size_t{1} << 21;  // 16 MiB per column
  const std::vector<double> x = RandomSeries(m, 44);
  const std::vector<double> y = RandomSeries(m, 45);
  const std::size_t saved_dist = k::PrefetchDistance();
  const k::Backend saved = k::ActiveBackend();
  k::Backend best;
  AFFINITY_CHECK(k::ParseBackend("auto", &best));
  AFFINITY_CHECK(k::SetBackend(best));
  k::SetPrefetchDistance(static_cast<std::size_t>(state.range(0)));
  state.SetLabel(k::ActiveBackendName());
  for (auto _ : state) {
    benchmark::DoNotOptimize(k::BlockedDot(x.data(), y.data(), m));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * m * sizeof(double)));
  k::SetPrefetchDistance(saved_dist);
  k::SetBackend(saved);
}
BENCHMARK(BM_SimdPrefetchSweep)->Arg(0)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

/// The matrix behind the pairs/second sweeps: n columns of window m.
la::Matrix SweepMatrix(std::size_t n, std::size_t m) {
  Xoshiro256 rng(26);
  la::Matrix x(m, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) x(i, j) = rng.Gaussian(10.0, 3.0);
  }
  return x;
}

/// Seed-style derived sweep: three separate sequential scans per pair
/// (the pre-PR NaivePairMeasure cost model for cosine/Jaccard/Dice).
void BM_KernelPairSweepSeed(benchmark::State& state) {
  const std::size_t n = 48;
  const auto m = static_cast<std::size_t>(state.range(0));
  const la::Matrix x = SweepMatrix(n, m);
  std::size_t pairs = 0;
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = u + 1; v < n; ++v) {
        const double* cu = x.ColData(u);
        const double* cv = x.ColData(v);
        double nx = 0, ny = 0, d = 0;
        for (std::size_t i = 0; i < m; ++i) nx += cu[i] * cu[i];
        for (std::size_t i = 0; i < m; ++i) ny += cv[i] * cv[i];
        for (std::size_t i = 0; i < m; ++i) d += cu[i] * cv[i];
        const double norm = std::sqrt(nx * ny);
        acc += norm == 0.0 ? 0.0 : d / norm;
        ++pairs;
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pairs));
}
BENCHMARK(BM_KernelPairSweepSeed)->Arg(1024)->Arg(2048);

/// The new sweep: marginals hoisted once, one fused blocked dot per pair
/// (exactly what QueryEngine's WN MET/MER/top-k now run per chunk).
void BM_KernelPairSweepHoisted(benchmark::State& state) {
  const std::size_t n = 48;
  const auto m = static_cast<std::size_t>(state.range(0));
  const la::Matrix x = SweepMatrix(n, m);
  std::size_t pairs = 0;
  for (auto _ : state) {
    std::vector<core::kernels::Marginals> marginals(n);
    for (std::size_t j = 0; j < n; ++j) {
      marginals[j] = core::kernels::ColumnMarginals(x.ColData(j), m);
    }
    double acc = 0.0;
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = u + 1; v < n; ++v) {
        const double dot = core::kernels::BlockedDot(x.ColData(u), x.ColData(v), m);
        acc += *core::PairMeasureFromMoments(
            core::Measure::kCosine,
            core::PairMomentsFromMarginals(marginals[u], marginals[v], dot, m));
        ++pairs;
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pairs));
}
BENCHMARK(BM_KernelPairSweepHoisted)->Arg(1024)->Arg(2048);

/// Same comparison for correlation, whose seed path cost ~7 scans
/// (covariance + two centered variances, each with its mean pass).
void BM_KernelCorrelationSweepSeed(benchmark::State& state) {
  const std::size_t n = 48;
  const auto m = static_cast<std::size_t>(state.range(0));
  const la::Matrix x = SweepMatrix(n, m);
  std::size_t pairs = 0;
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = u + 1; v < n; ++v) {
        acc += ts::stats::Correlation(x.ColData(u), x.ColData(v), m);
        ++pairs;
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pairs));
}
BENCHMARK(BM_KernelCorrelationSweepSeed)->Arg(1024)->Arg(2048);

void BM_KernelCorrelationSweepHoisted(benchmark::State& state) {
  const std::size_t n = 48;
  const auto m = static_cast<std::size_t>(state.range(0));
  const la::Matrix x = SweepMatrix(n, m);
  std::size_t pairs = 0;
  for (auto _ : state) {
    std::vector<core::kernels::Marginals> marginals(n);
    for (std::size_t j = 0; j < n; ++j) {
      marginals[j] = core::kernels::ColumnMarginals(x.ColData(j), m);
    }
    double acc = 0.0;
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = u + 1; v < n; ++v) {
        const double dot = core::kernels::BlockedDot(x.ColData(u), x.ColData(v), m);
        acc += *core::PairMeasureFromMoments(
            core::Measure::kCorrelation,
            core::PairMomentsFromMarginals(marginals[u], marginals[v], dot, m));
        ++pairs;
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pairs));
}
BENCHMARK(BM_KernelCorrelationSweepHoisted)->Arg(1024)->Arg(2048);

// --- Mode estimators ----------------------------------------------------------

void BM_HistogramMode(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::vector<double> x = RandomSeries(m, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::stats::Mode(x.data(), m));
  }
}
BENCHMARK(BM_HistogramMode)->Arg(720)->Arg(1950);

void BM_NaiveDensityMode(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::vector<double> x = RandomSeries(m, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::stats::NaiveModeEstimate(x.data(), m));
  }
}
BENCHMARK(BM_NaiveDensityMode)->Arg(720)->Arg(1950);

// --- FFT (WF comparator substrate) ---------------------------------------------

void BM_FftPowerOfTwo(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(12);
  std::vector<dft::Complex> base(n);
  for (auto& v : base) v = dft::Complex(rng.Gaussian(), 0.0);
  for (auto _ : state) {
    auto a = base;
    benchmark::DoNotOptimize(dft::Fft(&a, false));
  }
}
BENCHMARK(BM_FftPowerOfTwo)->Arg(1024)->Arg(2048);

void BM_BluesteinPaperLengths(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(13);
  std::vector<dft::Complex> base(n);
  for (auto& v : base) v = dft::Complex(rng.Gaussian(), 0.0);
  for (auto _ : state) {
    auto a = base;
    benchmark::DoNotOptimize(dft::BluesteinDft(&a, false));
  }
}
BENCHMARK(BM_BluesteinPaperLengths)->Arg(720)->Arg(1950);

// --- AFCLST centre update kernel -------------------------------------------------

void BM_PowerIterationCenter(benchmark::State& state) {
  // Typical cluster: ~100 member series of length 720.
  Xoshiro256 rng(14);
  la::Matrix members(720, 100);
  for (std::size_t j = 0; j < 100; ++j) {
    for (std::size_t i = 0; i < 720; ++i) members(i, j) = rng.Gaussian();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::PowerIterationTopSingular(members, la::Vector()));
  }
}
BENCHMARK(BM_PowerIterationCenter);

// --- Parallel scaling: batched sweeps and framework build -----------------------
//
// The stock dataset (Table 3) at micro scale — big enough that the O(n²)
// pair sweeps dominate, small enough for tight iteration.

const ts::Dataset& StockMicro() {
  static const ts::Dataset dataset = [] {
    ts::DatasetSpec spec;
    spec.num_series = 120;
    spec.num_samples = 240;
    spec.num_clusters = 10;
    spec.noise_level = 0.015;
    spec.seed = 7;
    return ts::MakeStockData(spec);
  }();
  return dataset;
}

const core::Affinity& StockFramework() {
  static const core::Affinity fw = [] {
    auto built = core::Affinity::Build(StockMicro().matrix);
    AFFINITY_CHECK(built.ok());
    return std::move(built).value();
  }();
  return fw;
}

void ThreadArgs(benchmark::internal::Benchmark* b) {
  b->Arg(1)->Arg(2)->Arg(4);
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 4) b->Arg(static_cast<long>(hw));
  b->UseRealTime();  // wall clock, not per-thread CPU
}

/// A query engine over the stock data with the requested sweep
/// parallelism; `owned_pool` keeps the pool alive for the state's scope.
core::QueryEngine SweepEngine(std::size_t threads, std::unique_ptr<ThreadPool>* owned_pool,
                              bool with_model) {
  core::QueryEngine engine(&StockFramework().data());
  if (with_model) engine.AttachModel(&StockFramework().model());
  if (threads > 1) {
    *owned_pool = std::make_unique<ThreadPool>(threads);
    engine.SetExec(ExecContext{owned_pool->get()});
  }
  return engine;
}

void BM_MetSweepWN(benchmark::State& state) {
  std::unique_ptr<ThreadPool> pool;
  const core::QueryEngine engine =
      SweepEngine(static_cast<std::size_t>(state.range(0)), &pool, /*with_model=*/false);
  core::MetRequest req;
  req.measure = core::Measure::kCorrelation;
  req.tau = 0.9;
  for (auto _ : state) {
    auto result = engine.Met(req, core::QueryMethod::kNaive);
    benchmark::DoNotOptimize(result);
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_MetSweepWN)->Apply(ThreadArgs);

void BM_MetSweepWA(benchmark::State& state) {
  std::unique_ptr<ThreadPool> pool;
  const core::QueryEngine engine =
      SweepEngine(static_cast<std::size_t>(state.range(0)), &pool, /*with_model=*/true);
  core::MetRequest req;
  req.measure = core::Measure::kCorrelation;
  req.tau = 0.9;
  for (auto _ : state) {
    auto result = engine.Met(req, core::QueryMethod::kAffine);
    benchmark::DoNotOptimize(result);
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_MetSweepWA)->Apply(ThreadArgs);

void BM_MerSweepWN(benchmark::State& state) {
  std::unique_ptr<ThreadPool> pool;
  const core::QueryEngine engine =
      SweepEngine(static_cast<std::size_t>(state.range(0)), &pool, /*with_model=*/false);
  core::MerRequest req;
  req.measure = core::Measure::kCovariance;
  req.lo = -0.5;
  req.hi = 0.5;
  for (auto _ : state) {
    auto result = engine.Mer(req, core::QueryMethod::kNaive);
    benchmark::DoNotOptimize(result);
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_MerSweepWN)->Apply(ThreadArgs);

void BM_MerSweepWA(benchmark::State& state) {
  std::unique_ptr<ThreadPool> pool;
  const core::QueryEngine engine =
      SweepEngine(static_cast<std::size_t>(state.range(0)), &pool, /*with_model=*/true);
  core::MerRequest req;
  req.measure = core::Measure::kCovariance;
  req.lo = -0.5;
  req.hi = 0.5;
  for (auto _ : state) {
    auto result = engine.Mer(req, core::QueryMethod::kAffine);
    benchmark::DoNotOptimize(result);
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_MerSweepWA)->Apply(ThreadArgs);

// --- Top-k strategies: the rows behind the planner's top-k cost rule --------
//
// BM_TopK/<surface>/<measure>/<strategy>: a largest top-10 over the `query`
// perfbench workload's shape (sensor data, n = 256, window 1024, 8 clusters)
// on the live batch engine, answered by the SCAPE threshold algorithm or
// the WA sweep, and on an epoch flattened from it, which has no index and
// answers with the WA pass. The `examined` counter is the entries the
// strategy read (planner.h quotes the live rows).

struct TopKFixture {
  core::Affinity fw;
  std::shared_ptr<const serve::ServingSnapshot> epoch;
};

const TopKFixture& TopKData() {
  static const TopKFixture* fixture = [] {
    ts::DatasetSpec spec;
    spec.num_series = 256;
    spec.num_samples = 1024;
    spec.num_clusters = 8;
    spec.noise_level = 0.02;
    spec.seed = 42;
    core::AffinityOptions options;
    options.afclst.k = 8;
    options.build_dft = false;
    auto built = core::Affinity::Build(ts::MakeSensorData(spec).matrix, options);
    AFFINITY_CHECK(built.ok());
    auto* f = new TopKFixture{std::move(built).value(), nullptr};
    f->epoch = serve::SnapshotBuilder::Build(f->fw.model(), f->fw.engine(), 1, spec.num_samples);
    return f;
  }();
  return *fixture;
}

void BM_TopK(benchmark::State& state, bool epoch, core::Measure measure,
             core::QueryMethod method) {
  const TopKFixture& f = TopKData();
  const core::TopKRequest req{measure, 10, true};
  std::size_t examined = 0;
  for (auto _ : state) {
    auto result =
        epoch ? serve::SnapshotTopK(*f.epoch, req, method) : f.fw.engine().TopK(req, method);
    AFFINITY_CHECK(result.ok());
    examined = result->examined;
    benchmark::DoNotOptimize(result->entries.data());
  }
  state.counters["examined"] = static_cast<double>(examined);
}

/// Registers `<family>/<surface>/<measure>/<strategy>` for the covariance
/// and correlation rows: the epoch's WA pass, and the live batch engine
/// under each of `live_methods`.
template <typename Fn>
void RegisterSurfaceRows(const char* family, Fn fn,
                         std::initializer_list<core::QueryMethod> live_methods) {
  for (const core::Measure measure : {core::Measure::kCovariance, core::Measure::kCorrelation}) {
    const auto add = [&](bool epoch, core::QueryMethod method) {
      const std::string name = std::string(family) + (epoch ? "/snapshot/" : "/live/") +
                               std::string(core::MeasureName(measure)) + "/" +
                               std::string(core::QueryMethodName(method));
      benchmark::RegisterBenchmark(name.c_str(), fn, epoch, measure, method)
          ->Unit(benchmark::kMicrosecond);
    };
    add(true, core::QueryMethod::kAffine);
    for (const core::QueryMethod method : live_methods) add(false, method);
  }
}

[[maybe_unused]] const bool kTopKRegistered = [] {
  RegisterSurfaceRows("BM_TopK", BM_TopK, {core::QueryMethod::kScape, core::QueryMethod::kAffine});
  return true;
}();

// BM_Met/<surface>/<measure>/<strategy>: a MET, τ at the 95th percentile
// of the measure's frozen pair values (5% of the pairs pass), answered by
// the WA pass over the same epoch's frozen table (`snapshot/*/WA`) or by
// batch SCAPE over the fixture's model (`live/*/SCAPE`), the index an
// epoch no longer carries. `verified` counts the entries SCAPE derived
// exactly.

void BM_Met(benchmark::State& state, bool epoch, core::Measure measure,
            core::QueryMethod method) {
  const TopKFixture& f = TopKData();
  std::vector<double> values = f.epoch->pair_values[static_cast<std::size_t>(
      static_cast<int>(measure) - static_cast<int>(core::Measure::kCovariance))];
  const auto at = values.begin() + static_cast<std::ptrdiff_t>(values.size() * 95 / 100);
  std::nth_element(values.begin(), at, values.end());
  const core::MetRequest req{measure, *at, true};
  std::size_t verified = 0;
  std::size_t kept = 0;
  for (auto _ : state) {
    auto result =
        epoch ? serve::SnapshotMet(*f.epoch, req, method) : f.fw.engine().Met(req, method);
    AFFINITY_CHECK(result.ok());
    verified = result->prune.verified;
    kept = result->pairs.size();
    benchmark::DoNotOptimize(result->pairs.data());
  }
  state.counters["verified"] = static_cast<double>(verified);
  state.counters["kept"] = static_cast<double>(kept);
}

[[maybe_unused]] const bool kMetRegistered = [] {
  RegisterSurfaceRows("BM_Met", BM_Met, {core::QueryMethod::kScape});
  return true;
}();

void BM_AffinityBuild(benchmark::State& state) {
  core::AffinityOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto fw = core::Affinity::Build(StockMicro().matrix, options);
    AFFINITY_CHECK(fw.ok());
    benchmark::DoNotOptimize(fw);
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_AffinityBuild)->Apply(ThreadArgs);

// --- Append hot-path allocation accounting (DESIGN.md §9) ------------------

/// A gapped feed over `clean`: per series, stretches of 1–9 cells, each
/// dirty with probability `dirt` — half outages (gaps), half
/// forward-fills (valid and filled). Dirty cells carry the series' last
/// observed value, as the aligner emits them.
struct GappedFeed {
  std::vector<std::vector<double>> values;
  std::vector<std::vector<std::uint8_t>> valid;
  std::vector<std::vector<std::uint8_t>> filled;
};

GappedFeed MakeGappedFeed(const la::Matrix& clean, double dirt, std::uint64_t seed) {
  const std::size_t m = clean.rows();
  const std::size_t n = clean.cols();
  Xoshiro256 rng(seed);
  GappedFeed feed;
  feed.values.assign(m, std::vector<double>(n));
  feed.valid.assign(m, std::vector<std::uint8_t>(n, 1));
  feed.filled.assign(m, std::vector<std::uint8_t>(n, 0));
  for (std::size_t j = 0; j < n; ++j) {
    double last = 0.0;
    std::size_t i = 0;
    while (i < m) {
      const bool dirty = rng.Uniform(0.0, 1.0) < dirt;
      const std::size_t len = 1 + rng.NextBounded(9);
      const bool gap = dirty && rng.NextBounded(2) == 0;
      for (std::size_t r = 0; r < len && i < m; ++r, ++i) {
        if (dirty) {
          feed.values[i][j] = last;
          feed.valid[i][j] = gap ? 0 : 1;
          feed.filled[i][j] = gap ? 0 : 1;
        } else {
          last = clean(i, j);
          feed.values[i][j] = last;
        }
      }
    }
  }
  return feed;
}

/// QualityTracker::Push in steady state (window full, every push evicts)
/// at n = 256, window 1024: clean rows (null masks) and ~20%-dirty rows
/// (gaps, fills, carried-value plateaus). Time per iteration is time per
/// row; `allocs_per_push` must read 0.
void BM_QualityTrackerPush(benchmark::State& state, bool dirty) {
  constexpr std::size_t kN = 256;
  constexpr std::size_t kWindow = 1024;
  ts::DatasetSpec spec;
  spec.num_series = kN;
  spec.num_samples = 4 * kWindow;
  spec.num_clusters = 8;
  spec.seed = 5;
  const ts::Dataset data = ts::MakeSensorData(spec);
  const GappedFeed feed = MakeGappedFeed(data.matrix.matrix(), dirty ? 0.2 : 0.0, 17);
  ts::QualityTracker tracker(kN, kWindow);
  const std::size_t rows = feed.values.size();
  const auto push = [&](std::size_t i) {
    const std::size_t r = i % rows;
    tracker.Push(feed.values[r].data(), dirty ? feed.valid[r].data() : nullptr,
                 dirty ? feed.filled[r].data() : nullptr);
  };
  std::size_t next = 0;
  for (; next < 2 * kWindow; ++next) push(next);
  std::size_t allocs = 0;
  std::size_t pushes = 0;
  for (auto _ : state) {
    const std::size_t before = AllocCount();
    push(next++);
    allocs += AllocCount() - before;
    ++pushes;
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(tracker.Scores().data());
  state.counters["allocs_per_push"] =
      pushes == 0 ? 0.0 : static_cast<double>(allocs) / static_cast<double>(pushes);
}
BENCHMARK_CAPTURE(BM_QualityTrackerPush, clean, false);
BENCHMARK_CAPTURE(BM_QualityTrackerPush, dirty, true);

/// Steady-state streaming append: the table append, the quality tracker
/// and the preallocated pending-row pool. `allocs_per_append`
/// counts non-refresh appends only; the residue is segment-granular
/// storage growth (~n/segment_capacity per append), not per-row buffers.
/// The masked variant feeds a ~20%-gapped stream through AppendMasked and
/// must not allocate more than the clean one.
void BM_StreamingAppendAllocs(benchmark::State& state, bool masked) {
  ts::DatasetSpec spec;
  spec.num_series = 32;
  spec.num_samples = 512;
  spec.num_clusters = 4;
  spec.seed = 11;
  const ts::Dataset data = ts::MakeStockData(spec);
  const GappedFeed feed = MakeGappedFeed(data.matrix.matrix(), masked ? 0.2 : 0.0, 23);
  core::StreamingOptions options;
  options.window = 256;
  options.rebuild_interval = 64;
  options.mode = core::UpdateMode::kIncremental;
  options.build.afclst.k = 4;
  options.build.build_dft = false;
  options.segment_capacity = 1024;
  auto stream = core::StreamingAffinity::Create(data.matrix.names(), options);
  AFFINITY_CHECK(stream.ok());
  std::size_t next = 0;
  const auto append = [&]() {
    const std::size_t r = next++ % feed.values.size();
    return masked ? stream->AppendMasked(feed.values[r], feed.valid[r], feed.filled[r])
                  : stream->Append(feed.values[r]);
  };
  while (!stream->ready()) AFFINITY_CHECK(append().ok());
  // One full interval warms the pending pool to its steady-state capacity.
  for (std::size_t i = 0; i < options.rebuild_interval; ++i) AFFINITY_CHECK(append().ok());
  std::size_t appends = 0;
  std::size_t allocs = 0;
  for (auto _ : state) {
    const std::size_t before = AllocCount();
    const auto result = append();
    const std::size_t after = AllocCount();
    AFFINITY_CHECK(result.ok());
    if (!result.refreshed) {
      allocs += after - before;
      ++appends;
    }
    benchmark::DoNotOptimize(result);
  }
  state.counters["allocs_per_append"] =
      appends == 0 ? 0.0 : static_cast<double>(allocs) / static_cast<double>(appends);
}
// Equal iteration counts give both variants the same append schedule, so
// segment growth lands on the same appends.
BENCHMARK_CAPTURE(BM_StreamingAppendAllocs, clean, false)->Iterations(8192);
BENCHMARK_CAPTURE(BM_StreamingAppendAllocs, masked, true)->Iterations(8192);

/// Router scatter: the per-shard row buffers are preallocated once, so a
/// scatter is pure copying — `allocs_per_scatter` must be 0.
void BM_RouterScatterAllocs(benchmark::State& state) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < 64; ++i) names.push_back("s" + std::to_string(i));
  auto partitioner =
      shard::SeriesPartitioner::Create(names, 8, shard::PartitionScheme::kHash);
  AFFINITY_CHECK(partitioner.ok());
  shard::ShardRouter router(std::move(*partitioner));
  std::vector<double> row(64);
  for (std::size_t j = 0; j < 64; ++j) row[j] = static_cast<double>(j) * 0.25;
  std::size_t scatters = 0;
  std::size_t allocs = 0;
  for (auto _ : state) {
    const std::size_t before = AllocCount();
    const auto& scattered = router.Scatter(row);
    allocs += AllocCount() - before;
    ++scatters;
    benchmark::DoNotOptimize(scattered);
  }
  state.counters["allocs_per_scatter"] =
      scatters == 0 ? 0.0 : static_cast<double>(allocs) / static_cast<double>(scatters);
}
BENCHMARK(BM_RouterScatterAllocs);

}  // namespace

BENCHMARK_MAIN();
