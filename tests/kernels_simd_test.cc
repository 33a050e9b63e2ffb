// Cross-backend bitwise equality of the chain kernels (DESIGN.md §10):
// every vector backend must reproduce the scalar reference sums bit for
// bit — at lengths and anchors straddling the block grid, and on columns
// engineered to expose reordered rounding (±0.0, denormals, 1e140
// magnitudes). Also covers the dispatch machinery itself: env-style
// parsing, the programmatic setter, and the prefetch-distance knob
// (a pure scheduling hint — it must never change bits). The maintainer's
// co-moment roll, which every backend runs as one loop, is checked on the
// same engineered rows against a per-slot reference loop.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/kernels.h"

namespace affinity::core::kernels {
namespace {

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Restores the entry backend and prefetch distance on scope exit so a
/// failing test can't poison the rest of the suite.
struct BackendGuard {
  Backend saved = ActiveBackend();
  std::size_t dist = PrefetchDistance();
  ~BackendGuard() {
    SetBackend(saved);
    SetPrefetchDistance(dist);
  }
};

std::vector<Backend> SimdBackends() {
  std::vector<Backend> out;
  if (BackendSupported(Backend::kAvx2)) out.push_back(Backend::kAvx2);
  if (BackendSupported(Backend::kNeon)) out.push_back(Backend::kNeon);
  return out;
}

enum class ColumnKind { kRandom, kSignedZeros, kDenormal, kHuge };

std::vector<double> MakeColumn(ColumnKind kind, std::size_t m, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> x(m);
  switch (kind) {
    case ColumnKind::kRandom:
      for (double& v : x) v = rng.Uniform(-2.0, 2.0);
      break;
    case ColumnKind::kSignedZeros:
      // ±0.0 runs with occasional finite values: exercises signed-zero
      // accumulation and min/max ties.
      for (std::size_t i = 0; i < m; ++i) {
        x[i] = (i % 3 == 0) ? 0.0 : ((i % 3 == 1) ? -0.0 : rng.Uniform(-1.0, 1.0));
      }
      break;
    case ColumnKind::kDenormal:
      // Subnormal magnitudes: products flush toward zero differently if a
      // backend reorders roundings.
      for (std::size_t i = 0; i < m; ++i) {
        x[i] = rng.Uniform(-1.0, 1.0) * 5e-324 * static_cast<double>(1 + i % 7);
      }
      break;
    case ColumnKind::kHuge:
      // 1e140 magnitudes: squares reach 1e280, so any reassociation that
      // changes intermediate magnitudes shows up in the low mantissa bits.
      for (double& v : x) v = rng.Uniform(-1.0, 1.0) * 1e140;
      break;
  }
  return x;
}

struct Reference {
  double sum, dot_xy;
  Marginals marg;
  double d3[3];
  double cross[3];
  double gram[5];
  double pm[5];
};

Reference ScalarReference(const double* x, const double* y, std::size_t m, std::size_t anchor) {
  Reference r;
  r.sum = scalar::BlockedSum(x, m, anchor);
  r.dot_xy = scalar::BlockedDot(x, y, m, anchor);
  r.marg = scalar::ColumnMarginals(x, m, anchor);
  scalar::FusedDot3(x, y, m, &r.d3[0], &r.d3[1], &r.d3[2], anchor);
  scalar::FusedCross3(x, y, x, m, r.cross, anchor);
  scalar::FusedGram5(x, y, m, r.gram, anchor);
  scalar::FusedPairMoments(x, y, m, r.pm, anchor);
  return r;
}

/// The maintainer's per-slot co-moment roll, written as it ran before the
/// row-blocked kernel: for each pair in lexicographic order, subtract the
/// evicted products (read from the old window's columns) in row order,
/// then add the entering products (read from the arriving rows) in row
/// order.
std::vector<double> ReferenceRoll(std::vector<double> co,
                                  const std::vector<std::vector<double>>& old_columns,
                                  const std::vector<std::vector<double>>& entering_rows,
                                  std::size_t n, std::size_t tail) {
  std::size_t slot = 0;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v, ++slot) {
      double& co_moment = co[slot];
      const double* su = old_columns[u].data();
      const double* sv = old_columns[v].data();
      for (std::size_t r = 0; r < tail; ++r) co_moment -= su[r] * sv[r];
      for (std::size_t r = 0; r < tail; ++r) {
        const std::vector<double>& row = entering_rows[r];
        co_moment += row[u] * row[v];
      }
    }
  }
  return co;
}

/// The roll kernel over packed rows (the evicted rows, then the entering
/// rows), fed `batch` rows a call as the maintainer batches them, every
/// triangle row split into two runs (as a chunk boundary splits it) so
/// runs that start past the row's first pair are covered too.
std::vector<double> KernelRoll(std::vector<double> co, const std::vector<double>& rows,
                               std::size_t n, std::size_t stride, std::size_t tail,
                               std::size_t batch) {
  for (std::size_t first = 0; first < 2 * tail; first += batch) {
    const std::size_t last = std::min(2 * tail, first + batch);
    const std::size_t evicted = first < tail ? std::min(last, tail) - first : 0;
    const std::size_t entering = last - first - evicted;
    const double* batch_rows = rows.data() + first * stride;
    std::size_t slot = 0;
    for (std::size_t u = 0; u + 1 < n; ++u) {
      const std::size_t count = n - u - 1;
      const std::size_t split = count / 3;
      CoMomentRoll(co.data() + slot, split, batch_rows, stride, evicted, entering, u, u + 1);
      CoMomentRoll(co.data() + slot + split, count - split, batch_rows, stride, evicted, entering,
                   u, u + 1 + split);
      slot += count;
    }
  }
  return co;
}

TEST(KernelBackends, CrossBackendBitwiseEquality) {
  const std::vector<Backend> backends = SimdBackends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend runs on this machine";
  BackendGuard guard;
  const std::size_t lengths[] = {0, 1, 7, 1023, 1024, 1025, 4096 + 1};
  // Anchors straddling block boundaries: on-grid, one off either side of
  // a cut, mid-block, and a deep-stream phase repeat.
  const std::size_t anchors[] = {0, 1, 511, 1023, 1024, 1025, 4095, 7 + 3 * kBlockElems};
  const ColumnKind kinds[] = {ColumnKind::kRandom, ColumnKind::kSignedZeros,
                              ColumnKind::kDenormal, ColumnKind::kHuge};
  for (const ColumnKind kind : kinds) {
    for (const std::size_t m : lengths) {
      const std::vector<double> x = MakeColumn(kind, m, 1234 + m);
      const std::vector<double> y = MakeColumn(kind, m, 9876 + m);
      for (const std::size_t anchor : anchors) {
        const Reference ref = ScalarReference(x.data(), y.data(), m, anchor);
        for (const Backend b : backends) {
          ASSERT_TRUE(SetBackend(b));
          SCOPED_TRACE(testing::Message() << "backend=" << ActiveBackendName() << " m=" << m
                                          << " anchor=" << anchor << " kind="
                                          << static_cast<int>(kind));
          EXPECT_EQ(Bits(BlockedSum(x.data(), m, anchor)), Bits(ref.sum));
          EXPECT_EQ(Bits(BlockedDot(x.data(), y.data(), m, anchor)), Bits(ref.dot_xy));
          // Σx² through an aliased dot — the documented spelling.
          EXPECT_EQ(Bits(BlockedDot(x.data(), x.data(), m, anchor)),
                    Bits(scalar::BlockedDot(x.data(), x.data(), m, anchor)));
          const Marginals marg = ColumnMarginals(x.data(), m, anchor);
          EXPECT_EQ(Bits(marg.sum), Bits(ref.marg.sum));
          EXPECT_EQ(Bits(marg.sumsq), Bits(ref.marg.sumsq));
          // min/max are value-equal across backends (±0.0 ties may land
          // on the other sign bit — kernels.h).
          EXPECT_EQ(marg.min, ref.marg.min);
          EXPECT_EQ(marg.max, ref.marg.max);
          double d3[3];
          FusedDot3(x.data(), y.data(), m, &d3[0], &d3[1], &d3[2], anchor);
          double cross[3], gram[5], pm[5];
          FusedCross3(x.data(), y.data(), x.data(), m, cross, anchor);
          FusedGram5(x.data(), y.data(), m, gram, anchor);
          FusedPairMoments(x.data(), y.data(), m, pm, anchor);
          for (int c = 0; c < 3; ++c) {
            EXPECT_EQ(Bits(d3[c]), Bits(ref.d3[c])) << "FusedDot3 chain " << c;
            EXPECT_EQ(Bits(cross[c]), Bits(ref.cross[c])) << "FusedCross3 chain " << c;
          }
          for (int c = 0; c < 5; ++c) {
            EXPECT_EQ(Bits(gram[c]), Bits(ref.gram[c])) << "FusedGram5 chain " << c;
            EXPECT_EQ(Bits(pm[c]), Bits(ref.pm[c])) << "FusedPairMoments chain " << c;
          }
        }
      }
    }
  }
}

// The maintainer's co-moment roll (DESIGN.md §8) reproduces the per-slot
// reference bit for bit at row lengths and tails that leave every block
// remainder, on moved rows that expose reordered rounding, whether the
// moved rows arrive in one call or in batches that split the evicted or
// the entering rows.
TEST(CoMomentRoll, BitwiseEqualToPerSlotRollInAnyBatches) {
  for (const ColumnKind kind : {ColumnKind::kRandom, ColumnKind::kSignedZeros,
                                ColumnKind::kDenormal, ColumnKind::kHuge}) {
    for (const std::size_t n : {2, 3, 17, 64, 257}) {
      for (const std::size_t tail : {1, 3, 16, 64}) {
        // 2·tail rows, row-major at the maintainer's padded stride: the
        // evicted rows, then the entering rows.
        const std::size_t stride = CoMomentRowStride(n);
        const std::vector<double> rows = MakeColumn(kind, 2 * tail * stride, 31 * n + tail);
        std::vector<std::vector<double>> old_columns(n, std::vector<double>(tail));
        std::vector<std::vector<double>> entering_rows(tail, std::vector<double>(n));
        for (std::size_t r = 0; r < tail; ++r) {
          for (std::size_t j = 0; j < n; ++j) {
            old_columns[j][r] = rows[r * stride + j];
            entering_rows[r][j] = rows[(tail + r) * stride + j];
          }
        }
        const std::vector<double> start =
            MakeColumn(ColumnKind::kRandom, n * (n - 1) / 2, 7 * n + tail);
        const std::vector<double> want =
            ReferenceRoll(start, old_columns, entering_rows, n, tail);
        for (const std::size_t batch : {2 * tail, std::size_t{3}, tail + 1}) {
          const std::vector<double> got = KernelRoll(start, rows, n, stride, tail, batch);
          std::size_t wrong = 0;
          for (std::size_t i = 0; i < want.size(); ++i) wrong += Bits(got[i]) != Bits(want[i]);
          EXPECT_EQ(wrong, 0u) << "n=" << n << " tail=" << tail << " batch=" << batch
                               << " kind=" << static_cast<int>(kind);
        }
      }
    }
  }
}

TEST(KernelBackends, PrefetchDistanceNeverChangesBits) {
  const std::vector<Backend> backends = SimdBackends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend runs on this machine";
  BackendGuard guard;
  const std::size_t m = 4096 + 37;
  const std::vector<double> x = MakeColumn(ColumnKind::kRandom, m, 5);
  const std::vector<double> y = MakeColumn(ColumnKind::kRandom, m, 6);
  const double ref = scalar::BlockedDot(x.data(), y.data(), m, 17);
  for (const Backend b : backends) {
    ASSERT_TRUE(SetBackend(b));
    for (const std::size_t dist : {std::size_t{0}, std::size_t{16}, std::size_t{256}}) {
      SetPrefetchDistance(dist);
      EXPECT_EQ(Bits(BlockedDot(x.data(), y.data(), m, 17)), Bits(ref)) << "dist=" << dist;
    }
  }
}

TEST(KernelBackends, DispatchMachinery) {
  BackendGuard guard;
  // Scalar is always supported and settable.
  EXPECT_TRUE(BackendSupported(Backend::kScalar));
  EXPECT_TRUE(SetBackend(Backend::kScalar));
  EXPECT_EQ(ActiveBackend(), Backend::kScalar);
  EXPECT_STREQ(ActiveBackendName(), "scalar");
  // Setting an unsupported backend fails and leaves the current one.
  for (const Backend b : {Backend::kAvx2, Backend::kNeon}) {
    if (!BackendSupported(b)) {
      EXPECT_FALSE(SetBackend(b));
      EXPECT_EQ(ActiveBackend(), Backend::kScalar);
    } else {
      EXPECT_TRUE(SetBackend(b));
      EXPECT_EQ(ActiveBackend(), b);
      EXPECT_TRUE(SetBackend(Backend::kScalar));
    }
  }
  // At most one SIMD backend exists per architecture.
  EXPECT_LE(SimdBackends().size(), 1u);

  Backend parsed;
  EXPECT_TRUE(ParseBackend("scalar", &parsed));
  EXPECT_EQ(parsed, Backend::kScalar);
  EXPECT_TRUE(ParseBackend("avx2", &parsed));
  EXPECT_EQ(parsed, Backend::kAvx2);
  EXPECT_TRUE(ParseBackend("neon", &parsed));
  EXPECT_EQ(parsed, Backend::kNeon);
  EXPECT_TRUE(ParseBackend("auto", &parsed));
  EXPECT_TRUE(BackendSupported(parsed)) << "auto must resolve to a runnable backend";
  EXPECT_FALSE(ParseBackend("sse9", &parsed));
  EXPECT_FALSE(ParseBackend("", &parsed));
  EXPECT_FALSE(ParseBackend(nullptr, &parsed));
}

}  // namespace
}  // namespace affinity::core::kernels
