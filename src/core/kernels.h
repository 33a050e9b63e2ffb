#ifndef AFFINITY_CORE_KERNELS_H_
#define AFFINITY_CORE_KERNELS_H_

/// \file kernels.h
/// The hot-path summation kernels behind every naive pair sweep, the
/// SYMEX+/incremental fit accumulators, and the shard router's cross-pair
/// evaluation (DESIGN.md §10).
///
/// All kernels accumulate in one **canonical blocked order**: the input is
/// cut into fixed blocks of `kBlockElems` elements; within a block, four
/// independent lanes (`kLanes`) accumulate stride-4 element groups (the
/// classic unroll that breaks the FP dependency chain); a block reduces as
/// `(l0 + l1) + (l2 + l3)`; block partials add sequentially.
///
/// **Anchored grid.** The block cuts sit on an absolute grid: a window
/// whose first sample is stream row `anchor` is cut at the absolute rows
/// that are multiples of `kBlockElems`, so the order is a function of
/// `(anchor mod kBlockElems, m)` alone — never of thread count, pointer
/// alignment, or which fused kernel runs the chain. An `anchor` of 0 (the
/// default everywhere) reproduces the historic length-only order exactly.
/// The grid buys:
///
///  * every sweep is bitwise identical at any thread count (§7);
///  * **chain equality**: the Σx² chain of `FusedDot3(x, y, m, a)` is
///    bitwise equal to `BlockedDot(x, x, m, a)` and to the `sumsq` chain
///    of `ColumnMarginals(x, m, a)`. Marginal hoisting (compute Σx, Σx²
///    once per column, then one fused Σxy pass per pair) therefore
///    reproduces the single fused per-pair pass bit for bit;
///  * **slide stability**: a grid block fully inside the window sums a
///    fixed set of stream rows in a fixed internal order, so its partial
///    is a pure function of those samples. Sliding the window forward
///    leaves every still-covered interior block partial bit-identical —
///    `BlockChain` below retains them, and an incremental refresh only
///    recomputes the partial spans the slide actually touched
///    (O(interval + kPrefixStride) per chain instead of O(window)).
///
/// **Leading-span direction.** The one span whose *left* edge a slide
/// moves is the leading partial block (anchor off-grid). A left-to-right
/// lane walk of that span can never be resumed after its left edge
/// advances — left-associated sums don't support removal — so the
/// canonical order walks that single span **top-down**: from the first
/// grid row B = kBlockElems·⌈anchor/kBlockElems⌉ exclusive down to the
/// anchor, lane = (B − 1 − row) mod kLanes, per-lane addition in
/// decreasing row order, reduced `(l0+l1)+(l2+l3)` like any other span.
/// The lane state at row r is then a pure function of rows [r, B), which
/// is what makes the `BlockChain` prefix state below checkpointable and
/// resumable. A window that never reaches the grid (anchor + m ≤ B) is a
/// single reversed span based at anchor + m. Anchor 0 — the default on
/// every standalone path — has no leading span and keeps the historic
/// bits exactly.
///
/// **Backends.** The seven public kernels dispatch through a
/// runtime-selected `Backend` (scalar / AVX2 / NEON), resolved once from
/// CPU features and the `AFFINITY_KERNEL_BACKEND` env override. A lane is
/// exactly one 64-bit slot of a vector register (256-bit = the four
/// lanes; 128-bit ×2 on NEON), and the per-lane addition order is
/// element-index-deterministic, so vector mul+add (never FMA) reproduces
/// the scalar chains **bit for bit**. The scalar reference lives in
/// `kernels::scalar` and stays callable for cross-backend tests. min/max
/// marginals are value-equal across backends (a ±0.0 tie may resolve to
/// the other sign bit); all sum chains are bit-equal.
///
/// The primitive layer is header-only on purpose: `ts/stats` sits *below*
/// core in the link order but must share the canonical accumulation order
/// (DotProduct); inline definitions give it that without a link cycle.
/// Batch helpers that need `ExecContext` live in kernels.cc; backend
/// resolution and the vector kernels live in kernels_dispatch.cc /
/// kernels_simd_*.cc (the `affinity_kernels` library, linked beneath
/// `affinity_ts`).

#include <cstddef>
#include <vector>

#include "common/check.h"

namespace affinity {
struct ExecContext;
namespace ts {
class DataMatrix;
}  // namespace ts
}  // namespace affinity

namespace affinity::core::kernels {

/// Fixed accumulation block, in elements. Changing this changes the bits
/// of every sum in the system — bump only with a DESIGN.md §10 note.
inline constexpr std::size_t kBlockElems = 1024;

/// Independent accumulator lanes per chain (the unroll width).
inline constexpr std::size_t kLanes = 4;
static_assert(kBlockElems % kLanes == 0,
              "grid blocks must start on a lane boundary so a block partial "
              "is a pure function of its samples");

/// Checkpoint stride of the BlockChain leading-prefix state, in rows. A
/// warm slide re-folds at most kPrefixStride − 1 leading rows from the
/// nearest retained checkpoint instead of re-walking the whole partial
/// block. Purely a cache granularity — it never affects output bits.
inline constexpr std::size_t kPrefixStride = 128;
static_assert(kBlockElems % kPrefixStride == 0,
              "checkpoint rows must tile the grid block");

namespace detail {

/// Accumulates `kChains` independent lane sets over the span
/// [begin, end) of the window, adding each element at window-relative
/// index i into lane (i - begin) % kLanes. The per-lane addition order is
/// increasing i — exactly the order `BlockChain` appends trailing
/// elements in, which is what makes a lane state resumable.
template <int kChains, class Term>
inline void AccumulateSpan(std::size_t begin, std::size_t end, const Term& term,
                           double lanes[kChains][kLanes]) {
  std::size_t i = begin;
  for (; i + kLanes <= end; i += kLanes) {
    double v0[kChains], v1[kChains], v2[kChains], v3[kChains];
    term(i, v0);
    term(i + 1, v1);
    term(i + 2, v2);
    term(i + 3, v3);
    for (int c = 0; c < kChains; ++c) {
      lanes[c][0] += v0[c];
      lanes[c][1] += v1[c];
      lanes[c][2] += v2[c];
      lanes[c][3] += v3[c];
    }
  }
  for (std::size_t l = 0; i < end; ++i, ++l) {
    double v[kChains];
    term(i, v);
    for (int c = 0; c < kChains; ++c) lanes[c][l] += v[c];
  }
}

/// The leading-span mirror of AccumulateSpan: walks [begin, end) from
/// end − 1 **down** to begin, adding the element at window-relative index
/// i into lane (end - 1 - i) % kLanes, per-lane addition in decreasing i.
/// The lane state after processing down to index i is a pure function of
/// [i, end) — the property the BlockChain prefix checkpoints rely on.
template <int kChains, class Term>
inline void AccumulateSpanReversed(std::size_t begin, std::size_t end, const Term& term,
                                   double lanes[kChains][kLanes]) {
  std::size_t i = end;
  for (; i >= begin + kLanes; i -= kLanes) {
    double v0[kChains], v1[kChains], v2[kChains], v3[kChains];
    term(i - 1, v0);
    term(i - 2, v1);
    term(i - 3, v2);
    term(i - 4, v3);
    for (int c = 0; c < kChains; ++c) {
      lanes[c][0] += v0[c];
      lanes[c][1] += v1[c];
      lanes[c][2] += v2[c];
      lanes[c][3] += v3[c];
    }
  }
  for (std::size_t l = 0; i > begin; --i, ++l) {
    double v[kChains];
    term(i - 1, v);
    for (int c = 0; c < kChains; ++c) lanes[c][l] += v[c];
  }
}

/// Accumulates `kChains` independent sums over [0, m) in the canonical
/// anchored blocked order. `term(i, v)` writes the i-th element of every
/// chain into v[0..kChains). The window's first element sits at absolute
/// stream row `anchor`; spans are cut where (anchor + i) crosses a
/// multiple of kBlockElems; the leading span (anchor off-grid) walks
/// top-down (see the file comment). Each chain's reduction order is a
/// function of (anchor mod kBlockElems, m) alone, so any two kernels —
/// on any backend — running the same chain at the same anchor agree
/// bitwise.
template <int kChains, class Term>
inline void Accumulate(std::size_t m, const Term& term, double* out, std::size_t anchor = 0) {
  for (int c = 0; c < kChains; ++c) out[c] = 0.0;
  const std::size_t phase = anchor % kBlockElems;
  std::size_t base = 0;
  std::size_t end = kBlockElems - phase < m ? kBlockElems - phase : m;
  bool leading = phase != 0;
  while (base < m) {
    double lanes[kChains][kLanes] = {};
    if (leading) {
      AccumulateSpanReversed<kChains>(base, end, term, lanes);
      leading = false;
    } else {
      AccumulateSpan<kChains>(base, end, term, lanes);
    }
    for (int c = 0; c < kChains; ++c) {
      out[c] += (lanes[c][0] + lanes[c][1]) + (lanes[c][2] + lanes[c][3]);
    }
    base = end;
    end = base + kBlockElems < m ? base + kBlockElems : m;
  }
}

}  // namespace detail

/// Per-column marginals of one pass: Σx, Σx², min, max. The sum/sumsq
/// chains equal `BlockedSum(x)` / `BlockedDot(x, x)` bitwise; min/max are
/// order-independent. Empty columns report all-zero marginals.
struct Marginals {
  double sum = 0.0;
  double sumsq = 0.0;
  double min = 0.0;
  double max = 0.0;
};

// --- Scalar reference kernels ----------------------------------------------
//
// The portable definition of the canonical order. The public kernels below
// dispatch to these (or to a bit-identical vector specialization); tests
// call them directly to cross-check backends.

namespace scalar {

/// Σ xᵢ in the canonical blocked order.
inline double BlockedSum(const double* x, std::size_t m, std::size_t anchor = 0) {
  double out;
  detail::Accumulate<1>(m, [x](std::size_t i, double* v) { v[0] = x[i]; }, &out, anchor);
  return out;
}

/// Σ xᵢyᵢ in the canonical blocked order. x and y may alias (BlockedDot(x, x)
/// is a supported spelling of Σx²), so the inputs are deliberately not
/// __restrict-qualified — they are only ever read.
inline double BlockedDot(const double* x, const double* y, std::size_t m,
                         std::size_t anchor = 0) {
  double out;
  detail::Accumulate<1>(m, [x, y](std::size_t i, double* v) { v[0] = x[i] * y[i]; }, &out,
                        anchor);
  return out;
}

inline Marginals ColumnMarginals(const double* x, std::size_t m, std::size_t anchor = 0) {
  Marginals out;
  if (m == 0) return out;
  // min/max ride the same single pass inside the term callback (each
  // element is visited exactly once); they are order-independent, so the
  // sum/sumsq chains stay bitwise equal to BlockedSum/BlockedDot.
  double lo = x[0], hi = x[0];
  double sums[2];
  detail::Accumulate<2>(
      m,
      [x, &lo, &hi](std::size_t i, double* v) {
        const double xi = x[i];
        v[0] = xi;
        v[1] = xi * xi;
        lo = xi < lo ? xi : lo;
        hi = xi > hi ? xi : hi;
      },
      sums, anchor);
  out.sum = sums[0];
  out.sumsq = sums[1];
  out.min = lo;
  out.max = hi;
  return out;
}

/// Σxy, Σx², Σy² in one fused pass — the per-pair cost of every derived
/// measure once the marginals are hoisted elsewhere.
inline void FusedDot3(const double* x, const double* y, std::size_t m, double* dot_xy,
                      double* dot_xx, double* dot_yy, std::size_t anchor = 0) {
  double out[3];
  detail::Accumulate<3>(
      m,
      [x, y](std::size_t i, double* v) {
        v[0] = x[i] * y[i];
        v[1] = x[i] * x[i];
        v[2] = y[i] * y[i];
      },
      out, anchor);
  *dot_xy = out[0];
  *dot_xx = out[1];
  *dot_yy = out[2];
}

/// The normal-equation right-hand side (Σc1·t, Σc2·t, Σt) in one fused
/// pass — the SYMEX+ build fit's (fit_kernels.h). Each chain equals its
/// standalone kernel, which is how the incremental path rebuilds it
/// bitwise from separately kept sums (DESIGN.md §8).
inline void FusedCross3(const double* c1, const double* c2, const double* t, std::size_t m,
                        double out[3], std::size_t anchor = 0) {
  detail::Accumulate<3>(
      m,
      [c1, c2, t](std::size_t i, double* v) {
        v[0] = c1[i] * t[i];
        v[1] = c2[i] * t[i];
        v[2] = t[i];
      },
      out, anchor);
}

/// The five Gram sums of the design [c1, c2, 1m] — s11, s12, s22, h1, h2
/// — in one fused pass. Chain-equal to ColumnMarginals/BlockedDot over
/// the same columns, which is what lets `GramFromMeasures` (assembled
/// from hoisted pivot measures) match `ComputeGram` bit for bit.
inline void FusedGram5(const double* c1, const double* c2, std::size_t m, double out[5],
                       std::size_t anchor = 0) {
  detail::Accumulate<5>(
      m,
      [c1, c2](std::size_t i, double* v) {
        v[0] = c1[i] * c1[i];
        v[1] = c1[i] * c2[i];
        v[2] = c2[i] * c2[i];
        v[3] = c1[i];
        v[4] = c2[i];
      },
      out, anchor);
}

/// Σx, Σx², Σy, Σy², Σxy in one fused pass — the full co-moment set of a
/// pair, from which every T/D pair measure is computable without touching
/// the raw columns again (core::PairMeasureFromMoments). Chain-equal to
/// ColumnMarginals(x/y) + BlockedDot(x, y).
inline void FusedPairMoments(const double* x, const double* y, std::size_t m, double out[5],
                             std::size_t anchor = 0) {
  detail::Accumulate<5>(
      m,
      [x, y](std::size_t i, double* v) {
        v[0] = x[i];
        v[1] = x[i] * x[i];
        v[2] = y[i];
        v[3] = y[i] * y[i];
        v[4] = x[i] * y[i];
      },
      out, anchor);
}

}  // namespace scalar

// --- Backend dispatch (kernels_dispatch.cc) --------------------------------

/// Kernel backend identifier. Resolution order: the
/// `AFFINITY_KERNEL_BACKEND` env var (`scalar` | `avx2` | `neon` |
/// `auto`), then CPU-feature detection (`__builtin_cpu_supports("avx2")`
/// on x86; NEON is baseline on aarch64), then scalar.
enum class Backend { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// The dispatch table of one backend: every chain kernel, anchor-explicit.
/// All entries produce bitwise-identical sum chains (see the file
/// comment); `column_marginals` min/max are value-equal.
struct BackendOps {
  Backend id;
  const char* name;
  double (*blocked_sum)(const double* x, std::size_t m, std::size_t anchor);
  double (*blocked_dot)(const double* x, const double* y, std::size_t m, std::size_t anchor);
  Marginals (*column_marginals)(const double* x, std::size_t m, std::size_t anchor);
  void (*fused_dot3)(const double* x, const double* y, std::size_t m, double* dot_xy,
                     double* dot_xx, double* dot_yy, std::size_t anchor);
  void (*fused_cross3)(const double* c1, const double* c2, const double* t, std::size_t m,
                       double* out, std::size_t anchor);
  void (*fused_gram5)(const double* c1, const double* c2, std::size_t m, double* out,
                      std::size_t anchor);
  void (*fused_pair_moments)(const double* x, const double* y, std::size_t m, double* out,
                             std::size_t anchor);
};

/// The active dispatch table, resolved once on first use (thread-safe;
/// concurrent first calls resolve to the same table).
const BackendOps& ActiveOps();

/// The active backend id / display name ("scalar", "avx2", "neon").
Backend ActiveBackend();
const char* ActiveBackendName();

/// True when `b` can run on this machine (compiled in and CPU-supported).
bool BackendSupported(Backend b);

/// Forces the active backend; returns false (and leaves the current
/// backend) when unsupported. Test/bench hook — not thread-safe against
/// in-flight kernels.
bool SetBackend(Backend b);

/// Parses an env-style backend name; returns false on unknown input.
/// "auto" maps to the CPU-detected best backend.
bool ParseBackend(const char* name, Backend* out);

/// Internal registries implemented in kernels_simd_*.cc; null on
/// architectures where the backend cannot be compiled.
const BackendOps* Avx2Ops();
const BackendOps* NeonOps();

/// Software-prefetch lookahead, in elements, used by the vector column
/// walks and the batch sweeps; 0 disables. Runtime-tunable so bench_micro
/// can sweep distances; tuned default from that sweep.
std::size_t PrefetchDistance();
void SetPrefetchDistance(std::size_t elems);
inline constexpr std::size_t kDefaultPrefetchDistance = 64;

// --- Public kernels (dispatched) -------------------------------------------

/// Σ xᵢ in the canonical blocked order.
inline double BlockedSum(const double* x, std::size_t m, std::size_t anchor = 0) {
  return ActiveOps().blocked_sum(x, m, anchor);
}

/// Σ xᵢyᵢ in the canonical blocked order (x and y may alias).
inline double BlockedDot(const double* x, const double* y, std::size_t m,
                         std::size_t anchor = 0) {
  return ActiveOps().blocked_dot(x, y, m, anchor);
}

inline Marginals ColumnMarginals(const double* x, std::size_t m, std::size_t anchor = 0) {
  return ActiveOps().column_marginals(x, m, anchor);
}

/// Σxy, Σx², Σy² in one fused pass.
inline void FusedDot3(const double* x, const double* y, std::size_t m, double* dot_xy,
                      double* dot_xx, double* dot_yy, std::size_t anchor = 0) {
  ActiveOps().fused_dot3(x, y, m, dot_xy, dot_xx, dot_yy, anchor);
}

/// The normal-equation right-hand side (Σc1·t, Σc2·t, Σt) in one pass.
inline void FusedCross3(const double* c1, const double* c2, const double* t, std::size_t m,
                        double out[3], std::size_t anchor = 0) {
  ActiveOps().fused_cross3(c1, c2, t, m, out, anchor);
}

/// The five Gram sums of the design [c1, c2, 1m].
inline void FusedGram5(const double* c1, const double* c2, std::size_t m, double out[5],
                       std::size_t anchor = 0) {
  ActiveOps().fused_gram5(c1, c2, m, out, anchor);
}

/// Σx, Σx², Σy, Σy², Σxy in one fused pass.
inline void FusedPairMoments(const double* x, const double* y, std::size_t m, double out[5],
                             std::size_t anchor = 0) {
  ActiveOps().fused_pair_moments(x, y, m, out, anchor);
}

// --- Retained block partials (DESIGN.md §10) -------------------------------

/// Per-refresh accounting of a retained-partial update: how many grid
/// blocks were recomputed or freshly completed versus served from the
/// cache, and how often the leading partial block resumed from its
/// checkpointed prefix state instead of a full re-walk. Reported through
/// MaintenanceProfile and bench_streaming.
struct BlockSpanStats {
  std::size_t touched = 0;  ///< partial/leading spans recomputed + blocks completed
  std::size_t reused = 0;   ///< interior block partials reused bit-for-bit
  std::size_t prefix_resumes = 0;  ///< leading spans resumed from a checkpoint

  void Add(const BlockSpanStats& o) {
    touched += o.touched;
    reused += o.reused;
    prefix_resumes += o.prefix_resumes;
  }
};

/// Retained block partials of `kChains` fused canonical chains over one
/// sliding window (the BlockPartialCache unit). The chain remembers, for
/// the window [anchor, anchor + window) it last produced totals for:
///
///  * `interior_`: the reduced partial of every grid block fully inside
///    the window (kChains values per block, block order),
///  * the **lane state of the trailing partial block** — the four
///    unreduced lane sums over the elements accumulated into the grid
///    block the window currently ends inside, and
///  * the **prefix state of the leading partial block**: the canonical
///    top-down walk of [anchor, B) checkpoints its lane state every
///    `kPrefixStride` rows on the way down. Because the reversed walk's
///    state at row r is a pure function of rows [r, B), a later slide to
///    a higher anchor restarts from the nearest checkpoint at or above it
///    and folds fewer than kPrefixStride rows — O(kPrefixStride) instead
///    of O(kBlockElems) per refresh. The checkpoints die with their block
///    (the anchor crossing B) and on any geometry change.
///
/// `SlideTo(new_anchor, term, out)` advances the window and produces
/// totals bitwise identical to a cold anchored `Accumulate` over the new
/// window, by construction: interior partials are pure functions of their
/// samples (reused), appended samples extend the trailing lane state in
/// the exact cold order (lane = in-block offset mod kLanes, increasing),
/// and the leading span resumes the exact cold top-down order from a
/// checkpoint. Ownership and invalidation live in IncrementalMaintainer:
/// the chain is dropped whenever the structure it sums over changes
/// (escalation, rebuild, restore).
template <int kChains>
class BlockChain {
 public:
  BlockChain() = default;

  bool initialized() const { return init_; }
  std::size_t anchor() const { return anchor_; }
  std::size_t window() const { return window_; }

  /// Advances the retained state to the window [new_anchor, new_anchor +
  /// window) and writes its canonical totals. `term(i, v)` must read the
  /// *current* window buffer at window-relative index i ∈ [0, window).
  /// Falls back to a cold rebuild when uninitialized, when the window
  /// length changed, when the slide moved backwards, or when the slide
  /// covers the whole window (nothing to retain).
  template <class Term>
  void SlideTo(std::size_t new_anchor, std::size_t window, const Term& term,
               double out[kChains], BlockSpanStats* stats = nullptr) {
    if (!init_ || window != window_ || new_anchor < anchor_ || new_anchor - anchor_ >= window) {
      Rebuild(new_anchor, window, term, stats);
    } else {
      Advance(new_anchor, term, stats);
    }
    Totals(term, out, stats);
  }

  /// Drops all retained state (the next SlideTo rebuilds cold).
  void Invalidate() {
    init_ = false;
    prefix_end_ = 0;
  }

 private:
  static constexpr std::size_t kPrefixCkpts = kBlockElems / kPrefixStride;

  static std::size_t FirstGrid(std::size_t anchor) {
    return (anchor + kBlockElems - 1) / kBlockElems;
  }

  /// Cold start: retain interiors and trailing lanes for [anchor, anchor+w).
  template <class Term>
  void Rebuild(std::size_t anchor, std::size_t window, const Term& term,
               BlockSpanStats* stats) {
    anchor_ = anchor;
    window_ = window;
    interior_.clear();
    lane_block_ = FirstGrid(anchor);
    trailing_len_ = 0;
    for (int c = 0; c < kChains; ++c) {
      for (std::size_t l = 0; l < kLanes; ++l) lanes_[c][l] = 0.0;
    }
    prefix_end_ = 0;
    init_ = true;
    Append(term, stats);
  }

  /// Warm slide: drop evicted interiors, extend the tail with the
  /// appended samples, keep everything in between untouched.
  template <class Term>
  void Advance(std::size_t new_anchor, const Term& term, BlockSpanStats* stats) {
    const std::size_t gf = FirstGrid(new_anchor);
    // Interiors that slid out of the window (their block now starts
    // before the new first grid row).
    const std::size_t have = interior_.size() / kChains;
    const std::size_t first_block = lane_block_ - have;
    const std::size_t drop = gf > first_block ? (gf - first_block < have ? gf - first_block : have)
                                              : 0;
    if (drop > 0) {
      interior_.erase(interior_.begin(),
                      interior_.begin() + static_cast<std::ptrdiff_t>(drop * kChains));
    }
    if (lane_block_ < gf) {
      // The old trailing block itself was evicted (a multi-refresh gap):
      // discard its lane state and restart coverage at the new grid.
      AFFINITY_DCHECK(interior_.empty());
      lane_block_ = gf;
      trailing_len_ = 0;
      for (int c = 0; c < kChains; ++c) {
        for (std::size_t l = 0; l < kLanes; ++l) lanes_[c][l] = 0.0;
      }
    }
    if (stats != nullptr) stats->reused += interior_.size() / kChains;
    anchor_ = new_anchor;
    Append(term, stats);
  }

  /// Extends coverage from the retained end to the window end, completing
  /// grid blocks as they fill. Lane assignment is the in-block offset mod
  /// kLanes in increasing row order — the cold AccumulateSpan order, so a
  /// block completed across several slides reduces to the identical bits.
  template <class Term>
  void Append(const Term& term, BlockSpanStats* stats) {
    const std::size_t end_abs = anchor_ + window_;
    std::size_t a = lane_block_ * kBlockElems + trailing_len_;
    // Coverage may legitimately start past end_abs (a window inside one
    // block has no retained coverage), but never before the anchor.
    AFFINITY_DCHECK(a >= anchor_);
    while (a < end_abs) {
      const std::size_t block_end = (lane_block_ + 1) * kBlockElems;
      const std::size_t stop = block_end < end_abs ? block_end : end_abs;
      double v[kChains];
      for (; a < stop; ++a) {
        term(a - anchor_, v);
        const std::size_t lane = (a % kBlockElems) % kLanes;
        for (int c = 0; c < kChains; ++c) lanes_[c][lane] += v[c];
      }
      trailing_len_ = a - lane_block_ * kBlockElems;
      if (trailing_len_ == kBlockElems) {
        for (int c = 0; c < kChains; ++c) {
          interior_.push_back((lanes_[c][0] + lanes_[c][1]) + (lanes_[c][2] + lanes_[c][3]));
          for (std::size_t l = 0; l < kLanes; ++l) lanes_[c][l] = 0.0;
        }
        ++lane_block_;
        trailing_len_ = 0;
        if (stats != nullptr) ++stats->touched;
      }
    }
  }

  /// Produces the leading span's lane state — the canonical top-down walk
  /// of window rows [0, lead_len) — resuming from the retained prefix
  /// checkpoints when the span still descends from the same grid row.
  template <class Term>
  void LeadingSpan(std::size_t lead_len, const Term& term, double lanes[kChains][kLanes],
                   BlockSpanStats* stats) {
    const std::size_t lead_end = anchor_ + lead_len;
    AFFINITY_DCHECK(lead_len > 0 && lead_len <= window_);
    if (lead_end != FirstGrid(anchor_) * kBlockElems) {
      // The window never reaches the grid (it sits inside one block), so
      // the walk's base moves with the window end and nothing can be
      // retained: cold reversed walk.
      detail::AccumulateSpanReversed<kChains>(0, lead_len, term, lanes);
      if (stats != nullptr) ++stats->touched;
      return;
    }
    const std::size_t grid_end = lead_end;  // B: the grid row the walk descends from
    if (prefix_end_ == grid_end && anchor_ >= prefix_floor_) {
      // Resume: the nearest checkpoint at or above the new anchor holds
      // the lane state of [ckpt, B); fold the < kPrefixStride rows below
      // it in the same decreasing-row order the cold walk uses.
      const std::size_t ckpt =
          ((anchor_ + kPrefixStride - 1) / kPrefixStride) * kPrefixStride;
      AFFINITY_DCHECK(ckpt >= anchor_ && ckpt <= grid_end);
      if (ckpt < grid_end) {
        const std::size_t k = (ckpt + kBlockElems - grid_end) / kPrefixStride;
        AFFINITY_DCHECK(k < kPrefixCkpts && ckpt >= prefix_floor_);
        for (int c = 0; c < kChains; ++c) {
          for (std::size_t l = 0; l < kLanes; ++l) lanes[c][l] = prefix_ckpt_[k][c][l];
        }
      }
      // else: the anchor sits in the topmost stride — start from zeros.
      for (std::size_t r = ckpt < grid_end ? ckpt : grid_end; r > anchor_; --r) {
        const std::size_t row = r - 1;
        double v[kChains];
        term(row - anchor_, v);
        const std::size_t lane = (grid_end - 1 - row) % kLanes;
        for (int c = 0; c < kChains; ++c) lanes[c][lane] += v[c];
      }
      if (stats != nullptr) ++stats->prefix_resumes;
      return;
    }
    // Cold walk from B − 1 down to the anchor, capturing the checkpoint
    // lane states as the walk crosses each stride row. At position r the
    // state covers [r, B); stride-aligned positions (including an aligned
    // anchor) are stored so a later resume finds them.
    for (std::size_t r = grid_end;; --r) {
      if (r % kPrefixStride == 0 && r < grid_end) {
        const std::size_t k = (r + kBlockElems - grid_end) / kPrefixStride;
        AFFINITY_DCHECK(k < kPrefixCkpts);
        for (int c = 0; c < kChains; ++c) {
          for (std::size_t l = 0; l < kLanes; ++l) prefix_ckpt_[k][c][l] = lanes[c][l];
        }
      }
      if (r == anchor_) break;
      const std::size_t row = r - 1;
      double v[kChains];
      term(row - anchor_, v);
      const std::size_t lane = (grid_end - 1 - row) % kLanes;
      for (int c = 0; c < kChains; ++c) lanes[c][lane] += v[c];
    }
    prefix_end_ = grid_end;
    prefix_floor_ = anchor_;
    if (stats != nullptr) ++stats->touched;
  }

  /// Re-reduces leading + interiors + trailing lanes in the canonical
  /// span order. The leading partial block (present when the anchor is
  /// off-grid) is served by the prefix state above.
  template <class Term>
  void Totals(const Term& term, double out[kChains], BlockSpanStats* stats) {
    const std::size_t gf = FirstGrid(anchor_);
    const std::size_t lead_end_abs = gf * kBlockElems < anchor_ + window_
                                         ? gf * kBlockElems
                                         : anchor_ + window_;
    for (int c = 0; c < kChains; ++c) out[c] = 0.0;
    if (lead_end_abs > anchor_) {
      double lead[kChains][kLanes] = {};
      LeadingSpan(lead_end_abs - anchor_, term, lead, stats);
      for (int c = 0; c < kChains; ++c) {
        out[c] += (lead[c][0] + lead[c][1]) + (lead[c][2] + lead[c][3]);
      }
    }
    // The cache re-anchor invariant: retained coverage must tile the rest
    // of the window exactly — interiors for every fully covered grid
    // block, the trailing lane state for the remainder. A window that
    // never reaches the grid (it sits inside one block) has no retained
    // coverage at all: the leading span above was the whole window.
    const std::size_t have = interior_.size() / kChains;
    if (gf * kBlockElems >= anchor_ + window_) {
      AFFINITY_CHECK(have == 0 && trailing_len_ == 0);
      return;
    }
    const std::size_t ge = (anchor_ + window_) / kBlockElems;
    AFFINITY_CHECK(lane_block_ == ge && have == ge - gf);
    AFFINITY_CHECK_EQ(lane_block_ * kBlockElems + trailing_len_, anchor_ + window_);
    for (std::size_t b = 0; b < have; ++b) {
      for (int c = 0; c < kChains; ++c) out[c] += interior_[b * kChains + c];
    }
    if (trailing_len_ > 0) {
      for (int c = 0; c < kChains; ++c) {
        out[c] += (lanes_[c][0] + lanes_[c][1]) + (lanes_[c][2] + lanes_[c][3]);
      }
      if (stats != nullptr) ++stats->touched;
    }
  }

  std::size_t anchor_ = 0;
  std::size_t window_ = 0;
  /// Reduced partials of the fully covered grid blocks, kChains values
  /// per block in block order; the first retained block is
  /// `lane_block_ - interior_.size() / kChains`.
  std::vector<double> interior_;
  /// Grid index of the block the lane state accumulates, and how many of
  /// its elements are folded in so far.
  std::size_t lane_block_ = 0;
  std::size_t trailing_len_ = 0;
  double lanes_[kChains][kLanes] = {};
  /// Leading-prefix state: `prefix_ckpt_[k]` is the reversed-walk lane
  /// state covering rows [prefix_end_ − kBlockElems + k·kPrefixStride,
  /// prefix_end_), captured by the last cold walk (which descended to
  /// `prefix_floor_`). `prefix_end_` == 0 means no retained prefix.
  std::size_t prefix_end_ = 0;
  std::size_t prefix_floor_ = 0;
  double prefix_ckpt_[kPrefixCkpts][kChains][kLanes] = {};
  bool init_ = false;
};

// --- Batch helpers (kernels.cc) --------------------------------------------

/// Marginals of every column of `data`, hoisted once per query as a
/// deterministic chunked parallel loop (one chain per column, so the
/// result is thread-count invariant). Runs at the matrix's block-grid
/// anchor.
std::vector<Marginals> HoistMarginals(const ts::DataMatrix& data, const ExecContext& exec);

/// As above over an explicit column list (the shard router's resolved
/// cross-pair columns), all of length `m` anchored at `anchor`.
std::vector<Marginals> HoistMarginals(const std::vector<const double*>& columns, std::size_t m,
                                      const ExecContext& exec, std::size_t anchor = 0);

}  // namespace affinity::core::kernels

#endif  // AFFINITY_CORE_KERNELS_H_
