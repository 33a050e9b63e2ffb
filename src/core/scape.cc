#include "core/scape.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/stopwatch.h"

namespace affinity::core {

namespace {

/// αq of Table 2 (corrected dot-product row; see DESIGN.md) for the
/// covariance family. The common-column side decides which Σ entries feed
/// the key.
void CovarianceAlpha(const PairMatrixMeasures& pm, bool series_first, double alpha[3]) {
  if (series_first) {
    alpha[0] = pm.cov11;
    alpha[1] = pm.cov12;
  } else {
    alpha[0] = pm.cov12;
    alpha[1] = pm.cov22;
  }
  alpha[2] = 0.0;
}

/// αq for the dot-product family: Π12(Se) = Π11·a + Π12·a' + h·b on the
/// series-first side, mirrored otherwise.
void DotProductAlpha(const PairMatrixMeasures& pm, bool series_first, double alpha[3]) {
  if (series_first) {
    alpha[0] = pm.dot11;
    alpha[1] = pm.dot12;
    alpha[2] = pm.h1;
  } else {
    alpha[0] = pm.dot12;
    alpha[1] = pm.dot22;
    alpha[2] = pm.h2;
  }
}

double Norm3(const double a[3]) {
  return std::sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2]);
}

double Dot3(const double a[3], const double b[3]) {
  return a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
}

constexpr Measure kLocationMeasures[3] = {Measure::kMean, Measure::kMedian, Measure::kMode};

/// Bitwise equality: a key that only flips a zero's sign still moves, so a
/// kept run is always bit-identical to a rewrite of it.
bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The run order over member indices: by ξ, ties by member index.
/// Members are kept in ascending entity order, so a tie falls back to the
/// pair (or series) order — the order a from-scratch sort produces.
bool RunBefore(const std::vector<double>& xi, std::uint32_t a, std::uint32_t b) {
  return xi[a] < xi[b] || (!(xi[b] < xi[a]) && a < b);
}

/// Restores run order after a re-key in one insertion pass: O(size +
/// inversions), and a slide moves few entries past their neighbours.
void InsertionPass(const std::vector<double>& xi, std::vector<std::uint32_t>* order) {
  std::uint32_t* o = order->data();
  for (std::size_t j = 1; j < order->size(); ++j) {
    const std::uint32_t member = o[j];
    std::size_t h = j;
    while (h > 0 && RunBefore(xi, member, o[h - 1])) {
      o[h] = o[h - 1];
      --h;
    }
    o[h] = member;
  }
}

/// A buffer for a run rewrite: the spare, with its capacity, when the
/// index holds its only reference (no epoch shares it any more), else a
/// fresh one. Callers overwrite every field.
template <typename Run>
std::shared_ptr<Run> Recycle(std::shared_ptr<const Run>* spare) {
  std::shared_ptr<const Run> old = std::move(*spare);
  if (old != nullptr && old.use_count() == 1) {
    // use_count() is a relaxed load: the acquire fence orders every access
    // of the last other owner (before its releasing drop) before the
    // rewrite. Taking and dropping one more reference states the same
    // edge as an acquire-release update of the count, which thread
    // sanitizers model and a standalone fence they do not.
    std::atomic_thread_fence(std::memory_order_acquire);
    std::shared_ptr<const Run>(old).reset();
    return std::const_pointer_cast<Run>(std::move(old));
  }
  return std::make_shared<Run>();
}

void AddStats(ScapeRefreshStats* into, const ScapeRefreshStats& from) {
  into->entries_moved += from.entries_moved;
  into->entries_unchanged += from.entries_unchanged;
}

}  // namespace

int PairFamilyOf(Measure m) {
  switch (m) {
    case Measure::kCovariance:
    case Measure::kCorrelation:
      return 0;
    case Measure::kDotProduct:
    case Measure::kCosine:
      return 1;
    default:
      return -1;
  }
}

int LocationFamilyOf(Measure m) {
  switch (m) {
    case Measure::kMean:
      return 0;
    case Measure::kMedian:
      return 1;
    case Measure::kMode:
      return 2;
    default:
      return -1;
  }
}

// ---------------------------------------------------------------------------
// Build and refresh.
// ---------------------------------------------------------------------------

StatusOr<ScapeIndex> ScapeIndex::Build(const AffinityModel& model, const ExecContext& exec) {
  Stopwatch watch;
  ScapeIndex index;
  // Pivot slots in first-appearance order over the ascending relationship
  // walk, so each pivot's members come in ascending pair order — the tie
  // order of its runs. Independent of the execution context.
  std::unordered_map<std::uint64_t, std::size_t> pivot_slot;
  pivot_slot.reserve(model.pivot_count());
  index.pair_state_.reserve(model.pivot_count());
  model.ForEachRelationship([&](const ts::SequencePair& e, const AffineRecord& rec) {
    const auto [it, inserted] = pivot_slot.try_emplace(rec.pivot.Key(), index.pair_state_.size());
    if (inserted) {
      index.pair_state_.emplace_back();
      index.pair_state_.back().pivot = rec.pivot;
    }
    PairPivotState& node = index.pair_state_[it->second];
    node.members.push_back(e);
    node.recs.push_back(&rec);
    ++index.pair_entries_;
  });
  const std::size_t n = model.data().n();
  index.loc_state_.resize(model.clustering().k());
  for (std::size_t v = 0; v < n; ++v) {
    index.loc_state_[static_cast<std::size_t>(model.clustering().assignment[v])]
        .members.push_back(static_cast<ts::SeriesId>(v));
    ++index.series_entries_;
  }
  index.runs_.pair.resize(index.pair_state_.size());
  index.runs_.loc.resize(index.loc_state_.size());
  AFFINITY_RETURN_IF_ERROR(index.RekeyAll(model, /*cold=*/true, exec).status());
  index.build_seconds_ = watch.ElapsedSeconds();
  return index;
}

StatusOr<ScapeRefreshStats> ScapeIndex::Refresh(const AffinityModel& model,
                                                const ExecContext& exec) {
  return RekeyAll(model, /*cold=*/false, exec);
}

StatusOr<ScapeRefreshStats> ScapeIndex::RekeyAll(const AffinityModel& model, bool cold,
                                                 const ExecContext& exec) {
  // A pivot's state and run handles are private to the chunk item that
  // owns it; counts merge in chunk-index order, so the totals (like the
  // runs) are thread-count invariant.
  std::vector<ScapeRefreshStats> pair_stats(ExecNumChunks(pair_state_.size()));
  AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
      exec, pair_state_.size(), [&](std::size_t chunk, std::size_t lo, std::size_t hi) -> Status {
        std::array<std::vector<std::uint32_t>, 2> entered;
        for (std::size_t slot = lo; slot < hi; ++slot) {
          AFFINITY_RETURN_IF_ERROR(
              RekeyPairPivot(model, slot, cold, entered.data(), &pair_stats[chunk]));
        }
        return Status::OK();
      }));
  std::vector<ScapeRefreshStats> loc_stats(ExecNumChunks(loc_state_.size()));
  AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
      exec, loc_state_.size(), [&](std::size_t chunk, std::size_t lo, std::size_t hi) -> Status {
        for (std::size_t slot = lo; slot < hi; ++slot) {
          AFFINITY_RETURN_IF_ERROR(RekeyLocPivot(model, slot, cold, &loc_stats[chunk]));
        }
        return Status::OK();
      }));
  ScapeRefreshStats total;
  for (const ScapeRefreshStats& s : pair_stats) AddStats(&total, s);
  for (const ScapeRefreshStats& s : loc_stats) AddStats(&total, s);
  return total;
}

Status ScapeIndex::RekeyPairPivot(const AffinityModel& model, std::size_t slot, bool cold,
                                  std::vector<std::uint32_t>* entered,
                                  ScapeRefreshStats* stats) {
  PairPivotState& node = pair_state_[slot];
  const PairMatrixMeasures* pm = model.FindPivotMeasures(node.pivot);
  if (pm == nullptr) {
    return Status::FailedPrecondition("SCAPE: pivot structure changed since build");
  }
  double alpha[2][3];
  CovarianceAlpha(*pm, node.pivot.series_first, alpha[0]);
  DotProductAlpha(*pm, node.pivot.series_first, alpha[1]);
  const double norm[2] = {Norm3(alpha[0]), Norm3(alpha[1])};
  std::array<std::shared_ptr<const PairRun>, 2>& handles = runs_.pair[slot];
  const std::size_t size = node.members.size();
  double old_norm[2] = {0.0, 0.0};
  bool moved[2] = {cold, cold};
  bool migrated[2] = {false, false};  // an entry crossed between run and side list
  for (std::size_t f = 0; f < 2; ++f) {
    entered[f].clear();
    if (cold) {
      node.families[f].xi.resize(size);
      node.families[f].u.resize(size);
    } else {
      old_norm[f] = handles[f]->norm;
      moved[f] = !SameBits(norm[f], old_norm[f]);
    }
  }
  for (std::size_t i = 0; i < size; ++i) {
    const ts::SequencePair e = node.members[i];
    double beta[3];
    node.recs[i]->Beta(beta);
    // The separable normalizers, same expressions as PairNormalizer:
    // correlation-U for the covariance family, cosine-U for the dot one.
    const SeriesStats& su = model.series_stats(e.u);
    const SeriesStats& sv = model.series_stats(e.v);
    const double normalizer[2] = {std::sqrt(su.variance * sv.variance),
                                  std::sqrt(su.sumsq * sv.sumsq)};
    for (std::size_t f = 0; f < 2; ++f) {
      RunState<PairRun>& st = node.families[f];
      const double xi = norm[f] > 0.0 ? Dot3(alpha[f], beta) / norm[f] : 0.0;
      const double u = normalizer[f];
      if (!cold) {
        const bool was_in = old_norm[f] > 0.0 && st.u[i] > 0.0;
        const bool is_in = norm[f] > 0.0 && u > 0.0;
        if (SameBits(xi, st.xi[i]) && SameBits(u, st.u[i]) && was_in == is_in) {
          ++stats->entries_unchanged;
          continue;
        }
        ++stats->entries_moved;
        moved[f] = true;
        if (was_in != is_in) migrated[f] = true;
        if (is_in && !was_in) entered[f].push_back(static_cast<std::uint32_t>(i));
      }
      st.xi[i] = xi;
      st.u[i] = u;
    }
  }

  for (std::size_t f = 0; f < 2; ++f) {
    if (!moved[f]) continue;
    RunState<PairRun>& st = node.families[f];
    // Degenerate pivot (‖α‖ = 0 → T-value ≡ 0) or zero normalizer
    // (constant series → D-value ≡ 0): the entry lives in the side list.
    const auto in_run = [&](std::size_t i) { return norm[f] > 0.0 && st.u[i] > 0.0; };
    if (cold) {
      st.order.clear();
      for (std::size_t i = 0; i < size; ++i) {
        if (in_run(i)) st.order.push_back(static_cast<std::uint32_t>(i));
      }
      std::sort(st.order.begin(), st.order.end(),
                [&](std::uint32_t a, std::uint32_t b) { return RunBefore(st.xi, a, b); });
    } else {
      // The prior run order with leavers dropped and entrants appended is
      // nearly sorted; one insertion pass restores (ξ, pair) order.
      if (migrated[f]) {
        std::erase_if(st.order, [&](std::uint32_t i) { return !in_run(i); });
        st.order.insert(st.order.end(), entered[f].begin(), entered[f].end());
      }
      InsertionPass(st.xi, &st.order);
    }
    std::shared_ptr<PairRun> run = Recycle(&st.spare);
    run->norm = norm[f];
    run->u_min = std::numeric_limits<double>::infinity();
    run->u_max = 0.0;
    const std::size_t count = st.order.size();
    run->keys.resize(count);
    run->pairs.resize(count);
    run->us.resize(count);
    for (std::size_t j = 0; j < count; ++j) {
      const std::uint32_t i = st.order[j];
      run->keys[j] = st.xi[i];
      run->pairs[j] = node.members[i];
      run->us[j] = st.u[i];
      run->u_min = std::min(run->u_min, st.u[i]);
      run->u_max = std::max(run->u_max, st.u[i]);
    }
    run->side.clear();
    if (count < size) {
      for (std::size_t i = 0; i < size; ++i) {
        if (!in_run(i)) run->side.push_back(ScapeSideEntry{node.members[i], st.u[i], st.xi[i]});
      }
    }
    st.spare = std::move(handles[f]);
    handles[f] = std::move(run);
  }
  return Status::OK();
}

Status ScapeIndex::RekeyLocPivot(const AffinityModel& model, std::size_t slot, bool cold,
                                 ScapeRefreshStats* stats) {
  LocPivotState& node = loc_state_[slot];
  const std::size_t size = node.members.size();
  for (std::size_t f = 0; f < 3; ++f) {
    AFFINITY_ASSIGN_OR_RETURN(const double center,
                              model.CenterLocation(kLocationMeasures[f], static_cast<int>(slot)));
    // α = (centre L-value, 1): ‖α‖ ≥ 1, never degenerate.
    const double norm = std::sqrt(center * center + 1.0);
    RunState<LocRun>& st = node.families[f];
    std::shared_ptr<const LocRun>& handle = runs_.loc[slot][f];
    bool moved = cold || !SameBits(norm, handle->norm);
    if (cold) st.xi.resize(size);
    for (std::size_t i = 0; i < size; ++i) {
      const SeriesAffine& sa = model.series_affine(node.members[i]);
      const double xi = (center * sa.gain + sa.offset) / norm;
      if (!cold) {
        if (SameBits(xi, st.xi[i])) {
          ++stats->entries_unchanged;
          continue;
        }
        ++stats->entries_moved;
        moved = true;
      }
      st.xi[i] = xi;
    }
    if (!moved) continue;
    if (cold) {
      st.order.resize(size);
      for (std::size_t i = 0; i < size; ++i) st.order[i] = static_cast<std::uint32_t>(i);
      std::sort(st.order.begin(), st.order.end(),
                [&](std::uint32_t a, std::uint32_t b) { return RunBefore(st.xi, a, b); });
    } else {
      InsertionPass(st.xi, &st.order);
    }
    std::shared_ptr<LocRun> run = Recycle(&st.spare);
    run->norm = norm;
    run->keys.resize(size);
    run->series.resize(size);
    for (std::size_t j = 0; j < size; ++j) {
      run->keys[j] = st.xi[st.order[j]];
      run->series[j] = node.members[st.order[j]];
    }
    st.spare = std::move(handle);
    handle = std::move(run);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// MET / MER over sorted runs: binary-search bounds, then linear walks over
// contiguous key spans. Results come pivot by pivot, each in key order.
// ---------------------------------------------------------------------------

namespace {

/// First index whose key is >= `key`.
std::size_t LowerBound(const std::vector<double>& keys, double key) {
  return static_cast<std::size_t>(std::lower_bound(keys.begin(), keys.end(), key) - keys.begin());
}

/// First index whose key is > `key`.
std::size_t UpperBound(const std::vector<double>& keys, double key) {
  return static_cast<std::size_t>(std::upper_bound(keys.begin(), keys.end(), key) - keys.begin());
}

/// Bulk-accepts the pre-seeked span `src[begin, end)` — one contiguous
/// append instead of a per-entry push, counting the whole span as
/// accepted-unverified. No-op when the span is empty or inverted.
template <typename T>
void AcceptSpan(const std::vector<T>& src, std::size_t begin, std::size_t end,
                std::vector<T>* out, PruneStats* prune) {
  if (begin >= end) return;
  out->insert(out->end(), src.begin() + static_cast<std::ptrdiff_t>(begin),
              src.begin() + static_cast<std::ptrdiff_t>(end));
  prune->accepted_unverified += end - begin;
}

/// The D-measure value of run entry `i`: ‖α‖·ξ / U.
double DerivedValue(const PairRun& run, std::size_t i) {
  return run.norm * run.keys[i] / run.us[i];
}

/// Pivot `p`'s run of `family` — and, since consecutive runs are separate
/// allocations rather than one array, a prefetch of the runs a scan reads
/// next: the header two pivots ahead and the leading keys and pairs one
/// pivot ahead (whose header the previous call prefetched).
const PairRun& RunAt(const ScapeRuns& runs, std::size_t p, std::size_t family) {
  const std::size_t count = runs.pair.size();
  if (p + 2 < count) {
    const char* header = reinterpret_cast<const char*>(runs.pair[p + 2][family].get());
    __builtin_prefetch(header);
    __builtin_prefetch(header + 64);
  }
  if (p + 1 < count) {
    const PairRun& next = *runs.pair[p + 1][family];
    __builtin_prefetch(next.keys.data());
    __builtin_prefetch(next.pairs.data());
  }
  return *runs.pair[p][family];
}

ScapeQueryResult LocationThreshold(const ScapeRuns& runs, int family, double tau, bool greater) {
  ScapeQueryResult out;
  for (const auto& node : runs.loc) {
    const LocRun& run = *node[static_cast<std::size_t>(family)];
    const double tau_prime = tau / run.norm;
    if (greater) {
      AcceptSpan(run.series, UpperBound(run.keys, tau_prime), run.keys.size(), &out.series,
                 &out.prune);
    } else {
      AcceptSpan(run.series, 0, LowerBound(run.keys, tau_prime), &out.series, &out.prune);
    }
  }
  return out;
}

ScapeQueryResult LocationRange(const ScapeRuns& runs, int family, double lo, double hi) {
  ScapeQueryResult out;
  for (const auto& node : runs.loc) {
    const LocRun& run = *node[static_cast<std::size_t>(family)];
    // [ub(lo'), lb(hi')) is exactly the strict (lo', hi') band; AcceptSpan
    // no-ops on an inverted span.
    AcceptSpan(run.series, UpperBound(run.keys, lo / run.norm), LowerBound(run.keys, hi / run.norm),
               &out.series, &out.prune);
  }
  return out;
}

ScapeQueryResult PairThreshold(const ScapeRuns& runs, Measure measure, double tau, bool greater) {
  const auto family = static_cast<std::size_t>(PairFamilyOf(measure));
  const bool derived = IsDerived(measure);
  ScapeQueryResult out;
  // Side-list entries: D-value defined 0; T-value ‖α‖·ξ from the kept ξ.
  const bool zero_in = greater ? 0.0 > tau : 0.0 < tau;
  for (std::size_t p = 0; p < runs.pair.size(); ++p) {
    const PairRun& run = RunAt(runs, p, family);
    if (!derived) {
      // T-measure: value = ‖α‖·ξ — one threshold conversion, one span.
      if (run.norm > 0.0) {
        const double tau_prime = tau / run.norm;
        if (greater) {
          AcceptSpan(run.pairs, UpperBound(run.keys, tau_prime), run.keys.size(), &out.pairs,
                     &out.prune);
        } else {
          AcceptSpan(run.pairs, 0, LowerBound(run.keys, tau_prime), &out.pairs, &out.prune);
        }
        for (const ScapeSideEntry& s : run.side) {
          const double value = run.norm * s.xi;
          if (greater ? value > tau : value < tau) out.pairs.push_back(s.pair);
        }
      } else if (zero_in) {
        // Degenerate pivot: every entry has value 0 and sits in the side list.
        for (const ScapeSideEntry& s : run.side) out.pairs.push_back(s.pair);
      }
      out.prune.scanned_degenerate += run.side.size();
      continue;
    }
    // D-measure: value = ‖α‖·ξ / U, U ∈ [u_min, u_max] per run (§5.3).
    if (run.norm > 0.0 && !run.keys.empty()) {
      const double b1 = tau * run.u_min;
      const double b2 = tau * run.u_max;
      const double lo_key = std::min(b1, b2) / run.norm;
      const double hi_key = std::max(b1, b2) / run.norm;
      // Keys in [lo_key, hi_key] form the verify band; keys above hi_key
      // (below lo_key) the unconditional-accept band — contiguous, so the
      // accept side is one bulk span. Ascending order is kept: for
      // `greater` the verify band precedes the accepted tail, for `lesser`
      // the accepted head precedes the verify band.
      if (greater) {
        const std::size_t vend = UpperBound(run.keys, hi_key);
        for (std::size_t i = LowerBound(run.keys, lo_key); i < vend; ++i) {
          ++out.prune.verified;
          if (DerivedValue(run, i) > tau) out.pairs.push_back(run.pairs[i]);
        }
        AcceptSpan(run.pairs, vend, run.keys.size(), &out.pairs, &out.prune);
      } else {
        const std::size_t vbegin = LowerBound(run.keys, lo_key);
        AcceptSpan(run.pairs, 0, vbegin, &out.pairs, &out.prune);
        const std::size_t vend = UpperBound(run.keys, hi_key);
        for (std::size_t i = vbegin; i < vend; ++i) {
          ++out.prune.verified;
          if (DerivedValue(run, i) < tau) out.pairs.push_back(run.pairs[i]);
        }
      }
    }
    if (zero_in) {
      for (const ScapeSideEntry& s : run.side) out.pairs.push_back(s.pair);
    }
    out.prune.scanned_degenerate += run.side.size();
  }
  return out;
}

ScapeQueryResult PairRange(const ScapeRuns& runs, Measure measure, double lo, double hi) {
  const auto family = static_cast<std::size_t>(PairFamilyOf(measure));
  const bool derived = IsDerived(measure);
  const bool zero_in = lo < 0.0 && 0.0 < hi;
  ScapeQueryResult out;
  for (std::size_t p = 0; p < runs.pair.size(); ++p) {
    const PairRun& run = RunAt(runs, p, family);
    if (!derived) {
      if (run.norm > 0.0) {
        AcceptSpan(run.pairs, UpperBound(run.keys, lo / run.norm),
                   LowerBound(run.keys, hi / run.norm), &out.pairs, &out.prune);
        for (const ScapeSideEntry& s : run.side) {
          const double value = run.norm * s.xi;
          if (lo < value && value < hi) out.pairs.push_back(s.pair);
        }
      } else if (zero_in) {
        for (const ScapeSideEntry& s : run.side) out.pairs.push_back(s.pair);
      }
      out.prune.scanned_degenerate += run.side.size();
      continue;
    }
    // D-measure MER with the four modified thresholds of §5.3.
    if (run.norm > 0.0 && !run.keys.empty()) {
      const double l1 = lo * run.u_min, l2 = lo * run.u_max;
      const double h1 = hi * run.u_min, h2 = hi * run.u_max;
      const double reject_below = std::min(l1, l2) / run.norm;  // ξ ≤ this → out
      const double accept_lo = std::max(l1, l2) / run.norm;     // case-I accept band
      const double accept_hi = std::min(h1, h2) / run.norm;
      const double reject_above = std::max(h1, h2) / run.norm;  // ξ ≥ this → out
      // The walk splits into verify / bulk-accept / verify segments: within
      // [begin, end) the strict (accept_lo, accept_hi) band is the span
      // [ub(accept_lo), lb(accept_hi)), clamped so an empty or out-of-walk
      // band degenerates to verify-everything.
      const std::size_t begin = UpperBound(run.keys, reject_below);
      const std::size_t end = std::max(begin, LowerBound(run.keys, reject_above));
      const std::size_t a = std::clamp(UpperBound(run.keys, accept_lo), begin, end);
      const std::size_t b = std::clamp(std::max(a, LowerBound(run.keys, accept_hi)), a, end);
      for (std::size_t i = begin; i < a; ++i) {
        ++out.prune.verified;
        const double value = DerivedValue(run, i);
        if (lo < value && value < hi) out.pairs.push_back(run.pairs[i]);
      }
      AcceptSpan(run.pairs, a, b, &out.pairs, &out.prune);
      for (std::size_t i = b; i < end; ++i) {
        ++out.prune.verified;
        const double value = DerivedValue(run, i);
        if (lo < value && value < hi) out.pairs.push_back(run.pairs[i]);
      }
    }
    if (zero_in) {
      for (const ScapeSideEntry& s : run.side) out.pairs.push_back(s.pair);
    }
    out.prune.scanned_degenerate += run.side.size();
  }
  return out;
}

Status NotIndexable(Measure measure) {
  return Status::Unimplemented(std::string(MeasureName(measure)) +
                               " is not SCAPE-indexable (no separable normalizer)");
}

}  // namespace

StatusOr<ScapeQueryResult> ScapeMeasureThreshold(const ScapeRuns& runs, Measure measure,
                                                 double tau, bool greater) {
  const int loc = LocationFamilyOf(measure);
  if (loc >= 0) return LocationThreshold(runs, loc, tau, greater);
  if (PairFamilyOf(measure) >= 0) return PairThreshold(runs, measure, tau, greater);
  return NotIndexable(measure);
}

StatusOr<ScapeQueryResult> ScapeMeasureRange(const ScapeRuns& runs, Measure measure, double lo,
                                             double hi) {
  if (lo > hi) return Status::InvalidArgument("MER requires lo <= hi");
  const int loc = LocationFamilyOf(measure);
  if (loc >= 0) return LocationRange(runs, loc, lo, hi);
  if (PairFamilyOf(measure) >= 0) return PairRange(runs, measure, lo, hi);
  return NotIndexable(measure);
}

}  // namespace affinity::core
