#include "core/scape.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
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

/// The run order over member indices: by ξ, ties by member index.
/// Members are kept in ascending entity order, so a tie falls back to the
/// pair (or series) order.
bool RunBefore(const std::vector<double>& xi, std::uint32_t a, std::uint32_t b) {
  return xi[a] < xi[b] || (!(xi[b] < xi[a]) && a < b);
}

void SortRunOrder(const std::vector<double>& xi, std::vector<std::uint32_t>* order) {
  std::sort(order->begin(), order->end(),
            [&](std::uint32_t a, std::uint32_t b) { return RunBefore(xi, a, b); });
}

/// One pair pivot's relationships, in ascending pair order.
struct PairPivotMembers {
  PivotPair pivot;
  std::vector<ts::SequencePair> pairs;
  std::vector<const AffineRecord*> recs;
};

/// Writes pivot `node`'s covariance- and dot-product-family runs.
Status BuildPairRuns(const AffinityModel& model, const PairPivotMembers& node,
                     std::array<PairRun, 2>* runs) {
  const PairMatrixMeasures* pm = model.FindPivotMeasures(node.pivot);
  if (pm == nullptr) return Status::FailedPrecondition("SCAPE: pivot has no measures");
  double alpha[2][3];
  CovarianceAlpha(*pm, node.pivot.series_first, alpha[0]);
  DotProductAlpha(*pm, node.pivot.series_first, alpha[1]);
  const double norm[2] = {Norm3(alpha[0]), Norm3(alpha[1])};
  const std::size_t size = node.pairs.size();
  std::array<std::vector<double>, 2> xi, u;
  for (std::size_t f = 0; f < 2; ++f) {
    xi[f].resize(size);
    u[f].resize(size);
  }
  for (std::size_t i = 0; i < size; ++i) {
    const ts::SequencePair e = node.pairs[i];
    double beta[3];
    node.recs[i]->Beta(beta);
    // The separable normalizers, same expressions as PairNormalizer:
    // correlation-U for the covariance family, cosine-U for the dot one.
    const SeriesStats& su = model.series_stats(e.u);
    const SeriesStats& sv = model.series_stats(e.v);
    u[0][i] = std::sqrt(su.variance * sv.variance);
    u[1][i] = std::sqrt(su.sumsq * sv.sumsq);
    for (std::size_t f = 0; f < 2; ++f) {
      xi[f][i] = norm[f] > 0.0 ? Dot3(alpha[f], beta) / norm[f] : 0.0;
    }
  }
  std::vector<std::uint32_t> order;
  for (std::size_t f = 0; f < 2; ++f) {
    PairRun& run = (*runs)[f];
    run.norm = norm[f];
    // Degenerate pivot (‖α‖ = 0 → T-value ≡ 0) or zero normalizer
    // (constant series → D-value ≡ 0): the entry lives in the side list.
    order.clear();
    for (std::size_t i = 0; i < size; ++i) {
      if (norm[f] > 0.0 && u[f][i] > 0.0) {
        order.push_back(static_cast<std::uint32_t>(i));
      } else {
        run.side.push_back(ScapeSideEntry{node.pairs[i], u[f][i], xi[f][i]});
      }
    }
    SortRunOrder(xi[f], &order);
    run.keys.reserve(order.size());
    run.pairs.reserve(order.size());
    run.us.reserve(order.size());
    for (const std::uint32_t i : order) {
      run.keys.push_back(xi[f][i]);
      run.pairs.push_back(node.pairs[i]);
      run.us.push_back(u[f][i]);
      run.u_min = std::min(run.u_min, u[f][i]);
      run.u_max = std::max(run.u_max, u[f][i]);
    }
  }
  return Status::OK();
}

/// Writes cluster `cluster`'s mean, median and mode runs over its member
/// series (ascending).
Status BuildLocRuns(const AffinityModel& model, int cluster,
                    const std::vector<ts::SeriesId>& members, std::array<LocRun, 3>* runs) {
  const std::size_t size = members.size();
  std::vector<double> xi(size);
  std::vector<std::uint32_t> order(size);
  for (std::size_t f = 0; f < 3; ++f) {
    AFFINITY_ASSIGN_OR_RETURN(const double center,
                              model.CenterLocation(kLocationMeasures[f], cluster));
    // α = (centre L-value, 1): ‖α‖ ≥ 1, never degenerate.
    const double norm = std::sqrt(center * center + 1.0);
    for (std::size_t i = 0; i < size; ++i) {
      const SeriesAffine& sa = model.series_affine(members[i]);
      xi[i] = (center * sa.gain + sa.offset) / norm;
      order[i] = static_cast<std::uint32_t>(i);
    }
    SortRunOrder(xi, &order);
    LocRun& run = (*runs)[f];
    run.norm = norm;
    run.keys.resize(size);
    run.series.resize(size);
    for (std::size_t j = 0; j < size; ++j) {
      run.keys[j] = xi[order[j]];
      run.series[j] = members[order[j]];
    }
  }
  return Status::OK();
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
// Build.
// ---------------------------------------------------------------------------

StatusOr<ScapeIndex> ScapeIndex::Build(const AffinityModel& model, const ExecContext& exec) {
  Stopwatch watch;
  ScapeIndex index;
  // Pivot slots in first-appearance order over the ascending relationship
  // walk, so each pivot's members come in ascending pair order — the tie
  // order of its runs. Independent of the execution context.
  std::unordered_map<std::uint64_t, std::size_t> pivot_slot;
  pivot_slot.reserve(model.pivot_count());
  std::vector<PairPivotMembers> pivots;
  pivots.reserve(model.pivot_count());
  model.ForEachRelationship([&](const ts::SequencePair& e, const AffineRecord& rec) {
    const auto [it, inserted] = pivot_slot.try_emplace(rec.pivot.Key(), pivots.size());
    if (inserted) pivots.push_back(PairPivotMembers{rec.pivot, {}, {}});
    pivots[it->second].pairs.push_back(e);
    pivots[it->second].recs.push_back(&rec);
    ++index.pair_entries_;
  });
  const std::size_t n = model.data().n();
  std::vector<std::vector<ts::SeriesId>> clusters(model.clustering().k());
  for (std::size_t v = 0; v < n; ++v) {
    clusters[static_cast<std::size_t>(model.clustering().assignment[v])].push_back(
        static_cast<ts::SeriesId>(v));
  }
  index.series_entries_ = n;
  // A chunk item writes only its own pivot's runs, so the index is
  // identical at any thread count.
  index.runs_.pair.resize(pivots.size());
  AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
      exec, pivots.size(), [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) -> Status {
        for (std::size_t slot = lo; slot < hi; ++slot) {
          AFFINITY_RETURN_IF_ERROR(BuildPairRuns(model, pivots[slot], &index.runs_.pair[slot]));
        }
        return Status::OK();
      }));
  index.runs_.loc.resize(clusters.size());
  AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
      exec, clusters.size(), [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) -> Status {
        for (std::size_t slot = lo; slot < hi; ++slot) {
          AFFINITY_RETURN_IF_ERROR(BuildLocRuns(model, static_cast<int>(slot), clusters[slot],
                                                &index.runs_.loc[slot]));
        }
        return Status::OK();
      }));
  index.build_seconds_ = watch.ElapsedSeconds();
  return index;
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

/// Pivot `p`'s run of `family`, with a prefetch of the leading keys and
/// pairs of the next pivot's run, which a scan reads next.
const PairRun& RunAt(const ScapeRuns& runs, std::size_t p, std::size_t family) {
  if (p + 1 < runs.pair.size()) {
    const PairRun& next = runs.pair[p + 1][family];
    __builtin_prefetch(next.keys.data());
    __builtin_prefetch(next.pairs.data());
  }
  return runs.pair[p][family];
}

ScapeQueryResult LocationThreshold(const ScapeRuns& runs, int family, double tau, bool greater) {
  ScapeQueryResult out;
  for (const auto& node : runs.loc) {
    const LocRun& run = node[static_cast<std::size_t>(family)];
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
    const LocRun& run = node[static_cast<std::size_t>(family)];
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
