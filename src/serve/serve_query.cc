#include "serve/serve_query.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "core/kernels.h"

namespace affinity::serve {

namespace {

using core::ExecutedPlan;
using core::IsDerived;
using core::IsLocation;
using core::kNoSeries;
using core::Measure;
using core::MeasureName;
using core::PlanChoice;
using core::PruneStats;
using core::QueryMethod;
using core::QueryMethodName;
using core::QueryPlanner;
using core::ScapeQueryResult;
using core::ScapeTopKEntry;
using core::ScapeTopKResult;
using core::SelectionResult;
using core::SeriesStats;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Pairs before row u in the lexicographic (u, v) sweep order — the index
/// arithmetic of the frozen pair tables (same formula as the engine's).
std::size_t PairsBeforeRow(std::size_t u, std::size_t n) {
  return u * (2 * n - u - 1) / 2;
}

std::size_t LexPairIndex(std::size_t u, std::size_t v, std::size_t n) {
  return PairsBeforeRow(u, n) + (v - u - 1);
}

/// Measure family of the two pair-level tree slots (0 cov, 1 dot) —
/// mirrors ScapeIndex::PairFamilyIndex.
int PairFamilyIndex(Measure m) {
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

/// Location family slot (0 mean, 1 median, 2 mode) — mirrors
/// ScapeIndex::LocationFamilyIndex.
int LocationFamilyIndex(Measure m) {
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

/// First index whose key is >= `key` (the flat LowerBound).
std::size_t FlatLowerBound(const std::vector<double>& keys, double key) {
  return static_cast<std::size_t>(
      std::lower_bound(keys.begin(), keys.end(), key) - keys.begin());
}

/// First index whose key is > `key` (the flat UpperBound).
std::size_t FlatUpperBound(const std::vector<double>& keys, double key) {
  return static_cast<std::size_t>(
      std::upper_bound(keys.begin(), keys.end(), key) - keys.begin());
}

/// Bulk-accepts the pre-seeked run `src[begin, end)` — one contiguous
/// append instead of a per-entry push, counting the whole run as
/// accepted-unverified. No-op when the run is empty or inverted.
void AcceptPairRun(const std::vector<ts::SequencePair>& src, std::size_t begin, std::size_t end,
                   ScapeQueryResult* out) {
  if (begin >= end) return;
  out->pairs.insert(out->pairs.end(), src.begin() + static_cast<std::ptrdiff_t>(begin),
                    src.begin() + static_cast<std::ptrdiff_t>(end));
  out->prune.accepted_unverified += end - begin;
}

/// Series-array counterpart of AcceptPairRun for location trees.
void AcceptSeriesRun(const std::vector<ts::SeriesId>& src, std::size_t begin, std::size_t end,
                     ScapeQueryResult* out) {
  if (begin >= end) return;
  out->series.insert(out->series.end(), src.begin() + static_cast<std::ptrdiff_t>(begin),
                     src.begin() + static_cast<std::ptrdiff_t>(end));
  out->prune.accepted_unverified += end - begin;
}

/// Mirrors QueryEngine::ResolvePlan over the snapshot's frozen shape and
/// capabilities — identical inputs, identical plan.
template <typename PlanFn>
ExecutedPlan ResolvePlanServed(const ServingSnapshot& snap, QueryMethod method, PlanFn&& plan) {
  if (method != QueryMethod::kAuto) {
    ExecutedPlan explicit_plan;
    explicit_plan.method = method;
    explicit_plan.rationale = "explicitly requested " + std::string(QueryMethodName(method));
    return explicit_plan;
  }
  return plan(QueryPlanner(snap.data.n(), snap.data.m(), snap.caps));
}

Status CheckIdsServed(const ServingSnapshot& snap, const std::vector<ts::SeriesId>& ids) {
  if (ids.empty()) return Status::InvalidArgument("MEC requires a non-empty id set");
  for (const ts::SeriesId id : ids) {
    if (id >= snap.data.n()) {
      return Status::OutOfRange("series id " + std::to_string(id) + " out of range (n=" +
                                std::to_string(snap.data.n()) + ")");
    }
  }
  return Status::OK();
}

/// Mirrors QueryEngine::SeriesValue: WN recomputes from the window copy,
/// WA reads the frozen L-measure table (kUnavailable when absent).
StatusOr<double> SeriesValueServed(const ServingSnapshot& snap, Measure measure, ts::SeriesId v,
                                   QueryMethod method) {
  switch (method) {
    case QueryMethod::kNaive:
      return core::NaiveLocationMeasure(measure, snap.data.ColumnData(v), snap.data.m());
    case QueryMethod::kAffine: {
      if (!snap.caps.has_model) return Status::FailedPrecondition("WA strategy not attached");
      const int family = LocationFamilyIndex(measure);
      if (family < 0) return Status::InvalidArgument("not an L-measure");
      if (!snap.location_ok[static_cast<std::size_t>(family)]) {
        return Status::Unavailable("snapshot lacks the WA table for " +
                                   std::string(MeasureName(measure)));
      }
      return snap.location[static_cast<std::size_t>(family)][v];
    }
    default:
      return Status::InvalidArgument("L-measures support WN and WA only");
  }
}

/// Mirrors QueryEngine::Value: WN from the window copy, WA from the
/// frozen diagonal stats / lexicographic pair tables.
StatusOr<double> PairValueServed(const ServingSnapshot& snap, Measure measure, ts::SeriesId u,
                                 ts::SeriesId v, QueryMethod method) {
  switch (method) {
    case QueryMethod::kNaive:
      return core::NaivePairMeasure(measure, snap.data.ColumnData(u), snap.data.ColumnData(v),
                                    snap.data.m(), snap.data.anchor_row());
    case QueryMethod::kAffine: {
      if (!snap.caps.has_model) return Status::FailedPrecondition("WA strategy not attached");
      if (u == v) {
        const SeriesStats& st = snap.stats[u];
        switch (measure) {
          case Measure::kCovariance:
            return st.variance;
          case Measure::kDotProduct:
            return st.sumsq;
          case Measure::kCorrelation:
            return st.variance > 0.0 ? 1.0 : 0.0;
          case Measure::kCosine:
          case Measure::kJaccard:
            return st.sumsq > 0.0 ? 1.0 : 0.0;
          case Measure::kDice:
            return st.sumsq > 0.0 ? 1.0 : 0.0;
          default:
            return Status::InvalidArgument("not a pair measure");
        }
      }
      const int table = static_cast<int>(measure) - static_cast<int>(Measure::kCovariance);
      if (table < 0 || table >= 6) return Status::InvalidArgument("not a pair measure");
      if (!snap.pair_ok[static_cast<std::size_t>(table)]) {
        return Status::Unavailable("snapshot lacks the WA table for " +
                                   std::string(MeasureName(measure)));
      }
      const ts::SequencePair e(u, v);
      return snap.pair_values[static_cast<std::size_t>(table)]
                             [LexPairIndex(e.u, e.v, snap.data.n())];
    }
    case QueryMethod::kDft:
      return Status::Internal("WF values are computed batch-wise (see Mec/Met/Mer)");
    case QueryMethod::kScape:
      return Status::InvalidArgument("SCAPE answers MET/MER queries, not MEC");
    case QueryMethod::kAuto:
      return Status::Internal("kAuto must be resolved before per-value dispatch");
  }
  return Status::Internal("unreachable");
}

/// Mirrors QueryEngine::SelectByPredicate sequentially — the sequential
/// lexicographic sweep equals the engine's chunk-concatenated order at
/// any thread count, so results match bitwise.
StatusOr<SelectionResult> SelectServed(const ServingSnapshot& snap, Measure measure,
                                       QueryMethod method,
                                       bool (*keep)(double, double, double), double a, double b) {
  SelectionResult out;
  const std::size_t n = snap.data.n();
  if (IsLocation(measure)) {
    for (std::size_t v = 0; v < n; ++v) {
      auto value = SeriesValueServed(snap, measure, static_cast<ts::SeriesId>(v), method);
      if (!value.ok()) return value.status();
      if (keep(*value, a, b)) out.series.push_back(static_cast<ts::SeriesId>(v));
    }
    return out;
  }
  if (n < 2) return out;
  std::vector<core::kernels::Marginals> marginals;
  if (method == QueryMethod::kNaive) {
    marginals = core::kernels::HoistMarginals(snap.data.dense(), ExecContext{});
  }
  for (std::size_t u = 0; u + 1 < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      StatusOr<double> value = [&]() -> StatusOr<double> {
        if (method != QueryMethod::kNaive) {
          return PairValueServed(snap, measure, static_cast<ts::SeriesId>(u),
                                 static_cast<ts::SeriesId>(v), method);
        }
        const double dot = core::kernels::BlockedDot(
            snap.data.ColumnData(static_cast<ts::SeriesId>(u)),
            snap.data.ColumnData(static_cast<ts::SeriesId>(v)), snap.data.m(),
            snap.data.anchor_row());
        return core::PairMeasureFromMoments(
            measure, core::PairMomentsFromMarginals(marginals[u], marginals[v], dot,
                                                    snap.data.m()));
      }();
      if (!value.ok()) return value.status();
      if (keep(*value, a, b)) {
        out.pairs.emplace_back(static_cast<ts::SeriesId>(u), static_cast<ts::SeriesId>(v));
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Flat SCAPE scans — each mirrors the corresponding ScapeIndex query with
// binary-search bounds over the sorted key arrays in place of B+-tree
// descents. Scan regions, verify bands, and result order are identical.
// ---------------------------------------------------------------------------

StatusOr<ScapeQueryResult> FlatLocationThreshold(const ServingSnapshot& snap, int family,
                                                 double tau, bool greater) {
  ScapeQueryResult out;
  for (const FlatLocPivot& node : snap.loc_pivots) {
    const FlatLocTree& lt = node.trees[static_cast<std::size_t>(family)];
    const double tau_prime = tau / lt.norm;
    if (greater) {
      AcceptSeriesRun(lt.runs->series, FlatUpperBound(lt.runs->keys, tau_prime), lt.runs->keys.size(), &out);
    } else {
      AcceptSeriesRun(lt.runs->series, 0, FlatLowerBound(lt.runs->keys, tau_prime), &out);
    }
  }
  return out;
}

StatusOr<ScapeQueryResult> FlatLocationRange(const ServingSnapshot& snap, int family, double lo,
                                             double hi) {
  ScapeQueryResult out;
  for (const FlatLocPivot& node : snap.loc_pivots) {
    const FlatLocTree& lt = node.trees[static_cast<std::size_t>(family)];
    // [ub(lo'), lb(hi')) is exactly the strict (lo', hi') band; AcceptSeriesRun
    // no-ops on an inverted run (hi' at or below the first key past lo').
    AcceptSeriesRun(lt.runs->series, FlatUpperBound(lt.runs->keys, lo / lt.norm),
                    FlatLowerBound(lt.runs->keys, hi / lt.norm), &out);
  }
  return out;
}

StatusOr<ScapeQueryResult> FlatPairThreshold(const ServingSnapshot& snap, Measure measure,
                                             double tau, bool greater) {
  const int family = PairFamilyIndex(measure);
  const bool derived = IsDerived(measure);
  ScapeQueryResult out;

  for (const FlatPairPivot& node : snap.pair_pivots) {
    const FlatPairTree& pt = node.trees[static_cast<std::size_t>(family)];

    if (!derived) {
      if (pt.norm > 0.0) {
        const double tau_prime = tau / pt.norm;
        if (greater) {
          AcceptPairRun(pt.runs->pairs, FlatUpperBound(pt.runs->keys, tau_prime), pt.runs->keys.size(), &out);
        } else {
          AcceptPairRun(pt.runs->pairs, 0, FlatLowerBound(pt.runs->keys, tau_prime), &out);
        }
      } else {
        const bool zero_in = greater ? 0.0 > tau : 0.0 < tau;
        if (zero_in) {
          for (const FlatDegenerateEntry& s : pt.degenerate) out.pairs.push_back(s.pair);
        }
        out.prune.scanned_degenerate += pt.degenerate.size();
        continue;
      }
      for (const FlatDegenerateEntry& s : pt.degenerate) {
        const double value = pt.norm * s.xi;
        if (greater ? value > tau : value < tau) out.pairs.push_back(s.pair);
      }
      out.prune.scanned_degenerate += pt.degenerate.size();
      continue;
    }

    // D-measure §5.3 pruning over the flat key array.
    if (pt.norm > 0.0 && !pt.runs->keys.empty()) {
      const double b1 = tau * pt.u_min;
      const double b2 = tau * pt.u_max;
      const double lo_key = std::min(b1, b2) / pt.norm;
      const double hi_key = std::max(b1, b2) / pt.norm;
      // Keys ≤ hi_key form the verify band, keys > hi_key (resp. < lo_key)
      // the unconditional-accept band — contiguous in the sorted array, so
      // the accept side becomes one bulk run. Ascending order is preserved:
      // for `greater` the verify band precedes the accepted tail; for
      // `lesser` the accepted head precedes the verify band.
      if (greater) {
        const std::size_t vend = FlatUpperBound(pt.runs->keys, hi_key);
        for (std::size_t i = FlatLowerBound(pt.runs->keys, lo_key); i < vend; ++i) {
          const double value = pt.norm * pt.runs->keys[i] / pt.runs->us[i];
          ++out.prune.verified;
          if (value > tau) out.pairs.push_back(pt.runs->pairs[i]);
        }
        AcceptPairRun(pt.runs->pairs, vend, pt.runs->keys.size(), &out);
      } else {
        const std::size_t vbegin = FlatLowerBound(pt.runs->keys, lo_key);
        AcceptPairRun(pt.runs->pairs, 0, vbegin, &out);
        const std::size_t vend = FlatUpperBound(pt.runs->keys, hi_key);
        for (std::size_t i = vbegin; i < vend; ++i) {
          const double value = pt.norm * pt.runs->keys[i] / pt.runs->us[i];
          ++out.prune.verified;
          if (value < tau) out.pairs.push_back(pt.runs->pairs[i]);
        }
      }
    }
    const bool zero_in = greater ? 0.0 > tau : 0.0 < tau;
    if (zero_in) {
      for (const FlatDegenerateEntry& s : pt.degenerate) out.pairs.push_back(s.pair);
    }
    out.prune.scanned_degenerate += pt.degenerate.size();
  }
  return out;
}

StatusOr<ScapeQueryResult> FlatPairRange(const ServingSnapshot& snap, Measure measure, double lo,
                                         double hi) {
  const int family = PairFamilyIndex(measure);
  const bool derived = IsDerived(measure);
  ScapeQueryResult out;

  for (const FlatPairPivot& node : snap.pair_pivots) {
    const FlatPairTree& pt = node.trees[static_cast<std::size_t>(family)];

    if (!derived) {
      if (pt.norm > 0.0) {
        AcceptPairRun(pt.runs->pairs, FlatUpperBound(pt.runs->keys, lo / pt.norm),
                      FlatLowerBound(pt.runs->keys, hi / pt.norm), &out);
        for (const FlatDegenerateEntry& s : pt.degenerate) {
          const double value = pt.norm * s.xi;
          if (lo < value && value < hi) out.pairs.push_back(s.pair);
        }
      } else if (lo < 0.0 && 0.0 < hi) {
        for (const FlatDegenerateEntry& s : pt.degenerate) out.pairs.push_back(s.pair);
      }
      out.prune.scanned_degenerate += pt.degenerate.size();
      continue;
    }

    if (pt.norm > 0.0 && !pt.runs->keys.empty()) {
      const double l1 = lo * pt.u_min, l2 = lo * pt.u_max;
      const double h1 = hi * pt.u_min, h2 = hi * pt.u_max;
      const double reject_below = std::min(l1, l2) / pt.norm;
      const double accept_lo = std::max(l1, l2) / pt.norm;
      const double accept_hi = std::min(h1, h2) / pt.norm;
      const double reject_above = std::max(h1, h2) / pt.norm;
      // The §5.3 walk splits into verify / bulk-accept / verify segments:
      // within [begin, end) the strict (accept_lo, accept_hi) band is the
      // contiguous run [ub(accept_lo), lb(accept_hi)), clamped so an empty
      // or out-of-walk band degenerates to verify-everything — identical
      // accept/verify decisions, in the same ascending order.
      const std::size_t begin = FlatUpperBound(pt.runs->keys, reject_below);
      const std::size_t end = std::max(begin, FlatLowerBound(pt.runs->keys, reject_above));
      const std::size_t a = std::clamp(FlatUpperBound(pt.runs->keys, accept_lo), begin, end);
      const std::size_t b = std::clamp(std::max(a, FlatLowerBound(pt.runs->keys, accept_hi)), a, end);
      for (std::size_t i = begin; i < a; ++i) {
        const double value = pt.norm * pt.runs->keys[i] / pt.runs->us[i];
        ++out.prune.verified;
        if (lo < value && value < hi) out.pairs.push_back(pt.runs->pairs[i]);
      }
      AcceptPairRun(pt.runs->pairs, a, b, &out);
      for (std::size_t i = b; i < end; ++i) {
        const double value = pt.norm * pt.runs->keys[i] / pt.runs->us[i];
        ++out.prune.verified;
        if (lo < value && value < hi) out.pairs.push_back(pt.runs->pairs[i]);
      }
    }
    if (lo < 0.0 && 0.0 < hi) {
      for (const FlatDegenerateEntry& s : pt.degenerate) out.pairs.push_back(s.pair);
    }
    out.prune.scanned_degenerate += pt.degenerate.size();
  }
  return out;
}

StatusOr<ScapeQueryResult> FlatMeasureThreshold(const ServingSnapshot& snap, Measure measure,
                                                double tau, bool greater) {
  const int loc = LocationFamilyIndex(measure);
  if (loc >= 0) return FlatLocationThreshold(snap, loc, tau, greater);
  if (PairFamilyIndex(measure) >= 0) return FlatPairThreshold(snap, measure, tau, greater);
  return Status::Unimplemented(std::string(MeasureName(measure)) +
                               " is not SCAPE-indexable (no separable normalizer)");
}

StatusOr<ScapeQueryResult> FlatMeasureRange(const ServingSnapshot& snap, Measure measure,
                                            double lo, double hi) {
  if (lo > hi) return Status::InvalidArgument("MER requires lo <= hi");
  const int loc = LocationFamilyIndex(measure);
  if (loc >= 0) return FlatLocationRange(snap, loc, lo, hi);
  if (PairFamilyIndex(measure) >= 0) return FlatPairRange(snap, measure, lo, hi);
  return Status::Unimplemented(std::string(MeasureName(measure)) +
                               " is not SCAPE-indexable (no separable normalizer)");
}

// ---------------------------------------------------------------------------
// Flat top-k: the threshold algorithm of scape_topk.cc over array streams.
// Stream construction order, bound formulas, heap disciplines, and the TA
// stop condition are identical, so the produced entries match exactly.
// ---------------------------------------------------------------------------

struct Candidate {
  double value;
  ScapeTopKEntry entry;
};

struct WorseCandidate {
  bool operator()(const Candidate& a, const Candidate& b) const { return a.value > b.value; }
};

class Stream {
 public:
  virtual ~Stream() = default;
  virtual double Bound() const = 0;
  virtual Candidate Take() = 0;
  virtual bool Exhausted() const = 0;
};

struct WorseBound {
  bool operator()(const Stream* a, const Stream* b) const { return a->Bound() < b->Bound(); }
};

StatusOr<ScapeTopKResult> FlatTopK(const ServingSnapshot& snap, Measure measure, std::size_t k,
                                   bool largest) {
  if (k == 0) return ScapeTopKResult{};
  const int loc_family = LocationFamilyIndex(measure);
  const int pair_family = PairFamilyIndex(measure);
  if (loc_family < 0 && pair_family < 0) {
    return Status::Unimplemented(std::string(MeasureName(measure)) +
                                 " is not SCAPE-indexable (no separable normalizer)");
  }
  const bool derived = IsDerived(measure);
  const double sign = largest ? 1.0 : -1.0;

  /// Pair-array stream: walks the flat keys best-first (descending for
  /// `largest`, ascending otherwise).
  class FlatPairStream final : public Stream {
   public:
    FlatPairStream(const FlatPairTree* ft, bool largest, bool derived, double sign)
        : ft_(ft), largest_(largest), derived_(derived), sign_(sign) {
      pos_ = largest_ ? ft_->runs->keys.size() - 1 : 0;
      done_ = ft_->runs->keys.empty();
    }

    bool Exhausted() const override { return done_; }

    double Bound() const override {
      if (done_) return -kInf;
      const double xi = ft_->runs->keys[pos_];
      if (!derived_) return sign_ * ft_->norm * xi;
      const double scaled = sign_ * ft_->norm * xi;
      return scaled >= 0 ? scaled / ft_->u_min : scaled / ft_->u_max;
    }

    Candidate Take() override {
      const double xi = ft_->runs->keys[pos_];
      Candidate c;
      c.entry.pair = ft_->runs->pairs[pos_];
      const double raw = derived_ ? ft_->norm * xi / ft_->runs->us[pos_] : ft_->norm * xi;
      c.entry.value = raw;
      c.value = sign_ * raw;
      if (largest_) {
        if (pos_ == 0) {
          done_ = true;
        } else {
          --pos_;
        }
      } else {
        ++pos_;
        if (pos_ >= ft_->runs->keys.size()) done_ = true;
      }
      return c;
    }

   private:
    const FlatPairTree* ft_;
    bool largest_;
    bool derived_;
    double sign_;
    std::size_t pos_ = 0;
    bool done_ = false;
  };

  class VectorStream final : public Stream {
   public:
    explicit VectorStream(std::vector<Candidate> sorted_desc) : items_(std::move(sorted_desc)) {}
    bool Exhausted() const override { return idx_ >= items_.size(); }
    double Bound() const override { return Exhausted() ? -kInf : items_[idx_].value; }
    Candidate Take() override { return items_[idx_++]; }

   private:
    std::vector<Candidate> items_;
    std::size_t idx_ = 0;
  };

  class FlatLocStream final : public Stream {
   public:
    FlatLocStream(const FlatLocTree* lt, bool largest, double sign)
        : lt_(lt), largest_(largest), sign_(sign) {
      pos_ = largest_ ? lt_->runs->keys.size() - 1 : 0;
      done_ = lt_->runs->keys.empty();
    }
    bool Exhausted() const override { return done_; }
    double Bound() const override {
      if (done_) return -kInf;
      return sign_ * lt_->norm * lt_->runs->keys[pos_];
    }
    Candidate Take() override {
      Candidate c;
      c.entry.series = lt_->runs->series[pos_];
      const double raw = lt_->norm * lt_->runs->keys[pos_];
      c.entry.value = raw;
      c.value = sign_ * raw;
      if (largest_) {
        if (pos_ == 0) {
          done_ = true;
        } else {
          --pos_;
        }
      } else {
        ++pos_;
        if (pos_ >= lt_->runs->keys.size()) done_ = true;
      }
      return c;
    }

   private:
    const FlatLocTree* lt_;
    bool largest_;
    double sign_;
    std::size_t pos_ = 0;
    bool done_ = false;
  };

  std::vector<std::unique_ptr<Stream>> streams;
  if (loc_family >= 0) {
    for (const FlatLocPivot& node : snap.loc_pivots) {
      const FlatLocTree& lt = node.trees[static_cast<std::size_t>(loc_family)];
      if (!lt.runs->keys.empty()) {
        streams.push_back(std::make_unique<FlatLocStream>(&lt, largest, sign));
      }
    }
  } else {
    for (const FlatPairPivot& node : snap.pair_pivots) {
      const FlatPairTree& pt = node.trees[static_cast<std::size_t>(pair_family)];
      if (pt.norm > 0.0 && !pt.runs->keys.empty()) {
        streams.push_back(std::make_unique<FlatPairStream>(&pt, largest, derived, sign));
      }
      if (!pt.degenerate.empty()) {
        std::vector<Candidate> items;
        items.reserve(pt.degenerate.size());
        for (const FlatDegenerateEntry& s : pt.degenerate) {
          const double raw = derived ? 0.0 : pt.norm * s.xi;
          Candidate c;
          c.entry.pair = s.pair;
          c.entry.value = raw;
          c.value = sign * raw;
          items.push_back(c);
        }
        std::sort(items.begin(), items.end(),
                  [](const Candidate& a, const Candidate& b) { return a.value > b.value; });
        streams.push_back(std::make_unique<VectorStream>(std::move(items)));
      }
    }
  }

  std::priority_queue<Stream*, std::vector<Stream*>, WorseBound> frontier;
  for (const auto& s : streams) {
    if (!s->Exhausted()) frontier.push(s.get());
  }

  std::priority_queue<Candidate, std::vector<Candidate>, WorseCandidate> best;
  ScapeTopKResult result;
  while (!frontier.empty()) {
    Stream* s = frontier.top();
    const double bound = s->Bound();
    if (best.size() == k && best.top().value >= bound) break;
    frontier.pop();
    best.push(s->Take());
    ++result.examined;
    if (best.size() > k) best.pop();
    if (!s->Exhausted()) frontier.push(s);
  }

  result.entries.resize(best.size());
  for (std::size_t i = best.size(); i-- > 0;) {
    result.entries[i] = best.top().entry;
    best.pop();
  }
  return result;
}

/// The frozen WA table a top-k pass reads: the L-measure family's
/// location table or the pair measure's lexicographic table. Mirrors the
/// errors of the engine's per-entity WA path (SeriesValueServed /
/// PairValueServed): FailedPrecondition without a model, kUnavailable
/// when the epoch lacks the table.
StatusOr<const std::vector<double>*> WaTableServed(const ServingSnapshot& snap, Measure measure) {
  if (!snap.caps.has_model) return Status::FailedPrecondition("WA strategy not attached");
  const bool location = IsLocation(measure);
  const int slot = location ? LocationFamilyIndex(measure)
                            : static_cast<int>(measure) - static_cast<int>(Measure::kCovariance);
  const bool ok = location ? snap.location_ok[static_cast<std::size_t>(slot)]
                           : snap.pair_ok[static_cast<std::size_t>(slot)];
  if (!ok) {
    return Status::Unavailable("snapshot lacks the WA table for " +
                               std::string(MeasureName(measure)));
  }
  return location ? &snap.location[static_cast<std::size_t>(slot)]
                  : &snap.pair_values[static_cast<std::size_t>(slot)];
}

/// The epoch's sweep top-k: one k-bounded pass over the eligible entities
/// in lexicographic order — WA straight out of the frozen table (no
/// per-entity StatusOr, no materialized candidate array), WN over the
/// window copy with the engine's marginal-hoisted kernels. The selection
/// order is total (`core::TopKBefore`), so the answer is bitwise the
/// engine's chunked selection over the same values.
StatusOr<std::vector<ScapeTopKEntry>> SweepTopKServed(const ServingSnapshot& snap,
                                                      const core::TopKRequest& request,
                                                      QueryMethod method,
                                                      const core::QualitySurface& quality) {
  const std::size_t n = snap.data.n();
  const bool location = IsLocation(request.measure);
  std::vector<char> eligible(n);
  std::size_t eligible_count = 0;
  for (std::size_t v = 0; v < n; ++v) {
    eligible[v] = quality.Eligible(static_cast<ts::SeriesId>(v), request.min_quality) ? 1 : 0;
    eligible_count += static_cast<std::size_t>(eligible[v]);
  }
  core::TopKSelector best(request.k, request.largest);
  // Like the engine, a sweep with nothing to evaluate cannot fail.
  if (eligible_count < (location ? 1u : 2u)) return std::move(best).Finish();

  if (method == QueryMethod::kAffine) {
    AFFINITY_ASSIGN_OR_RETURN(const std::vector<double>* table,
                              WaTableServed(snap, request.measure));
    const double* values = table->data();
    if (location) {
      for (std::size_t v = 0; v < n; ++v) {
        if (eligible[v] != 0) {
          best.Offer(ScapeTopKEntry{ts::SequencePair{}, static_cast<ts::SeriesId>(v), values[v]});
        }
      }
      return std::move(best).Finish();
    }
    std::size_t i = 0;  // lexicographic index of (u, v) in the table
    for (std::size_t u = 0; u + 1 < n; ++u) {
      if (eligible[u] == 0) {
        i += n - u - 1;
        continue;
      }
      for (std::size_t v = u + 1; v < n; ++v, ++i) {
        if (eligible[v] == 0 || !best.Admits(values[i])) continue;
        best.Offer(ScapeTopKEntry{
            ts::SequencePair(static_cast<ts::SeriesId>(u), static_cast<ts::SeriesId>(v)),
            kNoSeries, values[i]});
      }
    }
    return std::move(best).Finish();
  }

  if (location) {
    for (std::size_t v = 0; v < n; ++v) {
      if (eligible[v] == 0) continue;
      AFFINITY_ASSIGN_OR_RETURN(const double value,
                                SeriesValueServed(snap, request.measure,
                                                  static_cast<ts::SeriesId>(v), method));
      best.Offer(ScapeTopKEntry{ts::SequencePair{}, static_cast<ts::SeriesId>(v), value});
    }
    return std::move(best).Finish();
  }
  const std::vector<core::kernels::Marginals> marginals =
      core::kernels::HoistMarginals(snap.data.dense(), ExecContext{});
  for (std::size_t u = 0; u + 1 < n; ++u) {
    if (eligible[u] == 0) continue;
    for (std::size_t v = u + 1; v < n; ++v) {
      if (eligible[v] == 0) continue;
      const double dot = core::kernels::BlockedDot(
          snap.data.ColumnData(static_cast<ts::SeriesId>(u)),
          snap.data.ColumnData(static_cast<ts::SeriesId>(v)), snap.data.m(),
          snap.data.anchor_row());
      AFFINITY_ASSIGN_OR_RETURN(
          const double value,
          core::PairMeasureFromMoments(request.measure,
                                       core::PairMomentsFromMarginals(marginals[u], marginals[v],
                                                                      dot, snap.data.m())));
      best.Offer(ScapeTopKEntry{
          ts::SequencePair(static_cast<ts::SeriesId>(u), static_cast<ts::SeriesId>(v)),
          kNoSeries, value});
    }
  }
  return std::move(best).Finish();
}

}  // namespace

StatusOr<core::MecResponse> SnapshotMec(const ServingSnapshot& snap,
                                        const core::MecRequest& request, QueryMethod method) {
  AFFINITY_RETURN_IF_ERROR(CheckIdsServed(snap, request.ids));
  const core::QualitySurface quality = snap.quality_surface();
  AFFINITY_RETURN_IF_ERROR(quality.CheckPredicate(request.min_quality));
  core::AnswerQuality answer_quality;
  AFFINITY_RETURN_IF_ERROR(quality.StampMec(request, &answer_quality));
  ExecutedPlan plan = ResolvePlanServed(snap, method, [&](const QueryPlanner& planner) {
    return planner.PlanMec(request.measure, request.ids.size());
  });
  method = plan.method;
  core::AnnotateSnapshotServed(&plan, snap.generation);

  core::MecResponse out;
  out.plan = std::move(plan);
  out.quality = answer_quality;
  const std::size_t count = request.ids.size();
  if (IsLocation(request.measure)) {
    out.location = la::Vector(count);
    for (std::size_t i = 0; i < count; ++i) {
      auto value = SeriesValueServed(snap, request.measure, request.ids[i], method);
      if (!value.ok()) return value.status();
      out.location[i] = *value;
    }
    return out;
  }
  if (method == QueryMethod::kDft) {
    // WF builds its sketches per query — nothing frozen can serve it.
    return Status::Unavailable("WF queries are not snapshot-servable");
  }
  out.pair_values = la::Matrix(count, count);
  std::vector<core::kernels::Marginals> marginals;
  std::vector<const double*> cols;
  if (method == QueryMethod::kNaive) {
    cols.resize(count);
    for (std::size_t i = 0; i < count; ++i) cols[i] = snap.data.ColumnData(request.ids[i]);
    marginals =
        core::kernels::HoistMarginals(cols, snap.data.m(), ExecContext{}, snap.data.anchor_row());
  }
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t j = i; j < count; ++j) {
      StatusOr<double> value = [&]() -> StatusOr<double> {
        if (method != QueryMethod::kNaive) {
          return PairValueServed(snap, request.measure, request.ids[i], request.ids[j], method);
        }
        const double dot = i == j ? marginals[i].sumsq
                                  : core::kernels::BlockedDot(cols[i], cols[j], snap.data.m(),
                                                              snap.data.anchor_row());
        return core::PairMeasureFromMoments(
            request.measure,
            core::PairMomentsFromMarginals(marginals[i], marginals[j], dot, snap.data.m()));
      }();
      if (!value.ok()) return value.status();
      out.pair_values(i, j) = *value;
      out.pair_values(j, i) = *value;
    }
  }
  return out;
}

StatusOr<SelectionResult> SnapshotMet(const ServingSnapshot& snap,
                                      const core::MetRequest& request, QueryMethod method) {
  const core::QualitySurface quality = snap.quality_surface();
  AFFINITY_RETURN_IF_ERROR(quality.CheckPredicate(request.min_quality));
  ExecutedPlan plan = ResolvePlanServed(
      snap, method, [&](const QueryPlanner& planner) { return planner.PlanMet(request.measure); });
  method = plan.method;
  StatusOr<SelectionResult> result = [&]() -> StatusOr<SelectionResult> {
    if (method == QueryMethod::kDft) {
      return Status::Unavailable("WF queries are not snapshot-servable");
    }
    if (method == QueryMethod::kScape) {
      if (!snap.has_scape) return Status::FailedPrecondition("SCAPE index not attached");
      AFFINITY_ASSIGN_OR_RETURN(
          ScapeQueryResult r, FlatMeasureThreshold(snap, request.measure, request.tau,
                                                   request.greater));
      SelectionResult out;
      out.series = std::move(r.series);
      out.pairs = std::move(r.pairs);
      out.prune = r.prune;
      return out;
    }
    return SelectServed(snap, request.measure, method,
                        request.greater ? core::KeepGreater : core::KeepLesser, request.tau, 0.0);
  }();
  if (!result.ok()) return result.status();
  core::AnnotateSnapshotServed(&plan, snap.generation);
  result->plan = std::move(plan);
  quality.FilterSelection(request.min_quality, &*result);
  return result;
}

StatusOr<SelectionResult> SnapshotMer(const ServingSnapshot& snap,
                                      const core::MerRequest& request, QueryMethod method) {
  if (request.lo > request.hi) return Status::InvalidArgument("MER requires lo <= hi");
  const core::QualitySurface quality = snap.quality_surface();
  AFFINITY_RETURN_IF_ERROR(quality.CheckPredicate(request.min_quality));
  ExecutedPlan plan = ResolvePlanServed(
      snap, method, [&](const QueryPlanner& planner) { return planner.PlanMer(request.measure); });
  method = plan.method;
  StatusOr<SelectionResult> result = [&]() -> StatusOr<SelectionResult> {
    if (method == QueryMethod::kDft) {
      return Status::Unavailable("WF queries are not snapshot-servable");
    }
    if (method == QueryMethod::kScape) {
      if (!snap.has_scape) return Status::FailedPrecondition("SCAPE index not attached");
      AFFINITY_ASSIGN_OR_RETURN(ScapeQueryResult r,
                                FlatMeasureRange(snap, request.measure, request.lo, request.hi));
      SelectionResult out;
      out.series = std::move(r.series);
      out.pairs = std::move(r.pairs);
      out.prune = r.prune;
      return out;
    }
    return SelectServed(snap, request.measure, method, core::KeepInside, request.lo, request.hi);
  }();
  if (!result.ok()) return result.status();
  core::AnnotateSnapshotServed(&plan, snap.generation);
  result->plan = std::move(plan);
  quality.FilterSelection(request.min_quality, &*result);
  return result;
}

StatusOr<core::TopKResult> SnapshotTopK(const ServingSnapshot& snap,
                                        const core::TopKRequest& request, QueryMethod method) {
  const core::QualitySurface quality = snap.quality_surface();
  AFFINITY_RETURN_IF_ERROR(quality.CheckPredicate(request.min_quality));
  ExecutedPlan plan = ResolvePlanServed(snap, method, [&](const QueryPlanner& planner) {
    return planner.PlanTopK(request.measure, request.k);
  });
  core::RouteQualityTopK(request.min_quality, snap.caps.has_model, &plan);
  method = plan.method;
  core::AnnotateSnapshotServed(&plan, snap.generation);
  if (method == QueryMethod::kScape) {
    if (!snap.has_scape) return Status::FailedPrecondition("SCAPE index not attached");
    AFFINITY_ASSIGN_OR_RETURN(ScapeTopKResult r,
                              FlatTopK(snap, request.measure, request.k, request.largest));
    core::TopKResult out;
    static_cast<ScapeTopKResult&>(out) = std::move(r);
    out.plan = std::move(plan);
    quality.StampTopK(&out);
    return out;
  }
  if (method == QueryMethod::kDft) {
    // The live engine rejects WF top-k outright; mirror its final answer
    // (kUnavailable would bounce to the live engine just to hear it).
    return Status::InvalidArgument("top-k supports WN, WA, and SCAPE");
  }
  AFFINITY_ASSIGN_OR_RETURN(std::vector<ScapeTopKEntry> selected,
                            SweepTopKServed(snap, request, method, quality));
  return core::FinishSweepTopK(request, snap.data.n(), quality, std::move(selected),
                               std::move(plan));
}

}  // namespace affinity::serve
