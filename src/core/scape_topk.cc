// Top-k queries over the SCAPE index (declaration in scape.h).
//
// The key observation mirrors §5: within one pivot tree the entries are
// sorted by the scalar projection ξ, and
//
//   * T-measures:  value = ‖α‖·ξ           → tree order IS value order;
//   * D-measures:  value = ‖α‖·ξ / U_e     → tree order bounds value order,
//     because U_e ∈ [Umin, Umax]:  for ξ ≥ 0, value ≤ ‖α‖·ξ/Umin; for
//     ξ < 0, value ≤ ‖α‖·ξ/Umax (and symmetrically for lower bounds).
//
// So each (pivot, tree) is a stream whose frontier carries an upper bound
// on everything it has not yet produced — exactly the setting of Fagin's
// threshold algorithm. We pop the stream with the best bound, verify its
// frontier entry with the stored exact normalizer, and stop when the k-th
// best verified value dominates every remaining bound.

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <vector>

#include "core/scape.h"

namespace affinity::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A candidate kept in the working heap (value already exact).
struct Candidate {
  double value;
  ScapeTopKEntry entry;
};

/// Orders the working heap so the *worst* kept candidate is on top
/// (min-heap in the transformed "bigger is better" space).
struct WorseCandidate {
  bool operator()(const Candidate& a, const Candidate& b) const { return a.value > b.value; }
};

/// A stream over one pivot tree (plus its degenerate side list).
///
/// All values are transformed so that "larger is better" regardless of the
/// query direction: for `largest` queries the transform is the identity and
/// streams walk trees in descending ξ; for `smallest` queries values are
/// negated and streams walk ascending ξ.
class Stream {
 public:
  virtual ~Stream() = default;
  /// Upper bound (in transformed space) on every entry this stream has not
  /// yet produced; -inf when exhausted.
  virtual double Bound() const = 0;
  /// Produces the frontier entry (exact transformed value) and advances.
  virtual Candidate Take() = 0;
  virtual bool Exhausted() const = 0;
};

/// Orders the stream heap so the best bound is popped first.
struct WorseBound {
  bool operator()(const Stream* a, const Stream* b) const { return a->Bound() < b->Bound(); }
};

}  // namespace

StatusOr<ScapeTopKResult> ScapeIndex::TopK(Measure measure, std::size_t k, bool largest) const {
  if (k == 0) return ScapeTopKResult{};
  const int loc_family = LocationFamilyIndex(measure);
  const int pair_family = PairFamilyIndex(measure);
  if (loc_family < 0 && pair_family < 0) {
    return Status::Unimplemented(std::string(MeasureName(measure)) +
                                 " is not SCAPE-indexable (no separable normalizer)");
  }
  const bool derived = IsDerived(measure);
  const double sign = largest ? 1.0 : -1.0;

  // --- Stream implementations (local classes capture the query context). --

  /// Pair-tree stream: walks the B-tree best-key-first.
  class PairTreeStream final : public Stream {
   public:
    PairTreeStream(const PairTree* pt, bool largest, bool derived, double sign)
        : pt_(pt), largest_(largest), derived_(derived), sign_(sign) {
      if (largest_) {
        rit_ = pt_->tree.rbegin();
      } else {
        fit_ = pt_->tree.begin();
      }
    }

    bool Exhausted() const override {
      return largest_ ? rit_ == pt_->tree.rend() : fit_ == pt_->tree.end();
    }

    double Bound() const override {
      if (Exhausted()) return -kInf;
      const double xi = largest_ ? rit_.key() : fit_.key();
      if (!derived_) return sign_ * pt_->norm * xi;
      // Best possible transformed value of any remaining entry.
      const double scaled = sign_ * pt_->norm * xi;
      return scaled >= 0 ? scaled / pt_->u_min : scaled / pt_->u_max;
    }

    Candidate Take() override {
      const SeqEntry& s = largest_ ? rit_.value() : fit_.value();
      const double xi = largest_ ? rit_.key() : fit_.key();
      Candidate c;
      c.entry.pair = s.e;
      const double raw = derived_ ? pt_->norm * xi / s.u : pt_->norm * xi;
      c.entry.value = raw;
      c.value = sign_ * raw;
      if (largest_) {
        ++rit_;
      } else {
        ++fit_;
      }
      return c;
    }

   private:
    const PairTree* pt_;
    bool largest_;
    bool derived_;
    double sign_;
    btree::BPlusTree<SeqEntry>::ConstReverseIterator rit_;
    btree::BPlusTree<SeqEntry>::ConstIterator fit_;
  };

  /// Degenerate side-list stream: values pre-computed and sorted.
  class VectorStream final : public Stream {
   public:
    VectorStream(std::vector<Candidate> sorted_desc) : items_(std::move(sorted_desc)) {}
    bool Exhausted() const override { return idx_ >= items_.size(); }
    double Bound() const override { return Exhausted() ? -kInf : items_[idx_].value; }
    Candidate Take() override { return items_[idx_++]; }

   private:
    std::vector<Candidate> items_;
    std::size_t idx_ = 0;
  };

  /// Location-tree stream (always exact).
  class LocTreeStream final : public Stream {
   public:
    LocTreeStream(const LocTree* lt, bool largest, double sign)
        : lt_(lt), largest_(largest), sign_(sign) {
      if (largest_) {
        rit_ = lt_->tree.rbegin();
      } else {
        fit_ = lt_->tree.begin();
      }
    }
    bool Exhausted() const override {
      return largest_ ? rit_ == lt_->tree.rend() : fit_ == lt_->tree.end();
    }
    double Bound() const override {
      if (Exhausted()) return -kInf;
      return sign_ * lt_->norm * (largest_ ? rit_.key() : fit_.key());
    }
    Candidate Take() override {
      Candidate c;
      c.entry.series = largest_ ? rit_.value() : fit_.value();
      const double raw = lt_->norm * (largest_ ? rit_.key() : fit_.key());
      c.entry.value = raw;
      c.value = sign_ * raw;
      if (largest_) {
        ++rit_;
      } else {
        ++fit_;
      }
      return c;
    }

   private:
    const LocTree* lt_;
    bool largest_;
    double sign_;
    btree::BPlusTree<ts::SeriesId>::ConstReverseIterator rit_;
    btree::BPlusTree<ts::SeriesId>::ConstIterator fit_;
  };

  // --- Assemble the streams. ------------------------------------------------

  std::vector<std::unique_ptr<Stream>> streams;
  if (loc_family >= 0) {
    for (const LocPivotNode& node : loc_pivots_) {
      const LocTree& lt = node.trees[static_cast<std::size_t>(loc_family)];
      if (lt.tree.size() > 0) {
        streams.push_back(std::make_unique<LocTreeStream>(&lt, largest, sign));
      }
    }
  } else {
    for (const PairPivotNode& node : pair_pivots_) {
      const PairTree& pt = node.trees[static_cast<std::size_t>(pair_family)];
      if (pt.norm > 0.0 && pt.tree.size() > 0) {
        streams.push_back(std::make_unique<PairTreeStream>(&pt, largest, derived, sign));
      }
      if (!pt.degenerate.empty()) {
        std::vector<Candidate> items;
        items.reserve(pt.degenerate.size());
        for (const SeqEntry& s : pt.degenerate) {
          // Degenerate pivot (norm 0) or zero normalizer: T-value ‖α‖ξ,
          // D-value defined 0.
          const double raw = derived ? 0.0 : pt.norm * s.xi;
          Candidate c;
          c.entry.pair = s.e;
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

  // --- Threshold-algorithm main loop. ---------------------------------------

  std::priority_queue<Stream*, std::vector<Stream*>, WorseBound> frontier;
  for (const auto& s : streams) {
    if (!s->Exhausted()) frontier.push(s.get());
  }

  std::priority_queue<Candidate, std::vector<Candidate>, WorseCandidate> best;  // worst on top
  ScapeTopKResult result;
  while (!frontier.empty()) {
    Stream* s = frontier.top();
    const double bound = s->Bound();
    if (best.size() == k && best.top().value >= bound) break;  // TA stop condition
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

ScapeTopKResult MergeTopK(const std::vector<ScapeTopKResult>& runs, std::size_t k,
                          bool largest) {
  // Frontier heap over run heads: each run is already best-first, so the
  // globally best unmerged entry is always some run's head.
  struct Head {
    std::size_t run;
    std::size_t pos;
  };
  ScapeTopKResult out;
  const auto worse_head = [&](const Head& a, const Head& b) {
    return TopKBefore(runs[b.run].entries[b.pos], runs[a.run].entries[a.pos], largest);
  };
  std::priority_queue<Head, std::vector<Head>, decltype(worse_head)> frontier(worse_head);
  for (std::size_t r = 0; r < runs.size(); ++r) {
    out.examined += runs[r].examined;
    if (!runs[r].entries.empty()) frontier.push(Head{r, 0});
  }
  out.entries.reserve(k);
  while (out.entries.size() < k && !frontier.empty()) {
    const Head head = frontier.top();
    frontier.pop();
    out.entries.push_back(runs[head.run].entries[head.pos]);
    if (head.pos + 1 < runs[head.run].entries.size()) {
      frontier.push(Head{head.run, head.pos + 1});
    }
  }
  return out;
}

}  // namespace affinity::core
