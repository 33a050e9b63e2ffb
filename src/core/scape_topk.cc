// Top-k over SCAPE runs (declaration in scape.h).
//
// Within one run the entries are sorted by the scalar projection ξ, and
//
//   * T/L-measures:  value = ‖α‖·ξ           → run order IS value order;
//   * D-measures:    value = ‖α‖·ξ / U_e     → run order bounds value order,
//     because U_e ∈ [Umin, Umax]:  for ξ ≥ 0, value ≤ ‖α‖·ξ/Umin; for
//     ξ < 0, value ≤ ‖α‖·ξ/Umax (and symmetrically for lower bounds).
//
// So each run is a stream whose frontier carries a bound on everything it
// has not yet produced — exactly the setting of Fagin's threshold
// algorithm. We pop the stream with the best bound, evaluate its frontier
// entry exactly, select through `TopKSelector`, and stop once the k-th
// selected entry ranks strictly before every remaining bound. Strictly:
// an unseen entry valued exactly at the bound could still outrank the
// k-th selection on its (series, pair) tie key.

#include <algorithm>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "core/scape.h"

namespace affinity::core {

namespace {

/// One threshold-algorithm input: a run walked best key first (descending
/// ξ for `largest`, ascending otherwise), or a span of the side-list
/// buffer, pre-evaluated and sorted best-first.
struct Stream {
  const double* keys = nullptr;  ///< run streams; nullptr for a side span
  const ts::SequencePair* pairs = nullptr;
  const double* us = nullptr;
  const ts::SeriesId* series = nullptr;  ///< L-measure runs
  double norm = 0.0;
  double u_min = 0.0;
  double u_max = 0.0;
  std::size_t begin = 0;  ///< side span: offset into the side buffer
  std::size_t size = 0;
  std::size_t taken = 0;
};

}  // namespace

StatusOr<ScapeTopKResult> ScapeTopK(const ScapeRuns& runs, Measure measure, std::size_t k,
                                    bool largest) {
  if (k == 0) return ScapeTopKResult{};
  const int loc_family = LocationFamilyOf(measure);
  const int pair_family = PairFamilyOf(measure);
  if (loc_family < 0 && pair_family < 0) {
    return Status::Unimplemented(std::string(MeasureName(measure)) +
                                 " is not SCAPE-indexable (no separable normalizer)");
  }
  const bool derived = IsDerived(measure);
  // Bounds compare in a transformed space where larger is better.
  const double sign = largest ? 1.0 : -1.0;

  std::vector<Stream> streams;
  std::vector<ScapeTopKEntry> side;
  if (loc_family >= 0) {
    for (const auto& node : runs.loc) {
      const LocRun& run = node[static_cast<std::size_t>(loc_family)];
      if (run.keys.empty()) continue;
      Stream s;
      s.keys = run.keys.data();
      s.series = run.series.data();
      s.norm = run.norm;
      s.size = run.keys.size();
      streams.push_back(s);
    }
  } else {
    for (const auto& node : runs.pair) {
      const PairRun& run = node[static_cast<std::size_t>(pair_family)];
      if (run.norm > 0.0 && !run.keys.empty()) {
        Stream s;
        s.keys = run.keys.data();
        s.pairs = run.pairs.data();
        s.us = run.us.data();
        s.norm = run.norm;
        s.u_min = run.u_min;
        s.u_max = run.u_max;
        s.size = run.keys.size();
        streams.push_back(s);
      }
      if (!run.side.empty()) {
        Stream s;
        s.begin = side.size();
        s.size = run.side.size();
        for (const ScapeSideEntry& e : run.side) {
          // Degenerate pivot (‖α‖ = 0) or zero normalizer: T-value ‖α‖ξ,
          // D-value defined 0.
          side.push_back(ScapeTopKEntry{e.pair, kNoSeries, derived ? 0.0 : run.norm * e.xi});
        }
        std::sort(side.begin() + static_cast<std::ptrdiff_t>(s.begin), side.end(),
                  [largest](const ScapeTopKEntry& a, const ScapeTopKEntry& b) {
                    return TopKBefore(a, b, largest);
                  });
        streams.push_back(s);
      }
    }
  }

  // The transformed bound on every entry `s` has not yet produced.
  const auto bound = [&](const Stream& s) {
    if (s.keys == nullptr) return sign * side[s.begin + s.taken].value;
    const double xi = s.keys[largest ? s.size - 1 - s.taken : s.taken];
    const double scaled = sign * s.norm * xi;
    if (!derived) return scaled;
    return scaled >= 0 ? scaled / s.u_min : scaled / s.u_max;
  };
  // The frontier entry of `s`, evaluated exactly; advances the stream.
  const auto take = [&](Stream& s) {
    if (s.keys == nullptr) return side[s.begin + s.taken++];
    const std::size_t pos = largest ? s.size - 1 - s.taken : s.taken;
    ++s.taken;
    ScapeTopKEntry e;
    if (s.series != nullptr) {
      e.series = s.series[pos];
    } else {
      e.pair = s.pairs[pos];
    }
    e.value = derived ? s.norm * s.keys[pos] / s.us[pos] : s.norm * s.keys[pos];
    return e;
  };

  // Max-heap of (bound, stream): the stream with the best bound on top.
  std::priority_queue<std::pair<double, std::size_t>> frontier;
  for (std::size_t i = 0; i < streams.size(); ++i) frontier.emplace(bound(streams[i]), i);
  TopKSelector best(k, largest);
  ScapeTopKResult result;
  while (!frontier.empty()) {
    const auto [top_bound, i] = frontier.top();
    // sign·bound is the top bound as a value in the query direction.
    if (best.Excludes(sign * top_bound)) break;
    frontier.pop();
    best.Offer(take(streams[i]));
    ++result.examined;
    if (streams[i].taken < streams[i].size) frontier.emplace(bound(streams[i]), i);
  }
  result.entries = std::move(best).Finish();
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
