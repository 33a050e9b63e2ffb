// Reproduces Fig. 14: scalability of SCAPE index construction on
// sensor-data, for a T-measure (covariance) and an L-measure (mean).
//
// The paper plots per-measure index build time against the number of
// indexed affine relationships; both curves are linear with covariance
// slightly above mean. We additionally report the full multi-measure index
// (what `ScapeIndex::Build` produces) — the paper's point that one
// structure serves all measures.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/scape.h"
#include "core/symex.h"

using namespace affinity;
using namespace affinity::bench;

namespace {

/// One key per relationship, filed under its pivot and sorted once — the
/// sorted-run construction `ScapeIndex::Build` performs per (pivot,
/// family), isolated to a single measure family.
template <typename KeyFn>
double BuildSortedRuns(const core::AffinityModel& model, const KeyFn& key_of) {
  Stopwatch watch;
  std::unordered_map<std::uint64_t, std::size_t> slot_of;
  std::vector<std::vector<std::pair<double, ts::SequencePair>>> runs;
  model.ForEachRelationship([&](const ts::SequencePair& e, const core::AffineRecord& rec) {
    const auto [it, inserted] = slot_of.try_emplace(rec.pivot.Key(), runs.size());
    if (inserted) runs.emplace_back();
    runs[it->second].emplace_back(key_of(rec), e);
  });
  for (auto& run : runs) std::sort(run.begin(), run.end());
  return watch.ElapsedSeconds();
}

/// Covariance-only pair-level index build (Table 2 covariance row).
double BuildCovarianceOnly(const core::AffinityModel& model) {
  return BuildSortedRuns(model, [&](const core::AffineRecord& rec) {
    const core::PairMatrixMeasures* pm = model.FindPivotMeasures(rec.pivot);
    double alpha[3];
    if (rec.pivot.series_first) {
      alpha[0] = pm->cov11;
      alpha[1] = pm->cov12;
    } else {
      alpha[0] = pm->cov12;
      alpha[1] = pm->cov22;
    }
    alpha[2] = 0.0;
    const double norm =
        std::sqrt(alpha[0] * alpha[0] + alpha[1] * alpha[1] + alpha[2] * alpha[2]);
    double beta[3];
    rec.Beta(beta);
    return norm > 0 ? (alpha[0] * beta[0] + alpha[1] * beta[1] + alpha[2] * beta[2]) / norm : 0.0;
  });
}

/// Mean-only pair-level index build (Table 2 location row: the L-measure of
/// the free series keyed per relationship, as the paper's Fig. 14 scales
/// the "mean" curve with the relationship count).
double BuildMeanOnly(const core::AffinityModel& model) {
  return BuildSortedRuns(model, [&](const core::AffineRecord& rec) {
    const core::PairMatrixMeasures* pm = model.FindPivotMeasures(rec.pivot);
    const double alpha[3] = {pm->mean[0], pm->mean[1], 1.0};
    const double norm =
        std::sqrt(alpha[0] * alpha[0] + alpha[1] * alpha[1] + alpha[2] * alpha[2]);
    double beta[3];
    rec.Beta(beta);
    return (alpha[0] * beta[0] + alpha[1] * beta[1] + alpha[2] * beta[2]) / norm;
  });
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  Banner("Fig. 14", "SCAPE index construction time vs indexed affine relationships (sensor-data)",
         args);
  const ts::Dataset dataset = SensorAtScale(args.scale);
  const std::size_t max_rel = ts::SequencePairCount(dataset.matrix.n());

  core::AfclstOptions afclst;
  afclst.k = 6;
  auto clustering = core::RunAfclst(dataset.matrix, afclst);
  if (!clustering.ok()) return 1;

  std::printf("relationships,covariance_seconds,mean_seconds,full_index_seconds\n");
  for (int step = 1; step <= 5; ++step) {
    std::size_t target = max_rel * static_cast<std::size_t>(step) / 5;
    core::SymexOptions symex;
    symex.max_relationships = target;
    auto model = core::RunSymex(dataset.matrix, *clustering, symex);
    if (!model.ok()) return 1;

    const double cov_seconds = BuildCovarianceOnly(*model);
    const double mean_seconds = BuildMeanOnly(*model);
    auto index = core::ScapeIndex::Build(*model);
    if (!index.ok()) return 1;
    std::printf("%zu,%.4f,%.4f,%.4f\n", model->relationship_count(), cov_seconds, mean_seconds,
                index->build_seconds());
  }
  return 0;
}
