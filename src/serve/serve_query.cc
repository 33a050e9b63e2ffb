#include "serve/serve_query.h"

#include <cstddef>
#include <utility>

namespace affinity::serve {

namespace {

/// The engine over `snap`: its frozen caps, WF coefficient count, scores
/// and WA tables, its lazily materialized window, and a sequential
/// ExecContext.
core::QueryEngine EpochEngine(const ServingSnapshot& snap) {
  core::EpochView epoch;
  epoch.generation = snap.generation;
  epoch.n = snap.data.n();
  epoch.m = snap.data.m();
  epoch.dense = [window = &snap.data]() -> const ts::DataMatrix& { return window->dense(); };
  epoch.caps = snap.caps;
  epoch.wf_coefficients = snap.wf_coefficients;
  if (snap.caps.has_model) {
    // Location family f is Measure f; pair table t is Measure kCovariance + t.
    epoch.stats = &snap.stats;
    for (std::size_t f = 0; f < snap.location.size(); ++f) epoch.wa_tables[f] = &snap.location[f];
    const auto first_pair = static_cast<std::size_t>(core::Measure::kCovariance);
    for (std::size_t t = 0; t < snap.pair_values.size(); ++t) {
      epoch.wa_tables[first_pair + t] = &snap.pair_values[t];
    }
  }
  epoch.quality = snap.caps.has_quality ? &snap.quality : nullptr;
  return core::QueryEngine(std::move(epoch));
}

}  // namespace

StatusOr<core::MecResponse> SnapshotMec(const ServingSnapshot& snap,
                                        const core::MecRequest& request,
                                        core::QueryMethod method) {
  return EpochEngine(snap).Mec(request, method);
}

StatusOr<core::SelectionResult> SnapshotMet(const ServingSnapshot& snap,
                                            const core::MetRequest& request,
                                            core::QueryMethod method) {
  return EpochEngine(snap).Met(request, method);
}

StatusOr<core::SelectionResult> SnapshotMer(const ServingSnapshot& snap,
                                            const core::MerRequest& request,
                                            core::QueryMethod method) {
  return EpochEngine(snap).Mer(request, method);
}

StatusOr<core::TopKResult> SnapshotTopK(const ServingSnapshot& snap,
                                        const core::TopKRequest& request,
                                        core::QueryMethod method) {
  return EpochEngine(snap).TopK(request, method);
}

}  // namespace affinity::serve
