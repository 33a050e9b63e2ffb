#ifndef AFFINITY_SERVE_SERVE_QUERY_H_
#define AFFINITY_SERVE_SERVE_QUERY_H_

/// \file serve_query.h
/// Query execution against a published `ServingSnapshot` (DESIGN.md §11).
///
/// Each function binds the epoch to `core::QueryEngine` (`EpochView`)
/// and asks it: the engine plans with the epoch's frozen capabilities,
/// reads WA values from the frozen tables, and runs WN sweeps and WF
/// sketches over the epoch's window. There is no second implementation,
/// so answers — errors included — are bitwise a stream's live engine's at
/// the epoch's publication point, and every status is final. An epoch has
/// no SCAPE index: an explicit kScape fails as it does on an engine
/// without one.
///
/// Everything here is const over the snapshot and allocation-local, so
/// any number of threads may serve queries from the same snapshot
/// concurrently, while maintenance publishes new epochs — the lock-free
/// serving contract.

#include "common/status.h"
#include "core/query.h"
#include "serve/serving_snapshot.h"

namespace affinity::serve {

/// Query 1 against the snapshot (`QueryEngine::Mec`).
StatusOr<core::MecResponse> SnapshotMec(const ServingSnapshot& snap,
                                        const core::MecRequest& request,
                                        core::QueryMethod method = core::QueryMethod::kAuto);

/// Query 2 against the snapshot (`QueryEngine::Met`).
StatusOr<core::SelectionResult> SnapshotMet(const ServingSnapshot& snap,
                                            const core::MetRequest& request,
                                            core::QueryMethod method = core::QueryMethod::kAuto);

/// Query 3 against the snapshot (`QueryEngine::Mer`).
StatusOr<core::SelectionResult> SnapshotMer(const ServingSnapshot& snap,
                                            const core::MerRequest& request,
                                            core::QueryMethod method = core::QueryMethod::kAuto);

/// Top-k against the snapshot (`QueryEngine::TopK`).
StatusOr<core::TopKResult> SnapshotTopK(const ServingSnapshot& snap,
                                        const core::TopKRequest& request,
                                        core::QueryMethod method = core::QueryMethod::kAuto);

}  // namespace affinity::serve

#endif  // AFFINITY_SERVE_SERVE_QUERY_H_
