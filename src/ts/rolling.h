#ifndef AFFINITY_TS_ROLLING_H_
#define AFFINITY_TS_ROLLING_H_

/// \file rolling.h
/// Sliding-window helpers for streaming ingestion.
///
/// The paper frames AFFINITY for "real-time and archival settings"; a
/// windowed deployment rebuilds or delta-updates the model over the
/// trailing window. `TailWindow` is the snapshot a full rebuild starts
/// from (see the `sensor_monitor` example); the delta path lives in
/// core/incremental (DESIGN.md §8).

#include <cstddef>

#include "common/status.h"
#include "ts/data_matrix.h"

namespace affinity::ts {

/// The last `window` rows of `data` as a new DataMatrix — the snapshot a
/// windowed deployment rebuilds the AFFINITY model from.
/// InvalidArgument when window is 0 or exceeds data.m().
StatusOr<DataMatrix> TailWindow(const DataMatrix& data, std::size_t window);

}  // namespace affinity::ts

#endif  // AFFINITY_TS_ROLLING_H_
