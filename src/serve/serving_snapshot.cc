#include "serve/serving_snapshot.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace affinity::serve {

// ---------------------------------------------------------------------------
// CowWindow

CowWindow CowWindow::FromDense(ts::DataMatrix dense) {
  CowWindow w;
  w.m_ = dense.m();
  w.n_ = dense.n();
  w.anchor_ = dense.anchor_row();
  w.names_ = dense.names();
  w.lazy_ = std::make_shared<Lazy>();
  Lazy* lazy = w.lazy_.get();
  std::call_once(lazy->once, [&] { lazy->dense = std::move(dense); });
  return w;
}

bool CowWindow::FromTable(const storage::DataMatrixTable& table, std::size_t first_row,
                          std::size_t rows, const std::vector<std::string>& names,
                          CowWindow* out) {
  if (rows == 0 || table.series_count() == 0) return false;
  if (first_row < table.first_retained_row()) return false;
  if (first_row + rows > table.row_count()) return false;
  if (names.size() != table.series_count()) return false;
  out->m_ = rows;
  out->n_ = table.series_count();
  out->anchor_ = first_row;
  out->names_ = names;
  out->lazy_ = std::make_shared<Lazy>();
  // Each column's span list is rewritten in place: a recycled window keeps
  // its capacity, so steady-state captures allocate no span storage.
  out->cols_.resize(out->n_);
  const std::size_t end_row = first_row + rows;
  for (std::size_t j = 0; j < out->n_; ++j) {
    std::vector<Span>& col = out->cols_[j];
    col.clear();
    std::size_t covered = 0;
    table.ForEachColumnSegment(static_cast<ts::SeriesId>(j),
                               [&](const storage::ColumnSegment& segment, std::size_t seg_row) {
                                 const std::size_t seg_end = seg_row + segment.size();
                                 if (seg_end <= first_row || seg_row >= end_row) return;
                                 const std::size_t lo = std::max(seg_row, first_row);
                                 const std::size_t hi = std::min(seg_end, end_row);
                                 Span span;
                                 span.owner = segment.shared_values();
                                 span.data = span.owner->data() + (lo - seg_row);
                                 span.rows = hi - lo;
                                 covered += span.rows;
                                 col.push_back(std::move(span));
                               });
    if (covered != rows) return false;
  }
  return true;
}

const ts::DataMatrix& CowWindow::Materialize() const {
  Lazy* lazy = lazy_.get();
  std::call_once(lazy->once, [&] {
    la::Matrix values(m_, n_);
    for (std::size_t j = 0; j < n_; ++j) {
      double* dst = values.ColData(j);
      std::size_t i = 0;
      for (const Span& s : cols_[j]) {
        std::copy(s.data, s.data + s.rows, dst + i);
        i += s.rows;
      }
    }
    ts::DataMatrix dense(std::move(values), names_);
    dense.set_anchor_row(anchor_);
    lazy->dense = std::move(dense);
  });
  return lazy->dense;
}

const double* CowWindow::ColumnData(ts::SeriesId id) const {
  return Materialize().ColumnData(id);
}

const ts::DataMatrix& CowWindow::dense() const { return Materialize(); }

std::size_t CowWindow::segment_count() const {
  std::size_t count = 0;
  for (const auto& col : cols_) count += col.size();
  return count;
}

std::size_t CowWindow::SharedSegmentsWith(const CowWindow& prior) const {
  if (cols_.empty() || prior.cols_.empty()) return 0;
  std::size_t shared = 0;
  // Columns keep their segment lists in row order, so matching by column
  // index is enough (a buffer never migrates between series).
  for (std::size_t j = 0; j < cols_.size() && j < prior.cols_.size(); ++j) {
    for (const Span& s : cols_[j]) {
      for (const Span& p : prior.cols_[j]) {
        if (s.owner.get() == p.owner.get()) {
          ++shared;
          break;
        }
      }
    }
  }
  return shared;
}

// ---------------------------------------------------------------------------
// WA surface fills

namespace {

using core::Measure;

/// Freezes what the engine answers with besides the model — its
/// capabilities less SCAPE (an epoch carries no index), WF coefficient
/// count and quality scores. The scores are assigned in place, so a
/// recycled scratch epoch keeps its capacity and never carries the
/// previous epoch's scores; cleared when the engine has no surface.
void FreezeEngine(const core::QueryEngine& engine, ServingSnapshot* out) {
  out->caps = engine.Capabilities();
  out->caps.has_scape = false;
  out->wf_coefficients = engine.wf_coefficients();
  if (engine.quality() != nullptr) {
    out->quality.assign(engine.quality()->begin(), engine.quality()->end());
  } else {
    out->quality.clear();
  }
}

/// Fills the snapshot's WA location tables (one per L-measure family).
void FillLocationTables(const core::AffinityModel& model, ServingSnapshot* out) {
  const std::size_t n = model.data().n();
  const Measure kLoc[3] = {Measure::kMean, Measure::kMedian, Measure::kMode};
  for (int f = 0; f < 3; ++f) {
    auto& table = out->location[static_cast<std::size_t>(f)];
    table.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      table[v] = *model.SeriesMeasure(kLoc[f], static_cast<ts::SeriesId>(v));
    }
  }
}

/// Fills the six pair measure tables in lexicographic pair order — the
/// order every sweep walks, so snapshot WA sweeps read values in exactly
/// the sequence the live engine computes them. One `PairMeasure` call per
/// value: the per-measure oracle path.
void FillPairTables(const core::AffinityModel& model, ServingSnapshot* out) {
  const std::size_t n = model.data().n();
  for (int t = 0; t < 6; ++t) {
    const auto measure = static_cast<Measure>(static_cast<int>(Measure::kCovariance) + t);
    auto& table = out->pair_values[static_cast<std::size_t>(t)];
    table.reserve(ts::SequencePairCount(n));
    for (std::size_t u = 0; u + 1 < n; ++u) {
      for (std::size_t v = u + 1; v < n; ++v) {
        table.push_back(*model.PairMeasure(
            measure, ts::SequencePair(static_cast<ts::SeriesId>(u), static_cast<ts::SeriesId>(v))));
      }
    }
  }
}

/// The delta path's bulk variant: all six tables per pair, fanned out
/// over `exec`. With `by_key` (the model's relationships, keys ascending
/// — so slot p is pair p), each pair reads its record and pivot measures
/// from the list; otherwise it is looked up (`PairMeasures6`). Each value
/// is bitwise what FillPairTables stores.
void FillPairTablesBulk(const core::AffinityModel& model,
                        const std::vector<core::RelationshipRef>* by_key,
                        const ExecContext& exec, ServingSnapshot* out) {
  const std::size_t n = model.data().n();
  const std::size_t pairs = ts::SequencePairCount(n);
  AFFINITY_DCHECK(by_key == nullptr || by_key->size() == pairs);
  for (auto& table : out->pair_values) table.resize(pairs);
  double* tables[6];
  for (int t = 0; t < 6; ++t) tables[t] = out->pair_values[static_cast<std::size_t>(t)].data();
  ParallelChunks(exec, pairs, [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) {
    const ts::SequencePair first = ts::PairFromIndex(lo, n);
    std::size_t u = first.u, v = first.v;
    for (std::size_t p = lo; p < hi; ++p, ts::NextPair(n, &u, &v)) {
      const ts::SequencePair e(static_cast<ts::SeriesId>(u), static_cast<ts::SeriesId>(v));
      double values[6];
      if (by_key != nullptr) {
        const core::RelationshipRef& ref = (*by_key)[p];
        model.PairMeasures6From(*ref.rec, e, *ref.pivot, values);
      } else {
        const Status found = model.PairMeasures6(e, values);
        AFFINITY_DCHECK(found.ok());
      }
      for (int t = 0; t < 6; ++t) tables[t][p] = values[t];
    }
  });
}

/// Aborts unless `model` holds every relationship — the complete WA
/// surface an epoch serves. A stream never publishes any other model.
void CheckComplete(const core::AffinityModel& model) {
  AFFINITY_CHECK_EQ(model.relationship_count(), ts::SequencePairCount(model.data().n()));
}

/// Copies the per-series statistics into the epoch (in place, keeping a
/// recycled epoch's capacity).
void FreezeStats(const core::AffinityModel& model, ServingSnapshot* out) {
  const std::size_t n = model.data().n();
  out->stats.clear();
  out->stats.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    out->stats.push_back(model.series_stats(static_cast<ts::SeriesId>(v)));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotBuilder

std::shared_ptr<const ServingSnapshot> SnapshotBuilder::Build(const core::AffinityModel& model,
                                                              const core::QueryEngine& engine,
                                                              std::uint64_t generation,
                                                              std::size_t snapshot_row,
                                                              PublishStats* stats) {
  CheckComplete(model);
  auto out = std::make_shared<ServingSnapshot>();
  out->generation = generation;
  out->snapshot_row = snapshot_row;
  // Dense copy keeps names and the block-grid anchor.
  out->data = CowWindow::FromDense(model.data());
  FreezeEngine(engine, out.get());

  PublishStats local;
  local.bytes_copied += model.data().m() * model.data().n() * sizeof(double);
  FreezeStats(model, out.get());
  local.bytes_copied +=
      out->stats.size() * sizeof(core::SeriesStats) + out->quality.size() * sizeof(double);
  FillLocationTables(model, out.get());
  FillPairTables(model, out.get());
  for (const auto& table : out->location) local.bytes_copied += table.size() * sizeof(double);
  for (const auto& table : out->pair_values) local.bytes_copied += table.size() * sizeof(double);

  if (stats != nullptr) *stats = local;
  return out;
}

std::shared_ptr<const ServingSnapshot> SnapshotBuilder::BuildDelta(
    const core::AffinityModel& model, const std::vector<core::RelationshipRef>* by_key,
    const storage::DataMatrixTable& table, const ServingSnapshot* prior,
    const core::QueryEngine& engine, std::uint64_t generation, std::size_t snapshot_row,
    const ExecContext& exec, PublishStats* stats, std::shared_ptr<ServingSnapshot> scratch) {
  CheckComplete(model);
  const std::size_t n = model.data().n();
  const std::size_t m = model.data().m();
  // The table must still retain (and agree with) the whole window; any
  // mismatch falls back to a full Build at the call site.
  if (table.series_count() != n || snapshot_row < m) return nullptr;
  const std::size_t first_row = snapshot_row - m;
  if (model.data().anchor_row() != first_row) return nullptr;

  // A recycled retired epoch keeps all its vector capacities: in steady
  // state every table below is rewritten in place and nothing allocates.
  auto out = scratch != nullptr ? std::move(scratch) : std::make_shared<ServingSnapshot>();
  if (!CowWindow::FromTable(table, first_row, m, model.data().names(), &out->data)) {
    return nullptr;
  }
  out->generation = generation;
  out->snapshot_row = snapshot_row;
  FreezeEngine(engine, out.get());
  PublishStats total;
  total.delta = true;
  total.window_segments_total = out->data.segment_count();
  if (prior != nullptr) total.window_segments_reused = out->data.SharedSegmentsWith(prior->data);

  FreezeStats(model, out.get());
  total.bytes_copied += n * sizeof(core::SeriesStats) + out->quality.size() * sizeof(double);
  // The WA surface is value-level state: at interval-1 slides every value
  // moves, so it is refilled — six measures per pair, in pair order, from
  // the key-ordered relationship list when there is one.
  FillLocationTables(model, out.get());
  FillPairTablesBulk(model, by_key, exec, out.get());
  for (const auto& tbl : out->location) total.bytes_copied += tbl.size() * sizeof(double);
  for (const auto& tbl : out->pair_values) total.bytes_copied += tbl.size() * sizeof(double);

  if (stats != nullptr) *stats = total;
  return out;
}

}  // namespace affinity::serve
