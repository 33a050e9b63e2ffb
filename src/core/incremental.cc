#include "core/incremental.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/stopwatch.h"
#include "la/solve.h"
#include "ts/stats.h"

namespace affinity::core {

namespace {

constexpr double kTiny = 1e-300;

/// Removes one occurrence of `evicted` from the sorted window [col, col+m)
/// and inserts `added`, shifting only the span between the two positions.
void SortedReplace(double* col, std::size_t m, double evicted, double added) {
  double* end = col + m;
  double* out = std::lower_bound(col, end, evicted);  // exact match exists
  double* in = std::upper_bound(col, end, added);
  if (in > out + 1) {
    std::memmove(out, out + 1, static_cast<std::size_t>(in - out - 1) * sizeof(double));
    in[-1] = added;
  } else if (in < out) {
    std::memmove(in + 1, in, static_cast<std::size_t>(out - in) * sizeof(double));
    *in = added;
  } else {
    *out = added;
  }
}

}  // namespace

StatusOr<IncrementalMaintainer> IncrementalMaintainer::Create(AffinityModel* model,
                                                              const IncrementalOptions& options,
                                                              const ExecContext& exec,
                                                              MaintenanceProfile* profile) {
  if (model == nullptr) {
    return Status::InvalidArgument("incremental maintenance requires a model");
  }
  if (options.exact_refit_period < 1) {
    return Status::InvalidArgument("exact_refit_period must be >= 1");
  }
  IncrementalMaintainer mt;
  mt.model_ = model;
  mt.options_ = options;
  mt.window_ = model->data().m();
  mt.n_ = model->data().n();
  const ts::DataMatrix& data = model->data();
  const std::size_t m = mt.window_;

  // Build-window means, frozen so the centre extension keeps centering new
  // samples the way AFCLST centered the build window.
  mt.frozen_means_.resize(mt.n_);
  for (std::size_t j = 0; j < mt.n_; ++j) {
    mt.frozen_means_[j] = model->series_stats(static_cast<ts::SeriesId>(j)).mean;
  }

  // Centre-extension weights: each centre is the dominant left singular
  // vector of its centered member matrix, hence an exact linear
  // combination of the centered member columns — recover the combination
  // by least squares so the centre evaluates on rows AFCLST never saw.
  const AfclstResult& clustering = model->clustering_;
  const std::size_t k = clustering.k();
  std::vector<std::vector<ts::SeriesId>> members(k);
  for (std::size_t v = 0; v < mt.n_; ++v) {
    members[static_cast<std::size_t>(clustering.assignment[v])].push_back(
        static_cast<ts::SeriesId>(v));
  }
  mt.center_weights_.resize(k);
  for (std::size_t l = 0; l < k; ++l) {
    if (members[l].empty()) continue;  // empty cluster: centre extends as 0
    la::Matrix centered(m, members[l].size());
    for (std::size_t idx = 0; idx < members[l].size(); ++idx) {
      const ts::SeriesId v = members[l][idx];
      const double* s = data.ColumnData(v);
      const double mean = mt.frozen_means_[v];
      double* dst = centered.ColData(idx);
      for (std::size_t i = 0; i < m; ++i) dst[i] = s[i] - mean;
    }
    la::Matrix target(m, 1);
    const double* r = clustering.centers.ColData(l);
    double* dst = target.ColData(0);
    for (std::size_t i = 0; i < m; ++i) dst[i] = r[i];
    auto beta = la::SolveLeastSquares(centered, target);
    if (!beta.ok()) {
      // Collinear members make the combination ambiguous; leave the
      // extension at 0 and let the drift monitor escalate if it matters.
      continue;
    }
    mt.center_weights_[l].reserve(members[l].size());
    for (std::size_t idx = 0; idx < members[l].size(); ++idx) {
      mt.center_weights_[l].emplace_back(members[l][idx], (*beta)(idx, 0));
    }
  }

  // Sorted views of every window column (series, then centres), kept live
  // by evict/insert shifts so refreshes never re-select medians.
  mt.sorted_cols_ = la::Matrix(m, mt.n_ + k);
  for (std::size_t c = 0; c < mt.n_ + k; ++c) {
    const double* src = c < mt.n_ ? data.ColumnData(static_cast<ts::SeriesId>(c))
                                  : clustering.centers.ColData(c - mt.n_);
    double* dst = mt.sorted_cols_.ColData(c);
    std::copy(src, src + m, dst);
    std::sort(dst, dst + m);
  }

  // Pivot and relationship slots, in ascending key order — canonical
  // regardless of hash-table layout, so chunk decomposition over the
  // slots is identical across processes too. The pointed-at hash nodes
  // are stable under the maintenance path, which never inserts or
  // erases structure.
  std::vector<std::pair<std::uint64_t, PivotHashEntry*>> pivot_items;
  pivot_items.reserve(model->pivot_hash_.size());
  // affinity-lint: allow(unordered-iter): collect-then-sort — slot order fixed by the sort below
  for (auto& [key, entry] : model->pivot_hash_) pivot_items.emplace_back(key, &entry);
  std::sort(pivot_items.begin(), pivot_items.end());
  std::unordered_map<std::uint64_t, std::size_t> pivot_index;
  pivot_index.reserve(model->pivot_hash_.size());
  mt.pivot_slots_.reserve(model->pivot_hash_.size());
  for (const auto& [key, entry] : pivot_items) {
    pivot_index.emplace(key, mt.pivot_slots_.size());
    PivotSlot ps;
    ps.entry = entry;
    mt.pivot_slots_.push_back(ps);
  }
  std::vector<std::pair<std::uint64_t, AffineRecord*>> rel_items;
  rel_items.reserve(model->aff_hash_.size());
  // affinity-lint: allow(unordered-iter): collect-then-sort — slot order fixed by the sort below
  for (auto& [key, rec] : model->aff_hash_) rel_items.emplace_back(key, &rec);
  std::sort(rel_items.begin(), rel_items.end());
  mt.slots_.reserve(model->aff_hash_.size());
  mt.by_key_.reserve(model->aff_hash_.size());
  for (const auto& [key, rec] : rel_items) {
    PairSlot s;
    s.e = ts::SequencePair(static_cast<ts::SeriesId>(key >> 32),
                           static_cast<ts::SeriesId>(key & 0xffffffffULL));
    s.rec = rec;
    const auto it = pivot_index.find(rec->pivot.Key());
    if (it == pivot_index.end()) {
      return Status::Internal("relationship references an unknown pivot");
    }
    s.pivot_slot = it->second;
    mt.slots_.push_back(s);
    mt.by_key_.push_back(RelationshipRef{rec, &mt.pivot_slots_[it->second].entry->measures});
  }

  // The series-side right-hand-side entries: Σ r·s by the chain
  // RecomputeDerived runs (a restored model does not carry it).
  model->series_center_dot_.resize(mt.n_);
  for (std::size_t v = 0; v < mt.n_; ++v) {
    model->series_center_dot_[v] = kernels::BlockedDot(
        clustering.centers.ColData(static_cast<std::size_t>(clustering.assignment[v])),
        data.ColumnData(static_cast<ts::SeriesId>(v)), m, data.anchor_row());
  }

  // Materialize every co-moment exactly and capture the drift-monitor
  // baseline. Re-solving here reproduces the SYMEX+ fits bit for bit
  // (shared kernels, identical accumulation order).
  std::size_t refits = 0;
  AFFINITY_RETURN_IF_ERROR(mt.SolveRelationships(kRefitAll, exec, &refits));
  mt.baseline_residual_ = mt.mean_residual_;
  profile->mean_relative_residual = mt.baseline_residual_;
  profile->baseline_mean_residual = mt.baseline_residual_;
  return mt;
}

bool IncrementalMaintainer::WillRefit(std::size_t slot_index, std::size_t refresh_index,
                                      const PairSlot& slot) const {
  if (refresh_index == kRefitAll || options_.exact_refit_period <= 1) return true;
  if (slot_index % options_.exact_refit_period ==
      refresh_index % options_.exact_refit_period) {
    return true;
  }
  return slot.rel_residual - slot.residual_at_refit > options_.refit_drift_threshold;
}

Status IncrementalMaintainer::SolveRelationships(std::size_t refresh_index,
                                                 const ExecContext& exec,
                                                 std::size_t* refit_count,
                                                 kernels::BlockSpanStats* span_stats) {
  const std::size_t m = window_;
  const std::size_t anchor = model_->data_.anchor_row();

  // Refresh the per-pivot inverse normal-equation factors from the exactly
  // recomputed pivot measures (the Gram shares the measures' sums, so this
  // matches a from-scratch ComputeGram bit for bit).
  ParallelChunks(exec, pivot_slots_.size(),
                 [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i) {
                     PivotSlot& ps = pivot_slots_[i];
                     ps.invertible =
                         fit::InvertGram(fit::GramFromMeasures(ps.entry->measures), &ps.ginv);
                   }
                 });

  // Re-solve every relationship. Each slot writes only its own hash node;
  // refit counts and residual sums merge in chunk order (§7 determinism).
  std::vector<std::size_t> refits(ExecNumChunks(slots_.size()), 0);
  std::vector<double> residual_sums(ExecNumChunks(slots_.size()), 0.0);
  std::vector<kernels::BlockSpanStats> chunk_spans(
      span_stats != nullptr ? ExecNumChunks(slots_.size()) : 0);
  ParallelChunks(exec, slots_.size(), [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
    std::size_t local_refits = 0;
    double local_sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      PairSlot& s = slots_[i];
      const PivotSlot& ps = pivot_slots_[s.pivot_slot];
      const PivotPair& pivot = s.rec->pivot;
      const bool refit = WillRefit(i, refresh_index, s);
      if (refit) {
        const double* su = model_->data_.ColumnData(s.e.u);
        const double* sv = model_->data_.ColumnData(s.e.v);
        if (options_.retain_block_partials) {
          // Exact re-materialization from retained partials: bitwise
          // equal to BlockedDot by construction, paying only the blocks
          // the window moved over since this chain last slid.
          s.rhs_chain.SlideTo(
              anchor, m, [su, sv](std::size_t r, double* v) { v[0] = su[r] * sv[r]; },
              &s.co_moment, span_stats != nullptr ? &chunk_spans[chunk] : nullptr);
        } else {
          s.co_moment = kernels::BlockedDot(su, sv, m, anchor);
        }
        ++local_refits;
      }
      // ComputeRhs's three chains: the co-moment is the pair's; the centre
      // cross term and the sum are the target series' exact chains, since
      // every pivot takes its target series' cluster (SolveInsert). A
      // product does not depend on operand order, so the co-moment chain
      // is the same for both pivot orientations.
      const ts::SeriesId t_series = pivot.series_first ? s.e.v : s.e.u;
      const double center_dot = model_->series_center_dot_[t_series];
      const SeriesStats& st = model_->series_stats_[t_series];
      const double rhs[3] = {pivot.series_first ? s.co_moment : center_dot,
                             pivot.series_first ? center_dot : s.co_moment, st.sum};
      double x[3];
      if (!ps.invertible) {
        // Rank-deficient fallback (pivot columns collinear), from the same
        // sums: the pivot series' moments are in the exact pivot measures,
        // the pair sum is the co-moment — O(1), and after an exact refit
        // bit-identical to the build path's FitRankDeficient.
        const PairMatrixMeasures& pm = ps.entry->measures;
        const double s11 = pivot.series_first ? pm.dot11 : pm.dot22;
        const double sh1 = pivot.series_first ? pm.h1 : pm.h2;
        fit::SolveRankDeficient(s11, sh1, s.co_moment, st.sum, m, x);
        // Back to design-column order (the dropped coordinate is the
        // centre column, which sits first when the series is second).
        if (!pivot.series_first) std::swap(x[0], x[1]);
      } else {
        fit::Solve3(ps.ginv, rhs, x);
      }
      s.rec->transform = fit::MakeTransform(pivot.series_first, x);
      // Residual monitor through the normal-equation identity
      // ‖t − Xx̂‖² = tᵀt − x̂ᵀ(Xᵀt), normalized by ‖centered t‖ (the scale
      // core/quality uses). O(1) per relationship; x is in design-column
      // coordinates, so it holds for the restricted fit too (a zero sits
      // in the dropped coordinate).
      const double resid2 =
          std::max(0.0, st.sumsq - (x[0] * rhs[0] + x[1] * rhs[1] + x[2] * rhs[2]));
      s.rel_residual = std::sqrt(resid2) /
                       (std::sqrt(static_cast<double>(m) * st.variance) + kTiny);
      if (refit) s.residual_at_refit = s.rel_residual;
      // affinity-lint: allow(fp-accumulate): per-chunk partial — chunk bounds are
      // thread-count-invariant and partials combine in fixed chunk order below
      local_sum += s.rel_residual;
    }
    refits[chunk] = local_refits;
    residual_sums[chunk] = local_sum;
  });

  std::size_t total_refits = 0;
  double sum = 0.0;
  for (std::size_t c = 0; c < refits.size(); ++c) {
    total_refits += refits[c];
    // affinity-lint: allow(fp-accumulate): combines chunk partials in ascending chunk
    // order — deterministic because the decomposition is thread-count-invariant
    sum += residual_sums[c];
  }
  if (span_stats != nullptr) {
    for (const kernels::BlockSpanStats& cs : chunk_spans) span_stats->Add(cs);
  }
  *refit_count = total_refits;
  mean_residual_ = slots_.empty() ? 0.0 : sum / static_cast<double>(slots_.size());
  return Status::OK();
}

StatusOr<bool> IncrementalMaintainer::Advance(const std::vector<std::vector<double>>& rows,
                                              std::size_t count, const ExecContext& exec,
                                              MaintenanceProfile* profile) {
  Stopwatch watch;
  if (inject_failures_ > 0) {
    --inject_failures_;
    return Status::Internal("injected maintenance failure (testing)");
  }
  const std::size_t w = window_;
  if (count > rows.size()) {
    return Status::InvalidArgument("Advance count " + std::to_string(count) + " exceeds " +
                                   std::to_string(rows.size()) + " supplied rows");
  }
  const std::size_t d = count;
  if (d == 0) return false;
  for (std::size_t i = 0; i < d; ++i) {
    if (rows[i].size() != n_) {
      return Status::InvalidArgument("row has " + std::to_string(rows[i].size()) +
                                     " values, stream has " + std::to_string(n_) + " series");
    }
  }
  const std::size_t tail = std::min(d, w);  // rows entering the window
  const std::size_t keep = w - tail;        // old rows surviving the slide
  const std::size_t skip = d - tail;        // rows that fly through entirely
  // A slide covering the whole window replaces every sample: an exact
  // refit costs the same as the delta would and keeps the model
  // bit-identical to a from-scratch fit.
  const std::size_t refresh_index = tail == w ? kRefitAll : refreshes_;
  const std::size_t k = model_->clustering_.k();

  // ---- Extended centre values for the entering rows (computed before
  // anything slides; the evictions below still need the old matrices).
  la::Matrix center_tails(tail, k);
  ParallelChunks(exec, k, [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) {
    for (std::size_t l = lo; l < hi; ++l) {
      double* dst = center_tails.ColData(l);
      for (std::size_t r = 0; r < tail; ++r) {
        double acc = 0.0;
        for (const auto& [v, weight] : center_weights_[l]) {
          // affinity-lint: allow(fp-accumulate): weighted centre tail — member order is
          // fixed at freeze time; the whole cell is computed on one thread
          acc += (rows[skip + r][v] - frozen_means_[v]) * weight;
        }
        dst[r] = acc;
      }
    }
  });

  // ---- Roll the per-pair co-moments: evict the leaving rows (read from
  // the old matrix), add the entering ones. Slots scheduled for an exact
  // refit skip the delta — their co-moments re-materialize in the solve
  // pass.
  ParallelChunks(exec, slots_.size(), [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      PairSlot& s = slots_[i];
      if (WillRefit(i, refresh_index, s)) continue;
      const double* su = model_->data_.ColumnData(s.e.u);  // still the old matrix here
      const double* sv = model_->data_.ColumnData(s.e.v);
      for (std::size_t r = 0; r < tail; ++r) s.co_moment -= su[r] * sv[r];
      for (std::size_t r = 0; r < tail; ++r) {
        const std::vector<double>& row = rows[skip + r];
        s.co_moment += row[s.e.u] * row[s.e.v];
      }
    }
  });

  // ---- Maintain the sorted column views (before the slide: evictions
  // read the old columns). A full-window slide just re-sorts. The
  // retained mode histograms ride the same pass: bin counts are integers,
  // so evict/enter updates are exact while the binning — the window
  // extremes — holds; any extremes movement invalidates and
  // RecomputeDerived re-fills from the sorted view (DESIGN.md §10).
  if (options_.retain_block_partials) derived_cache_.modes.resize(n_ + k);
  ParallelChunks(exec, n_ + k, [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) {
    for (std::size_t c = lo; c < hi; ++c) {
      double* sorted = sorted_cols_.ColData(c);
      DerivedBlockCache::ColumnModeHist* mh =
          options_.retain_block_partials ? &derived_cache_.modes[c] : nullptr;
      const bool is_series = c < n_;
      const double* old_col = is_series
                                  ? model_->data_.ColumnData(static_cast<ts::SeriesId>(c))
                                  : model_->clustering_.centers.ColData(c - n_);
      const double* added_tail = is_series ? nullptr : center_tails.ColData(c - n_);
      if (tail == w) {
        for (std::size_t r = 0; r < w; ++r) {
          sorted[r] = is_series ? rows[skip + r][c] : added_tail[r];
        }
        std::sort(sorted, sorted + w);
        if (mh != nullptr) mh->valid = false;
        continue;
      }
      for (std::size_t r = 0; r < tail; ++r) {
        const double added = is_series ? rows[skip + r][c] : added_tail[r];
        const double evicted = old_col[r];
        SortedReplace(sorted, w, evicted, added);
        if (mh != nullptr && mh->valid) {
          if (added < mh->lo || added > mh->hi) {
            // A new extreme rebins everything; stop updating now so the
            // bin map is never indexed out of range.
            mh->valid = false;
          } else {
            const int bins = static_cast<int>(mh->counts.size());
            --mh->counts[static_cast<std::size_t>(
                ts::stats::ModeBinOf(evicted, mh->lo, mh->hi, bins))];
            ++mh->counts[static_cast<std::size_t>(
                ts::stats::ModeBinOf(added, mh->lo, mh->hi, bins))];
          }
        }
      }
      // The binning is only reusable if the extremes survived the slide
      // (an evicted min/max shows up here as a shrunken range).
      if (mh != nullptr && mh->valid && (sorted[0] != mh->lo || sorted[w - 1] != mh->hi)) {
        mh->valid = false;
      }
    }
  });

  // ---- Slide the window matrices in place (no reallocation: the model's
  // data matrix is 2·window·n bytes of hot state) and recompute all exact
  // derived state.
  la::Matrix& values = model_->data_.mutable_matrix();
  ParallelChunks(exec, n_, [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) {
      double* col = values.ColData(j);
      for (std::size_t i = 0; i < keep; ++i) col[i] = col[tail + i];
      for (std::size_t r = 0; r < tail; ++r) col[keep + r] = rows[skip + r][j];
    }
  });
  la::Matrix& centers = model_->clustering_.centers;
  ParallelChunks(exec, k, [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) {
    for (std::size_t l = lo; l < hi; ++l) {
      double* col = centers.ColData(l);
      const double* src_tail = center_tails.ColData(l);
      for (std::size_t i = 0; i < keep; ++i) col[i] = col[tail + i];
      for (std::size_t r = 0; r < tail; ++r) col[keep + r] = src_tail[r];
    }
  });
  // The window advanced by every consumed row (flown-through rows moved
  // the stream position too), so the block grid moves with it — retained
  // interior partials keep their absolute cut points (DESIGN.md §10).
  model_->data_.advance_anchor(d);
  DerivedBlockCache* cache = options_.retain_block_partials ? &derived_cache_ : nullptr;
  Stopwatch recompute_watch;
  model_->RecomputeDerived(exec, &sorted_cols_, cache);
  const double recompute_seconds = recompute_watch.ElapsedSeconds();

  // ---- Re-solve relationships. -------------------------------------------
  kernels::BlockSpanStats refit_spans;
  std::size_t refits = 0;
  AFFINITY_RETURN_IF_ERROR(SolveRelationships(refresh_index, exec, &refits,
                                              cache != nullptr ? &refit_spans : nullptr));

  // ---- Drift monitor: escalate when the population residual level left
  // the band the baseline established at the last full build.
  const bool escalate = mean_residual_ > options_.escalation_factor * baseline_residual_ +
                                             options_.escalation_slack;

  ++refreshes_;
  ++profile->refreshes;
  profile->rows_absorbed += d;
  profile->relationships_refit += refits;
  profile->relationships_updated += slots_.size() - refits;
  kernels::BlockSpanStats spans = refit_spans;
  if (cache != nullptr) spans.Add(cache->last);
  profile->recompute_blocks_touched += spans.touched;
  profile->recompute_blocks_reused += spans.reused;
  profile->recompute_prefix_resumes += spans.prefix_resumes;
  profile->recompute_seconds += recompute_seconds;
  profile->mean_relative_residual = mean_residual_;
  profile->last_refresh_seconds = watch.ElapsedSeconds();
  return escalate;
}

MaintenanceProfile AggregateShardProfiles(const std::vector<MaintenanceProfile>& shards) {
  MaintenanceProfile out;
  std::size_t with_residual = 0;
  double residual_sum = 0.0;
  double baseline_sum = 0.0;
  for (const MaintenanceProfile& p : shards) {
    out.refreshes += p.refreshes;
    out.rows_absorbed += p.rows_absorbed;
    out.relationships_updated += p.relationships_updated;
    out.relationships_refit += p.relationships_refit;
    out.escalations += p.escalations;
    out.recompute_blocks_touched += p.recompute_blocks_touched;
    out.recompute_blocks_reused += p.recompute_blocks_reused;
    out.recompute_prefix_resumes += p.recompute_prefix_resumes;
    out.recompute_seconds += p.recompute_seconds;
    // Shards refresh concurrently: the slowest one is the latency the
    // router's append actually paid.
    out.last_refresh_seconds = std::max(out.last_refresh_seconds, p.last_refresh_seconds);
    out.serve_fallbacks += p.serve_fallbacks;
    out.epochs_published += p.epochs_published;
    out.epochs_delta += p.epochs_delta;
    out.window_segments_reused += p.window_segments_reused;
    out.snapshot_bytes_copied += p.snapshot_bytes_copied;
    out.publish_seconds += p.publish_seconds;
    // Shards publish concurrently too: max, like the refresh latencies.
    out.last_publish_seconds = std::max(out.last_publish_seconds, p.last_publish_seconds);
    if (p.baseline_mean_residual > 0.0 || p.mean_relative_residual > 0.0) {
      ++with_residual;
      // affinity-lint: allow(fp-accumulate): profile merge in fixed shard order
      residual_sum += p.mean_relative_residual;
      // affinity-lint: allow(fp-accumulate): profile merge in fixed shard order
      baseline_sum += p.baseline_mean_residual;
    }
  }
  if (with_residual > 0) {
    out.mean_relative_residual = residual_sum / static_cast<double>(with_residual);
    out.baseline_mean_residual = baseline_sum / static_cast<double>(with_residual);
  }
  return out;
}

}  // namespace affinity::core
