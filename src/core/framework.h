#ifndef AFFINITY_CORE_FRAMEWORK_H_
#define AFFINITY_CORE_FRAMEWORK_H_

/// \file framework.h
/// The AFFINITY facade — one call builds the full Fig. 2 stack (AFCLST →
/// SYMEX+ → pivot measures → SCAPE index → WF sketches) over a data matrix
/// and exposes a ready QueryEngine.
///
/// \code
///   auto dataset = affinity::ts::MakeStockData();
///   affinity::core::AffinityOptions options;
///   options.threads = 0;  // one worker per hardware thread
///   auto fw = affinity::core::Affinity::Build(dataset.matrix, options);
///   affinity::core::MetRequest req{affinity::core::Measure::kCorrelation, 0.9};
///   auto hot_pairs = fw->engine().Met(req);  // kAuto: planner picks SCAPE
/// \endcode
///
/// Build phases and full-sweep queries execute over a shared thread pool
/// (owned by the framework, or supplied externally via `BuildWith`);
/// results are identical at any thread count (DESIGN.md §7).
///
/// The SCAPE index and the amortized WF estimator are batch structures: a
/// stream (streaming.h) builds its framework without them.

#include <memory>

#include "common/exec_context.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/query.h"
#include "core/scape.h"
#include "core/symex.h"
#include "dft/dft_correlation.h"
#include "ts/data_matrix.h"

namespace affinity::core {

class StreamingAffinity;

/// End-to-end build configuration.
struct AffinityOptions {
  AfclstOptions afclst;     ///< clustering (k, γ_max, δ_min)
  SymexOptions symex;       ///< SYMEX+ by default
  bool build_scape = true;  ///< build the SCAPE index
  bool build_dft = true;    ///< build the WF comparator sketches
  std::size_t dft_coefficients = dft::kDefaultCoefficients;
  /// Worker threads for build phases and full-sweep queries: 1 =
  /// sequential (no pool), 0 = one per hardware thread, otherwise the
  /// exact count. Ignored by `BuildWith` (the supplied context rules).
  std::size_t threads = 1;
};

/// Wall-clock accounting of one Build call.
struct BuildProfile {
  double afclst_seconds = 0;
  double symex_seconds = 0;       ///< marching + fitting
  double preprocess_seconds = 0;  ///< pivot measures + per-series stats
  double scape_seconds = 0;
  double dft_seconds = 0;
  double total_seconds = 0;
  std::size_t threads = 1;        ///< parallelism the build ran with
};

/// The assembled framework. Owns the model, index, sketches, engine, and
/// (when `options.threads != 1`) the thread pool; movable, not copyable.
class Affinity {
 public:
  /// Builds everything over a copy of `data`. When `options.threads` asks
  /// for parallelism the framework creates and owns the pool; it serves
  /// both the build and all subsequent engine queries.
  static StatusOr<Affinity> Build(const ts::DataMatrix& data, const AffinityOptions& options = {});

  /// As Build, but executes over a caller-supplied context (e.g. a pool
  /// shared across streaming rebuilds). The pool behind `exec` must
  /// outlive the returned framework; `options.threads` is ignored.
  static StatusOr<Affinity> BuildWith(const ts::DataMatrix& data, const AffinityOptions& options,
                                      const ExecContext& exec);

  /// Reassembles a queryable framework around an already-built model —
  /// one restored by `LoadModel` or carried in a shard manifest
  /// (serialize.h) — rebuilding the SCAPE index and WF sketches per
  /// `options` without re-running AFCLST / SYMEX+ (rebuilding the index
  /// from a model is linear and fast, Fig. 14). Pool ownership follows
  /// `Build`: `options.threads` sizes a framework-owned pool.
  static StatusOr<Affinity> FromModel(AffinityModel model, const AffinityOptions& options = {});

  /// As FromModel over a caller-supplied execution context (the pool must
  /// outlive the framework; `options.threads` is ignored).
  static StatusOr<Affinity> FromModelWith(AffinityModel model, const AffinityOptions& options,
                                          const ExecContext& exec);

  Affinity(Affinity&&) noexcept = default;
  Affinity& operator=(Affinity&&) noexcept = default;

  /// The query engine with all built strategies attached.
  const QueryEngine& engine() const { return *engine_; }

  /// The SYMEX output (relationships, pivots, per-series stats).
  const AffinityModel& model() const { return *model_; }

  /// The SCAPE index, or nullptr when build_scape was false. Always
  /// nullptr on a stream's framework: streams build no index.
  const ScapeIndex* scape() const { return scape_.get(); }

  /// The amortized WF estimator, or nullptr when build_dft was false.
  /// Always nullptr on a stream's framework: a served WF answer sketches
  /// its epoch's window per query, so streams only enable WF on the
  /// engine.
  const dft::DftCorrelationEstimator* wf() const { return wf_.get(); }

  /// Build-phase timings.
  const BuildProfile& profile() const { return profile_; }

  /// The execution context the framework builds and queries with.
  const ExecContext& exec() const { return exec_; }

  /// The data the framework answers queries over.
  const ts::DataMatrix& data() const { return model_->data(); }

 private:
  Affinity() = default;

  // The incremental maintenance path (core/incremental) mutates the model
  // in place through the streaming facade.
  friend class StreamingAffinity;
  AffinityModel* mutable_model() { return model_.get(); }
  QueryEngine* mutable_engine() { return engine_.get(); }

  std::unique_ptr<ThreadPool> pool_;  ///< set when Build created its own
  ExecContext exec_;
  std::unique_ptr<AffinityModel> model_;
  std::unique_ptr<ScapeIndex> scape_;
  std::unique_ptr<dft::DftCorrelationEstimator> wf_;
  std::unique_ptr<QueryEngine> engine_;
  BuildProfile profile_;
};

// ---------------------------------------------------------------------------
// Approximation-error metric (Section 4.1, Eq. 16).
// ---------------------------------------------------------------------------

/// %RMSE between `truth` and `approx` after normalizing both by
/// (max(truth) − min(truth)). Returns 0 for empty input; when the truth is
/// constant the normalizer degenerates and the unnormalized RMSE ×100 is
/// returned. Sizes must match (checked).
double PercentRmse(const std::vector<double>& truth, const std::vector<double>& approx);

}  // namespace affinity::core

#endif  // AFFINITY_CORE_FRAMEWORK_H_
