#include "core/framework.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/stopwatch.h"

namespace affinity::core {

StatusOr<Affinity> Affinity::Build(const ts::DataMatrix& data, const AffinityOptions& options) {
  std::unique_ptr<ThreadPool> pool;
  if (options.threads != 1) {
    pool = std::make_unique<ThreadPool>(options.threads);
  }
  ExecContext exec{pool.get()};
  AFFINITY_ASSIGN_OR_RETURN(Affinity fw, BuildWith(data, options, exec));
  fw.pool_ = std::move(pool);  // transfer ownership; exec_ already points at it
  return fw;
}

StatusOr<Affinity> Affinity::BuildWith(const ts::DataMatrix& data, const AffinityOptions& options,
                                       const ExecContext& exec) {
  Stopwatch total;
  // A single NaN/Inf sample silently poisons every moment, fit and index
  // key downstream — reject it here, at the only gate all build paths
  // share, with a coordinate the caller can act on. (Dirty sources repair
  // through ts::StreamAligner before any build sees them.) The O(n·m)
  // scan is noise next to the O(n²·m) build it protects.
  for (std::size_t j = 0; j < data.n(); ++j) {
    const double* col = data.ColumnData(static_cast<ts::SeriesId>(j));
    for (std::size_t i = 0; i < data.m(); ++i) {
      if (!std::isfinite(col[i])) {
        return Status::InvalidArgument("data(" + std::to_string(i) + ", " + std::to_string(j) +
                                       ") is not finite; repair dirty input through "
                                       "ts::StreamAligner before building");
      }
    }
  }
  AFFINITY_ASSIGN_OR_RETURN(AffinityModel model,
                            BuildAffinityModel(data, options.afclst, options.symex, exec));
  AFFINITY_ASSIGN_OR_RETURN(Affinity fw, FromModelWith(std::move(model), options, exec));
  fw.profile_.total_seconds = total.ElapsedSeconds();  // include the model build
  return fw;
}

StatusOr<Affinity> Affinity::FromModel(AffinityModel model, const AffinityOptions& options) {
  std::unique_ptr<ThreadPool> pool;
  if (options.threads != 1) {
    pool = std::make_unique<ThreadPool>(options.threads);
  }
  ExecContext exec{pool.get()};
  AFFINITY_ASSIGN_OR_RETURN(Affinity fw, FromModelWith(std::move(model), options, exec));
  fw.pool_ = std::move(pool);  // transfer ownership; exec_ already points at it
  return fw;
}

StatusOr<Affinity> Affinity::FromModelWith(AffinityModel model, const AffinityOptions& options,
                                           const ExecContext& exec) {
  Stopwatch total;
  Affinity fw;
  fw.exec_ = exec;
  fw.profile_.threads = exec.threads();

  fw.model_ = std::make_unique<AffinityModel>(std::move(model));
  fw.profile_.afclst_seconds = fw.model_->stats().afclst_seconds;
  fw.profile_.symex_seconds = fw.model_->stats().march_seconds;
  fw.profile_.preprocess_seconds = fw.model_->stats().preprocess_seconds;

  if (options.build_scape) {
    Stopwatch watch;
    AFFINITY_ASSIGN_OR_RETURN(ScapeIndex index, ScapeIndex::Build(*fw.model_, exec));
    fw.scape_ = std::make_unique<ScapeIndex>(std::move(index));
    fw.profile_.scape_seconds = watch.ElapsedSeconds();
  }

  if (options.build_dft) {
    Stopwatch watch;
    AFFINITY_ASSIGN_OR_RETURN(
        dft::DftCorrelationEstimator wf,
        dft::DftCorrelationEstimator::Build(fw.model_->data(), options.dft_coefficients, exec));
    fw.wf_ = std::make_unique<dft::DftCorrelationEstimator>(std::move(wf));
    fw.profile_.dft_seconds = watch.ElapsedSeconds();
  }

  fw.engine_ = std::make_unique<QueryEngine>(&fw.model_->data());
  fw.engine_->AttachModel(fw.model_.get());
  if (fw.scape_) fw.engine_->AttachScape(fw.scape_.get());
  if (fw.wf_) fw.engine_->EnableDft(options.dft_coefficients);
  fw.engine_->SetExec(exec);

  fw.profile_.total_seconds = total.ElapsedSeconds();
  return fw;
}

double PercentRmse(const std::vector<double>& truth, const std::vector<double>& approx) {
  AFFINITY_CHECK_EQ(truth.size(), approx.size());
  if (truth.empty()) return 0.0;
  const auto [min_it, max_it] = std::minmax_element(truth.begin(), truth.end());
  double normalizer = *max_it - *min_it;
  if (normalizer == 0.0) normalizer = 1.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const double d = (truth[i] - approx[i]) / normalizer;
    // affinity-lint: allow(fp-accumulate): evaluation-harness RMSE — sequential diagnostic
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(truth.size())) * 100.0;
}

}  // namespace affinity::core
