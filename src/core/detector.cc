#include "core/detector.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "io/checkpoint.h"
#include "io/serializer.h"
#include "storage/sampling.h"

namespace ddup::core {

namespace {
constexpr uint32_t kDetectorStateVersion = 1;

int64_t SampleSize(int64_t available, double fraction, int64_t floor_rows) {
  auto n = static_cast<int64_t>(
      std::llround(fraction * static_cast<double>(available)));
  n = std::max(n, std::min(floor_rows, available));
  return std::min(n, available);
}
}  // namespace

LossReferenceDetector::LossReferenceDetector(DetectorConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  DDUP_CHECK(config_.bootstrap_iterations >= 2);
  DDUP_CHECK(config_.old_sample_fraction > 0.0 &&
             config_.old_sample_fraction <= 1.0);
  DDUP_CHECK(config_.threshold_sigmas > 0.0);
}

ThreadPool& LossReferenceDetector::FitPool() {
  if (config_.num_threads <= 0) return ThreadPool::Global();
  if (pool_ == nullptr || pool_->size() != config_.num_threads) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
  }
  return *pool_;
}

void LossReferenceDetector::Fit(const LossModel& model,
                                const storage::Table& old_data) {
  DDUP_CHECK(old_data.num_rows() > 0);
  int64_t sample_rows = SampleSize(old_data.num_rows(),
                                   config_.old_sample_fraction,
                                   config_.min_sample_rows);
  const int iters = config_.bootstrap_iterations;
  // Every iteration draws from its own child generator, forked sequentially
  // up front. Sample i then depends only on iter_rngs[i] (the same draws
  // storage::BootstrapRows makes), and the moment estimates below combine
  // the losses in index order — so the result is bit-identical no matter
  // how many threads draw or score.
  std::vector<Rng> iter_rngs;
  iter_rngs.reserve(static_cast<size_t>(iters));
  for (int i = 0; i < iters; ++i) iter_rngs.push_back(rng_.Fork());

  ThreadPool& pool = FitPool();
  std::vector<std::vector<int64_t>> samples(static_cast<size_t>(iters));
  pool.ParallelFor(0, iters, /*chunk=*/16, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      samples[static_cast<size_t>(i)] =
          iter_rngs[static_cast<size_t>(i)].SampleWithReplacement(
              old_data.num_rows(), sample_rows);
    }
  });
  std::vector<double> losses(static_cast<size_t>(iters), 0.0);
  model.BootstrapLosses(old_data, samples, pool, losses.data());

  bootstrap_mean_ = Mean(losses);
  // Unbiased (n-1) estimator: bootstrap_iterations can legitimately be as
  // small as 2, where the population estimator's bias is worst.
  bootstrap_std_ = SampleStdDev(losses);
  // A perfectly deterministic model (or degenerate data) can yield zero
  // spread; keep a tiny floor so thresholds stay meaningful.
  bootstrap_std_ = std::max(bootstrap_std_, 1e-12);
  fitted_ = true;
  ResetSequentialState();
}

double LossReferenceDetector::SampledBatchLoss(const LossModel& model,
                                               const storage::Table& new_batch) {
  DDUP_CHECK(new_batch.num_rows() > 0);
  int64_t sample_rows = SampleSize(new_batch.num_rows(),
                                   config_.new_sample_fraction,
                                   config_.min_sample_rows);
  storage::Table sample = storage::SampleRows(new_batch, rng_, sample_rows);
  return model.AverageLoss(sample);
}

void LossReferenceDetector::SaveCommon(io::Serializer* out) const {
  out->WriteI32(config_.bootstrap_iterations);
  out->WriteDouble(config_.old_sample_fraction);
  out->WriteI64(config_.min_sample_rows);
  out->WriteDouble(config_.new_sample_fraction);
  out->WriteDouble(config_.threshold_sigmas);
  out->WriteBool(config_.two_sided);
  out->WriteU64(config_.seed);
  out->WriteI32(config_.num_threads);
  out->WriteDouble(bootstrap_mean_);
  out->WriteDouble(bootstrap_std_);
  out->WriteBool(fitted_);
  out->WriteRng(rng_);
}

void LossReferenceDetector::LoadCommon(io::Deserializer* in) {
  config_.bootstrap_iterations = in->ReadI32();
  config_.old_sample_fraction = in->ReadDouble();
  config_.min_sample_rows = in->ReadI64();
  config_.new_sample_fraction = in->ReadDouble();
  config_.threshold_sigmas = in->ReadDouble();
  config_.two_sided = in->ReadBool();
  config_.seed = in->ReadU64();
  config_.num_threads = in->ReadI32();
  bootstrap_mean_ = in->ReadDouble();
  bootstrap_std_ = in->ReadDouble();
  fitted_ = in->ReadBool();
  in->ReadRng(&rng_);
}

OodDetector::OodDetector(DetectorConfig config)
    : LossReferenceDetector(std::move(config)) {}

DriftTestResult OodDetector::Test(const LossModel& model,
                                  const storage::Table& new_batch) {
  DDUP_CHECK_MSG(fitted_, "OodDetector::Test before Fit");
  DriftTestResult res;
  res.new_loss = SampledBatchLoss(model, new_batch);
  res.bootstrap_mean = bootstrap_mean_;
  res.bootstrap_std = bootstrap_std_;
  res.signed_statistic = res.new_loss - bootstrap_mean_;
  res.statistic = std::fabs(res.signed_statistic);
  res.threshold = config_.threshold_sigmas * bootstrap_std_;
  res.is_ood = config_.two_sided ? res.statistic > res.threshold
                                 : res.signed_statistic > res.threshold;
  return res;
}

Status OodDetector::SaveState(io::Serializer* out) const {
  // Version 1 layout, unchanged since the pre-interface detector: version,
  // bootstrap config fields, moments, fitted flag, online RNG.
  out->WriteU32(kDetectorStateVersion);
  SaveCommon(out);
  return Status::OK();
}

Status OodDetector::LoadState(io::Deserializer* in) {
  uint32_t version = in->ReadU32();
  if (in->ok() && version != kDetectorStateVersion) {
    return Status::InvalidArgument("unsupported detector state version " +
                                   std::to_string(version));
  }
  LoadCommon(in);
  return in->status();
}

Status OodDetector::SaveToFile(const std::string& path) const {
  io::Serializer state;
  DDUP_RETURN_IF_ERROR(SaveState(&state));
  return io::WriteSectionFile(path, kCheckpointKind, state.Take());
}

StatusOr<OodDetector> OodDetector::LoadFromFile(const std::string& path) {
  StatusOr<std::string> payload = io::ReadSectionFile(path, kCheckpointKind);
  if (!payload.ok()) return payload.status();
  io::Deserializer in(std::move(payload).value());
  OodDetector detector;
  Status st = detector.LoadState(&in);
  if (!st.ok()) return st;
  st = in.Finish();
  if (!st.ok()) return st;
  return detector;
}

}  // namespace ddup::core
