#include "core/interfaces.h"

#include "common/thread_pool.h"

namespace ddup::core {

void LossModel::BootstrapLosses(
    const storage::Table& data,
    const std::vector<std::vector<int64_t>>& samples, ThreadPool& pool,
    double* out) const {
  const auto n = static_cast<int64_t>(samples.size());
  pool.ParallelFor(0, n, /*chunk=*/1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      out[i] = AverageLoss(data.TakeRows(samples[static_cast<size_t>(i)]));
    }
  });
}

Status LossModel::SaveState(io::Serializer* out) const {
  (void)out;
  return Status::FailedPrecondition("model '" + name() +
                                    "' does not support checkpointing");
}

Status LossModel::LoadState(io::Deserializer* in) {
  (void)in;
  return Status::FailedPrecondition("model '" + name() +
                                    "' does not support checkpointing");
}

namespace {

// Shared fail-fast batch loop: stamps the failing query's index onto the
// scalar path's error so batch callers can locate it.
template <typename ScalarFn>
Status LoopScalar(size_t n, std::vector<double>* out, const ScalarFn& fn) {
  out->clear();
  out->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    StatusOr<double> one = fn(i);
    if (!one.ok()) {
      return Status(one.status().code(), "query " + std::to_string(i) + ": " +
                                             one.status().message());
    }
    out->push_back(one.value());
  }
  return Status::OK();
}

}  // namespace

Status CardinalityEstimator::TryEstimateCardinalityBatch(
    const std::vector<workload::Query>& queries,
    std::vector<double>* out) const {
  return LoopScalar(queries.size(), out, [&](size_t i) {
    return TryEstimateCardinality(queries[i]);
  });
}

Status AqpEstimator::TryEstimateAqpBatch(
    const std::vector<workload::Query>& queries, const storage::Table& schema,
    std::vector<double>* out) const {
  return LoopScalar(queries.size(), out, [&](size_t i) {
    return TryEstimateAqp(queries[i], schema);
  });
}

}  // namespace ddup::core
