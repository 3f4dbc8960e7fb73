#include "models/updatable_adapters.h"

#include <algorithm>
#include <cmath>

#include "io/serializer.h"
#include "models/bootstrap_scoring.h"

namespace ddup::models {

namespace {
constexpr uint32_t kSpnAdapterVersion = 1;
constexpr uint32_t kGbdtAdapterVersion = 1;
}  // namespace

// ---------------------------------------------------------------------------
// SpnModel
// ---------------------------------------------------------------------------

SpnModel::SpnModel(const storage::Table& base_data, SpnConfig config)
    : spn_(std::make_unique<Spn>(base_data, config)) {}

double SpnModel::RowNll(const storage::Table& data, int64_t row) const {
  // The row becomes an all-columns equality query, so EstimateProbability
  // returns the mass of the row's discretized cell.
  workload::Query q;
  q.predicates.reserve(static_cast<size_t>(data.num_columns()));
  for (int c = 0; c < data.num_columns(); ++c) {
    workload::Predicate p;
    p.column = c;
    p.op = workload::CompareOp::kEq;
    p.value = data.column(c).AsDouble(row);
    q.predicates.push_back(p);
  }
  double prob = spn_->EstimateProbability(q);
  return -std::log(std::max(prob, 1e-300));
}

double SpnModel::AverageLoss(const storage::Table& sample) const {
  DDUP_CHECK(sample.num_rows() > 0);
  // Mean per-row NLL over the SPN's joint.
  double total = 0.0;
  for (int64_t r = 0; r < sample.num_rows(); ++r) total += RowNll(sample, r);
  return total / static_cast<double>(sample.num_rows());
}

void SpnModel::BootstrapLosses(
    const storage::Table& data,
    const std::vector<std::vector<int64_t>>& samples, ThreadPool& pool,
    double* out) const {
  BootstrapPlan plan(samples, data.num_rows(), /*split_tail=*/false);
  const int64_t entries = plan.num_entries();
  std::vector<double> nll(static_cast<size_t>(entries));
  pool.ParallelFor(0, entries, /*chunk=*/256, [&](int64_t lo, int64_t hi) {
    for (int64_t e = lo; e < hi; ++e) {
      nll[static_cast<size_t>(e)] =
          RowNll(data, plan.rows()[static_cast<size_t>(e)]);
    }
  });
  ForEachSample(plan, pool, [&](size_t i, const int64_t* entries, int64_t m) {
    DDUP_CHECK(m > 0);
    double total = 0.0;
    for (int64_t p = 0; p < m; ++p) {
      total += nll[static_cast<size_t>(entries[p])];
    }
    out[i] = total / static_cast<double>(m);
  });
}

void SpnModel::FineTune(const storage::Table& new_data, double learning_rate,
                        int epochs) {
  (void)learning_rate;
  (void)epochs;
  spn_->Update(new_data);
}

void SpnModel::DistillUpdate(const storage::Table& transfer_set,
                             const storage::Table& new_data,
                             const core::DistillConfig& config) {
  (void)transfer_set;
  (void)config;
  spn_->Update(new_data);
}

void SpnModel::RetrainFromScratch(const storage::Table& data) {
  spn_->Rebuild(data);
}

StatusOr<double> SpnModel::TryEstimateCardinality(
    const workload::Query& query, core::EstimateContext* ctx) const {
  (void)ctx;  // deterministic tree walk: no per-call mutable state
  for (const auto& p : query.predicates) {
    if (p.column < 0 || p.column >= spn_->encoder().num_columns()) {
      return Status::InvalidArgument("predicate on out-of-range column " +
                                     std::to_string(p.column));
    }
  }
  return spn_->EstimateCardinality(query);
}

Status SpnModel::SaveState(io::Serializer* out) const {
  out->WriteU32(kSpnAdapterVersion);
  return spn_->SaveState(out);
}

Status SpnModel::LoadState(io::Deserializer* in) {
  uint32_t version = in->ReadU32();
  if (in->ok() && version != kSpnAdapterVersion) {
    return Status::InvalidArgument("unsupported spn adapter version " +
                                   std::to_string(version));
  }
  StatusOr<std::unique_ptr<Spn>> spn = Spn::Restore(in);
  if (!spn.ok()) return spn.status();
  spn_ = std::move(spn).value();
  return Status::OK();
}

StatusOr<std::unique_ptr<SpnModel>> SpnModel::Restore(io::Deserializer* in) {
  std::unique_ptr<SpnModel> model(new SpnModel());
  DDUP_RETURN_IF_ERROR(model->LoadState(in));
  return model;
}

// ---------------------------------------------------------------------------
// GbdtModel
// ---------------------------------------------------------------------------

GbdtModel::GbdtModel(const storage::Table& base_data,
                     const std::string& target_column, GbdtConfig config)
    : config_(config),
      target_column_(target_column),
      gbdt_(std::make_unique<Gbdt>(config)) {
  gbdt_->Train(base_data, target_column_);
}

double GbdtModel::AverageLoss(const storage::Table& sample) const {
  DDUP_CHECK(sample.num_rows() > 0);
  return 1.0 - gbdt_->MicroF1(sample);
}

void GbdtModel::BootstrapLosses(
    const storage::Table& data,
    const std::vector<std::vector<int64_t>>& samples, ThreadPool& pool,
    double* out) const {
  const int target = data.ColumnIndex(target_column_);
  DDUP_CHECK_MSG(target >= 0, "reference table missing target column");
  BootstrapPlan plan(samples, data.num_rows(), /*split_tail=*/false);
  // hit[e]: the prediction for entry e's row matches its label.
  const int64_t entries = plan.num_entries();
  std::vector<char> hit(static_cast<size_t>(entries));
  constexpr int64_t kBlockRows = 512;
  pool.ParallelFor(0, entries, kBlockRows, [&](int64_t lo, int64_t hi) {
    std::vector<int64_t> rows(plan.rows().begin() + lo,
                              plan.rows().begin() + hi);
    std::vector<int> preds = gbdt_->Predict(data.TakeRows(rows));
    const storage::Column& labels = data.column(target);
    for (int64_t e = lo; e < hi; ++e) {
      hit[static_cast<size_t>(e)] =
          preds[static_cast<size_t>(e - lo)] ==
          labels.CodeAt(rows[static_cast<size_t>(e - lo)]);
    }
  });
  // 1 - MicroF1: the same hit count, division and subtraction.
  ForEachSample(plan, pool, [&](size_t i, const int64_t* entries, int64_t m) {
    DDUP_CHECK(m > 0);
    int64_t correct = 0;
    for (int64_t p = 0; p < m; ++p) {
      correct += hit[static_cast<size_t>(entries[p])];
    }
    out[i] = 1.0 - static_cast<double>(correct) / static_cast<double>(m);
  });
}

void GbdtModel::FineTune(const storage::Table& new_data, double learning_rate,
                         int epochs) {
  (void)learning_rate;
  (void)epochs;
  gbdt_ = std::make_unique<Gbdt>(config_);
  gbdt_->Train(new_data, target_column_);
}

void GbdtModel::DistillUpdate(const storage::Table& transfer_set,
                              const storage::Table& new_data,
                              const core::DistillConfig& config) {
  (void)config;
  storage::Table both = transfer_set;
  both.Append(new_data);
  gbdt_ = std::make_unique<Gbdt>(config_);
  gbdt_->Train(both, target_column_);
}

void GbdtModel::RetrainFromScratch(const storage::Table& data) {
  gbdt_ = std::make_unique<Gbdt>(config_);
  gbdt_->Train(data, target_column_);
}

Status GbdtModel::SaveState(io::Serializer* out) const {
  out->WriteU32(kGbdtAdapterVersion);
  out->WriteString(target_column_);
  return gbdt_->SaveState(out);
}

Status GbdtModel::LoadState(io::Deserializer* in) {
  uint32_t version = in->ReadU32();
  if (in->ok() && version != kGbdtAdapterVersion) {
    return Status::InvalidArgument("unsupported gbdt adapter version " +
                                   std::to_string(version));
  }
  target_column_ = in->ReadString();
  StatusOr<std::unique_ptr<Gbdt>> gbdt = Gbdt::Restore(in);
  if (!gbdt.ok()) return gbdt.status();
  gbdt_ = std::move(gbdt).value();
  // Retrains after a restore grow trees with the restored hyperparameters.
  config_ = gbdt_->config();
  return Status::OK();
}

StatusOr<std::unique_ptr<GbdtModel>> GbdtModel::Restore(io::Deserializer* in) {
  std::unique_ptr<GbdtModel> model(new GbdtModel());
  DDUP_RETURN_IF_ERROR(model->LoadState(in));
  return model;
}

}  // namespace ddup::models
