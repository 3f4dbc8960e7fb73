#include "models/mdn.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "common/stats.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "io/checkpoint.h"
#include "io/serializer.h"
#include "models/bootstrap_scoring.h"
#include "nn/ops.h"

namespace ddup::models {

namespace {

constexpr double kHalfLog2Pi = 0.9189385332046727;  // 0.5 * log(2*pi)
constexpr double kSigmaFloor = 1e-3;
constexpr uint32_t kMdnStateVersion = 1;
constexpr size_t kMdnParamCount = 10;  // W1,b1,W2,b2,Wo,bo,Wm,bm,Ws,bs

// Parameter layout: W1,b1,W2,b2, Wo,bo, Wm,bm, Ws,bs.
struct MdnOutputs {
  nn::Variable omega_logits;  // N x M
  nn::Variable mu;            // N x M
  nn::Variable sigma;         // N x M (softplus + floor)
};

MdnOutputs ForwardNet(const std::vector<nn::Variable>& p,
                      const std::vector<int>& codes) {
  using namespace nn;  // NOLINT: op-heavy function
  // Layer 1: the one-hot input would select exactly one row of W1 per
  // example, so x * W1 is an embedding gather — O(N*h) instead of
  // O(N*cardinality*h) — with the scatter-add backward of Rows. The
  // remaining layers use the fused affine kernels.
  Variable h = Relu(Add(Rows(p[0], codes), p[1]));
  h = AffineRelu(h, p[2], p[3]);
  MdnOutputs out;
  out.omega_logits = Affine(h, p[4], p[5]);
  out.mu = Affine(h, p[6], p[7]);
  out.sigma = AddScalar(Softplus(Affine(h, p[8], p[9])), kSigmaFloor);
  return out;
}

// log p(y|x) per the Gaussian mixture, one row per example (N x 1).
nn::Variable MixtureLogLik(const MdnOutputs& out, const nn::Matrix& y_norm) {
  using namespace nn;  // NOLINT
  int m = out.mu.cols();
  Variable y = BroadcastCol(Constant(y_norm), m);
  Variable inv_sigma = Reciprocal(out.sigma);
  Variable z = Mul(Sub(y, out.mu), inv_sigma);
  // log N(y; mu_i, sigma_i) = -0.5*log(2pi) - log sigma_i - 0.5 z^2
  Variable log_normal = Sub(Scale(Square(z), -0.5),
                            AddScalar(Log(out.sigma), kHalfLog2Pi));
  Variable log_w = LogSoftmax(out.omega_logits);
  return LogSumExp(Add(log_w, log_normal));
}

// -log p(y|x) per the Gaussian mixture, averaged over the batch.
nn::Variable MixtureNllFromOutputs(const MdnOutputs& out,
                                   const nn::Matrix& y_norm) {
  return nn::Neg(nn::Mean(MixtureLogLik(out, y_norm)));
}

// The network reads only the category, so its three heads can be tabled
// per category and GEMM position: rows [0, k) from one panel call over every
// category (padded to a multiple of 4 rows), rows [k, 2k) from a single-row
// (row-tail) call per category. Returned as constants, omega/mu/sigma.
std::vector<nn::Variable> HeadTables(const std::vector<nn::Variable>& p,
                                     int k, int mix) {
  std::vector<nn::Matrix> tables(3, nn::Matrix(2 * k, mix));
  auto copy_heads = [&](const MdnOutputs& o, int rows, int first_row) {
    const nn::Matrix* heads[] = {&o.omega_logits.value(), &o.mu.value(),
                                 &o.sigma.value()};
    for (size_t t = 0; t < tables.size(); ++t) {
      std::copy(heads[t]->data(), heads[t]->data() + rows * mix,
                tables[t].data() + static_cast<size_t>(first_row) * mix);
    }
  };
  std::vector<int> panel_codes(static_cast<size_t>((k + 3) & ~3), 0);
  std::iota(panel_codes.begin(), panel_codes.begin() + k, 0);
  copy_heads(ForwardNet(p, panel_codes), k, 0);
  for (int c = 0; c < k; ++c) copy_heads(ForwardNet(p, {c}), 1, k + c);
  std::vector<nn::Variable> vars;
  for (nn::Matrix& t : tables) vars.push_back(nn::Constant(std::move(t)));
  return vars;
}

// The HeadTables rows `idx`: a category, plus k for its row-tail value.
MdnOutputs GatherHeads(const std::vector<nn::Variable>& tables,
                       const std::vector<int>& idx) {
  MdnOutputs out;
  out.omega_logits = nn::Rows(tables[0], idx);
  out.mu = nn::Rows(tables[1], idx);
  out.sigma = nn::Rows(tables[2], idx);
  return out;
}

}  // namespace

Mdn::Mdn(const storage::Table& base_data, const std::string& categorical_column,
         const std::string& numeric_column, MdnConfig config)
    : config_(config),
      cat_name_(categorical_column),
      num_name_(numeric_column),
      rng_(config.seed) {
  cat_index_ = base_data.ColumnIndex(categorical_column);
  num_index_ = base_data.ColumnIndex(numeric_column);
  DDUP_CHECK_MSG(cat_index_ >= 0, "missing categorical column " +
                                      categorical_column);
  DDUP_CHECK_MSG(num_index_ >= 0, "missing numeric column " + numeric_column);
  const storage::Column& cat = base_data.column(cat_index_);
  DDUP_CHECK_MSG(!cat.is_numeric(), "MDN equality attribute must be categorical");
  DDUP_CHECK_MSG(base_data.column(num_index_).is_numeric(),
                 "MDN range attribute must be numeric");
  cardinality_ = cat.cardinality();
  normalizer_ = MinMaxNormalizer::Fit(base_data.column(num_index_));
  RetrainFromScratch(base_data);
}

void Mdn::InitParams() {
  using nn::Matrix;
  auto xavier = [this](int in, int out) {
    double s = std::sqrt(2.0 / static_cast<double>(in + out));
    return nn::Parameter(Matrix::Randn(rng_, in, out, s));
  };
  auto zeros = [](int out) {
    return nn::Parameter(nn::Matrix::Zeros(1, out));
  };
  int h = config_.hidden_width;
  int m = config_.num_components;
  params_ = {xavier(cardinality_, h), zeros(h), xavier(h, h), zeros(h),
             xavier(h, m),            zeros(m), xavier(h, m), zeros(m),
             xavier(h, m),            zeros(m)};
}

Mdn::Batch Mdn::MakeBatch(const storage::Table& data,
                          const std::vector<int64_t>& rows) const {
  Batch b;
  b.codes.reserve(rows.size());
  b.y = nn::Matrix(static_cast<int>(rows.size()), 1);
  const storage::Column& cat = data.column(cat_index_);
  const storage::Column& num = data.column(num_index_);
  for (size_t i = 0; i < rows.size(); ++i) {
    b.codes.push_back(cat.CodeAt(rows[i]));
    b.y.At(static_cast<int>(i), 0) = normalizer_.Encode(num.NumericAt(rows[i]));
  }
  return b;
}

nn::Variable Mdn::NllLoss(const std::vector<nn::Variable>& params,
                          const Batch& batch) const {
  return MixtureNllFromOutputs(ForwardNet(params, batch.codes), batch.y);
}

void Mdn::TrainLoop(const storage::Table& data, double lr, int epochs) {
  DDUP_CHECK(data.num_rows() > 0);
  nn::Adam opt(params_, lr);
  for (int e = 0; e < epochs; ++e) {
    for (const auto& rows : MiniBatches(data.num_rows(), config_.batch_size,
                                        rng_)) {
      Batch batch = MakeBatch(data, rows);
      opt.ZeroGrad();
      nn::Variable loss = NllLoss(params_, batch);
      nn::Backward(loss);
      opt.Step();
    }
  }
}

void Mdn::RetrainFromScratch(const storage::Table& data) {
  InitParams();
  ResetMetadata();
  AbsorbMetadata(data);
  TrainLoop(data, config_.learning_rate, config_.epochs);
}

void Mdn::ResetMetadata() {
  frequency_.assign(static_cast<size_t>(cardinality_), 0);
}

void Mdn::FineTune(const storage::Table& new_data, double learning_rate,
                   int epochs) {
  TrainLoop(new_data, learning_rate, epochs);
}

void Mdn::DistillUpdate(const storage::Table& transfer_set,
                        const storage::Table& new_data,
                        const core::DistillConfig& config) {
  using namespace nn;  // NOLINT
  // Sequential self-distillation: the frozen copy of the current parameters
  // is the teacher; this model continues training as the student. The
  // teacher's heads depend only on a row's category and GEMM position, so
  // they are tabled once and gathered per step: the last n % 4 rows of an
  // n-row batch run in the kernels' row tail, the others in a 4-row panel.
  const std::vector<Variable> teacher = HeadTables(
      AsConstants(params_), cardinality_, config_.num_components);
  double alpha =
      core::ResolveAlpha(config, transfer_set.num_rows(), new_data.num_rows());

  Adam opt(params_, config.learning_rate);
  for (int e = 0; e < config.epochs; ++e) {
    auto tr_batches =
        MiniBatches(transfer_set.num_rows(), config.batch_size, rng_);
    auto up_batches = MiniBatches(new_data.num_rows(), config.batch_size, rng_);
    size_t steps = std::max(tr_batches.size(), up_batches.size());
    for (size_t s = 0; s < steps; ++s) {
      Batch tr = MakeBatch(transfer_set, tr_batches[s % tr_batches.size()]);
      Batch up = MakeBatch(new_data, up_batches[s % up_batches.size()]);

      MdnOutputs s_out = ForwardNet(params_, tr.codes);
      std::vector<int> t_idx(tr.codes);
      for (size_t i = t_idx.size() & ~size_t{3}; i < t_idx.size(); ++i) {
        t_idx[i] += cardinality_;
      }
      MdnOutputs t_out = GatherHeads(teacher, t_idx);
      // Eq. 9: annealed CE on mixture weights + MSE on means and sigmas.
      Variable distill = Add(
          DistillCrossEntropy(s_out.omega_logits, t_out.omega_logits,
                              config.temperature),
          Add(MseLoss(s_out.mu, Detach(t_out.mu)),
              MseLoss(s_out.sigma, Detach(t_out.sigma))));
      Variable task_tr = MixtureNllFromOutputs(s_out, tr.y);
      Variable tr_term = Add(Scale(distill, config.lambda),
                             Scale(task_tr, 1.0 - config.lambda));
      Variable up_term = NllLoss(params_, up);
      // Eq. 5.
      Variable loss =
          Add(Scale(tr_term, alpha), Scale(up_term, 1.0 - alpha));
      opt.ZeroGrad();
      Backward(loss);
      opt.Step();
    }
  }
}

void Mdn::AbsorbMetadata(const storage::Table& new_data) {
  const storage::Column& cat = new_data.column(cat_index_);
  for (int64_t r = 0; r < new_data.num_rows(); ++r) {
    ++frequency_[static_cast<size_t>(cat.CodeAt(r))];
  }
}

double Mdn::AverageLoss(const storage::Table& sample) const {
  DDUP_CHECK(sample.num_rows() > 0);
  // Forward over frozen parameters: no gradient graph is built. Rows are
  // scored in fixed-size chunks (possibly across the shared thread pool);
  // the chunked combine is bit-identical for any pool size.
  std::vector<nn::Variable> frozen = nn::AsConstants(params_);
  return GlobalChunkMean(
      sample.num_rows(), [&](int64_t lo, int64_t hi) {
        std::vector<int64_t> rows(static_cast<size_t>(hi - lo));
        std::iota(rows.begin(), rows.end(), lo);
        Batch b = MakeBatch(sample, rows);
        return NllLoss(frozen, b).value().At(0, 0);
      });
}

void Mdn::BootstrapLosses(const storage::Table& data,
                          const std::vector<std::vector<int64_t>>& samples,
                          ThreadPool& pool, double* out) const {
  using namespace nn;  // NOLINT: op-heavy function
  BootstrapPlan plan(samples, data.num_rows(), /*split_tail=*/true);
  const storage::Column& cat = data.column(cat_index_);
  const storage::Column& num = data.column(num_index_);
  std::vector<Variable> frozen = AsConstants(params_);

  // The network runs once per category and GEMM position (HeadTables).
  const int k = cardinality_;
  const std::vector<Variable> table_vars =
      HeadTables(frozen, k, config_.num_components);

  // The mixture likelihood is row-wise elementwise work: gather each
  // entry's outputs and score all entries in plain blocks.
  const int64_t entries = plan.num_entries();
  std::vector<double> loglik(static_cast<size_t>(entries));
  constexpr int64_t kBlockRows = 512;
  pool.ParallelFor(0, entries, kBlockRows, [&](int64_t lo, int64_t hi) {
    std::vector<int> idx;
    Matrix y(static_cast<int>(hi - lo), 1);
    for (int64_t e = lo; e < hi; ++e) {
      const int64_t row = plan.rows()[static_cast<size_t>(e)];
      idx.push_back((e < plan.num_panel() ? 0 : k) + cat.CodeAt(row));
      y.At(static_cast<int>(e - lo), 0) =
          normalizer_.Encode(num.NumericAt(row));
    }
    Variable ll = MixtureLogLik(GatherHeads(table_vars, idx), y);
    std::copy(ll.value().data(), ll.value().data() + (hi - lo),
              loglik.begin() + lo);
  });

  // Neg(Mean(loglik)) per chunk.
  auto chunk_loss = [&](const int64_t* chunk, int64_t n) {
    return -1.0 * ReplayMean(loglik, 1, chunk, n, 0);
  };
  ChunkedSampleLosses(plan, pool, chunk_loss, out);
}

double Mdn::AverageLogLikelihood(const storage::Table& sample) const {
  return -AverageLoss(sample);
}

int64_t Mdn::frequency(int category) const {
  DDUP_CHECK(category >= 0 && category < cardinality_);
  return frequency_[static_cast<size_t>(category)];
}

Mdn::MixtureParams Mdn::MixtureFor(int category) const {
  DDUP_CHECK(category >= 0 && category < cardinality_);
  std::vector<nn::Variable> frozen = nn::AsConstants(params_);
  MdnOutputs out = ForwardNet(frozen, {category});
  nn::Variable w = nn::Softmax(out.omega_logits);
  MixtureParams mp;
  for (int i = 0; i < config_.num_components; ++i) {
    mp.weight.push_back(w.value().At(0, i));
    mp.mean.push_back(out.mu.value().At(0, i));
    mp.sigma.push_back(out.sigma.value().At(0, i));
  }
  return mp;
}

double Mdn::ConditionalDensity(int category, double y_raw) const {
  MixtureParams mp = MixtureFor(category);
  double y = normalizer_.Encode(y_raw);
  double p = 0.0;
  for (size_t i = 0; i < mp.weight.size(); ++i) {
    p += mp.weight[i] * NormalPdf(y, mp.mean[i], mp.sigma[i]);
  }
  // Densities transform with the normalization Jacobian dy_norm/dy_raw.
  return p / normalizer_.Scale();
}

std::optional<AqpQueryView> Mdn::ParseQuery(const workload::Query& query,
                                            const storage::Table& schema) const {
  AqpQueryView view;
  view.agg = query.agg;
  bool have_cat = false, have_lo = false, have_hi = false;
  view.lo = normalizer_.lo();
  view.hi = normalizer_.hi();
  for (const auto& p : query.predicates) {
    const std::string& col = schema.column(p.column).name();
    if (col == cat_name_ && p.op == workload::CompareOp::kEq) {
      view.category = static_cast<int>(std::llround(p.value));
      have_cat = true;
    } else if (col == num_name_ && p.op == workload::CompareOp::kGe) {
      view.lo = p.value;
      have_lo = true;
    } else if (col == num_name_ && p.op == workload::CompareOp::kLe) {
      view.hi = p.value;
      have_hi = true;
    } else {
      return std::nullopt;
    }
  }
  if (!have_cat || (!have_lo && !have_hi)) return std::nullopt;
  return view;
}

double Mdn::EstimateAqp(const AqpQueryView& view) const {
  DDUP_CHECK(view.category >= 0 && view.category < cardinality_);
  return EstimateFromMixture(view, MixtureFor(view.category));
}

double Mdn::EstimateFromMixture(const AqpQueryView& view,
                                const MixtureParams& mp) const {
  double lo_n = normalizer_.Encode(view.lo);
  double hi_n = normalizer_.Encode(view.hi);
  double mass = 0.0;          // P(lo <= y <= hi | x)
  double partial_mean = 0.0;  // E[y_norm * 1{lo<=y<=hi} | x]
  for (size_t i = 0; i < mp.weight.size(); ++i) {
    mass += mp.weight[i] * (NormalCdf(hi_n, mp.mean[i], mp.sigma[i]) -
                            NormalCdf(lo_n, mp.mean[i], mp.sigma[i]));
    partial_mean += mp.weight[i] * TruncatedNormalPartialExpectation(
                                       mp.mean[i], mp.sigma[i], lo_n, hi_n);
  }
  double freq = static_cast<double>(frequency_[static_cast<size_t>(view.category)]);
  double count = freq * mass;
  // y_raw = scale * y_norm + center.
  double scale = normalizer_.Scale();
  double center = (normalizer_.hi() + normalizer_.lo()) / 2.0;
  double sum = freq * (scale * partial_mean + center * mass);
  switch (view.agg) {
    case workload::AggFunc::kCount:
      return count;
    case workload::AggFunc::kSum:
      return sum;
    case workload::AggFunc::kAvg:
      return count > 1e-9 ? sum / count : center;
  }
  return count;
}

double Mdn::EstimateAqp(const workload::Query& query,
                        const storage::Table& schema) const {
  auto view = ParseQuery(query, schema);
  DDUP_CHECK_MSG(view.has_value(), "query does not match the AQP template");
  return EstimateAqp(*view);
}

StatusOr<double> Mdn::TryEstimateAqp(const workload::Query& query,
                                     const storage::Table& schema,
                                     core::EstimateContext* ctx) const {
  (void)ctx;  // analytic estimate: no per-call mutable state
  for (const auto& p : query.predicates) {
    if (p.column < 0 || p.column >= schema.num_columns()) {
      return Status::InvalidArgument("predicate on out-of-range column " +
                                     std::to_string(p.column));
    }
  }
  auto view = ParseQuery(query, schema);
  if (!view.has_value()) {
    return Status::InvalidArgument(
        "query does not match the DBEst++ template (one equality on '" +
        cat_name_ + "', one range + aggregate on '" + num_name_ + "')");
  }
  if (view->category < 0 || view->category >= cardinality_) {
    return Status::InvalidArgument("category " +
                                   std::to_string(view->category) +
                                   " outside the fitted dictionary");
  }
  return EstimateAqp(*view);
}

Status Mdn::TryEstimateAqpBatch(const std::vector<workload::Query>& queries,
                                const storage::Table& schema,
                                std::vector<double>* out) const {
  // Parse everything first (fail fast with the query's index), collecting
  // the distinct categories whose mixtures the batch needs.
  std::vector<AqpQueryView> views;
  views.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    for (const auto& p : queries[i].predicates) {
      if (p.column < 0 || p.column >= schema.num_columns()) {
        return Status::InvalidArgument(
            "query " + std::to_string(i) + ": predicate on out-of-range column " +
            std::to_string(p.column));
      }
    }
    auto view = ParseQuery(queries[i], schema);
    if (!view.has_value()) {
      return Status::InvalidArgument(
          "query " + std::to_string(i) +
          ": query does not match the DBEst++ template (one equality on '" +
          cat_name_ + "', one range + aggregate on '" + num_name_ + "')");
    }
    if (view->category < 0 || view->category >= cardinality_) {
      return Status::InvalidArgument(
          "query " + std::to_string(i) + ": category " +
          std::to_string(view->category) + " outside the fitted dictionary");
    }
    views.push_back(*view);
  }
  // One network forward per distinct category, not per query. MixtureFor is
  // deterministic, so reusing a mixture across queries is bit-identical to
  // recomputing it.
  std::unordered_map<int, MixtureParams> mixtures;
  out->clear();
  out->reserve(views.size());
  for (const AqpQueryView& view : views) {
    auto it = mixtures.find(view.category);
    if (it == mixtures.end()) {
      it = mixtures.emplace(view.category, MixtureFor(view.category)).first;
    }
    out->push_back(EstimateFromMixture(view, it->second));
  }
  return Status::OK();
}

Status Mdn::SaveState(io::Serializer* out) const {
  out->WriteU32(kMdnStateVersion);
  out->WriteI32(config_.num_components);
  out->WriteI32(config_.hidden_width);
  out->WriteI32(config_.epochs);
  out->WriteI32(config_.batch_size);
  out->WriteDouble(config_.learning_rate);
  out->WriteU64(config_.seed);
  out->WriteString(cat_name_);
  out->WriteString(num_name_);
  out->WriteI32(cat_index_);
  out->WriteI32(num_index_);
  out->WriteI32(cardinality_);
  normalizer_.SaveState(out);
  io::WriteParameters(out, params_);
  out->WriteI64Vec(frequency_);
  out->WriteRng(rng_);
  return Status::OK();
}

Status Mdn::LoadState(io::Deserializer* in) {
  uint32_t version = in->ReadU32();
  if (in->ok() && version != kMdnStateVersion) {
    return Status::InvalidArgument("unsupported mdn state version " +
                                   std::to_string(version));
  }
  config_.num_components = in->ReadI32();
  config_.hidden_width = in->ReadI32();
  config_.epochs = in->ReadI32();
  config_.batch_size = in->ReadI32();
  config_.learning_rate = in->ReadDouble();
  config_.seed = in->ReadU64();
  cat_name_ = in->ReadString();
  num_name_ = in->ReadString();
  cat_index_ = in->ReadI32();
  num_index_ = in->ReadI32();
  cardinality_ = in->ReadI32();
  normalizer_ = MinMaxNormalizer::Restore(in);
  DDUP_RETURN_IF_ERROR(io::ReadParameters(in, kMdnParamCount, &params_));
  frequency_ = in->ReadI64Vec();
  in->ReadRng(&rng_);
  DDUP_RETURN_IF_ERROR(in->status());
  if (static_cast<int>(frequency_.size()) != cardinality_) {
    return Status::InvalidArgument("mdn frequency table size mismatch");
  }
  int h = config_.hidden_width;
  int m = config_.num_components;
  if (cardinality_ < 1 || h < 1 || m < 1 || config_.batch_size < 1 ||
      cat_index_ < 0 || num_index_ < 0) {
    return Status::InvalidArgument("mdn checkpoint config is inconsistent");
  }
  return io::CheckParameterShapes(
      params_, {{cardinality_, h}, {1, h}, {h, h}, {1, h}, {h, m},
                {1, m},           {h, m}, {1, m}, {h, m}, {1, m}});
}

Status Mdn::SaveToFile(const std::string& path) const {
  io::Serializer state;
  DDUP_RETURN_IF_ERROR(SaveState(&state));
  return io::WriteSectionFile(path, kCheckpointKind, state.Take());
}

StatusOr<std::unique_ptr<Mdn>> Mdn::Restore(io::Deserializer* in) {
  std::unique_ptr<Mdn> model(new Mdn());
  DDUP_RETURN_IF_ERROR(model->LoadState(in));
  return model;
}

StatusOr<std::unique_ptr<Mdn>> Mdn::LoadFromFile(const std::string& path) {
  StatusOr<std::string> payload = io::ReadSectionFile(path, kCheckpointKind);
  if (!payload.ok()) return payload.status();
  io::Deserializer in(std::move(payload).value());
  StatusOr<std::unique_ptr<Mdn>> model = Restore(&in);
  if (!model.ok()) return model;
  Status st = in.Finish();
  if (!st.ok()) return st;
  return model;
}

}  // namespace ddup::models
