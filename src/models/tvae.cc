#include "models/tvae.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/status.h"
#include "common/thread_pool.h"
#include "io/checkpoint.h"
#include "io/serializer.h"
#include "models/bootstrap_scoring.h"
#include "nn/optim.h"
#include "nn/ops.h"

namespace ddup::models {

namespace {
constexpr double kHalfLog2Pi = 0.9189385332046727;
constexpr uint32_t kTvaeStateVersion = 1;
constexpr size_t kTvaeParamCount = 11;  // encoder 6 + decoder 4 + log_sigma
// Parameter layout:
//   0 We, 1 be, 2 Wmu, 3 bmu, 4 Wlv, 5 blv   (encoder)
//   6 Wd, 7 bd, 8 Wout, 9 bout               (decoder)
//   10 log_sigma (1 x num_numeric)           (per-column output noise)
constexpr int kLogSigmaIdx = 10;
}  // namespace

Tvae::Tvae(const storage::Table& base_data, TvaeConfig config)
    : config_(config), rng_(config.seed) {
  DDUP_CHECK(base_data.num_rows() > 0);
  schema_ = base_data.Head(0);
  int off = 0;
  for (int c = 0; c < base_data.num_columns(); ++c) {
    const storage::Column& col = base_data.column(c);
    ColumnCoding cc;
    cc.offset = off;
    if (col.is_numeric()) {
      cc.is_numeric = true;
      cc.cardinality = 1;
      cc.standardizer = Standardizer::Fit(col);
      cc.raw_min = col.MinAsDouble();
      cc.raw_max = col.MaxAsDouble();
      off += 1;
    } else {
      cc.is_numeric = false;
      cc.cardinality = col.cardinality();
      categorical_columns_.push_back(c);
      off += cc.cardinality;
    }
    coding_.push_back(cc);
  }
  input_dim_ = off;
  RetrainFromScratch(base_data);
}

void Tvae::InitParams() {
  using nn::Matrix;
  int h = config_.hidden_width;
  int l = config_.latent_dim;
  int num_numeric = 0;
  for (const auto& cc : coding_) num_numeric += cc.is_numeric ? 1 : 0;
  auto xavier = [this](int in, int out) {
    double s = std::sqrt(2.0 / static_cast<double>(in + out));
    return nn::Parameter(Matrix::Randn(rng_, in, out, s));
  };
  auto zeros = [](int out) { return nn::Parameter(Matrix::Zeros(1, out)); };
  params_ = {xavier(input_dim_, h), zeros(h),
             xavier(h, l),          zeros(l),
             xavier(h, l),          zeros(l),
             xavier(l, h),          zeros(h),
             xavier(h, input_dim_), zeros(input_dim_),
             nn::Parameter(Matrix::Zeros(1, std::max(1, num_numeric)))};
}

Tvae::EncodedBatch Tvae::Encode(const storage::Table& data,
                                const std::vector<int64_t>& rows) const {
  EncodedBatch b;
  int n = static_cast<int>(rows.size());
  b.x = nn::Matrix(n, input_dim_, 0.0);
  b.codes.assign(categorical_columns_.size(), {});
  for (auto& v : b.codes) v.reserve(rows.size());
  for (int c = 0, cat_i = 0; c < static_cast<int>(coding_.size()); ++c) {
    const ColumnCoding& cc = coding_[static_cast<size_t>(c)];
    const storage::Column& col = data.column(c);
    if (cc.is_numeric) {
      for (int i = 0; i < n; ++i) {
        b.x.At(i, cc.offset) =
            cc.standardizer.Encode(col.NumericAt(rows[static_cast<size_t>(i)]));
      }
    } else {
      for (int i = 0; i < n; ++i) {
        int code = col.CodeAt(rows[static_cast<size_t>(i)]);
        b.x.At(i, cc.offset + code) = 1.0;
        b.codes[static_cast<size_t>(cat_i)].push_back(code);
      }
      ++cat_i;
    }
  }
  return b;
}

Tvae::VaeGraph Tvae::ForwardGraph(const std::vector<nn::Variable>& p,
                                  const nn::Matrix& x,
                                  const nn::Matrix& eps) const {
  using namespace nn;  // NOLINT: op-heavy function
  Variable xin = Constant(x);
  Variable h = AffineRelu(xin, p[0], p[1]);
  VaeGraph g;
  g.mu = Affine(h, p[2], p[3]);
  // Bounded log-variance keeps the KL term numerically tame.
  g.logvar = Scale(Tanh(Affine(h, p[4], p[5])), 4.0);
  Variable std = Exp(Scale(g.logvar, 0.5));
  g.z = Add(g.mu, Mul(std, Constant(eps)));
  Variable hd = AffineRelu(g.z, p[6], p[7]);
  g.out = Affine(hd, p[8], p[9]);
  return g;
}

Tvae::ElboTerms Tvae::ElboRowTerms(const std::vector<nn::Variable>& p,
                                   const VaeGraph& g,
                                   const EncodedBatch& batch) const {
  using namespace nn;  // NOLINT
  int n = batch.x.rows();
  ElboTerms terms;

  // Numeric columns: Gaussian NLL with learned per-column log sigma.
  int num_numeric = 0;
  for (const auto& cc : coding_) num_numeric += cc.is_numeric ? 1 : 0;
  if (num_numeric > 0) {
    // Gather numeric targets and predictions into N x num_numeric blocks.
    nn::Matrix targets(n, num_numeric);
    std::vector<Variable> pred_cols;
    int ni = 0;
    for (const auto& cc : coding_) {
      if (!cc.is_numeric) continue;
      for (int r = 0; r < n; ++r) targets.At(r, ni) = batch.x.At(r, cc.offset);
      pred_cols.push_back(SliceCols(g.out, cc.offset, 1));
      ++ni;
    }
    Variable mean_block = ConcatCols(pred_cols);
    Variable log_sigma = SliceCols(p[kLogSigmaIdx], 0, num_numeric);
    Variable inv_sigma = Exp(Neg(log_sigma));  // 1 x C, broadcast below
    Variable diff = Sub(Constant(targets), mean_block);
    Variable z = Mul(diff, inv_sigma);
    Variable per_entry =
        Add(Scale(Square(z), 0.5), AddScalar(log_sigma, kHalfLog2Pi));
    terms.numeric = RowSum(per_entry);
  }

  // Categorical columns: softmax log-likelihood per column.
  for (size_t cat_i = 0; cat_i < categorical_columns_.size(); ++cat_i) {
    const ColumnCoding& cc =
        coding_[static_cast<size_t>(categorical_columns_[cat_i])];
    Variable block = SliceCols(g.out, cc.offset, cc.cardinality);
    terms.categorical.push_back(TargetLogProbs(block, batch.codes[cat_i]));
  }

  // KL(q(z|x) || N(0, I)) = -0.5 * sum(1 + logvar - mu^2 - exp(logvar)).
  Variable kl_terms = Sub(AddScalar(g.logvar, 1.0),
                          Add(Square(g.mu), Exp(g.logvar)));
  terms.kl = RowSum(kl_terms);
  return terms;
}

nn::Variable Tvae::ElboLoss(const std::vector<nn::Variable>& p,
                            const VaeGraph& g,
                            const EncodedBatch& batch) const {
  using namespace nn;  // NOLINT
  ElboTerms terms = ElboRowTerms(p, g, batch);
  Variable recon;
  bool have_recon = false;
  if (terms.numeric.defined()) {
    recon = Mean(terms.numeric);
    have_recon = true;
  }
  for (const Variable& logp : terms.categorical) {
    Variable ce = Neg(Mean(logp));
    recon = have_recon ? Add(recon, ce) : ce;
    have_recon = true;
  }
  DDUP_CHECK(have_recon);
  Variable kl = Scale(Mean(terms.kl), -0.5);
  return Add(recon, kl);
}

nn::Matrix Tvae::SampleEps(int n) const {
  return nn::Matrix::Randn(rng_, n, config_.latent_dim, 1.0);
}

void Tvae::TrainLoop(const storage::Table& data, double lr, int epochs) {
  DDUP_CHECK(data.num_rows() > 0);
  nn::Adam opt(params_, lr);
  for (int e = 0; e < epochs; ++e) {
    for (const auto& rows :
         MiniBatches(data.num_rows(), config_.batch_size, rng_)) {
      EncodedBatch batch = Encode(data, rows);
      VaeGraph g = ForwardGraph(params_, batch.x,
                                SampleEps(static_cast<int>(rows.size())));
      opt.ZeroGrad();
      nn::Variable loss = ElboLoss(params_, g, batch);
      nn::Backward(loss);
      opt.Step();
    }
  }
}

void Tvae::RetrainFromScratch(const storage::Table& data) {
  InitParams();
  TrainLoop(data, config_.learning_rate, config_.epochs);
}

void Tvae::FineTune(const storage::Table& new_data, double learning_rate,
                    int epochs) {
  TrainLoop(new_data, learning_rate, epochs);
}

void Tvae::DistillUpdate(const storage::Table& transfer_set,
                         const storage::Table& new_data,
                         const core::DistillConfig& config) {
  using namespace nn;  // NOLINT
  std::vector<Variable> teacher = AsConstants(params_);
  double alpha =
      core::ResolveAlpha(config, transfer_set.num_rows(), new_data.num_rows());

  Adam opt(params_, config.learning_rate);
  for (int e = 0; e < config.epochs; ++e) {
    auto tr_batches =
        MiniBatches(transfer_set.num_rows(), config.batch_size, rng_);
    auto up_batches = MiniBatches(new_data.num_rows(), config.batch_size, rng_);
    size_t steps = std::max(tr_batches.size(), up_batches.size());
    for (size_t s = 0; s < steps; ++s) {
      EncodedBatch tr = Encode(transfer_set, tr_batches[s % tr_batches.size()]);
      EncodedBatch up = Encode(new_data, up_batches[s % up_batches.size()]);

      nn::Matrix eps = SampleEps(tr.x.rows());
      VaeGraph sg = ForwardGraph(params_, tr.x, eps);
      // Eq. 11: the teacher's own latent noise is removed — it reuses the
      // student's eps — then encoder and decoder logits are compared by MSE.
      VaeGraph tg = ForwardGraph(teacher, tr.x, eps);
      Variable enc_s = ConcatCols({sg.mu, sg.logvar});
      Variable enc_t = ConcatCols({tg.mu, tg.logvar});
      Variable distill = Scale(Add(MseLoss(enc_s, Detach(enc_t)),
                                   MseLoss(sg.out, Detach(tg.out))),
                               0.5);
      Variable task_tr = ElboLoss(params_, sg, tr);
      Variable tr_term = Add(Scale(distill, config.lambda),
                             Scale(task_tr, 1.0 - config.lambda));

      VaeGraph ug = ForwardGraph(params_, up.x, SampleEps(up.x.rows()));
      Variable up_term = ElboLoss(params_, ug, up);
      Variable loss = Add(Scale(tr_term, alpha), Scale(up_term, 1.0 - alpha));
      opt.ZeroGrad();
      Backward(loss);
      opt.Step();
    }
  }
}

double Tvae::AverageLoss(const storage::Table& sample) const {
  DDUP_CHECK(sample.num_rows() > 0);
  std::vector<nn::Variable> frozen = nn::AsConstants(params_);
  // Deterministic ELBO evaluation (z = mu): reproducible detection signal.
  // Chunked (and possibly thread-pool parallel) scoring; bit-identical for
  // any pool size because chunk bounds and the combine order are fixed.
  return GlobalChunkMean(
      sample.num_rows(), [&](int64_t lo, int64_t hi) {
        std::vector<int64_t> rows(static_cast<size_t>(hi - lo));
        std::iota(rows.begin(), rows.end(), lo);
        EncodedBatch batch = Encode(sample, rows);
        nn::Matrix eps0(batch.x.rows(), config_.latent_dim, 0.0);
        VaeGraph g = ForwardGraph(frozen, batch.x, eps0);
        return ElboLoss(frozen, g, batch).value().At(0, 0);
      });
}

void Tvae::BootstrapLosses(const storage::Table& data,
                           const std::vector<std::vector<int64_t>>& samples,
                           ThreadPool& pool, double* out) const {
  BootstrapPlan plan(samples, data.num_rows(), /*split_tail=*/true);
  std::vector<nn::Variable> frozen = nn::AsConstants(params_);
  bool has_numeric = false;
  for (const auto& cc : coding_) has_numeric = has_numeric || cc.is_numeric;
  // Term layout per entry: [numeric NLL row sum], one log-probability per
  // categorical column, the KL row sum.
  const int num_terms = (has_numeric ? 1 : 0) +
                        static_cast<int>(categorical_columns_.size()) + 1;
  auto score = [&](const std::vector<int64_t>& rows, double* row_terms) {
    EncodedBatch batch = Encode(data, rows);
    nn::Matrix eps0(batch.x.rows(), config_.latent_dim, 0.0);
    VaeGraph g = ForwardGraph(frozen, batch.x, eps0);
    ElboTerms t = ElboRowTerms(frozen, g, batch);
    std::vector<const nn::Matrix*> cols;
    if (has_numeric) cols.push_back(&t.numeric.value());
    for (const auto& v : t.categorical) cols.push_back(&v.value());
    cols.push_back(&t.kl.value());
    for (size_t c = 0; c < cols.size(); ++c) {
      for (int r = 0; r < cols[c]->rows(); ++r) {
        row_terms[static_cast<size_t>(r) * num_terms + c] = (*cols[c])(r, 0);
      }
    }
  };
  std::vector<double> terms = ScoreEntries(plan, num_terms, pool, score);
  // ElboLoss per chunk: Mean(numeric), the Add chain of the categorical
  // Neg(Mean(.)), then + Scale(Mean(kl), -0.5).
  auto chunk_loss = [&](const int64_t* chunk, int64_t n) {
    int t = 0;
    double recon = 0.0;
    bool have_recon = false;
    if (has_numeric) {
      recon = ReplayMean(terms, num_terms, chunk, n, t++);
      have_recon = true;
    }
    for (size_t c = 0; c < categorical_columns_.size(); ++c) {
      const double ce = -1.0 * ReplayMean(terms, num_terms, chunk, n, t++);
      recon = have_recon ? recon + ce : ce;
      have_recon = true;
    }
    const double kl = Stored(-0.5 * ReplayMean(terms, num_terms, chunk, n, t));
    return recon + kl;
  };
  ChunkedSampleLosses(plan, pool, chunk_loss, out);
}

Status Tvae::SaveState(io::Serializer* out) const {
  out->WriteU32(kTvaeStateVersion);
  out->WriteI32(config_.latent_dim);
  out->WriteI32(config_.hidden_width);
  out->WriteI32(config_.epochs);
  out->WriteI32(config_.batch_size);
  out->WriteDouble(config_.learning_rate);
  out->WriteU64(config_.seed);
  out->WriteTable(schema_);
  out->WriteU32(static_cast<uint32_t>(coding_.size()));
  for (const auto& cc : coding_) {
    out->WriteBool(cc.is_numeric);
    out->WriteI32(cc.offset);
    out->WriteI32(cc.cardinality);
    cc.standardizer.SaveState(out);
    out->WriteDouble(cc.raw_min);
    out->WriteDouble(cc.raw_max);
  }
  out->WriteIntVec(categorical_columns_);
  out->WriteI32(input_dim_);
  io::WriteParameters(out, params_);
  out->WriteRng(rng_);
  return Status::OK();
}

Status Tvae::LoadState(io::Deserializer* in) {
  uint32_t version = in->ReadU32();
  if (in->ok() && version != kTvaeStateVersion) {
    return Status::InvalidArgument("unsupported tvae state version " +
                                   std::to_string(version));
  }
  config_.latent_dim = in->ReadI32();
  config_.hidden_width = in->ReadI32();
  config_.epochs = in->ReadI32();
  config_.batch_size = in->ReadI32();
  config_.learning_rate = in->ReadDouble();
  config_.seed = in->ReadU64();
  schema_ = in->ReadTable();
  uint32_t num_codings = in->ReadU32();
  coding_.clear();
  for (uint32_t c = 0; c < num_codings && in->ok(); ++c) {
    ColumnCoding cc;
    cc.is_numeric = in->ReadBool();
    cc.offset = in->ReadI32();
    cc.cardinality = in->ReadI32();
    cc.standardizer = Standardizer::Restore(in);
    cc.raw_min = in->ReadDouble();
    cc.raw_max = in->ReadDouble();
    coding_.push_back(cc);
  }
  categorical_columns_ = in->ReadIntVec();
  input_dim_ = in->ReadI32();
  DDUP_RETURN_IF_ERROR(io::ReadParameters(in, kTvaeParamCount, &params_));
  in->ReadRng(&rng_);
  DDUP_RETURN_IF_ERROR(in->status());
  if (static_cast<int>(coding_.size()) != schema_.num_columns()) {
    return Status::InvalidArgument("tvae coding/schema column count mismatch");
  }
  // Cross-validate the codings against the flat layout: Encode/ElboLoss
  // index batch.x and g.out by offset + cardinality with no bounds checks.
  int off = 0;
  int num_numeric = 0;
  std::vector<int> expect_categorical;
  for (int c = 0; c < static_cast<int>(coding_.size()); ++c) {
    const ColumnCoding& cc = coding_[static_cast<size_t>(c)];
    if (cc.offset != off || cc.cardinality < 1 ||
        (cc.is_numeric && cc.cardinality != 1)) {
      return Status::InvalidArgument("tvae checkpoint coding is inconsistent");
    }
    if (cc.is_numeric) {
      ++num_numeric;
    } else {
      expect_categorical.push_back(c);
    }
    off += cc.cardinality;
  }
  int h = config_.hidden_width;
  int l = config_.latent_dim;
  if (off != input_dim_ || input_dim_ < 1 || h < 1 || l < 1 ||
      config_.batch_size < 1 || categorical_columns_ != expect_categorical) {
    return Status::InvalidArgument("tvae checkpoint config is inconsistent");
  }
  return io::CheckParameterShapes(
      params_, {{input_dim_, h},
                {1, h},
                {h, l},
                {1, l},
                {h, l},
                {1, l},
                {l, h},
                {1, h},
                {h, input_dim_},
                {1, input_dim_},
                {1, std::max(1, num_numeric)}});
}

Status Tvae::SaveToFile(const std::string& path) const {
  io::Serializer state;
  DDUP_RETURN_IF_ERROR(SaveState(&state));
  return io::WriteSectionFile(path, kCheckpointKind, state.Take());
}

StatusOr<std::unique_ptr<Tvae>> Tvae::Restore(io::Deserializer* in) {
  std::unique_ptr<Tvae> model(new Tvae());
  DDUP_RETURN_IF_ERROR(model->LoadState(in));
  return model;
}

StatusOr<std::unique_ptr<Tvae>> Tvae::LoadFromFile(const std::string& path) {
  StatusOr<std::string> payload = io::ReadSectionFile(path, kCheckpointKind);
  if (!payload.ok()) return payload.status();
  io::Deserializer in(std::move(payload).value());
  StatusOr<std::unique_ptr<Tvae>> model = Restore(&in);
  if (!model.ok()) return model;
  Status st = in.Finish();
  if (!st.ok()) return st;
  return model;
}

storage::Table Tvae::Sample(int64_t n, Rng& rng) const {
  using namespace nn;  // NOLINT
  std::vector<Variable> frozen = AsConstants(params_);
  Matrix z = Matrix::Randn(rng, static_cast<int>(n), config_.latent_dim, 1.0);
  Variable hd = AffineRelu(Constant(z), frozen[6], frozen[7]);
  Variable out_v = Affine(hd, frozen[8], frozen[9]);
  const Matrix& out = out_v.value();
  const Matrix& log_sigma = frozen[kLogSigmaIdx].value();

  storage::Table table(schema_.name() + "_synthetic");
  int ni = 0;
  for (int c = 0; c < schema_.num_columns(); ++c) {
    const ColumnCoding& cc = coding_[static_cast<size_t>(c)];
    const storage::Column& proto = schema_.column(c);
    if (cc.is_numeric) {
      double sigma = std::exp(log_sigma.At(0, ni));
      std::vector<double> values(static_cast<size_t>(n));
      for (int64_t r = 0; r < n; ++r) {
        double v_std = out.At(static_cast<int>(r), cc.offset) +
                       rng.Normal(0.0, sigma);
        double raw = cc.standardizer.Decode(v_std);
        values[static_cast<size_t>(r)] =
            std::clamp(raw, cc.raw_min, cc.raw_max);
      }
      table.AddColumn(storage::Column::Numeric(proto.name(), std::move(values)));
      ++ni;
    } else {
      std::vector<int32_t> codes(static_cast<size_t>(n));
      for (int64_t r = 0; r < n; ++r) {
        // Sample from the softmax over this column's logits.
        std::vector<double> w(static_cast<size_t>(cc.cardinality));
        double mx = -1e300;
        for (int u = 0; u < cc.cardinality; ++u) {
          mx = std::max(mx, out.At(static_cast<int>(r), cc.offset + u));
        }
        for (int u = 0; u < cc.cardinality; ++u) {
          w[static_cast<size_t>(u)] =
              std::exp(out.At(static_cast<int>(r), cc.offset + u) - mx);
        }
        codes[static_cast<size_t>(r)] = static_cast<int32_t>(rng.Categorical(w));
      }
      table.AddColumn(storage::Column::Categorical(proto.name(), std::move(codes),
                                                   proto.dictionary()));
    }
  }
  return table;
}

}  // namespace ddup::models
