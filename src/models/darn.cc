#include "models/darn.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/status.h"
#include "common/thread_pool.h"
#include "io/checkpoint.h"
#include "io/serializer.h"
#include "models/bootstrap_scoring.h"
#include "nn/kernels.h"
#include "nn/optim.h"
#include "nn/ops.h"
#include "nn/pool.h"


namespace ddup::models {

namespace {
constexpr uint32_t kDarnStateVersion = 1;
constexpr size_t kDarnParamCount = 6;  // W1,b1,W2,b2,W3,b3
}  // namespace

Darn::Darn(const storage::Table& base_data, DarnConfig config)
    : config_(config), rng_(config.seed) {
  DDUP_CHECK(base_data.num_rows() > 0);
  encoder_ = DiscreteEncoder::Fit(base_data, config_.max_bins);
  num_columns_ = encoder_.num_columns();
  BuildMasks(num_columns_);
  RetrainFromScratch(base_data);
}

void Darn::BuildMasks(int m) {
  using nn::Matrix;
  int h = config_.hidden_width;
  int total = encoder_.total_cardinality();
  // Degrees: input units of column i carry degree i+1; hidden units cycle
  // through [1, m-1] (0 when m == 1); output units of column i carry i+1.
  // MADE connectivity: in->hid iff d_in <= d_hid; hid->hid iff d1 <= d2;
  // hid->out iff d_hid < d_out.
  std::vector<int> hidden_deg(static_cast<size_t>(h));
  for (int j = 0; j < h; ++j) {
    hidden_deg[static_cast<size_t>(j)] = (m == 1) ? 0 : 1 + (j % (m - 1));
  }
  mask1_ = Matrix::Zeros(total, h);
  for (int col = 0; col < m; ++col) {
    int deg = col + 1;
    for (int u = 0; u < encoder_.cardinality(col); ++u) {
      int row = encoder_.offset(col) + u;
      for (int j = 0; j < h; ++j) {
        if (deg <= hidden_deg[static_cast<size_t>(j)]) mask1_.At(row, j) = 1.0;
      }
    }
  }
  mask2_ = Matrix::Zeros(h, h);
  for (int a = 0; a < h; ++a) {
    for (int b = 0; b < h; ++b) {
      if (hidden_deg[static_cast<size_t>(a)] <=
          hidden_deg[static_cast<size_t>(b)]) {
        mask2_.At(a, b) = 1.0;
      }
    }
  }
  mask3_ = Matrix::Zeros(h, total);
  for (int col = 0; col < m; ++col) {
    int deg = col + 1;
    for (int u = 0; u < encoder_.cardinality(col); ++u) {
      int out = encoder_.offset(col) + u;
      for (int j = 0; j < h; ++j) {
        if (hidden_deg[static_cast<size_t>(j)] < deg) mask3_.At(j, out) = 1.0;
      }
    }
  }

  // Active unit sets for the restricted-GEMM execution strategy
  // (SelectivityBatch with active_set). Padding units contribute exact-zero
  // terms everywhere they are read, so their position is irrelevant; the
  // genuinely active units must stay in ascending order to preserve the
  // kernel's per-element accumulation order.
  active_units_.assign(static_cast<size_t>(m), {});
  for (int col = 0; col < m; ++col) {
    auto& act = active_units_[static_cast<size_t>(col)];
    std::vector<int> inactive;
    for (int j = 0; j < h; ++j) {
      if (hidden_deg[static_cast<size_t>(j)] < col + 1) {
        act.push_back(j);
      } else {
        inactive.push_back(j);
      }
    }
    if (!act.empty()) {
      size_t target = std::min<size_t>(static_cast<size_t>(h),
                                       (act.size() + 15) / 16 * 16);
      for (size_t i = 0; act.size() < target && i < inactive.size(); ++i) {
        act.push_back(inactive[i]);
      }
      std::sort(act.begin(), act.end());
    }
  }
}

// The restricted widths are multiples of 16, which keeps every output
// element inside the widest vector tile (2 x 8 lanes for AVX-512) only when
// the dense width h is itself a multiple of 16 — otherwise some elements
// would move between the tiled path and the differently-rounded scalar
// column tail and the bits could change. m == 1 has no autoregressive
// structure to exploit.
bool Darn::ActiveSetSafe() const {
  return config_.hidden_width % 16 == 0 && num_columns_ > 1;
}

void Darn::InitParams() {
  using nn::Matrix;
  int h = config_.hidden_width;
  int total = encoder_.total_cardinality();
  auto xavier = [this](int in, int out) {
    double s = std::sqrt(2.0 / static_cast<double>(in + out));
    return nn::Parameter(Matrix::Randn(rng_, in, out, s));
  };
  params_ = {xavier(total, h), nn::Parameter(Matrix::Zeros(1, h)),
             xavier(h, h),     nn::Parameter(Matrix::Zeros(1, h)),
             xavier(h, total), nn::Parameter(Matrix::Zeros(1, total))};
}

std::vector<std::vector<int>> Darn::GatherCodes(
    const std::vector<std::vector<int>>& all,
    const std::vector<int64_t>& rows) {
  std::vector<std::vector<int>> out(all.size());
  for (size_t c = 0; c < all.size(); ++c) {
    out[c].reserve(rows.size());
    for (int64_t r : rows) out[c].push_back(all[c][static_cast<size_t>(r)]);
  }
  return out;
}

std::vector<nn::Variable> Darn::MaskWeights(
    const std::vector<nn::Variable>& p) const {
  using nn::Constant;
  using nn::Mul;
  return {Mul(p[0], Constant(mask1_)), p[1], Mul(p[2], Constant(mask2_)),
          p[3], Mul(p[4], Constant(mask3_)), p[5]};
}

nn::Variable Darn::ForwardLogits(
    const std::vector<nn::Variable>& mp,
    const std::vector<std::vector<int>>& codes) const {
  using namespace nn;  // NOLINT: op-heavy function
  DDUP_CHECK(static_cast<int>(codes.size()) == num_columns_);
  // Layer 1 via embedding gathers: the one-hot input selects exactly one row
  // of the masked weight per column, so h = sum_cols row(offset+code) + b,
  // summed in column order by one GatherSum node.
  std::vector<std::vector<int>> idx(codes.size());
  for (int col = 0; col < num_columns_; ++col) {
    const std::vector<int>& col_codes = codes[static_cast<size_t>(col)];
    std::vector<int>& col_idx = idx[static_cast<size_t>(col)];
    col_idx.resize(col_codes.size());
    for (size_t r = 0; r < col_idx.size(); ++r) {
      col_idx[r] = encoder_.offset(col) + col_codes[r];
    }
  }
  Variable h = Relu(Add(GatherSum(mp[0], idx), mp[1]));
  // Fused affine kernels over the masked weights.
  Variable h2 = AffineRelu(h, mp[2], mp[3]);
  return Affine(h2, mp[4], mp[5]);
}

std::vector<nn::Variable> Darn::ColumnLogProbs(
    const std::vector<nn::Variable>& masked,
    const std::vector<std::vector<int>>& codes) const {
  nn::Variable logits = ForwardLogits(masked, codes);
  std::vector<nn::Variable> logp;
  logp.reserve(static_cast<size_t>(num_columns_));
  for (int col = 0; col < num_columns_; ++col) {
    nn::Variable block = nn::SliceCols(logits, encoder_.offset(col),
                                       encoder_.cardinality(col));
    logp.push_back(nn::TargetLogProbs(block, codes[static_cast<size_t>(col)]));
  }
  return logp;
}

nn::Variable Darn::NllLoss(const std::vector<nn::Variable>& p,
                           const std::vector<std::vector<int>>& codes) const {
  using namespace nn;  // NOLINT
  std::vector<Variable> logp = ColumnLogProbs(MaskWeights(p), codes);
  Variable total;
  for (int col = 0; col < num_columns_; ++col) {
    Variable ce = Neg(Mean(logp[static_cast<size_t>(col)]));
    total = (col == 0) ? ce : Add(total, ce);
  }
  return total;  // mean-per-row joint NLL
}

void Darn::TrainLoop(const storage::Table& data, double lr, int epochs) {
  DDUP_CHECK(data.num_rows() > 0);
  auto all_codes = encoder_.EncodeTable(data);
  nn::Adam opt(params_, lr);
  for (int e = 0; e < epochs; ++e) {
    for (const auto& rows :
         MiniBatches(data.num_rows(), config_.batch_size, rng_)) {
      auto codes = GatherCodes(all_codes, rows);
      opt.ZeroGrad();
      nn::Variable loss = NllLoss(params_, codes);
      nn::Backward(loss);
      opt.Step();
    }
  }
}

void Darn::RetrainFromScratch(const storage::Table& data) {
  InitParams();
  ResetMetadata();
  AbsorbMetadata(data);
  TrainLoop(data, config_.learning_rate, config_.epochs);
}

void Darn::FineTune(const storage::Table& new_data, double learning_rate,
                    int epochs) {
  TrainLoop(new_data, learning_rate, epochs);
}

void Darn::DistillUpdate(const storage::Table& transfer_set,
                         const storage::Table& new_data,
                         const core::DistillConfig& config) {
  using namespace nn;  // NOLINT
  // The teacher is frozen, so its masked weights are built once. (The
  // student's stay per forward: sharing one mask node between its two
  // forwards would change the order W1's gradient accumulates in.)
  const std::vector<Variable> teacher = MaskWeights(AsConstants(params_));
  double alpha =
      core::ResolveAlpha(config, transfer_set.num_rows(), new_data.num_rows());
  auto tr_codes_all = encoder_.EncodeTable(transfer_set);
  auto up_codes_all = encoder_.EncodeTable(new_data);

  // The teacher's logits for a transfer row are the same in every epoch, so
  // they are computed once per row and gathered per step. A row's logits do
  // depend on its GEMM position (bootstrap_scoring.h): the cache holds the
  // 4-row panel value, and the last n % 4 rows of an n-row batch, which run
  // in the kernels' row tail, are recomputed in a call of their own.
  const int total = encoder_.total_cardinality();
  const int64_t num_tr = transfer_set.num_rows();
  Matrix panel_logits(static_cast<int>(num_tr), total);
  constexpr int64_t kPanelBlockRows = 256;
  for (int64_t lo = 0; lo < num_tr; lo += kPanelBlockRows) {
    const int64_t count = std::min(kPanelBlockRows, num_tr - lo);
    std::vector<int64_t> rows(static_cast<size_t>(count));
    std::iota(rows.begin(), rows.end(), lo);
    rows.resize(static_cast<size_t>((count + 3) & ~3), rows.back());
    Variable logits = ForwardLogits(teacher, GatherCodes(tr_codes_all, rows));
    std::copy(logits.value().data(), logits.value().data() + count * total,
              panel_logits.data() + lo * total);
  }
  auto teacher_logits = [&](const std::vector<int64_t>& rows) {
    const int n = static_cast<int>(rows.size());
    const int n4 = n & ~3;
    Matrix out = MatrixPool::Local().Acquire(n, total);
    for (int i = 0; i < n4; ++i) {
      const auto row = static_cast<size_t>(rows[static_cast<size_t>(i)]);
      const double* src = panel_logits.data() + row * total;
      std::copy(src, src + total, out.data() + static_cast<size_t>(i) * total);
    }
    if (n4 < n) {
      const std::vector<int64_t> tail(rows.begin() + n4, rows.end());
      Variable logits =
          ForwardLogits(teacher, GatherCodes(tr_codes_all, tail));
      std::copy(logits.value().data(),
                logits.value().data() + (n - n4) * total,
                out.data() + static_cast<size_t>(n4) * total);
    }
    return Constant(std::move(out));
  };

  Adam opt(params_, config.learning_rate);
  for (int e = 0; e < config.epochs; ++e) {
    auto tr_batches =
        MiniBatches(transfer_set.num_rows(), config.batch_size, rng_);
    auto up_batches = MiniBatches(new_data.num_rows(), config.batch_size, rng_);
    size_t steps = std::max(tr_batches.size(), up_batches.size());
    for (size_t s = 0; s < steps; ++s) {
      const std::vector<int64_t>& tr_rows = tr_batches[s % tr_batches.size()];
      auto tr = GatherCodes(tr_codes_all, tr_rows);
      auto up = GatherCodes(up_codes_all, up_batches[s % up_batches.size()]);

      Variable s_logits = ForwardLogits(MaskWeights(params_), tr);
      Variable t_logits = teacher_logits(tr_rows);
      // Eq. 10: annealed CE between teacher and student conditionals,
      // averaged over attributes.
      Variable distill;
      for (int col = 0; col < num_columns_; ++col) {
        Variable sb = SliceCols(s_logits, encoder_.offset(col),
                                encoder_.cardinality(col));
        Variable tb = SliceCols(t_logits, encoder_.offset(col),
                                encoder_.cardinality(col));
        Variable ce = DistillCrossEntropy(sb, tb, config.temperature);
        distill = (col == 0) ? ce : Add(distill, ce);
      }
      distill = Scale(distill, 1.0 / num_columns_);

      // Task CE on the transfer batch reuses the student logits.
      Variable task_tr;
      for (int col = 0; col < num_columns_; ++col) {
        Variable sb = SliceCols(s_logits, encoder_.offset(col),
                                encoder_.cardinality(col));
        Variable ce = SoftmaxCrossEntropy(sb, tr[static_cast<size_t>(col)]);
        task_tr = (col == 0) ? ce : Add(task_tr, ce);
      }
      Variable tr_term = Add(Scale(distill, config.lambda),
                             Scale(task_tr, 1.0 - config.lambda));
      Variable up_term = NllLoss(params_, up);
      Variable loss = Add(Scale(tr_term, alpha), Scale(up_term, 1.0 - alpha));
      opt.ZeroGrad();
      Backward(loss);
      opt.Step();
    }
  }
}

void Darn::AbsorbMetadata(const storage::Table& new_data) {
  total_rows_ += new_data.num_rows();
}

double Darn::AverageLoss(const storage::Table& sample) const {
  DDUP_CHECK(sample.num_rows() > 0);
  auto codes = encoder_.EncodeTable(sample);
  std::vector<nn::Variable> frozen = nn::AsConstants(params_);
  // Chunked (and possibly thread-pool parallel) scoring; bit-identical for
  // any pool size because chunk bounds and the combine order are fixed.
  return GlobalChunkMean(
      sample.num_rows(), [&](int64_t lo, int64_t hi) {
        std::vector<int64_t> rows(static_cast<size_t>(hi - lo));
        std::iota(rows.begin(), rows.end(), lo);
        return NllLoss(frozen, GatherCodes(codes, rows)).value().At(0, 0);
      });
}

void Darn::BootstrapLosses(const storage::Table& data,
                           const std::vector<std::vector<int64_t>>& samples,
                           ThreadPool& pool, double* out) const {
  BootstrapPlan plan(samples, data.num_rows(), /*split_tail=*/true);
  auto codes = encoder_.EncodeTable(data);
  const std::vector<nn::Variable> masked =
      MaskWeights(nn::AsConstants(params_));
  const int cols = num_columns_;
  auto score = [&](const std::vector<int64_t>& rows, double* terms) {
    std::vector<nn::Variable> per_col =
        ColumnLogProbs(masked, GatherCodes(codes, rows));
    for (int c = 0; c < cols; ++c) {
      const nn::Matrix& v = per_col[static_cast<size_t>(c)].value();
      for (int r = 0; r < v.rows(); ++r) {
        terms[static_cast<size_t>(r) * cols + c] = v(r, 0);
      }
    }
  };
  std::vector<double> logp = ScoreEntries(plan, cols, pool, score);
  // NllLoss per chunk: the Add chain of Neg(Mean(column log-probs)).
  auto chunk_loss = [&](const int64_t* chunk, int64_t n) {
    double total = 0.0;
    for (int c = 0; c < cols; ++c) {
      const double ce = -1.0 * ReplayMean(logp, cols, chunk, n, c);
      total = (c == 0) ? ce : total + ce;
    }
    return total;
  };
  ChunkedSampleLosses(plan, pool, chunk_loss, out);
}

Darn::FrozenNet Darn::Freeze() const {
  FrozenNet net;
  net.mw1 = params_[0].value();
  for (int64_t i = 0; i < net.mw1.size(); ++i) {
    net.mw1.data()[i] *= mask1_.data()[i];
  }
  net.b1 = params_[1].value();
  net.mw2 = params_[2].value();
  for (int64_t i = 0; i < net.mw2.size(); ++i) {
    net.mw2.data()[i] *= mask2_.data()[i];
  }
  net.b2 = params_[3].value();
  net.mw3 = params_[4].value();
  for (int64_t i = 0; i < net.mw3.size(); ++i) {
    net.mw3.data()[i] *= mask3_.data()[i];
  }
  net.b3 = params_[5].value();
  return net;
}

nn::Matrix Darn::HiddenForward(
    const FrozenNet& net, const std::vector<std::vector<int>>& codes) const {
  int n = static_cast<int>(codes[0].size());
  int h = config_.hidden_width;
  nn::Matrix h1(n, h);
  for (int r = 0; r < n; ++r) {
    double* hrow = h1.data() + static_cast<size_t>(r) * h;
    for (int j = 0; j < h; ++j) hrow[j] = net.b1.At(0, j);
    for (int col = 0; col < num_columns_; ++col) {
      int wrow =
          encoder_.offset(col) + codes[static_cast<size_t>(col)][static_cast<size_t>(r)];
      const double* src = net.mw1.data() + static_cast<size_t>(wrow) * h;
      for (int j = 0; j < h; ++j) hrow[j] += src[j];
    }
    for (int j = 0; j < h; ++j) hrow[j] = std::max(0.0, hrow[j]);
  }
  nn::Matrix h2 = MatMulValue(h1, net.mw2);
  for (int r = 0; r < n; ++r) {
    for (int j = 0; j < h; ++j) {
      h2.At(r, j) = std::max(0.0, h2.At(r, j) + net.b2.At(0, j));
    }
  }
  return h2;
}

nn::Matrix Darn::BlockProbs(const FrozenNet& net, const nn::Matrix& h2,
                            int col) const {
  int n = h2.rows();
  int h = config_.hidden_width;
  int k = encoder_.cardinality(col);
  int off = encoder_.offset(col);
  nn::Matrix probs(n, k);
  for (int r = 0; r < n; ++r) {
    double mx = -1e300;
    for (int u = 0; u < k; ++u) {
      double z = net.b3.At(0, off + u);
      for (int j = 0; j < h; ++j) z += h2.At(r, j) * net.mw3.At(j, off + u);
      probs.At(r, u) = z;
      mx = std::max(mx, z);
    }
    double sum = 0.0;
    for (int u = 0; u < k; ++u) {
      double e = std::exp(probs.At(r, u) - mx);
      probs.At(r, u) = e;
      sum += e;
    }
    for (int u = 0; u < k; ++u) probs.At(r, u) /= sum;
  }
  return probs;
}

// Progressive sampling (Naru) for a whole batch: per column, sum the exact
// conditional mass of each query's allowed codes given each sampled prefix,
// then extend the prefix by sampling within the allowed set. All live
// queries' sample paths are rows of ONE matrix, so the frozen-weight copy
// and the per-column forward (layer-1 gather, GEMM to h2, output-block GEMM)
// are paid once per batch. Scratch comes from the thread's MatrixPool: a
// warm batch performs zero matrix heap allocations.
void Darn::SelectivityBatch(const workload::Query* queries, size_t n,
                            Rng* rngs, double* out, bool active_set) const {
  const int s = config_.progressive_samples;
  const int h = config_.hidden_width;
  const int m = num_columns_;
  const bool fast = active_set && ActiveSetSafe();

  // Queries with an unsatisfiable predicate answer 0 immediately and never
  // enter the path matrix — in particular they consume no RNG draws, which
  // their (per-query) streams would tolerate anyway but the path rows would
  // waste.
  std::vector<size_t> live;
  live.reserve(n);
  std::vector<std::vector<std::pair<int, int>>> ranges;
  ranges.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto r = encoder_.AllowedRanges(queries[i]);
    bool empty = false;
    for (const auto& pr : r) {
      if (pr.first > pr.second) {
        empty = true;
        break;
      }
    }
    if (empty) {
      out[i] = 0.0;
      continue;
    }
    live.push_back(i);
    ranges.push_back(std::move(r));
  }
  if (live.empty()) return;

  const int live_n = static_cast<int>(live.size());
  const int rows = live_n * s;
  // Pad to a multiple of 4 rows: every row then runs inside a full 4-row
  // GEMM register panel (kernels.h), never in the differently-rounded
  // ScalarRowTail, so a row's bits do not depend on the batch size. Pad rows
  // carry code 0 (a valid input) and their outputs are ignored.
  const int padded = (rows + 3) & ~3;

  nn::MatrixPool& pool = nn::MatrixPool::Local();
  // Masked weights in pooled buffers (Freeze() would heap-allocate copies);
  // biases are unmasked, so plain references suffice.
  auto masked = [&pool](const nn::Matrix& w, const nn::Matrix& mask) {
    nn::Matrix out_m = pool.Acquire(w.rows(), w.cols());
    const double* wp = w.data();
    const double* mp = mask.data();
    double* op = out_m.data();
    for (int64_t i = 0; i < w.size(); ++i) op[i] = wp[i] * mp[i];
    return out_m;
  };
  nn::Matrix mw1 = masked(params_[0].value(), mask1_);
  nn::Matrix mw2 = masked(params_[2].value(), mask2_);
  nn::Matrix mw3 = masked(params_[4].value(), mask3_);
  const nn::Matrix& b1 = params_[1].value();
  const nn::Matrix& b2 = params_[3].value();
  const nn::Matrix& b3 = params_[5].value();

  // codes(r, c): sampled prefix code of column c on path row r (exact small
  // ints stored as doubles so the buffer pools like any other scratch).
  nn::Matrix codes = pool.AcquireZeroed(padded, m);
  // Dense path: h1 holds the post-relu layer-1 activations, recomputed from
  // all m codes every column (the spec). Fast path: h1 instead holds the
  // PRE-activation prefix accumulator b1 + sum of the sampled columns'
  // embedding rows, extended by one row per column step. The two agree bit
  // for bit on every active unit: an active unit of output block `col` has
  // degree <= col, so mask1 cuts its view of columns >= col — the spec's
  // extra terms for those columns are exact +-0.0, which relu's
  // max(0.0, x) collapses to +0.0 either way. (Padding units DO read future
  // columns, but everything they feed is masked to +-0.0, and
  // finite * +-0.0 has the same bits whatever the finite factor is.)
  nn::Matrix h1 = pool.Acquire(padded, h);
  nn::Matrix h2 = pool.Acquire(padded, h);
  if (fast) {
    for (int r = 0; r < padded; ++r) {
      std::copy(b1.data(), b1.data() + h,
                h1.data() + static_cast<size_t>(r) * h);
    }
  }
  nn::Matrix weight = pool.Acquire(padded, 1);
  for (int r = 0; r < padded; ++r) weight(r, 0) = 1.0;

  int k_max = 0;
  for (int col = 0; col < m; ++col) {
    k_max = std::max(k_max, encoder_.cardinality(col));
  }
  nn::Matrix wcol = pool.Acquire(h, k_max);
  nn::Matrix bcol = pool.Acquire(1, k_max);
  nn::Matrix probs = pool.Acquire(padded, k_max);
  // Active-set scratch: gathered h1 columns and the active mw2/b2 slices.
  nn::Matrix h1a, w2a, b2a;
  if (fast) {
    h1a = pool.Acquire(padded, h);
    w2a = pool.Acquire(h, h);
    b2a = pool.Acquire(1, h);
  }

  for (int col = 0; col < m; ++col) {
    const int k = encoder_.cardinality(col);
    const int off = encoder_.offset(col);
    // Active hidden units for this output block (fast path). ua == 0 means
    // the block reads no hidden unit at all — its logits are exactly the
    // bias (every weight term is a masked zero), identical for all rows, so
    // one softmax row serves the whole batch.
    const std::vector<int>* act =
        fast ? &active_units_[static_cast<size_t>(col)] : nullptr;
    const int ua = fast ? static_cast<int>(act->size()) : h;
    const bool broadcast = fast && ua == 0;

    if (fast) {
      // Extend the prefix accumulator by the column sampled last step. The
      // element chains stay b1 + row_0 + row_1 + ... in ascending column
      // order — exactly the spec's summation order for the prefix terms.
      if (col > 0) {
        for (int r = 0; r < padded; ++r) {
          int wrow =
              encoder_.offset(col - 1) + static_cast<int>(codes(r, col - 1));
          const double* src = mw1.data() + static_cast<size_t>(wrow) * h;
          double* hrow = h1.data() + static_cast<size_t>(r) * h;
          for (int j = 0; j < h; ++j) hrow[j] += src[j];
        }
      }
    } else {
      // Layer 1 via embedding gathers: the one-hot input selects exactly one
      // row of the masked weight per column (same math as HiddenForward).
      for (int r = 0; r < padded; ++r) {
        double* hrow = h1.data() + static_cast<size_t>(r) * h;
        const double* b1p = b1.data();
        for (int j = 0; j < h; ++j) hrow[j] = b1p[j];
        for (int c = 0; c < m; ++c) {
          int wrow = encoder_.offset(c) + static_cast<int>(codes(r, c));
          const double* src = mw1.data() + static_cast<size_t>(wrow) * h;
          for (int j = 0; j < h; ++j) hrow[j] += src[j];
        }
        for (int j = 0; j < h; ++j) hrow[j] = std::max(0.0, hrow[j]);
      }
    }

    if (broadcast) {
      nn::Matrix pk = nn::Matrix::FromBuffer(probs.TakeBuffer(), padded, k);
      std::copy(b3.data() + off, b3.data() + off + k, pk.data());
      probs = std::move(pk);
    } else if (fast) {
      // Restricted forward: both GEMMs shrink to the active submatrix. The
      // skipped weight entries are exact zeros under mask2/mask3, and the
      // gathers keep ascending unit order, so each output element's
      // accumulation chain matches the dense path's nonzero terms exactly.
      // Gather + relu fused: h1 holds pre-activations here, and relu's
      // max(0.0, x) form maps both zero signs to +0.0 (see the h1 comment).
      nn::Matrix ha = nn::Matrix::FromBuffer(h1a.TakeBuffer(), padded, ua);
      for (int r = 0; r < padded; ++r) {
        const double* hrow = h1.data() + static_cast<size_t>(r) * h;
        double* arow = ha.data() + static_cast<size_t>(r) * ua;
        for (int i = 0; i < ua; ++i) {
          arow[i] = std::max(0.0, hrow[(*act)[static_cast<size_t>(i)]]);
        }
      }
      nn::Matrix w2s = nn::Matrix::FromBuffer(w2a.TakeBuffer(), ua, ua);
      nn::Matrix b2s = nn::Matrix::FromBuffer(b2a.TakeBuffer(), 1, ua);
      for (int i = 0; i < ua; ++i) {
        const double* src =
            mw2.data() + static_cast<size_t>((*act)[static_cast<size_t>(i)]) * h;
        double* dst = w2s.data() + static_cast<size_t>(i) * ua;
        for (int j = 0; j < ua; ++j) dst[j] = src[(*act)[static_cast<size_t>(j)]];
        b2s(0, i) = b2(0, (*act)[static_cast<size_t>(i)]);
      }
      nn::Matrix h2s = nn::Matrix::FromBuffer(h2.TakeBuffer(), padded, ua);
      nn::AffineInto(ha, w2s, b2s, /*relu=*/true, &h2s);

      nn::Matrix wk = nn::Matrix::FromBuffer(wcol.TakeBuffer(), ua, k);
      for (int i = 0; i < ua; ++i) {
        const double* src = mw3.data() +
                            static_cast<size_t>((*act)[static_cast<size_t>(i)]) *
                                mw3.cols() +
                            off;
        std::copy(src, src + k, wk.data() + static_cast<size_t>(i) * k);
      }
      nn::Matrix bk = nn::Matrix::FromBuffer(bcol.TakeBuffer(), 1, k);
      std::copy(b3.data() + off, b3.data() + off + k, bk.data());
      nn::Matrix pk = nn::Matrix::FromBuffer(probs.TakeBuffer(), padded, k);
      nn::AffineInto(h2s, wk, bk, /*relu=*/false, &pk);
      h1a = std::move(ha);
      w2a = std::move(w2s);
      b2a = std::move(b2s);
      h2 = std::move(h2s);
      wcol = std::move(wk);
      bcol = std::move(bk);
      probs = std::move(pk);
    } else {
      nn::AffineInto(h1, mw2, b2, /*relu=*/true, &h2);

      // Output block of `col` only: slice the h x k weight block into
      // contiguous scratch (GEMM wants it dense) and run one batched affine
      // for all paths of all queries.
      nn::Matrix wk = nn::Matrix::FromBuffer(wcol.TakeBuffer(), h, k);
      for (int j = 0; j < h; ++j) {
        const double* src = mw3.data() + static_cast<size_t>(j) * mw3.cols() + off;
        std::copy(src, src + k, wk.data() + static_cast<size_t>(j) * k);
      }
      nn::Matrix bk = nn::Matrix::FromBuffer(bcol.TakeBuffer(), 1, k);
      std::copy(b3.data() + off, b3.data() + off + k, bk.data());
      nn::Matrix pk = nn::Matrix::FromBuffer(probs.TakeBuffer(), padded, k);
      nn::AffineInto(h2, wk, bk, /*relu=*/false, &pk);
      wcol = std::move(wk);
      bcol = std::move(bk);
      probs = std::move(pk);
    }
    // Row-wise softmax (same order of operations as BlockProbs); a
    // broadcast column softmaxes its single shared row.
    const int soft_rows = broadcast ? 1 : padded;
    for (int r = 0; r < soft_rows; ++r) {
      double* prow = probs.data() + static_cast<size_t>(r) * probs.cols();
      double mx = -1e300;
      for (int u = 0; u < k; ++u) mx = std::max(mx, prow[u]);
      double sum = 0.0;
      for (int u = 0; u < k; ++u) {
        double e = std::exp(prow[u] - mx);
        prow[u] = e;
        sum += e;
      }
      for (int u = 0; u < k; ++u) prow[u] /= sum;
    }

    // Per-query mass/extend step. Each query draws only from its own stream
    // in (column, path) order — exactly the scalar draw order — so its
    // answer is untouched by whatever else shares the batch.
    for (int q = 0; q < live_n; ++q) {
      auto [lo, hi] = ranges[static_cast<size_t>(q)][static_cast<size_t>(col)];
      Rng& rng = rngs[live[static_cast<size_t>(q)]];
      for (int path = 0; path < s; ++path) {
        const int r = q * s + path;
        if (weight(r, 0) == 0.0) continue;
        const double* prow =
            probs.data() +
            static_cast<size_t>(broadcast ? 0 : r) * probs.cols();
        double mass = 0.0;
        for (int u = lo; u <= hi; ++u) mass += prow[u];
        weight(r, 0) *= mass;
        if (mass <= 0.0) {
          weight(r, 0) = 0.0;
          continue;
        }
        if (col + 1 < m) {
          double u01 = rng.Uniform(0.0, mass);
          double acc = 0.0;
          int chosen = hi;
          for (int u = lo; u <= hi; ++u) {
            acc += prow[u];
            if (u01 < acc) {
              chosen = u;
              break;
            }
          }
          codes(r, col) = static_cast<double>(chosen);
        }
      }
    }
  }

  for (int q = 0; q < live_n; ++q) {
    double total = 0.0;
    for (int path = 0; path < s; ++path) total += weight(q * s + path, 0);
    out[live[static_cast<size_t>(q)]] = total / static_cast<double>(s);
  }

  // Return the sliced scratch at its acquired shape so the next batch's
  // Acquire finds it under the same size key (the buffers' capacity never
  // shrank, so the resizes below cannot allocate).
  pool.Release(nn::Matrix::FromBuffer(probs.TakeBuffer(), padded, k_max));
  pool.Release(nn::Matrix::FromBuffer(bcol.TakeBuffer(), 1, k_max));
  pool.Release(nn::Matrix::FromBuffer(wcol.TakeBuffer(), h, k_max));
  if (fast) {
    pool.Release(nn::Matrix::FromBuffer(b2a.TakeBuffer(), 1, h));
    pool.Release(nn::Matrix::FromBuffer(w2a.TakeBuffer(), h, h));
    pool.Release(nn::Matrix::FromBuffer(h1a.TakeBuffer(), padded, h));
  }
  pool.Release(std::move(weight));
  pool.Release(nn::Matrix::FromBuffer(h2.TakeBuffer(), padded, h));
  pool.Release(std::move(h1));
  pool.Release(std::move(codes));
  pool.Release(std::move(mw3));
  pool.Release(std::move(mw2));
  pool.Release(std::move(mw1));
}

core::EstimateContext Darn::MakeEstimateContext(
    const workload::Query& query) const {
  return core::EstimateContext{
      Rng::ForStream(config_.seed, workload::QueryFingerprint(query))};
}

double Darn::EstimateSelectivity(const workload::Query& query) const {
  core::EstimateContext ctx = MakeEstimateContext(query);
  double sel = 0.0;
  SelectivityBatch(&query, 1, &ctx.rng, &sel, /*active_set=*/false);
  return sel;
}

double Darn::EstimateCardinality(const workload::Query& query) const {
  return EstimateSelectivity(query) * static_cast<double>(total_rows_);
}

StatusOr<double> Darn::TryEstimateCardinality(
    const workload::Query& query, core::EstimateContext* ctx) const {
  for (const auto& p : query.predicates) {
    if (p.column < 0 || p.column >= num_columns_) {
      return Status::InvalidArgument("predicate on out-of-range column " +
                                     std::to_string(p.column));
    }
  }
  double sel = 0.0;
  SelectivityBatch(&query, 1, &ctx->rng, &sel, /*active_set=*/false);
  return sel * static_cast<double>(total_rows_);
}

Status Darn::TryEstimateCardinalityBatch(
    const std::vector<workload::Query>& queries,
    std::vector<double>* out) const {
  for (size_t i = 0; i < queries.size(); ++i) {
    for (const auto& p : queries[i].predicates) {
      if (p.column < 0 || p.column >= num_columns_) {
        return Status::InvalidArgument(
            "query " + std::to_string(i) + ": predicate on out-of-range column " +
            std::to_string(p.column));
      }
    }
  }
  out->assign(queries.size(), 0.0);
  if (queries.empty()) return Status::OK();
  std::vector<Rng> rngs;
  rngs.reserve(queries.size());
  for (const auto& q : queries) rngs.push_back(MakeEstimateContext(q).rng);
  SelectivityBatch(queries.data(), queries.size(), rngs.data(), out->data(),
                   /*active_set=*/true);
  for (double& v : *out) v *= static_cast<double>(total_rows_);
  return Status::OK();
}

Status Darn::SaveState(io::Serializer* out) const {
  out->WriteU32(kDarnStateVersion);
  out->WriteI32(config_.hidden_width);
  out->WriteI32(config_.max_bins);
  out->WriteI32(config_.epochs);
  out->WriteI32(config_.batch_size);
  out->WriteDouble(config_.learning_rate);
  out->WriteI32(config_.progressive_samples);
  out->WriteU64(config_.seed);
  encoder_.SaveState(out);
  out->WriteI32(num_columns_);
  io::WriteParameters(out, params_);
  out->WriteI64(total_rows_);
  out->WriteRng(rng_);
  return Status::OK();
}

Status Darn::LoadState(io::Deserializer* in) {
  uint32_t version = in->ReadU32();
  if (in->ok() && version != kDarnStateVersion) {
    return Status::InvalidArgument("unsupported darn state version " +
                                   std::to_string(version));
  }
  config_.hidden_width = in->ReadI32();
  config_.max_bins = in->ReadI32();
  config_.epochs = in->ReadI32();
  config_.batch_size = in->ReadI32();
  config_.learning_rate = in->ReadDouble();
  config_.progressive_samples = in->ReadI32();
  config_.seed = in->ReadU64();
  encoder_ = DiscreteEncoder::Restore(in);
  num_columns_ = in->ReadI32();
  DDUP_RETURN_IF_ERROR(io::ReadParameters(in, kDarnParamCount, &params_));
  total_rows_ = in->ReadI64();
  in->ReadRng(&rng_);
  DDUP_RETURN_IF_ERROR(in->status());
  if (num_columns_ != encoder_.num_columns()) {
    return Status::InvalidArgument("darn encoder column count mismatch");
  }
  int h = config_.hidden_width;
  int total = encoder_.total_cardinality();
  if (h < 1 || num_columns_ < 1 || config_.batch_size < 1 ||
      config_.progressive_samples < 1) {
    return Status::InvalidArgument("darn checkpoint config is inconsistent");
  }
  DDUP_RETURN_IF_ERROR(io::CheckParameterShapes(
      params_,
      {{total, h}, {1, h}, {h, h}, {1, h}, {h, total}, {1, total}}));
  BuildMasks(num_columns_);
  return Status::OK();
}

Status Darn::SaveToFile(const std::string& path) const {
  io::Serializer state;
  DDUP_RETURN_IF_ERROR(SaveState(&state));
  return io::WriteSectionFile(path, kCheckpointKind, state.Take());
}

StatusOr<std::unique_ptr<Darn>> Darn::Restore(io::Deserializer* in) {
  std::unique_ptr<Darn> model(new Darn());
  DDUP_RETURN_IF_ERROR(model->LoadState(in));
  return model;
}

StatusOr<std::unique_ptr<Darn>> Darn::LoadFromFile(const std::string& path) {
  StatusOr<std::string> payload = io::ReadSectionFile(path, kCheckpointKind);
  if (!payload.ok()) return payload.status();
  io::Deserializer in(std::move(payload).value());
  StatusOr<std::unique_ptr<Darn>> model = Restore(&in);
  if (!model.ok()) return model;
  Status st = in.Finish();
  if (!st.ok()) return st;
  return model;
}

double Darn::JointProbability(const std::vector<int>& encoded_row) const {
  DDUP_CHECK(static_cast<int>(encoded_row.size()) == num_columns_);
  FrozenNet net = Freeze();
  std::vector<std::vector<int>> codes(static_cast<size_t>(num_columns_),
                                      std::vector<int>(1, 0));
  double p = 1.0;
  for (int col = 0; col < num_columns_; ++col) {
    nn::Matrix h2 = HiddenForward(net, codes);
    nn::Matrix probs = BlockProbs(net, h2, col);
    p *= probs.At(0, encoded_row[static_cast<size_t>(col)]);
    codes[static_cast<size_t>(col)][0] = encoded_row[static_cast<size_t>(col)];
  }
  return p;
}

}  // namespace ddup::models
