#include "nn/ops.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/status.h"
#include "nn/elementwise.h"
#include "nn/kernels.h"
#include "nn/pool.h"

namespace ddup::nn {

namespace {

bool AnyRequiresGrad(const std::vector<std::shared_ptr<Node>>& parents) {
  for (const auto& p : parents) {
    if (p->requires_grad) return true;
  }
  return false;
}

// Builds a node for `value` with the given parents. `make_backward` is only
// invoked when some parent participates in differentiation.
template <typename BackwardFactory>
Variable MakeNode(Matrix value, std::vector<std::shared_ptr<Node>> parents,
                  BackwardFactory&& make_backward) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  if (AnyRequiresGrad(parents)) {
    node->requires_grad = true;
    node->parents = std::move(parents);
    node->backward = make_backward();
  }
  return Variable::Wrap(std::move(node));
}

// Elementwise unary op: value[i] = f(a[i]); da[i] += grad[i] * dfda(a[i], out[i]).
template <typename F, typename DF>
Variable UnaryOp(const Variable& a, F f, DF dfda) {
  const Matrix& av = a.value();
  Matrix out = MatrixPool::Local().Acquire(av.rows(), av.cols());
  for (int64_t i = 0; i < av.size(); ++i) out.data()[i] = f(av.data()[i]);
  auto pa = a.node();
  return MakeNode(std::move(out), {pa}, [pa, dfda]() {
    return [pa, dfda](Node& n) {
      pa->EnsureGrad();
      const Matrix& av = pa->value;
      for (int64_t i = 0; i < av.size(); ++i) {
        pa->grad.data()[i] +=
            n.grad.data()[i] * dfda(av.data()[i], n.value.data()[i]);
      }
    };
  });
}

}  // namespace

namespace {

// Shared backward of MatMul / Affine / AffineRelu. `dout` is the gradient
// w.r.t. the pre-bias product x*w (already relu-masked by the caller when
// applicable); accumulates into whichever of x / w / bias require gradients.
// The transposes go through pooled scratch buffers so the backward pass, like
// the forward, performs no heap allocation in steady state.
void MatMulBackward(const std::shared_ptr<Node>& px,
                    const std::shared_ptr<Node>& pw,
                    const std::shared_ptr<Node>& pbias, const Matrix& dout) {
  MatrixPool& pool = MatrixPool::Local();
  if (px->requires_grad) {
    px->EnsureGrad();
    // dX += dOut * W^T
    Matrix wt = pool.Acquire(pw->value.cols(), pw->value.rows());
    TransposeInto(pw->value, &wt);
    GemmInto(dout, wt, /*accumulate=*/true, &px->grad);
    pool.Release(std::move(wt));
  }
  if (pw->requires_grad) {
    pw->EnsureGrad();
    // dW += X^T * dOut
    Matrix xt = pool.Acquire(px->value.cols(), px->value.rows());
    TransposeInto(px->value, &xt);
    GemmInto(xt, dout, /*accumulate=*/true, &pw->grad);
    pool.Release(std::move(xt));
  }
  if (pbias != nullptr && pbias->requires_grad) {
    pbias->EnsureGrad();
    // dB += column sums of dOut (the row broadcast's adjoint).
    ColSumInto(dout, /*accumulate=*/true, &pbias->grad);
  }
}

Variable AffineImpl(const Variable& x, const Variable& w, const Variable& b,
                    bool relu) {
  const Matrix& bv = b.value();
  DDUP_CHECK_MSG(bv.rows() == 1 && bv.cols() == w.value().cols(),
                 "affine bias must be 1 x out_features");
  Matrix out = MatrixPool::Local().Acquire(x.rows(), w.cols());
  AffineInto(x.value(), w.value(), bv, relu, &out);
  auto px = x.node(), pw = w.node(), pb = b.node();
  return MakeNode(std::move(out), {px, pw, pb}, [px, pw, pb, relu]() {
    return [px, pw, pb, relu](Node& n) {
      if (!relu) {
        MatMulBackward(px, pw, pb, n.grad);
        return;
      }
      // Mask the incoming gradient by the post-relu activation sign.
      MatrixPool& pool = MatrixPool::Local();
      Matrix masked = pool.Acquire(n.grad.rows(), n.grad.cols());
      const double* g = n.grad.data();
      const double* y = n.value.data();
      double* o = masked.data();
      for (int64_t i = 0; i < n.grad.size(); ++i) {
        o[i] = y[i] > 0.0 ? g[i] : 0.0;
      }
      MatMulBackward(px, pw, pb, masked);
      pool.Release(std::move(masked));
    };
  });
}

}  // namespace

Variable MatMul(const Variable& a, const Variable& b) {
  Matrix out = MatrixPool::Local().Acquire(a.rows(), b.cols());
  GemmInto(a.value(), b.value(), /*accumulate=*/false, &out);
  auto pa = a.node(), pb = b.node();
  return MakeNode(std::move(out), {pa, pb}, [pa, pb]() {
    return [pa, pb](Node& n) {
      MatMulBackward(pa, pb, /*pbias=*/nullptr, n.grad);
    };
  });
}

Variable Affine(const Variable& x, const Variable& w, const Variable& b) {
  return AffineImpl(x, w, b, /*relu=*/false);
}

Variable AffineRelu(const Variable& x, const Variable& w, const Variable& b) {
  return AffineImpl(x, w, b, /*relu=*/true);
}

namespace {

Variable BinaryBroadcastOp(const Variable& a, const Variable& b, BinaryOp op) {
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  const BroadcastKind kind = CheckBroadcast(av, bv);
  Matrix out = MatrixPool::Local().Acquire(av.rows(), av.cols());
  BinaryForward(op, kind, av, bv, &out);
  auto pa = a.node(), pb = b.node();
  return MakeNode(std::move(out), {pa, pb}, [pa, pb, op, kind]() {
    return [pa, pb, op, kind](Node& n) {
      if (pa->requires_grad) pa->EnsureGrad();
      if (pb->requires_grad) pb->EnsureGrad();
      BinaryBackward(op, kind, n.grad, pa->value, pb->value,
                     pa->requires_grad ? &pa->grad : nullptr,
                     pb->requires_grad ? &pb->grad : nullptr);
    };
  });
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  return BinaryBroadcastOp(a, b, BinaryOp::kAdd);
}

Variable Sub(const Variable& a, const Variable& b) {
  return BinaryBroadcastOp(a, b, BinaryOp::kSub);
}

Variable Mul(const Variable& a, const Variable& b) {
  return BinaryBroadcastOp(a, b, BinaryOp::kMul);
}

Variable Neg(const Variable& a) { return Scale(a, -1.0); }

Variable Scale(const Variable& a, double s) {
  return UnaryOp(
      a, [s](double x) { return s * x; },
      [s](double, double) { return s; });
}

Variable AddScalar(const Variable& a, double s) {
  return UnaryOp(
      a, [s](double x) { return x + s; }, [](double, double) { return 1.0; });
}

Variable Relu(const Variable& a) {
  return UnaryOp(
      a, [](double x) { return x > 0.0 ? x : 0.0; },
      [](double x, double) { return x > 0.0 ? 1.0 : 0.0; });
}

Variable Tanh(const Variable& a) {
  return UnaryOp(
      a, [](double x) { return std::tanh(x); },
      [](double, double y) { return 1.0 - y * y; });
}

Variable Sigmoid(const Variable& a) {
  return UnaryOp(
      a, [](double x) { return 1.0 / (1.0 + std::exp(-x)); },
      [](double, double y) { return y * (1.0 - y); });
}

Variable Exp(const Variable& a) {
  return UnaryOp(
      a, [](double x) { return std::exp(x); },
      [](double, double y) { return y; });
}

Variable Log(const Variable& a) {
  return UnaryOp(
      a, [](double x) { return std::log(x); },
      [](double x, double) { return 1.0 / x; });
}

Variable Softplus(const Variable& a) {
  return UnaryOp(
      a,
      [](double x) {
        // Stable: log(1+e^x) = max(x,0) + log1p(e^{-|x|}).
        return std::max(x, 0.0) + std::log1p(std::exp(-std::fabs(x)));
      },
      [](double x, double) { return 1.0 / (1.0 + std::exp(-x)); });
}

Variable Square(const Variable& a) {
  return UnaryOp(
      a, [](double x) { return x * x; },
      [](double x, double) { return 2.0 * x; });
}

Variable Reciprocal(const Variable& a) {
  return UnaryOp(
      a, [](double x) { return 1.0 / x; },
      [](double, double y) { return -y * y; });
}

namespace {

// Row-wise log-sum-exp, computed stably: lse[r] = max + log sum exp(a - max).
// Shared by LogSoftmax/LogSumExp (Softmax computes the probabilities too).
void RowLse(const Matrix& a, std::vector<double>* lse) {
  lse->resize(static_cast<size_t>(a.rows()));
  for (int r = 0; r < a.rows(); ++r) {
    double mx = a.At(r, 0);
    for (int c = 1; c < a.cols(); ++c) mx = std::max(mx, a.At(r, c));
    double sum = 0.0;
    for (int c = 0; c < a.cols(); ++c) sum += std::exp(a.At(r, c) - mx);
    (*lse)[static_cast<size_t>(r)] = mx + std::log(sum);
  }
}

// Row-wise softmax probabilities of `a` into `probs`, expressed on the same
// stable core as RowLse: probs[r][c] = exp(a[r][c] - lse[r]).
void RowSoftmax(const Matrix& a, Matrix* probs) {
  std::vector<double> lse;
  RowLse(a, &lse);
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      probs->At(r, c) = std::exp(a.At(r, c) - lse[static_cast<size_t>(r)]);
    }
  }
}

}  // namespace

Variable Softmax(const Variable& a) {
  const Matrix& av = a.value();
  DDUP_CHECK(av.cols() >= 1);
  Matrix probs = MatrixPool::Local().Acquire(av.rows(), av.cols());
  RowSoftmax(av, &probs);
  auto pa = a.node();
  return MakeNode(std::move(probs), {pa}, [pa]() {
    return [pa](Node& n) {
      pa->EnsureGrad();
      const Matrix& y = n.value;
      for (int r = 0; r < y.rows(); ++r) {
        double dot = 0.0;
        for (int c = 0; c < y.cols(); ++c) dot += n.grad.At(r, c) * y.At(r, c);
        for (int c = 0; c < y.cols(); ++c) {
          pa->grad.At(r, c) += y.At(r, c) * (n.grad.At(r, c) - dot);
        }
      }
    };
  });
}

Variable LogSoftmax(const Variable& a) {
  const Matrix& av = a.value();
  DDUP_CHECK(av.cols() >= 1);
  std::vector<double> lse;
  RowLse(av, &lse);
  Matrix out = MatrixPool::Local().Acquire(av.rows(), av.cols());
  for (int r = 0; r < av.rows(); ++r) {
    for (int c = 0; c < av.cols(); ++c) {
      out.At(r, c) = av.At(r, c) - lse[static_cast<size_t>(r)];
    }
  }
  auto pa = a.node();
  return MakeNode(std::move(out), {pa}, [pa]() {
    return [pa](Node& n) {
      pa->EnsureGrad();
      for (int r = 0; r < n.value.rows(); ++r) {
        double gsum = 0.0;
        for (int c = 0; c < n.value.cols(); ++c) gsum += n.grad.At(r, c);
        for (int c = 0; c < n.value.cols(); ++c) {
          double y = std::exp(n.value.At(r, c));  // softmax prob
          pa->grad.At(r, c) += n.grad.At(r, c) - y * gsum;
        }
      }
    };
  });
}

Variable LogSumExp(const Variable& a) {
  const Matrix& av = a.value();
  DDUP_CHECK(av.cols() >= 1);
  std::vector<double> lse;
  RowLse(av, &lse);
  Matrix out = MatrixPool::Local().Acquire(av.rows(), 1);
  for (int r = 0; r < av.rows(); ++r) out.At(r, 0) = lse[static_cast<size_t>(r)];
  auto pa = a.node();
  return MakeNode(std::move(out), {pa}, [pa]() {
    return [pa](Node& n) {
      pa->EnsureGrad();
      // d(lse)/d(a) is the softmax probability exp(a - lse); recompute it
      // from the input and this node's value instead of caching a buffer
      // across the forward/backward gap (which would pin pool memory).
      const Matrix& av = pa->value;
      for (int r = 0; r < av.rows(); ++r) {
        double g = n.grad.At(r, 0);
        double row_lse = n.value.At(r, 0);
        for (int c = 0; c < av.cols(); ++c) {
          pa->grad.At(r, c) += g * std::exp(av.At(r, c) - row_lse);
        }
      }
    };
  });
}

Variable Sum(const Variable& a) {
  Matrix out(1, 1, a.value().Sum());
  auto pa = a.node();
  return MakeNode(std::move(out), {pa}, [pa]() {
    return [pa](Node& n) {
      pa->EnsureGrad();
      double g = n.grad.At(0, 0);
      for (int64_t i = 0; i < pa->grad.size(); ++i) pa->grad.data()[i] += g;
    };
  });
}

Variable Mean(const Variable& a) {
  DDUP_CHECK(a.value().size() > 0);
  double inv = 1.0 / static_cast<double>(a.value().size());
  Matrix out(1, 1, a.value().Sum() * inv);
  auto pa = a.node();
  return MakeNode(std::move(out), {pa}, [pa, inv]() {
    return [pa, inv](Node& n) {
      pa->EnsureGrad();
      double g = n.grad.At(0, 0) * inv;
      for (int64_t i = 0; i < pa->grad.size(); ++i) pa->grad.data()[i] += g;
    };
  });
}

Variable RowSum(const Variable& a) {
  const Matrix& av = a.value();
  Matrix out = MatrixPool::Local().AcquireZeroed(av.rows(), 1);
  for (int r = 0; r < av.rows(); ++r) {
    for (int c = 0; c < av.cols(); ++c) out.At(r, 0) += av.At(r, c);
  }
  auto pa = a.node();
  return MakeNode(std::move(out), {pa}, [pa]() {
    return [pa](Node& n) {
      pa->EnsureGrad();
      for (int r = 0; r < pa->grad.rows(); ++r) {
        double g = n.grad.At(r, 0);
        for (int c = 0; c < pa->grad.cols(); ++c) pa->grad.At(r, c) += g;
      }
    };
  });
}

Variable BroadcastCol(const Variable& a, int m) {
  const Matrix& av = a.value();
  DDUP_CHECK_MSG(av.cols() == 1, "BroadcastCol expects an Nx1 input");
  Matrix out = MatrixPool::Local().Acquire(av.rows(), m);
  for (int r = 0; r < av.rows(); ++r) {
    for (int c = 0; c < m; ++c) out.At(r, c) = av.At(r, 0);
  }
  auto pa = a.node();
  return MakeNode(std::move(out), {pa}, [pa]() {
    return [pa](Node& n) {
      pa->EnsureGrad();
      for (int r = 0; r < n.grad.rows(); ++r) {
        double g = 0.0;
        for (int c = 0; c < n.grad.cols(); ++c) g += n.grad.At(r, c);
        pa->grad.At(r, 0) += g;
      }
    };
  });
}

Variable ConcatCols(const std::vector<Variable>& parts) {
  DDUP_CHECK(!parts.empty());
  int rows = parts[0].rows();
  int total = 0;
  for (const auto& p : parts) {
    DDUP_CHECK(p.rows() == rows);
    total += p.cols();
  }
  Matrix out = MatrixPool::Local().Acquire(rows, total);
  std::vector<int> offsets;
  int off = 0;
  for (const auto& p : parts) {
    offsets.push_back(off);
    const Matrix& pv = p.value();
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < pv.cols(); ++c) out.At(r, off + c) = pv.At(r, c);
    }
    off += pv.cols();
  }
  std::vector<std::shared_ptr<Node>> parents;
  for (const auto& p : parts) parents.push_back(p.node());
  return MakeNode(std::move(out), parents, [parents, offsets]() {
    return [parents, offsets](Node& n) {
      for (size_t i = 0; i < parents.size(); ++i) {
        auto& p = parents[i];
        if (!p->requires_grad) continue;
        p->EnsureGrad();
        int off = offsets[i];
        for (int r = 0; r < p->grad.rows(); ++r) {
          for (int c = 0; c < p->grad.cols(); ++c) {
            p->grad.At(r, c) += n.grad.At(r, off + c);
          }
        }
      }
    };
  });
}

Variable SliceCols(const Variable& a, int begin, int len) {
  const Matrix& av = a.value();
  DDUP_CHECK(begin >= 0 && len >= 0 && begin + len <= av.cols());
  Matrix out = MatrixPool::Local().Acquire(av.rows(), len);
  for (int r = 0; r < av.rows(); ++r) {
    for (int c = 0; c < len; ++c) out.At(r, c) = av.At(r, begin + c);
  }
  auto pa = a.node();
  return MakeNode(std::move(out), {pa}, [pa, begin]() {
    return [pa, begin](Node& n) {
      pa->EnsureGrad();
      for (int r = 0; r < n.grad.rows(); ++r) {
        for (int c = 0; c < n.grad.cols(); ++c) {
          pa->grad.At(r, begin + c) += n.grad.At(r, c);
        }
      }
    };
  });
}

Variable Rows(const Variable& table, const std::vector<int>& idx) {
  const Matrix& tv = table.value();
  Matrix out = MatrixPool::Local().Acquire(static_cast<int>(idx.size()), tv.cols());
  for (size_t i = 0; i < idx.size(); ++i) {
    DDUP_CHECK(idx[i] >= 0 && idx[i] < tv.rows());
    for (int c = 0; c < tv.cols(); ++c) {
      out.At(static_cast<int>(i), c) = tv.At(idx[i], c);
    }
  }
  auto pt = table.node();
  return MakeNode(std::move(out), {pt}, [pt, idx]() {
    return [pt, idx](Node& n) {
      pt->EnsureGrad();
      for (size_t i = 0; i < idx.size(); ++i) {
        for (int c = 0; c < n.grad.cols(); ++c) {
          pt->grad.At(idx[i], c) += n.grad.At(static_cast<int>(i), c);
        }
      }
    };
  });
}

Variable GatherSum(const Variable& table,
                   const std::vector<std::vector<int>>& idx) {
  DDUP_CHECK(!idx.empty());
  const Matrix& tv = table.value();
  const int n = static_cast<int>(idx[0].size());
  const int d = tv.cols();
  for (const auto& list : idx) {
    DDUP_CHECK(static_cast<int>(list.size()) == n);
    for (int i : list) DDUP_CHECK(i >= 0 && i < tv.rows());
  }
  Matrix out = MatrixPool::Local().Acquire(n, d);
  for (int r = 0; r < n; ++r) {
    double* __restrict o = out.data() + static_cast<size_t>(r) * d;
    const double* src = tv.data() + static_cast<size_t>(idx[0][r]) * d;
    std::copy(src, src + d, o);
    for (size_t k = 1; k < idx.size(); ++k) {
      const double* __restrict t =
          tv.data() + static_cast<size_t>(idx[k][static_cast<size_t>(r)]) * d;
      for (int c = 0; c < d; ++c) o[c] += t[c];
    }
  }
  auto pt = table.node();
  return MakeNode(std::move(out), {pt}, [pt, idx]() {
    return [pt, idx](Node& n) {
      pt->EnsureGrad();
      const int d = n.grad.cols();
      // The Rows + Add chain backpropagates its last gather first.
      for (size_t k = idx.size(); k-- > 0;) {
        const std::vector<int>& list = idx[k];
        for (size_t r = 0; r < list.size(); ++r) {
          const double* __restrict g = n.grad.data() + r * d;
          double* __restrict t =
              pt->grad.data() + static_cast<size_t>(list[r]) * d;
          for (int c = 0; c < d; ++c) t[c] += g[c];
        }
      }
    };
  });
}

Variable PickCols(const Variable& a, const std::vector<int>& idx) {
  const Matrix& av = a.value();
  DDUP_CHECK(static_cast<int>(idx.size()) == av.rows());
  Matrix out = MatrixPool::Local().Acquire(av.rows(), 1);
  for (int r = 0; r < av.rows(); ++r) {
    DDUP_CHECK(idx[static_cast<size_t>(r)] >= 0 &&
               idx[static_cast<size_t>(r)] < av.cols());
    out.At(r, 0) = av.At(r, idx[static_cast<size_t>(r)]);
  }
  auto pa = a.node();
  return MakeNode(std::move(out), {pa}, [pa, idx]() {
    return [pa, idx](Node& n) {
      pa->EnsureGrad();
      for (int r = 0; r < n.grad.rows(); ++r) {
        pa->grad.At(r, idx[static_cast<size_t>(r)]) += n.grad.At(r, 0);
      }
    };
  });
}

Variable Detach(const Variable& a) { return Constant(a.value()); }

Variable TargetLogProbs(const Variable& logits,
                        const std::vector<int>& targets) {
  return PickCols(LogSoftmax(logits), targets);
}

Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int>& targets) {
  return Neg(Mean(TargetLogProbs(logits, targets)));
}

Variable MseLoss(const Variable& a, const Variable& b) {
  DDUP_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  return Mean(Square(Sub(a, b)));
}

Variable DistillCrossEntropy(const Variable& student_logits,
                             const Variable& teacher_logits,
                             double temperature) {
  DDUP_CHECK(temperature > 0.0);
  DDUP_CHECK(student_logits.rows() == teacher_logits.rows() &&
             student_logits.cols() == teacher_logits.cols());
  Variable t_probs = Softmax(Scale(Detach(teacher_logits), 1.0 / temperature));
  Variable s_logp = LogSoftmax(Scale(student_logits, 1.0 / temperature));
  Variable per_row = Neg(RowSum(Mul(s_logp, Detach(t_probs))));
  return Mean(per_row);
}

}  // namespace ddup::nn
