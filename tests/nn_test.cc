#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "nn/gradcheck.h"
#include "nn/kernels.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/optim.h"
#include "nn/pool.h"
#include "nn/serialize.h"

namespace ddup::nn {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6);
  m.At(1, 2) = 4.0;
  EXPECT_DOUBLE_EQ(m.At(1, 2), 4.0);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 1.5);
}

TEST(MatrixTest, TransposeRoundTrip) {
  Rng rng(1);
  Matrix m = Matrix::Randn(rng, 3, 5);
  Matrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 5);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_TRUE(t.Transpose().AllClose(m));
}

TEST(MatrixTest, MatMulKnownValues) {
  Matrix a(2, 2);
  a.At(0, 0) = 1; a.At(0, 1) = 2; a.At(1, 0) = 3; a.At(1, 1) = 4;
  Matrix b(2, 2);
  b.At(0, 0) = 5; b.At(0, 1) = 6; b.At(1, 0) = 7; b.At(1, 1) = 8;
  Matrix c = MatMulValue(a, b);
  EXPECT_DOUBLE_EQ(c.At(0, 0), 19);
  EXPECT_DOUBLE_EQ(c.At(0, 1), 22);
  EXPECT_DOUBLE_EQ(c.At(1, 0), 43);
  EXPECT_DOUBLE_EQ(c.At(1, 1), 50);
}

TEST(MatrixTest, IdentityMatMul) {
  Rng rng(2);
  Matrix m = Matrix::Randn(rng, 4, 4);
  EXPECT_TRUE(MatMulValue(m, Matrix::Identity(4)).AllClose(m));
}

TEST(AutogradTest, ScalarChainRule) {
  // f = mean((2x)^2) with x scalar: df/dx = 8x.
  Variable x = Parameter(Matrix::Constant(1, 1, 3.0));
  Variable y = Mean(Square(Scale(x, 2.0)));
  EXPECT_DOUBLE_EQ(y.value().At(0, 0), 36.0);
  Backward(y);
  EXPECT_DOUBLE_EQ(x.grad().At(0, 0), 24.0);
}

TEST(AutogradTest, GradientsAccumulateAcrossBackwards) {
  Variable x = Parameter(Matrix::Constant(1, 1, 1.0));
  Variable y1 = Scale(x, 3.0);
  Backward(y1);
  Variable y2 = Scale(x, 5.0);
  Backward(y2);
  EXPECT_DOUBLE_EQ(x.grad().At(0, 0), 8.0);
  x.ZeroGrad();
  EXPECT_DOUBLE_EQ(x.grad().At(0, 0), 0.0);
}

TEST(AutogradTest, DetachBlocksGradient) {
  Variable x = Parameter(Matrix::Constant(1, 1, 2.0));
  Variable y = Mean(Mul(Detach(x), x));  // d/dx = detached value = 2
  Backward(y);
  EXPECT_DOUBLE_EQ(x.grad().At(0, 0), 2.0);
}

TEST(AutogradTest, DiamondGraphSumsPaths) {
  // y = x*x + x*x through two separate Mul nodes sharing x.
  Variable x = Parameter(Matrix::Constant(1, 1, 3.0));
  Variable y = Mean(Add(Mul(x, x), Mul(x, x)));
  Backward(y);
  EXPECT_DOUBLE_EQ(y.value().At(0, 0), 18.0);
  EXPECT_DOUBLE_EQ(x.grad().At(0, 0), 12.0);
}

// ---------------------------------------------------------------------------
// Parameterized finite-difference gradient checks for every differentiable op.
// ---------------------------------------------------------------------------

struct OpCase {
  std::string name;
  // Builds a scalar loss from the given parameters.
  std::function<Variable(std::vector<Variable>&)> loss;
  int num_params = 1;
  int rows = 3, cols = 4;
  // Some ops need positive inputs (Log) — shift into safe range.
  double shift = 0.0;
};

class GradCheckTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(GradCheckTest, MatchesFiniteDifferences) {
  const OpCase& c = GetParam();
  Rng rng(99);
  std::vector<Variable> params;
  for (int i = 0; i < c.num_params; ++i) {
    Matrix m = Matrix::Randn(rng, c.rows, c.cols, 0.5);
    if (c.shift != 0.0) {
      for (int64_t j = 0; j < m.size(); ++j) {
        m.data()[j] = std::fabs(m.data()[j]) + c.shift;
      }
    }
    params.push_back(Parameter(m));
  }
  auto loss_fn = [&]() { return GetParam().loss(params); };
  double err = MaxGradientError(loss_fn, &params, 1e-5);
  EXPECT_LT(err, 1e-6) << "op " << c.name;
}

std::vector<OpCase> AllOpCases() {
  std::vector<OpCase> cases;
  auto unary = [&](const std::string& name, auto op, double shift = 0.0) {
    OpCase c;
    c.name = name;
    c.shift = shift;
    c.loss = [op](std::vector<Variable>& p) { return Mean(op(p[0])); };
    cases.push_back(c);
  };
  unary("tanh", [](const Variable& v) { return Tanh(v); });
  unary("sigmoid", [](const Variable& v) { return Sigmoid(v); });
  unary("exp", [](const Variable& v) { return Exp(v); });
  unary("log", [](const Variable& v) { return Log(v); }, 0.5);
  unary("softplus", [](const Variable& v) { return Softplus(v); });
  unary("square", [](const Variable& v) { return Square(v); });
  unary("reciprocal", [](const Variable& v) { return Reciprocal(v); }, 0.5);
  unary("scale", [](const Variable& v) { return Scale(v, -2.5); });
  unary("add_scalar", [](const Variable& v) { return AddScalar(v, 1.5); });
  unary("neg", [](const Variable& v) { return Neg(v); });
  // Relu is non-differentiable at 0; shift away from it.
  unary("relu", [](const Variable& v) { return Relu(v); }, 0.1);
  unary("softmax", [](const Variable& v) { return Mean(Square(Softmax(v))); });
  unary("log_softmax",
        [](const Variable& v) { return Mean(Square(LogSoftmax(v))); });
  unary("logsumexp", [](const Variable& v) { return Mean(LogSumExp(v)); });
  unary("sum", [](const Variable& v) { return Sum(v); });
  unary("rowsum", [](const Variable& v) { return Mean(Square(RowSum(v))); });
  unary("slice",
        [](const Variable& v) { return Mean(Square(SliceCols(v, 1, 2))); });

  {
    OpCase c;
    c.name = "matmul";
    c.num_params = 2;
    c.rows = 4;
    c.cols = 4;
    c.loss = [](std::vector<Variable>& p) {
      return Mean(Square(MatMul(p[0], p[1])));
    };
    cases.push_back(c);
  }
  auto binary = [&](const std::string& name, auto op) {
    OpCase c;
    c.name = name;
    c.num_params = 2;
    c.loss = [op](std::vector<Variable>& p) {
      return Mean(Square(op(p[0], p[1])));
    };
    cases.push_back(c);
  };
  binary("add", [](const Variable& a, const Variable& b) { return Add(a, b); });
  binary("sub", [](const Variable& a, const Variable& b) { return Sub(a, b); });
  binary("mul", [](const Variable& a, const Variable& b) { return Mul(a, b); });
  {
    OpCase c;
    c.name = "add_row_broadcast";
    c.num_params = 1;
    c.loss = [](std::vector<Variable>& p) {
      // Use the first row of p0 via Rows as the broadcast operand.
      Variable b = Rows(p[0], {0});
      return Mean(Square(Add(p[0], b)));
    };
    cases.push_back(c);
  }
  {
    OpCase c;
    c.name = "mul_scalar_broadcast";
    c.num_params = 2;
    c.loss = [](std::vector<Variable>& p) {
      Variable s = Mean(p[1]);  // 1x1
      return Mean(Square(Mul(p[0], s)));
    };
    cases.push_back(c);
  }
  {
    OpCase c;
    c.name = "broadcast_col";
    c.loss = [](std::vector<Variable>& p) {
      Variable col = RowSum(p[0]);  // N x 1
      return Mean(Square(BroadcastCol(col, 5)));
    };
    cases.push_back(c);
  }
  {
    OpCase c;
    c.name = "concat";
    c.num_params = 2;
    c.loss = [](std::vector<Variable>& p) {
      return Mean(Square(ConcatCols({p[0], p[1]})));
    };
    cases.push_back(c);
  }
  {
    OpCase c;
    c.name = "rows_gather";
    c.loss = [](std::vector<Variable>& p) {
      // Gather with a duplicate to exercise scatter-add.
      return Mean(Square(Rows(p[0], {0, 2, 0})));
    };
    cases.push_back(c);
  }
  {
    OpCase c;
    c.name = "pick_cols";
    c.loss = [](std::vector<Variable>& p) {
      return Mean(Square(PickCols(p[0], {1, 0, 3})));
    };
    cases.push_back(c);
  }
  {
    OpCase c;
    c.name = "softmax_cross_entropy";
    c.loss = [](std::vector<Variable>& p) {
      return SoftmaxCrossEntropy(p[0], {1, 0, 3});
    };
    cases.push_back(c);
  }
  {
    OpCase c;
    c.name = "mse";
    c.num_params = 2;
    c.loss = [](std::vector<Variable>& p) { return MseLoss(p[0], p[1]); };
    cases.push_back(c);
  }
  {
    // The teacher side is detached inside DistillCrossEntropy, so it must be
    // a fixed constant here (perturbing it would change the loss while the
    // analytic gradient is zero by design).
    OpCase c;
    c.name = "distill_ce";
    Rng teacher_rng(123);
    Matrix teacher = Matrix::Randn(teacher_rng, 3, 4, 0.5);
    c.loss = [teacher](std::vector<Variable>& p) {
      return DistillCrossEntropy(p[0], Constant(teacher), 2.0);
    };
    cases.push_back(c);
  }
  {
    OpCase c;
    c.name = "mlp_like_composition";
    c.num_params = 2;
    c.rows = 4;
    c.cols = 4;
    c.loss = [](std::vector<Variable>& p) {
      Variable h = Relu(AddScalar(MatMul(p[0], p[1]), 0.3));
      return Mean(Square(Tanh(h)));
    };
    cases.push_back(c);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, GradCheckTest, ::testing::ValuesIn(AllOpCases()),
    [](const ::testing::TestParamInfo<OpCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Fused affine kernels (Affine / AffineRelu) and the MatrixPool.
// ---------------------------------------------------------------------------

TEST(FusedOpsTest, AffineMatchesUnfusedGraph) {
  Rng rng(40);
  Matrix xm = Matrix::Randn(rng, 5, 3);
  Matrix wm = Matrix::Randn(rng, 3, 7);
  Matrix bm = Matrix::Randn(rng, 1, 7);
  Variable fused = Affine(Constant(xm), Constant(wm), Constant(bm));
  Variable unfused = Add(MatMul(Constant(xm), Constant(wm)), Constant(bm));
  EXPECT_TRUE(fused.value().AllClose(unfused.value(), 1e-12));
}

TEST(FusedOpsTest, AffineReluMatchesUnfusedGraph) {
  Rng rng(41);
  Matrix xm = Matrix::Randn(rng, 6, 4);
  Matrix wm = Matrix::Randn(rng, 4, 9);
  Matrix bm = Matrix::Randn(rng, 1, 9);
  Variable fused = AffineRelu(Constant(xm), Constant(wm), Constant(bm));
  Variable unfused =
      Relu(Add(MatMul(Constant(xm), Constant(wm)), Constant(bm)));
  EXPECT_TRUE(fused.value().AllClose(unfused.value(), 1e-12));
  for (int64_t i = 0; i < fused.value().size(); ++i) {
    EXPECT_GE(fused.value().data()[i], 0.0);
  }
}

TEST(FusedOpsTest, AffineGradcheck) {
  Rng rng(42);
  std::vector<Variable> params = {Parameter(Matrix::Randn(rng, 3, 4, 0.5)),
                                  Parameter(Matrix::Randn(rng, 4, 5, 0.5)),
                                  Parameter(Matrix::Randn(rng, 1, 5, 0.5))};
  auto loss_fn = [&]() {
    return Mean(Square(Affine(params[0], params[1], params[2])));
  };
  EXPECT_LT(MaxGradientError(loss_fn, &params, 1e-5), 1e-6);
}

TEST(FusedOpsTest, AffineReluGradcheck) {
  Rng rng(43);
  std::vector<Variable> params = {Parameter(Matrix::Randn(rng, 3, 4, 0.5)),
                                  Parameter(Matrix::Randn(rng, 4, 5, 0.5)),
                                  Parameter(Matrix::Randn(rng, 1, 5, 0.5))};
  auto loss_fn = [&]() {
    return Mean(Square(AffineRelu(params[0], params[1], params[2])));
  };
  EXPECT_LT(MaxGradientError(loss_fn, &params, 1e-5), 1e-6);
}

TEST(FusedOpsTest, AffineGradientsMatchUnfusedGraph) {
  Rng rng(44);
  Matrix xm = Matrix::Randn(rng, 5, 3);
  Matrix wm = Matrix::Randn(rng, 3, 6);
  Matrix bm = Matrix::Randn(rng, 1, 6);

  Variable x1 = Parameter(xm), w1 = Parameter(wm), b1 = Parameter(bm);
  Backward(Mean(Square(AffineRelu(x1, w1, b1))));
  Variable x2 = Parameter(xm), w2 = Parameter(wm), b2 = Parameter(bm);
  Backward(Mean(Square(Relu(Add(MatMul(x2, w2), b2)))));

  EXPECT_TRUE(x1.grad().AllClose(x2.grad(), 1e-12));
  EXPECT_TRUE(w1.grad().AllClose(w2.grad(), 1e-12));
  EXPECT_TRUE(b1.grad().AllClose(b2.grad(), 1e-12));
}

TEST(KernelsTest, GemmAccumulateAddsIntoOutput) {
  Rng rng(45);
  Matrix a = Matrix::Randn(rng, 5, 6);
  Matrix b = Matrix::Randn(rng, 6, 7);
  Matrix expect = MatMulValue(a, b);
  for (int64_t i = 0; i < expect.size(); ++i) expect.data()[i] *= 2.0;
  Matrix c(5, 7);
  GemmInto(a, b, /*accumulate=*/false, &c);
  GemmInto(a, b, /*accumulate=*/true, &c);
  EXPECT_TRUE(c.AllClose(expect, 1e-9));
}

TEST(KernelsTest, OddShapesHitEveryEdgePath) {
  // Shapes straddling the 16/8/4-wide tile boundaries of every variant.
  Rng rng(46);
  for (int n : {1, 2, 3, 5, 17}) {
    for (int m : {1, 3, 7, 9, 19, 33}) {
      Matrix a = Matrix::Randn(rng, n, 11);
      Matrix b = Matrix::Randn(rng, 11, m);
      Matrix naive(n, m, 0.0);
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < m; ++j) {
          for (int k = 0; k < 11; ++k) naive.At(i, j) += a.At(i, k) * b.At(k, j);
        }
      }
      EXPECT_TRUE(MatMulValue(a, b).AllClose(naive, 1e-9))
          << n << "x11x" << m;
    }
  }
}

TEST(MatrixPoolTest, ReusesReleasedBuffers) {
  MatrixPool& pool = MatrixPool::Local();
  Matrix m = pool.Acquire(13, 17);
  const double* raw = m.data();
  pool.Release(std::move(m));
  Matrix n = pool.Acquire(13, 17);
  EXPECT_EQ(n.data(), raw);  // same backing buffer came back
  EXPECT_EQ(n.rows(), 13);
  EXPECT_EQ(n.cols(), 17);
  pool.Release(std::move(n));
}

TEST(MatrixPoolTest, AcquireZeroedClearsRecycledContents) {
  MatrixPool& pool = MatrixPool::Local();
  Matrix m = pool.Acquire(4, 4);
  m.Fill(7.0);
  pool.Release(std::move(m));
  Matrix z = pool.AcquireZeroed(4, 4);
  EXPECT_DOUBLE_EQ(z.MaxAbs(), 0.0);
  pool.Release(std::move(z));
}

TEST(MatrixPoolTest, TrainingStepsStopAllocatingOnceWarm) {
  Rng rng(47);
  Mlp mlp({8, 16, 4}, rng);
  std::vector<Variable> params;
  mlp.CollectParameters(&params);
  Variable x = Constant(Matrix::Randn(rng, 32, 8));
  auto step = [&]() {
    for (auto& p : params) p.ZeroGrad();
    Variable loss = Mean(Square(mlp.Forward(x)));
    Backward(loss);
  };
  // Two warm-up steps: the first populates the pool, the second raises the
  // cache to the steady-state peak (backward scratch overlaps differently
  // once the forward runs from recycled buffers).
  step();
  step();
  MatrixPool::Counters before = MatrixPool::Local().counters();
  step();
  MatrixPool::Counters after = MatrixPool::Local().counters();
  EXPECT_GT(after.acquires, before.acquires);
  EXPECT_EQ(after.heap_allocs, before.heap_allocs);  // all reuse, no malloc
}

// ---------------------------------------------------------------------------
// Differential tests of the typed elementwise kernels (nn/elementwise.h),
// GatherSum and Adam against naive references. Comparisons are memcmp: the
// kernels promise the reference's bits, not values within a tolerance.

// A product rounded to a double before it is used, so that the compiler
// cannot contract it into a following add.
double Rounded(double x) {
  volatile double v = x;
  return v;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(double)) == 0;
}

enum class ElemOp { kAdd, kSub, kMul };
enum class GradOn { kA, kB, kBoth, kSameNode };

Variable ApplyOp(ElemOp op, const Variable& a, const Variable& b) {
  switch (op) {
    case ElemOp::kAdd:
      return Add(a, b);
    case ElemOp::kSub:
      return Sub(a, b);
    case ElemOp::kMul:
      return Mul(a, b);
  }
  return Variable();
}

// The naive per-element loop the typed kernels replace: forward value and,
// for upstream gradient g, the a/b gradient terms accumulated element by
// element (a-term first) into ga/gb, which may alias.
void NaiveBinary(ElemOp op, const Matrix& a, const Matrix& b, const Matrix& g,
                 Matrix* out, Matrix* ga, Matrix* gb) {
  auto bget = [&](int r, int c) {
    if (b.rows() == a.rows() && b.cols() == a.cols()) return b.At(r, c);
    return b.rows() == 1 && b.cols() == a.cols() ? b.At(0, c) : b.At(0, 0);
  };
  auto bslot = [&](Matrix* m, int r, int c) -> double& {
    if (b.rows() == a.rows() && b.cols() == a.cols()) return m->At(r, c);
    return b.rows() == 1 && b.cols() == a.cols() ? m->At(0, c) : m->At(0, 0);
  };
  *out = Matrix(a.rows(), a.cols());
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      const double x = a.At(r, c), y = bget(r, c);
      out->At(r, c) = op == ElemOp::kAdd   ? x + y
                      : op == ElemOp::kSub ? x - y
                                           : Rounded(x * y);
      const double gv = g.At(r, c);
      if (ga != nullptr) {
        ga->At(r, c) += op == ElemOp::kMul ? Rounded(gv * y) : gv;
      }
      if (gb != nullptr) {
        const double term = op == ElemOp::kAdd   ? gv
                            : op == ElemOp::kSub ? -gv
                                                 : Rounded(gv * x);
        bslot(gb, r, c) += term;
      }
    }
  }
}

// Seeds a node's gradient buffer with `init` (the accumulate-into-existing
// case every multi-consumer node hits).
void SeedGrad(const Variable& v, const Matrix& init) {
  v.node()->EnsureGrad();
  std::copy(init.data(), init.data() + init.size(), v.node()->grad.data());
}

TEST(ElementwiseKernelTest, MatchesNaiveLoopBitForBit) {
  Rng rng(1234);
  const int rows = 7, cols = 11;  // odd widths exercise the vector tails
  const std::pair<int, int> b_shapes[] = {{rows, cols}, {1, cols}, {1, 1}};
  for (ElemOp op : {ElemOp::kAdd, ElemOp::kSub, ElemOp::kMul}) {
    for (auto [br, bc] : b_shapes) {
      for (GradOn on : {GradOn::kA, GradOn::kB, GradOn::kBoth,
                        GradOn::kSameNode}) {
        if (on == GradOn::kSameNode && br != rows) continue;
        SCOPED_TRACE(testing::Message()
                     << "op " << static_cast<int>(op) << " b " << br << "x"
                     << bc << " grad-on " << static_cast<int>(on));
        const Matrix av = Matrix::Randn(rng, rows, cols);
        const Matrix bv = Matrix::Randn(rng, br, bc);
        const Matrix g = Matrix::Randn(rng, rows, cols);
        const Matrix ga0 = Matrix::Randn(rng, rows, cols);
        const Matrix gb0 = Matrix::Randn(rng, br, bc);
        const bool need_a = on != GradOn::kB;
        const bool need_b = on == GradOn::kB || on == GradOn::kBoth;
        Variable a(av, need_a);
        Variable b = on == GradOn::kSameNode ? a : Variable(bv, need_b);
        if (need_a) SeedGrad(a, ga0);
        if (need_b) SeedGrad(b, gb0);
        Variable out = ApplyOp(op, a, b);
        ASSERT_TRUE(out.node()->backward);
        SeedGrad(out, g);
        out.node()->backward(*out.node());

        Matrix ref_out, ref_ga = ga0, ref_gb = gb0;
        NaiveBinary(op, av, on == GradOn::kSameNode ? av : bv, g, &ref_out,
                    need_a ? &ref_ga : nullptr,
                    on == GradOn::kSameNode ? &ref_ga
                                            : (need_b ? &ref_gb : nullptr));
        EXPECT_TRUE(SameBits(out.value(), ref_out));
        if (need_a) {
          EXPECT_TRUE(SameBits(a.grad(), ref_ga));
        }
        if (need_b) {
          EXPECT_TRUE(SameBits(b.grad(), ref_gb));
        }
      }
    }
  }
}

TEST(ElementwiseKernelTest, NodeConsumedTwiceAccumulatesRoundedProducts) {
  // t = a * b feeds two Mul consumers (TVAE's pattern): t's gradient is
  // G*d, then + G*c, each product rounded before it is added.
  Rng rng(99);
  const Matrix av = Matrix::Randn(rng, 5, 9), bv = Matrix::Randn(rng, 1, 9);
  const Matrix cv = Matrix::Randn(rng, 5, 9), dv = Matrix::Randn(rng, 1, 1);
  const Matrix g = Matrix::Randn(rng, 5, 9);
  Variable a = Parameter(av);
  Variable t = Mul(a, Constant(bv));
  Variable u = Add(Mul(t, Constant(cv)), Mul(t, Constant(dv)));
  Backward(Sum(Mul(u, Constant(g))));

  Matrix ref(5, 9);
  for (int r = 0; r < 5; ++r) {
    for (int c = 0; c < 9; ++c) {
      // Later-created consumer first: Mul(t, d) runs its backward before
      // Mul(t, c).
      double tg = 0.0 + Rounded(g.At(r, c) * dv.At(0, 0));
      tg += Rounded(g.At(r, c) * cv.At(r, c));
      ref.At(r, c) = 0.0 + Rounded(tg * bv.At(0, c));
    }
  }
  EXPECT_TRUE(SameBits(a.grad(), ref));
}

TEST(GatherSumTest, MatchesRowsAddChainWithRepeatedIndices) {
  Rng rng(5);
  const Matrix tv = Matrix::Randn(rng, 6, 13);
  const std::vector<std::vector<int>> idx = {
      {0, 3, 3, 5, 1, 0, 2, 3, 4},
      {3, 3, 1, 1, 0, 5, 5, 2, 3},
      {2, 0, 3, 4, 4, 4, 1, 0, 3}};
  const Matrix g = Matrix::Randn(rng, 9, 13);

  Variable fused_table = Parameter(tv);
  Variable fused = GatherSum(fused_table, idx);
  Backward(Sum(Mul(fused, Constant(g))));

  Variable chain_table = Parameter(tv);
  Variable chain;
  for (size_t k = 0; k < idx.size(); ++k) {
    Variable rows = Rows(chain_table, idx[k]);
    chain = k == 0 ? rows : Add(chain, rows);
  }
  Backward(Sum(Mul(chain, Constant(g))));

  EXPECT_TRUE(SameBits(fused.value(), chain.value()));
  EXPECT_TRUE(SameBits(fused_table.grad(), chain_table.grad()));
}

TEST(AdamTest, StepMatchesScalarReferenceLoop) {
  Rng rng(77);
  const double lr = 3e-3, beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  std::vector<Variable> params = {Parameter(Matrix::Randn(rng, 9, 13)),
                                  Parameter(Matrix::Randn(rng, 1, 13)),
                                  Parameter(Matrix::Randn(rng, 3, 3))};
  std::vector<Matrix> value, m, v;
  for (const auto& p : params) {
    value.push_back(p.value());
    m.push_back(Matrix::Zeros(p.rows(), p.cols()));
    v.push_back(Matrix::Zeros(p.rows(), p.cols()));
  }
  Adam opt(params, lr, beta1, beta2, eps);
  for (int t = 1; t <= 10; ++t) {
    for (size_t i = 0; i < params.size(); ++i) {
      SeedGrad(params[i], Matrix::Randn(rng, params[i].rows(),
                                        params[i].cols(), 0.1 * t));
    }
    opt.Step();
    const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(t));
    const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(t));
    for (size_t i = 0; i < params.size(); ++i) {
      const Matrix& g = params[i].grad();
      for (int64_t j = 0; j < g.size(); ++j) {
        double gj = g.data()[j];
        m[i].data()[j] = beta1 * m[i].data()[j] + (1.0 - beta1) * gj;
        v[i].data()[j] = beta2 * v[i].data()[j] + (1.0 - beta2) * gj * gj;
        double mhat = m[i].data()[j] / bc1;
        double vhat = v[i].data()[j] / bc2;
        value[i].data()[j] -= lr * mhat / (std::sqrt(vhat) + eps);
      }
      EXPECT_TRUE(SameBits(params[i].value(), value[i])) << "step " << t;
    }
  }
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Rng rng(3);
  Variable x = Constant(Matrix::Randn(rng, 5, 7, 3.0));
  Variable s = Softmax(x);
  for (int r = 0; r < 5; ++r) {
    double sum = 0.0;
    for (int c = 0; c < 7; ++c) {
      double v = s.value().At(r, c);
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(OpsTest, LogSumExpMatchesNaive) {
  Variable x = Constant(Matrix::Constant(1, 3, 1.0));
  EXPECT_NEAR(LogSumExp(x).value().At(0, 0), std::log(3.0) + 1.0, 1e-12);
}

TEST(OpsTest, InferenceWithConstantsBuildsNoBackwardGraph) {
  Rng rng(4);
  Variable a = Constant(Matrix::Randn(rng, 2, 2));
  Variable b = Constant(Matrix::Randn(rng, 2, 2));
  Variable c = MatMul(a, b);
  EXPECT_FALSE(c.requires_grad());
  EXPECT_TRUE(c.node()->parents.empty());
}

TEST(OpsTest, DistillCrossEntropyMinimizedAtTeacher) {
  // CE(student, teacher) >= CE(teacher, teacher) (cross-entropy >= entropy).
  Rng rng(5);
  Matrix t = Matrix::Randn(rng, 4, 6);
  Variable teacher = Constant(t);
  Variable same = Constant(t);
  Variable other = Constant(Matrix::Randn(rng, 4, 6));
  double ce_same = DistillCrossEntropy(same, teacher, 1.0).value().At(0, 0);
  double ce_other = DistillCrossEntropy(other, teacher, 1.0).value().At(0, 0);
  EXPECT_LT(ce_same, ce_other);
}

TEST(LayersTest, LinearShapesAndParams) {
  Rng rng(6);
  Linear l(5, 3, rng);
  Variable x = Constant(Matrix::Randn(rng, 7, 5));
  Variable y = l.Forward(x);
  EXPECT_EQ(y.rows(), 7);
  EXPECT_EQ(y.cols(), 3);
  std::vector<Variable> params;
  l.CollectParameters(&params);
  EXPECT_EQ(params.size(), 2u);
}

TEST(LayersTest, MaskedLinearRespectsMask) {
  Rng rng(7);
  // Mask that zeroes the connection from input 0 to all outputs.
  Matrix mask = Matrix::Constant(2, 3, 1.0);
  for (int c = 0; c < 3; ++c) mask.At(0, c) = 0.0;
  MaskedLinear l(2, 3, mask, rng);
  Matrix x1(1, 2, 0.0);
  x1.At(0, 0) = 100.0;  // only the masked input differs
  Matrix x2(1, 2, 0.0);
  Variable y1 = l.Forward(Constant(x1));
  Variable y2 = l.Forward(Constant(x2));
  EXPECT_TRUE(y1.value().AllClose(y2.value(), 1e-12));
}

TEST(LayersTest, MlpForwardAndGradientFlow) {
  Rng rng(8);
  Mlp mlp({4, 8, 2}, rng);
  std::vector<Variable> params;
  mlp.CollectParameters(&params);
  EXPECT_EQ(params.size(), 4u);
  Variable x = Constant(Matrix::Randn(rng, 3, 4));
  Variable loss = Mean(Square(mlp.Forward(x)));
  Backward(loss);
  bool any_nonzero = false;
  for (auto& p : params) {
    if (!p.grad().empty() && p.grad().MaxAbs() > 0) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(OptimTest, SgdConvergesOnQuadratic) {
  Variable x = Parameter(Matrix::Constant(1, 1, 5.0));
  Sgd opt({x}, 0.1);
  for (int i = 0; i < 200; ++i) {
    opt.ZeroGrad();
    Variable loss = Mean(Square(x));
    Backward(loss);
    opt.Step();
  }
  EXPECT_NEAR(x.value().At(0, 0), 0.0, 1e-6);
}

TEST(OptimTest, AdamRecoversLinearRegression) {
  Rng rng(9);
  // y = X w* + b*, recover w*, b*.
  Matrix w_true(3, 1);
  w_true.At(0, 0) = 1.5; w_true.At(1, 0) = -2.0; w_true.At(2, 0) = 0.5;
  Matrix x = Matrix::Randn(rng, 64, 3);
  Matrix y = MatMulValue(x, w_true);
  for (int r = 0; r < 64; ++r) y.At(r, 0) += 0.7;  // bias

  Variable w = Parameter(Matrix::Zeros(3, 1));
  Variable b = Parameter(Matrix::Zeros(1, 1));
  Adam opt({w, b}, 0.05);
  for (int i = 0; i < 500; ++i) {
    opt.ZeroGrad();
    Variable pred = Add(MatMul(Constant(x), w), b);
    Variable loss = MseLoss(pred, Constant(y));
    Backward(loss);
    opt.Step();
  }
  EXPECT_NEAR(w.value().At(0, 0), 1.5, 0.02);
  EXPECT_NEAR(w.value().At(1, 0), -2.0, 0.02);
  EXPECT_NEAR(w.value().At(2, 0), 0.5, 0.02);
  EXPECT_NEAR(b.value().At(0, 0), 0.7, 0.02);
}

TEST(OptimTest, MomentumAcceleratesDescent) {
  auto run = [](double momentum) {
    Variable x = Parameter(Matrix::Constant(1, 1, 5.0));
    Sgd opt({x}, 0.01, momentum);
    for (int i = 0; i < 50; ++i) {
      opt.ZeroGrad();
      Variable loss = Mean(Square(x));
      Backward(loss);
      opt.Step();
    }
    return std::fabs(x.value().At(0, 0));
  };
  EXPECT_LT(run(0.9), run(0.0));
}

TEST(SnapshotTest, SnapshotAndRestoreRoundTrip) {
  Rng rng(10);
  Variable a = Parameter(Matrix::Randn(rng, 2, 2));
  Variable b = Parameter(Matrix::Randn(rng, 1, 4));
  std::vector<Variable> params = {a, b};
  auto snap = SnapshotValues(params);
  Matrix orig_a = a.value();
  a.mutable_value().Fill(0.0);
  RestoreValues(snap, &params);
  EXPECT_TRUE(a.value().AllClose(orig_a));
}

TEST(SnapshotTest, AsConstantsFreezesValues) {
  Rng rng(11);
  Variable p = Parameter(Matrix::Randn(rng, 2, 2));
  auto frozen = AsConstants({p});
  EXPECT_FALSE(frozen[0].requires_grad());
  EXPECT_TRUE(frozen[0].value().AllClose(p.value()));
  p.mutable_value().Fill(0.0);  // teacher must not follow the student
  EXPECT_GT(frozen[0].value().MaxAbs(), 0.0);
}

TEST(SerializeTest, SaveLoadRoundTrip) {
  Rng rng(12);
  std::vector<Variable> params = {Parameter(Matrix::Randn(rng, 3, 4)),
                                  Parameter(Matrix::Randn(rng, 1, 2))};
  auto snap = SnapshotValues(params);
  std::string path = ::testing::TempDir() + "/ddup_params.bin";
  ASSERT_TRUE(SaveParameters(params, path).ok());
  for (auto& p : params) p.mutable_value().Fill(0.0);
  ASSERT_TRUE(LoadParameters(path, &params).ok());
  EXPECT_TRUE(params[0].value().AllClose(snap[0]));
  EXPECT_TRUE(params[1].value().AllClose(snap[1]));
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadRejectsShapeMismatch) {
  Rng rng(13);
  std::vector<Variable> params = {Parameter(Matrix::Randn(rng, 3, 4))};
  std::string path = ::testing::TempDir() + "/ddup_params2.bin";
  ASSERT_TRUE(SaveParameters(params, path).ok());
  std::vector<Variable> other = {Parameter(Matrix::Randn(rng, 4, 3))};
  Status st = LoadParameters(path, &other);
  EXPECT_FALSE(st.ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadRejectsMissingFile) {
  std::vector<Variable> params = {Parameter(Matrix::Zeros(1, 1))};
  EXPECT_FALSE(LoadParameters("/nonexistent/ddup.bin", &params).ok());
}

}  // namespace
}  // namespace ddup::nn
