#include "nn/elementwise.h"

#include <cstddef>

#include "common/status.h"

// Built with -ffp-contract=off (src/CMakeLists.txt): see elementwise.h.

namespace ddup::nn {

namespace {

template <BinaryOp Op>
inline double Apply(double x, double y) {
  if constexpr (Op == BinaryOp::kAdd) {
    return x + y;
  } else if constexpr (Op == BinaryOp::kSub) {
    return x - y;
  } else {
    return x * y;
  }
}

// Row r of the right operand under broadcast K (cols entries, or one for a
// scalar).
template <BroadcastKind K>
inline const double* RightRow(const Matrix& b, int r, int cols) {
  if constexpr (K == BroadcastKind::kSame) {
    return b.data() + static_cast<size_t>(r) * cols;
  } else {
    return b.data();
  }
}

template <BinaryOp Op, BroadcastKind K>
void Forward(const Matrix& a, const Matrix& b, Matrix* out) {
  const int rows = a.rows();
  const int cols = a.cols();
  for (int r = 0; r < rows; ++r) {
    const double* __restrict x = a.data() + static_cast<size_t>(r) * cols;
    const double* __restrict y = RightRow<K>(b, r, cols);
    double* __restrict o = out->data() + static_cast<size_t>(r) * cols;
    if constexpr (K == BroadcastKind::kScalar) {
      const double s = y[0];
      for (int c = 0; c < cols; ++c) o[c] = Apply<Op>(x[c], s);
    } else {
      for (int c = 0; c < cols; ++c) o[c] = Apply<Op>(x[c], y[c]);
    }
  }
}

// ga += d(a op b)/da * g. For Add/Sub that is g itself, for Mul g * b.
template <BinaryOp Op, BroadcastKind K>
void BackwardA(const Matrix& g, const Matrix& b, Matrix* ga) {
  const int rows = g.rows();
  const int cols = g.cols();
  for (int r = 0; r < rows; ++r) {
    const double* __restrict gr = g.data() + static_cast<size_t>(r) * cols;
    double* __restrict out = ga->data() + static_cast<size_t>(r) * cols;
    if constexpr (Op != BinaryOp::kMul) {
      for (int c = 0; c < cols; ++c) out[c] += gr[c];
    } else if constexpr (K == BroadcastKind::kScalar) {
      const double s = b.data()[0];
      for (int c = 0; c < cols; ++c) out[c] += gr[c] * s;
    } else {
      const double* __restrict y = RightRow<K>(b, r, cols);
      for (int c = 0; c < cols; ++c) out[c] += gr[c] * y[c];
    }
  }
}

// The per-element b-term: g for Add, -g for Sub (g * -1 is exact), g * a
// for Mul.
template <BinaryOp Op>
inline double TermB(double g, double x) {
  if constexpr (Op == BinaryOp::kAdd) {
    return g;
  } else if constexpr (Op == BinaryOp::kSub) {
    return -g;
  } else {
    return g * x;
  }
}

// gb += the b-terms, reduced over the broadcast: per element (same), per
// column over rows in ascending order (row), or over all elements in
// row-major order (scalar) — the naive loop's accumulation order.
template <BinaryOp Op, BroadcastKind K>
void BackwardB(const Matrix& g, const Matrix& a, Matrix* gb) {
  const int rows = g.rows();
  const int cols = g.cols();
  if constexpr (K == BroadcastKind::kScalar) {
    double acc = gb->data()[0];
    for (int r = 0; r < rows; ++r) {
      const double* gr = g.data() + static_cast<size_t>(r) * cols;
      const double* x = a.data() + static_cast<size_t>(r) * cols;
      for (int c = 0; c < cols; ++c) acc += TermB<Op>(gr[c], x[c]);
    }
    gb->data()[0] = acc;
    return;
  }
  for (int r = 0; r < rows; ++r) {
    const double* __restrict gr = g.data() + static_cast<size_t>(r) * cols;
    const double* __restrict x = a.data() + static_cast<size_t>(r) * cols;
    const size_t offset =
        K == BroadcastKind::kSame ? static_cast<size_t>(r) * cols : 0;
    double* __restrict out = gb->data() + offset;
    for (int c = 0; c < cols; ++c) out[c] += TermB<Op>(gr[c], x[c]);
  }
}

template <BinaryOp Op, BroadcastKind K>
void Backward(const Matrix& g, const Matrix& a, const Matrix& b, Matrix* ga,
              Matrix* gb) {
  if (ga != nullptr) BackwardA<Op, K>(g, b, ga);
  if (gb != nullptr) BackwardB<Op, K>(g, a, gb);
}

template <BinaryOp Op>
void ForwardFor(BroadcastKind kind, const Matrix& a, const Matrix& b,
                Matrix* out) {
  switch (kind) {
    case BroadcastKind::kSame:
      return Forward<Op, BroadcastKind::kSame>(a, b, out);
    case BroadcastKind::kRow:
      return Forward<Op, BroadcastKind::kRow>(a, b, out);
    case BroadcastKind::kScalar:
      return Forward<Op, BroadcastKind::kScalar>(a, b, out);
  }
}

template <BinaryOp Op>
void BackwardFor(BroadcastKind kind, const Matrix& g, const Matrix& a,
                 const Matrix& b, Matrix* ga, Matrix* gb) {
  switch (kind) {
    case BroadcastKind::kSame:
      return Backward<Op, BroadcastKind::kSame>(g, a, b, ga, gb);
    case BroadcastKind::kRow:
      return Backward<Op, BroadcastKind::kRow>(g, a, b, ga, gb);
    case BroadcastKind::kScalar:
      return Backward<Op, BroadcastKind::kScalar>(g, a, b, ga, gb);
  }
}

}  // namespace

BroadcastKind CheckBroadcast(const Matrix& a, const Matrix& b) {
  if (a.rows() == b.rows() && a.cols() == b.cols()) return BroadcastKind::kSame;
  if (b.rows() == 1 && b.cols() == a.cols()) return BroadcastKind::kRow;
  if (b.rows() == 1 && b.cols() == 1) return BroadcastKind::kScalar;
  DDUP_CHECK_MSG(false, "incompatible broadcast shapes " + a.ShapeString() +
                            " vs " + b.ShapeString());
  return BroadcastKind::kSame;
}

void BinaryForward(BinaryOp op, BroadcastKind kind, const Matrix& a,
                   const Matrix& b, Matrix* out) {
  switch (op) {
    case BinaryOp::kAdd:
      return ForwardFor<BinaryOp::kAdd>(kind, a, b, out);
    case BinaryOp::kSub:
      return ForwardFor<BinaryOp::kSub>(kind, a, b, out);
    case BinaryOp::kMul:
      return ForwardFor<BinaryOp::kMul>(kind, a, b, out);
  }
}

void BinaryBackward(BinaryOp op, BroadcastKind kind, const Matrix& g,
                    const Matrix& a, const Matrix& b, Matrix* ga, Matrix* gb) {
  switch (op) {
    case BinaryOp::kAdd:
      return BackwardFor<BinaryOp::kAdd>(kind, g, a, b, ga, gb);
    case BinaryOp::kSub:
      return BackwardFor<BinaryOp::kSub>(kind, g, a, b, ga, gb);
    case BinaryOp::kMul:
      return BackwardFor<BinaryOp::kMul>(kind, g, a, b, ga, gb);
  }
}

}  // namespace ddup::nn
