#ifndef DDUP_NN_ELEMENTWISE_H_
#define DDUP_NN_ELEMENTWISE_H_

#include "nn/matrix.h"

namespace ddup::nn {

// Typed kernels behind the Add / Sub / Mul ops (ops.h). Each (op, broadcast)
// pair is its own contiguous row loop; the entry points below dispatch once
// per call instead of once per element.
//
// Exactness contract (DESIGN.md §6b): every result is bit-identical to the
// naive per-element loop in which each product is rounded to a double before
// it is added. This file is compiled with -ffp-contract=off
// (src/CMakeLists.txt) so that no `acc += g * y` is fused into an FMA, and
// the reductions into row / scalar broadcast gradients run r-major, in the
// order the naive loop visits the elements.

enum class BinaryOp { kAdd, kSub, kMul };

// How the right operand maps onto the left one: same shape, a 1xC row
// broadcast over rows, or a 1x1 scalar.
enum class BroadcastKind { kSame, kRow, kScalar };

// The broadcast kind of (a, b); CHECK-fails on incompatible shapes.
BroadcastKind CheckBroadcast(const Matrix& a, const Matrix& b);

// out = a op b, out shaped like a.
void BinaryForward(BinaryOp op, BroadcastKind kind, const Matrix& a,
                   const Matrix& b, Matrix* out);

// Accumulates the gradients of out = a op b given dout = `g`: ga += da,
// then gb += db. Either may be null (that input needs no gradient); they
// may alias when a and b are the same node (then kind is kSame and each
// element receives its a-term before its b-term).
void BinaryBackward(BinaryOp op, BroadcastKind kind, const Matrix& g,
                    const Matrix& a, const Matrix& b, Matrix* ga, Matrix* gb);

}  // namespace ddup::nn

#endif  // DDUP_NN_ELEMENTWISE_H_
