#ifndef DDUP_NN_OPS_H_
#define DDUP_NN_OPS_H_

#include <vector>

#include "nn/autograd.h"

namespace ddup::nn {

// Differentiable operations. All functions build graph nodes; gradients flow
// to any input with requires_grad (directly or transitively). When no input
// requires a gradient the node is created without a backward closure, so
// inference-only paths pay no autodiff cost.

// C = A * B  (NxK * KxM -> NxM).
Variable MatMul(const Variable& a, const Variable& b);

// Fused y = x * w + b with b a 1xM row broadcast over rows. One kernel call
// in the forward pass (kernels.h) instead of a MatMul node plus an Add node;
// the backward accumulates dX, dW and db directly with the same kernels.
Variable Affine(const Variable& x, const Variable& w, const Variable& b);
// Fused relu(x * w + b): the hidden-layer step of the MDN/DARN/TVAE nets.
Variable AffineRelu(const Variable& x, const Variable& w, const Variable& b);

// Elementwise a + b. `b` may be 1xC (broadcast over rows) or 1x1 (scalar).
Variable Add(const Variable& a, const Variable& b);
// Elementwise a - b (same broadcast rules as Add).
Variable Sub(const Variable& a, const Variable& b);
// Elementwise a * b (same broadcast rules as Add).
Variable Mul(const Variable& a, const Variable& b);

Variable Neg(const Variable& a);
Variable Scale(const Variable& a, double s);
Variable AddScalar(const Variable& a, double s);

Variable Relu(const Variable& a);
Variable Tanh(const Variable& a);
Variable Sigmoid(const Variable& a);
Variable Exp(const Variable& a);
// Natural log; inputs must be positive.
Variable Log(const Variable& a);
// log(1 + exp(a)), computed stably.
Variable Softplus(const Variable& a);
Variable Square(const Variable& a);
// 1 / a; inputs must be nonzero.
Variable Reciprocal(const Variable& a);

// Row-wise softmax / log-softmax over columns.
Variable Softmax(const Variable& a);
Variable LogSoftmax(const Variable& a);
// Row-wise log-sum-exp: NxC -> Nx1.
Variable LogSumExp(const Variable& a);

// Reductions.
Variable Sum(const Variable& a);   // -> 1x1
Variable Mean(const Variable& a);  // -> 1x1
Variable RowSum(const Variable& a);  // NxC -> Nx1

// Replicates an Nx1 column across `m` columns -> NxM.
Variable BroadcastCol(const Variable& a, int m);

// Column-wise concatenation; all inputs share the row count.
Variable ConcatCols(const std::vector<Variable>& parts);
// Columns [begin, begin+len) of a.
Variable SliceCols(const Variable& a, int begin, int len);

// Embedding gather: rows of `table` (VxD) selected by `idx` -> NxD.
// Gradients scatter-add into the selected rows.
Variable Rows(const Variable& table, const std::vector<int>& idx);

// Sum of k embedding gathers: out[r] = table[idx[0][r]] + table[idx[1][r]]
// + ..., added in list order (each idx[k] has one entry per output row).
// Bit-identical, forward and backward, to the chain
// Add(...Add(Rows(table, idx[0]), Rows(table, idx[1]))..., Rows(table,
// idx[k-1])) it replaces, in one node: the backward scatters the lists from
// last to first, each in ascending row order, as that chain's nodes do.
Variable GatherSum(const Variable& table,
                   const std::vector<std::vector<int>>& idx);

// One entry per row: out[r,0] = a[r, idx[r]] -> Nx1.
Variable PickCols(const Variable& a, const std::vector<int>& idx);

// Identity value with the gradient path cut (teacher outputs, constants).
Variable Detach(const Variable& a);

// Convenience losses built from the ops above.
// Per-row log softmax(logits)[r, targets[r]] -> Nx1: the terms
// SoftmaxCrossEntropy averages.
Variable TargetLogProbs(const Variable& logits,
                        const std::vector<int>& targets);
// Mean over rows of -log softmax(logits)[target]: standard CE with integer
// targets.
Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int>& targets);
// Mean squared error between equally-shaped a and b (mean over all entries).
Variable MseLoss(const Variable& a, const Variable& b);
// Hinton-style distillation CE with temperature: mean over rows of
// -sum_j softmax(teacher/T)_j * log_softmax(student/T)_j. The teacher side is
// detached. (Paper Eq. 6.)
Variable DistillCrossEntropy(const Variable& student_logits,
                             const Variable& teacher_logits, double temperature);

}  // namespace ddup::nn

#endif  // DDUP_NN_OPS_H_
