/**
 * @file
 * Dense numeric kernels on core::Tensor.
 *
 * These are the shared building blocks both frameworks use for the
 * dense half of a GNN layer (feature transform, bias, activations,
 * softmax / loss).  Sparse aggregation kernels are framework-specific
 * by design (that is the point of the paper) and live in dglx/ and
 * pygx/ respectively.
 */

#ifndef GNNBENCH_CORE_OPS_H
#define GNNBENCH_CORE_OPS_H

#include <cstdint>
#include <vector>

#include "gnnbench/core/rng.h"
#include "gnnbench/core/tensor.h"

namespace gnnbench {
namespace core {
namespace ops {

/**
 * C = A * B on the packed, register-tiled GEMM.  Every element of C
 * is the k-ascending chain c = c + a*b, whatever the thread count,
 * its tile's position or the row partition; so matmul of a subset of
 * A's rows reproduces those rows of the full product bit for bit.
 */
Tensor matmul(const Tensor &a, const Tensor &b);

/** C = A^T * B, bit-equal to matmul(transpose(A), B).  Used by
 *  matmul backward (dW = X^T dY). */
Tensor matmulTa(const Tensor &a, const Tensor &b);

/** C = A * B^T, bit-equal to matmul(A, transpose(B)).  Used by
 *  matmul backward (dX = dY W^T). */
Tensor matmulTb(const Tensor &a, const Tensor &b);

/** B = A^T. */
Tensor transpose(const Tensor &a);

/** C = A + B (elementwise). */
Tensor add(const Tensor &a, const Tensor &b);

/** C = A - B (elementwise). */
Tensor sub(const Tensor &a, const Tensor &b);

/** C = A ⊙ B (elementwise product). */
Tensor mul(const Tensor &a, const Tensor &b);

/** C = alpha * A. */
Tensor scale(const Tensor &a, float alpha);

/** A += alpha * B, in place. */
void axpy(Tensor &a, const Tensor &b, float alpha);

/** C[i, :] = A[i, :] + bias[0, :]. @pre bias is 1 x cols. */
Tensor addBias(const Tensor &a, const Tensor &bias);

/** Column-wise sum of A into a 1 x cols tensor (bias gradient). */
Tensor colSum(const Tensor &a);

/** Elementwise max(x, 0). */
Tensor relu(const Tensor &a);

/** grad * 1[x > 0], the backward of relu. */
Tensor reluGrad(const Tensor &x, const Tensor &grad);

/** Elementwise ELU with alpha = 1. */
Tensor elu(const Tensor &a);

/** Backward of elu given the forward *output*. */
Tensor eluGradFromOutput(const Tensor &y, const Tensor &grad);

/** Elementwise LeakyReLU with the given negative slope. */
Tensor leakyRelu(const Tensor &a, float slope);

/** Backward of leakyRelu given the forward input. */
Tensor leakyReluGrad(const Tensor &x, const Tensor &grad, float slope);

/**
 * Inverted dropout: zeroes entries with probability p and scales the
 * survivors by 1/(1-p).  The mask is returned through @p mask so the
 * backward pass can reuse it.
 */
Tensor dropout(const Tensor &a, float p, Rng &rng, Tensor *mask);

/** Row-wise log-softmax. */
Tensor logSoftmax(const Tensor &a);

/**
 * Backward of logSoftmax given its output y and upstream grad:
 * dx = g - softmax(x) * rowsum(g).
 */
Tensor logSoftmaxGrad(const Tensor &y, const Tensor &grad);

/**
 * Mean negative log-likelihood over the rows selected by @p rows
 * (all rows when empty), with integer class labels.
 * @return the scalar loss.
 */
float nllLoss(const Tensor &logprob, const std::vector<int32_t> &labels,
              const std::vector<NodeId> &rows);

/**
 * Gradient of nllLoss w.r.t. the log-probabilities; same row selection
 * convention as nllLoss.
 */
Tensor nllLossGrad(const Tensor &logprob,
                   const std::vector<int32_t> &labels,
                   const std::vector<NodeId> &rows);

/** Select rows of A by index: out[i, :] = A[idx[i], :]. */
Tensor gatherRows(const Tensor &a, const std::vector<NodeId> &idx);

/**
 * Scatter-add rows: out[idx[i], :] += A[i, :], with out having
 * @p out_rows rows.  The backward of gatherRows.
 */
Tensor scatterAddRows(const Tensor &a, const std::vector<NodeId> &idx,
                      int64_t out_rows);

/** out[i, :] = s[i] * A[i, :], one scalar per row. */
Tensor rowScale(const Tensor &a, const std::vector<float> &s);

/** Horizontal concatenation [A | B]. */
Tensor concatCols(const Tensor &a, const Tensor &b);

/** Split the backward of concatCols: grads for A and B. */
void splitColsGrad(const Tensor &grad, int64_t a_cols, Tensor *ga,
                   Tensor *gb);

/** Count of rows where argmax(logits) equals the label (accuracy). */
int64_t countCorrect(const Tensor &logits,
                     const std::vector<int32_t> &labels,
                     const std::vector<NodeId> &rows);

} // namespace ops
} // namespace core
} // namespace gnnbench

#endif // GNNBENCH_CORE_OPS_H
