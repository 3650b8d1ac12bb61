#include "gnnbench/serve/inference.h"

#include "gnnbench/core/common.h"
#include "gnnbench/core/ops.h"
#include "gnnbench/kernels/kernels.h"
#include "gnnbench/nn/conv.h"

namespace gnnbench {
namespace serve {

using core::Tensor;

Tensor
sageBlockForward(const sampling::Block &block, const Tensor &x_src,
                 const SageLayerWeights &w)
{
    GNNBENCH_CHECK(x_src.rows() ==
                       static_cast<int64_t>(block.srcNodes.size()),
                   "x_src rows must match the block's source set");
    // Sum then scale by 1/in-degree, exactly the op order of
    // dglx::SageConv::forwardBlock (Mean-in-one-kernel would round
    // differently and break the differential bit-exactness test).
    Tensor agg = kernels::spmm(block.csc, x_src,
                               kernels::ReduceOp::Sum);
    agg = core::ops::rowScale(agg, nn::invDegree(block.csc));
    std::vector<NodeId> dst_rows(block.dstNodes.size());
    for (size_t i = 0; i < dst_rows.size(); ++i)
        dst_rows[i] = static_cast<NodeId>(i);
    Tensor x_dst = core::ops::gatherRows(x_src, dst_rows);
    Tensor h = core::ops::add(core::ops::matmul(x_dst, w.self),
                              core::ops::matmul(agg, w.neigh));
    return core::ops::addBias(h, w.bias);
}

Tensor
inferLogits(const sampling::NeighborSample &sample,
            const Tensor &x_input, const ModelWeights &weights)
{
    GNNBENCH_CHECK(sample.blocks.size() == weights.layers.size(),
                   "sample depth (", sample.blocks.size(),
                   " blocks) must match the model depth (",
                   weights.layers.size(), " layers)");
    Tensor h = sageBlockForward(sample.blocks[0], x_input,
                                weights.layers[0]);
    for (size_t l = 1; l < weights.layers.size(); ++l) {
        h = core::ops::relu(h);
        h = sageBlockForward(sample.blocks[l], h, weights.layers[l]);
    }
    GNNBENCH_ASSERT(h.rows() ==
                        static_cast<int64_t>(sample.seeds.size()),
                    "logit rows must equal the seed count");
    return h;
}

int32_t
argmaxClass(const Tensor &logits, int64_t row)
{
    GNNBENCH_CHECK(row >= 0 && row < logits.rows(),
                   "argmax row out of range");
    const float *p = logits.row(row);
    int32_t best = 0;
    for (int64_t c = 1; c < logits.cols(); ++c)
        if (p[c] > p[best])
            best = static_cast<int32_t>(c);
    return best;
}

} // namespace serve
} // namespace gnnbench
