/** Tests for the dense numeric kernels. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "gnnbench/core/ops.h"
#include "gnnbench/core/parallel.h"

namespace gnnbench {
namespace core {
namespace ops {
namespace {

Tensor
make(std::initializer_list<std::initializer_list<float>> rows)
{
    const int64_t r = rows.size();
    const int64_t c = rows.begin()->size();
    Tensor t(r, c);
    int64_t i = 0;
    for (const auto &row : rows) {
        int64_t j = 0;
        for (float v : row)
            t(i, j++) = v;
        ++i;
    }
    return t;
}

void
expectNear(const Tensor &a, const Tensor &b, float tol = 1e-5f)
{
    ASSERT_TRUE(a.sameShape(b));
    for (int64_t i = 0; i < a.rows(); ++i)
        for (int64_t j = 0; j < a.cols(); ++j)
            EXPECT_NEAR(a(i, j), b(i, j), tol)
                << "at (" << i << "," << j << ")";
}

/** Same shape and the same bit pattern in every element. */
bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.sameShape(b) &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.bytes()) == 0);
}

TEST(Ops, MatmulSmall)
{
    Tensor a = make({{1, 2}, {3, 4}});
    Tensor b = make({{5, 6}, {7, 8}});
    expectNear(matmul(a, b), make({{19, 22}, {43, 50}}));
}

TEST(Ops, MatmulIdentity)
{
    Rng rng(1);
    Tensor a = Tensor::randn(7, 7, rng);
    Tensor eye(7, 7);
    for (int64_t i = 0; i < 7; ++i)
        eye(i, i) = 1.0f;
    expectNear(matmul(a, eye), a);
    expectNear(matmul(eye, a), a);
}

TEST(Ops, MatmulTransposedVariantsAgree)
{
    Rng rng(2);
    // The small case fits a couple of register tiles; the large one
    // spans several tiles, k-blocks and row chunks.
    for (auto [r, ka, nb, nc] : {std::array<int64_t, 4>{5, 8, 3, 4},
                                 std::array<int64_t, 4>{300, 101, 70, 45}}) {
        Tensor a = Tensor::randn(r, ka, rng);
        Tensor b = Tensor::randn(r, nb, rng);
        // A^T B via matmulTa must equal matmul(transpose(A), B).
        EXPECT_TRUE(sameBits(matmulTa(a, b), matmul(transpose(a), b)));
        Tensor c = Tensor::randn(nc, ka, rng);
        // A C^T via matmulTb must equal matmul(A, transpose(C)).
        EXPECT_TRUE(sameBits(matmulTb(a, c), matmul(a, transpose(c))));
    }
}

TEST(Ops, TransposeInvolution)
{
    Rng rng(3);
    Tensor a = Tensor::randn(4, 9, rng);
    expectNear(transpose(transpose(a)), a);
}

TEST(Ops, ElementwiseArithmetic)
{
    Tensor a = make({{1, -2}, {3, 0}});
    Tensor b = make({{2, 2}, {-1, 5}});
    expectNear(add(a, b), make({{3, 0}, {2, 5}}));
    expectNear(sub(a, b), make({{-1, -4}, {4, -5}}));
    expectNear(mul(a, b), make({{2, -4}, {-3, 0}}));
    expectNear(scale(a, -2.0f), make({{-2, 4}, {-6, 0}}));
}

TEST(Ops, AxpyInPlace)
{
    Tensor a = make({{1, 1}});
    Tensor b = make({{2, -3}});
    axpy(a, b, 0.5f);
    expectNear(a, make({{2, -0.5}}));
}

TEST(Ops, AddBiasBroadcastsRows)
{
    Tensor a = make({{1, 2}, {3, 4}});
    Tensor bias = make({{10, 20}});
    expectNear(addBias(a, bias), make({{11, 22}, {13, 24}}));
}

TEST(Ops, ColSumIsBiasGradient)
{
    Tensor a = make({{1, 2}, {3, 4}, {5, 6}});
    expectNear(colSum(a), make({{9, 12}}));
}

TEST(Ops, ReluAndGrad)
{
    Tensor x = make({{-1, 0, 2}});
    expectNear(relu(x), make({{0, 0, 2}}));
    Tensor g = make({{5, 5, 5}});
    expectNear(reluGrad(x, g), make({{0, 0, 5}}));
}

TEST(Ops, EluMatchesDefinition)
{
    Tensor x = make({{-1, 0, 2}});
    Tensor y = elu(x);
    EXPECT_NEAR(y(0, 0), std::expm1(-1.0f), 1e-6f);
    EXPECT_EQ(y(0, 1), 0.0f);
    EXPECT_EQ(y(0, 2), 2.0f);
    // d elu = elu(x)+1 for x<0, 1 otherwise.
    Tensor g = make({{2, 2, 2}});
    Tensor gx = eluGradFromOutput(y, g);
    EXPECT_NEAR(gx(0, 0), 2.0f * (std::expm1(-1.0f) + 1.0f), 1e-6f);
    EXPECT_EQ(gx(0, 2), 2.0f);
}

TEST(Ops, LeakyRelu)
{
    Tensor x = make({{-2, 3}});
    expectNear(leakyRelu(x, 0.1f), make({{-0.2, 3}}));
    Tensor g = make({{1, 1}});
    expectNear(leakyReluGrad(x, g, 0.1f), make({{0.1, 1}}));
}

TEST(Ops, DropoutMaskConsistent)
{
    Rng rng(4);
    Tensor x = Tensor::full(100, 100, 1.0f);
    Tensor mask;
    Tensor y = dropout(x, 0.3f, rng, &mask);
    int64_t kept = 0;
    for (int64_t i = 0; i < y.numel(); ++i) {
        EXPECT_FLOAT_EQ(y.data()[i], mask.data()[i]);
        if (y.data()[i] != 0.0f) {
            EXPECT_NEAR(y.data()[i], 1.0f / 0.7f, 1e-5f);
            ++kept;
        }
    }
    EXPECT_NEAR(static_cast<double>(kept) / y.numel(), 0.7, 0.02);
}

TEST(Ops, LogSoftmaxRowsSumToOne)
{
    Rng rng(5);
    Tensor x = Tensor::randn(10, 6, rng, 3.0f);
    Tensor y = logSoftmax(x);
    for (int64_t i = 0; i < y.rows(); ++i) {
        double z = 0.0;
        for (int64_t j = 0; j < y.cols(); ++j)
            z += std::exp(y(i, j));
        EXPECT_NEAR(z, 1.0, 1e-4);
    }
}

TEST(Ops, LogSoftmaxShiftInvariant)
{
    Tensor a = make({{1, 2, 3}});
    Tensor b = make({{101, 102, 103}});
    expectNear(logSoftmax(a), logSoftmax(b), 1e-4f);
}

TEST(Ops, NllLossKnownValue)
{
    // logprob rows with mass concentrated on the label -> small loss.
    Tensor lp = logSoftmax(make({{10, 0, 0}, {0, 10, 0}}));
    const float loss = nllLoss(lp, {0, 1}, {});
    EXPECT_NEAR(loss, -lp(0, 0), 1e-4f);
}

TEST(Ops, NllLossRowSelection)
{
    Tensor lp = logSoftmax(make({{1, 0}, {0, 1}, {5, 0}}));
    const float all = nllLoss(lp, {0, 0, 0}, {});
    const float only2 = nllLoss(lp, {0, 0, 0}, {2});
    EXPECT_NE(all, only2);
    EXPECT_NEAR(only2, -lp(2, 0), 1e-5f);
}

TEST(Ops, GatherScatterRoundTrip)
{
    Tensor x = make({{1, 2}, {3, 4}, {5, 6}});
    std::vector<NodeId> idx = {2, 0};
    Tensor g = gatherRows(x, idx);
    expectNear(g, make({{5, 6}, {1, 2}}));
    Tensor s = scatterAddRows(g, idx, 3);
    expectNear(s, make({{1, 2}, {0, 0}, {5, 6}}));
}

TEST(Ops, ScatterAddAccumulatesDuplicates)
{
    Tensor src = make({{1, 1}, {2, 2}});
    Tensor out = scatterAddRows(src, {0, 0}, 2);
    expectNear(out, make({{3, 3}, {0, 0}}));
}

TEST(Ops, RowScale)
{
    Tensor x = make({{1, 2}, {3, 4}});
    expectNear(rowScale(x, {2.0f, -1.0f}), make({{2, 4}, {-3, -4}}));
}

TEST(Ops, ConcatSplitRoundTrip)
{
    Tensor a = make({{1, 2}, {3, 4}});
    Tensor b = make({{5}, {6}});
    Tensor c = concatCols(a, b);
    expectNear(c, make({{1, 2, 5}, {3, 4, 6}}));
    Tensor ga, gb;
    splitColsGrad(c, 2, &ga, &gb);
    expectNear(ga, a);
    expectNear(gb, b);
}

TEST(Ops, CountCorrect)
{
    Tensor logits = make({{1, 0}, {0, 1}, {3, 2}});
    EXPECT_EQ(countCorrect(logits, {0, 1, 1}, {}), 2);
    EXPECT_EQ(countCorrect(logits, {0, 1, 1}, {2}), 0);
}

// ---------------------------------------------------------------
// GEMM conformance.  The reference loops below are the plain serial
// GEMMs: i-k-j for matmul and 32-column strips for matmulTa, both
// skipping zero entries of A.  For finite inputs a skipped 0 * b term
// never changes a sum, so the packed GEMM must match them bit for
// bit, FMA-contracted or not (the build's contraction applies to both).
// ---------------------------------------------------------------

Tensor
referenceMatmul(const Tensor &a, const Tensor &b)
{
    Tensor c(a.rows(), b.cols());
    for (int64_t i = 0; i < a.rows(); ++i) {
        const float *arow = a.row(i);
        float *crow = c.row(i);
        for (int64_t kk = 0; kk < a.cols(); ++kk) {
            const float av = arow[kk];
            if (av == 0.0f)
                continue;
            const float *brow = b.row(kk);
            for (int64_t j = 0; j < b.cols(); ++j)
                crow[j] += av * brow[j];
        }
    }
    return c;
}

Tensor
referenceMatmulTa(const Tensor &a, const Tensor &b)
{
    const int64_t m = a.cols(), n = b.cols();
    Tensor c(m, n);
    for (int64_t j0 = 0; j0 < n; j0 += 32) {
        const int64_t j1 = std::min<int64_t>(n, j0 + 32);
        for (int64_t kk = 0; kk < a.rows(); ++kk) {
            const float *arow = a.row(kk);
            const float *brow = b.row(kk);
            for (int64_t i = 0; i < m; ++i) {
                const float av = arow[i];
                if (av == 0.0f)
                    continue;
                float *crow = c.row(i);
                for (int64_t j = j0; j < j1; ++j)
                    crow[j] += av * brow[j];
            }
        }
    }
    return c;
}

/** Normal entries, about half of them replaced by exact zeros. */
Tensor
halfZeros(int64_t rows, int64_t cols, Rng &rng)
{
    Tensor t = Tensor::randn(rows, cols, rng);
    for (int64_t i = 0; i < t.numel(); ++i)
        if (rng.uniformFloat() < 0.5f)
            t.data()[i] = 0.0f;
    return t;
}

std::string
shapeName(int64_t m, int64_t k, int64_t n)
{
    return std::to_string(m) + "x" + std::to_string(k) + "x" +
           std::to_string(n);
}

TEST(Gemm, MatchesReferenceLoopsBitForBit)
{
    Rng rng(14);
    // The sizes straddle the GEMM's blocking: the 6-row register
    // tile and 24-row parallel chunk (m), the 256-long k-block (k)
    // and the 8-, 16- or 32-column register tile of SSE, AVX and
    // AVX-512 builds (n), plus the empty and single cases.
    for (int64_t m : {0, 1, 5, 6, 7, 23, 24, 25, 49})
        for (int64_t k : {0, 1, 7, 255, 256, 257, 513})
            for (int64_t n : {0, 1, 7, 8, 9, 16, 17, 31, 32, 33, 65}) {
                Tensor a = halfZeros(m, k, rng);
                Tensor b = Tensor::randn(k, n, rng);
                EXPECT_TRUE(sameBits(matmul(a, b), referenceMatmul(a, b)))
                    << "matmul " << shapeName(m, k, n);
                Tensor at = transpose(a);
                EXPECT_TRUE(
                    sameBits(matmulTa(at, b), referenceMatmulTa(at, b)))
                    << "matmulTa " << shapeName(m, k, n);
            }
}

TEST(Gemm, BitsIndependentOfThreadCount)
{
    Rng rng(15);
    Tensor x = halfZeros(101, 300, rng);
    Tensor w = Tensor::randn(300, 70, rng);
    Tensor dy = Tensor::randn(101, 70, rng);
    auto run = [&] {
        return std::array<Tensor, 3>{matmul(x, w), matmulTa(x, dy),
                                     matmulTb(dy, w)};
    };
    const int restore = parallel::numThreads();
    parallel::setNumThreads(1);
    const auto want = run();
    for (int threads : {2, 4}) {
        parallel::setNumThreads(threads);
        const auto got = run();
        for (size_t v = 0; v < got.size(); ++v)
            EXPECT_TRUE(sameBits(got[v], want[v]))
                << "variant " << v << " at " << threads << " threads";
    }
    {
        // On a worker (a serve or dataloader thread) the GEMM runs
        // serially on the caller.
        parallel::WorkerThreadScope worker;
        const auto got = run();
        for (size_t v = 0; v < got.size(); ++v)
            EXPECT_TRUE(sameBits(got[v], want[v]))
                << "variant " << v << " on a worker thread";
    }
    parallel::setNumThreads(restore);
}

TEST(Gemm, RowSliceMatchesFullProduct)
{
    Rng rng(16);
    Tensor a = halfZeros(97, 300, rng);
    Tensor b = Tensor::randn(300, 45, rng);
    Tensor bt = transpose(b);
    const Tensor full = matmul(a, b);
    const Tensor fullTb = matmulTb(a, bt);
    for (auto [r0, r1] : {std::pair<int64_t, int64_t>{0, 97}, {0, 1},
                          {5, 31}, {13, 14}, {24, 48}, {50, 97}}) {
        std::vector<NodeId> rows(r1 - r0);
        std::iota(rows.begin(), rows.end(), r0);
        const Tensor slice = gatherRows(a, rows);
        EXPECT_TRUE(sameBits(matmul(slice, b), gatherRows(full, rows)))
            << "matmul rows " << r0 << ".." << r1;
        EXPECT_TRUE(sameBits(matmulTb(slice, bt), gatherRows(fullTb, rows)))
            << "matmulTb rows " << r0 << ".." << r1;
    }
}

/** Property sweep: matmul associativity-ish check across shapes. */
class MatmulShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(MatmulShapes, MatchesNaive)
{
    auto [m, k, n] = GetParam();
    Rng rng(m * 100 + k * 10 + n);
    Tensor a = Tensor::randn(m, k, rng);
    Tensor b = Tensor::randn(k, n, rng);
    Tensor c = matmul(a, b);
    for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (int64_t kk = 0; kk < k; ++kk)
                acc += static_cast<double>(a(i, kk)) * b(kk, j);
            ASSERT_NEAR(c(i, j), acc, 1e-3);
        }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulShapes,
    ::testing::Values(std::make_tuple(1, 1, 1),
                      std::make_tuple(3, 5, 2),
                      std::make_tuple(16, 1, 16),
                      std::make_tuple(7, 13, 11),
                      std::make_tuple(32, 8, 4)));

} // namespace
} // namespace ops
} // namespace core
} // namespace gnnbench
