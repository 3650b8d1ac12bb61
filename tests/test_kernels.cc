/**
 * Golden-model conformance suite for the unified sparse kernel layer
 * (src/gnnbench/kernels/).
 *
 * Every optimized variant x reduce-op x feature width is compared
 * against KernelVariant::Reference on the gnncheck ten-shape graph
 * generator (empty rows, self-loops, duplicate edges, stars, skew):
 * sum/mean bit-exactly (the layer's determinism contract), max
 * ULP-bounded.  Thread-count invariance, the heavy-row path and the
 * dispatch policy are covered here too.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gnnbench/check/property.h"
#include "gnnbench/core/parallel.h"
#include "gnnbench/core/rng.h"
#include "gnnbench/graph/convert.h"
#include "gnnbench/kernels/detail.h"
#include "gnnbench/kernels/kernels.h"
#include "gnnbench/kernels/simd.h"
#include "gnnbench/profiling/metrics_registry.h"

#include "test_support.h"

namespace gnnbench {
namespace kernels {
namespace {

using check::GraphCase;
using check::PropertyOptions;
using check::Result;
using core::Tensor;

constexpr int64_t kWidths[] = {1, 7, 16, 64, 257};

/** The optimized variants checked against Reference. */
constexpr KernelVariant kOptVariants[] = {KernelVariant::Tiled,
                                          KernelVariant::Simd};

PropertyOptions
opts(int cases)
{
    PropertyOptions o;
    o.numCases = cases;
    o.baseSeed = testenv::seed();
    return o;
}

Tensor
randFeat(int64_t rows, int64_t cols, uint64_t seed)
{
    core::Rng rng(seed);
    return Tensor::uniform(rows, cols, rng, -1.0f, 1.0f);
}

std::vector<float>
randWeights(EdgeId n, uint64_t seed)
{
    core::Rng rng(seed);
    std::vector<float> w(static_cast<size_t>(n));
    for (auto &v : w)
        v = rng.uniformFloat() - 0.5f;
    return w;
}

Result
bitEqual(const Tensor &a, const Tensor &b, const std::string &what)
{
    if (!a.sameShape(b))
        return Result::fail(what + ": shape mismatch");
    if (a.numel() == 0 ||
        std::memcmp(a.data(), b.data(), a.bytes()) == 0)
        return Result::pass();
    for (int64_t i = 0; i < a.numel(); ++i) {
        uint32_t ba, bb;
        std::memcpy(&ba, a.data() + i, 4);
        std::memcpy(&bb, b.data() + i, 4);
        if (ba != bb)
            return Result::fail(
                what + ": element " + std::to_string(i) +
                " differs: " + std::to_string(a.data()[i]) + " vs " +
                std::to_string(b.data()[i]));
    }
    return Result::fail(what + ": memcmp/element scan disagree");
}

/** ULP distance between two floats (monotone int encoding). */
int64_t
ulpDiff(float a, float b)
{
    if (a == b)
        return 0;
    if (std::isnan(a) || std::isnan(b))
        return INT64_MAX;
    int32_t ia, ib;
    std::memcpy(&ia, &a, 4);
    std::memcpy(&ib, &b, 4);
    if (ia < 0)
        ia = INT32_MIN - ia;
    if (ib < 0)
        ib = INT32_MIN - ib;
    return std::llabs(static_cast<int64_t>(ia) - ib);
}

Result
ulpEqual(const Tensor &a, const Tensor &b, int64_t max_ulp,
         const std::string &what)
{
    if (!a.sameShape(b))
        return Result::fail(what + ": shape mismatch");
    for (int64_t i = 0; i < a.numel(); ++i) {
        const int64_t d = ulpDiff(a.data()[i], b.data()[i]);
        if (d > max_ulp)
            return Result::fail(
                what + ": element " + std::to_string(i) + " off by " +
                std::to_string(d) + " ulp: " +
                std::to_string(a.data()[i]) + " vs " +
                std::to_string(b.data()[i]));
    }
    return Result::pass();
}

Result
compareOutputs(ReduceOp op, const Tensor &tiled, const Tensor &ref,
               const std::string &what)
{
    // Sum and mean fall under the bit-exact determinism contract;
    // max is order-insensitive, checked ULP-bounded per the suite's
    // spec (in practice it is bit-exact as well).
    if (op == ReduceOp::Max)
        return ulpEqual(tiled, ref, 2, what);
    return bitEqual(tiled, ref, what);
}

/** spmm conformance on one generated case at one feature width. */
Result
spmmConformance(const GraphCase &c, KernelVariant variant,
                ReduceOp op, int64_t f, bool weighted)
{
    const graph::CsrGraph csc = graph::cooToCsc(c.coo);
    const Tensor x = randFeat(csc.numCols, f, c.seed ^ 0x5A5A);
    std::vector<float> w;
    const float *wp = nullptr;
    if (weighted) {
        w = randWeights(csc.numEdges(), c.seed ^ 0x77);
        wp = w.data();
    }
    const std::string what = std::string("spmm/") +
                             variantName(variant) + "/" +
                             reduceOpName(op) +
                             "/f=" + std::to_string(f);
    const Tensor ref =
        spmm(csc, x, op, wp, KernelVariant::Reference);
    return compareOutputs(op, spmm(csc, x, op, wp, variant), ref, what);
}

struct VariantOpWidth
{
    KernelVariant variant;
    ReduceOp op;
    int64_t f;
};

class SpmmConformance
    : public ::testing::TestWithParam<VariantOpWidth>
{
};

TEST_P(SpmmConformance, MatchesReference)
{
    const VariantOpWidth p = GetParam();
    EXPECT_TRUE(checkProperty(
        std::string("spmm-") + variantName(p.variant) + "-" +
            reduceOpName(p.op) + "-f" + std::to_string(p.f),
        [p](const GraphCase &c) {
            return spmmConformance(c, p.variant, p.op, p.f, false);
        },
        opts(12)));
}

TEST_P(SpmmConformance, WeightedMatchesReference)
{
    const VariantOpWidth p = GetParam();
    if (p.op == ReduceOp::Max)
        GTEST_SKIP() << "max takes no edge weights";
    EXPECT_TRUE(checkProperty(
        std::string("spmm-weighted-") + variantName(p.variant) +
            "-" + reduceOpName(p.op) + "-f" + std::to_string(p.f),
        [p](const GraphCase &c) {
            return spmmConformance(c, p.variant, p.op, p.f, true);
        },
        opts(12)));
}

std::vector<VariantOpWidth>
allVariantOpWidths()
{
    std::vector<VariantOpWidth> v;
    for (KernelVariant variant : kOptVariants)
        for (ReduceOp op :
             {ReduceOp::Sum, ReduceOp::Mean, ReduceOp::Max})
            for (int64_t f : kWidths)
                v.push_back({variant, op, f});
    return v;
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsOpsWidths, SpmmConformance,
    ::testing::ValuesIn(allVariantOpWidths()), [](const auto &info) {
        return std::string(variantName(info.param.variant)) + "_" +
               reduceOpName(info.param.op) + "_f" +
               std::to_string(info.param.f);
    });

/** The scatter/gather/sddmm/segment family on one case. */
Result
familyConformance(const GraphCase &c, KernelVariant variant,
                  int64_t f)
{
    const graph::CsrGraph csc = graph::cooToCsc(c.coo);
    const NodeId n = c.coo.numNodes;
    const EdgeId m = csc.numEdges();
    const auto tag = [variant, f](const char *k) {
        return std::string(k) + "/" + variantName(variant) +
               "/f=" + std::to_string(f);
    };

    {
        const Tensor x = randFeat(csc.numRows, f, c.seed ^ 0x11);
        const auto w = randWeights(m, c.seed ^ 0x12);
        Result r = bitEqual(
            spmmScatter(csc, x, w.data(), variant),
            spmmScatter(csc, x, w.data(), KernelVariant::Reference),
            tag("spmmScatter"));
        if (!r)
            return r;
    }
    {
        const Tensor x = randFeat(n, f, c.seed ^ 0x21);
        Result r = bitEqual(
            gatherRows(x, c.coo.src, variant),
            gatherRows(x, c.coo.src, KernelVariant::Reference),
            tag("gatherRows"));
        if (!r)
            return r;
    }
    {
        const Tensor src = randFeat(c.coo.numEdges(), f, c.seed ^ 0x31);
        Result r = bitEqual(
            scatterSum(src, c.coo.dst, n, variant),
            scatterSum(src, c.coo.dst, n, KernelVariant::Reference),
            tag("scatterSum"));
        if (!r)
            return r;
        r = bitEqual(
            scatterMean(src, c.coo.dst, n, variant),
            scatterMean(src, c.coo.dst, n, KernelVariant::Reference),
            tag("scatterMean"));
        if (!r)
            return r;
        r = ulpEqual(
            scatterMax(src, c.coo.dst, n, variant),
            scatterMax(src, c.coo.dst, n, KernelVariant::Reference),
            2, tag("scatterMax"));
        if (!r)
            return r;
    }
    {
        const Tensor a = randFeat(csc.numRows, f, c.seed ^ 0x41);
        const Tensor b = randFeat(csc.numCols, f, c.seed ^ 0x42);
        Result r =
            bitEqual(sddmmAdd(csc, a, b, variant),
                     sddmmAdd(csc, a, b, KernelVariant::Reference),
                     tag("sddmmAdd"));
        if (!r)
            return r;
        r = bitEqual(sddmmDot(csc, a, b, variant),
                     sddmmDot(csc, a, b, KernelVariant::Reference),
                     tag("sddmmDot"));
        if (!r)
            return r;
    }
    {
        const Tensor x = randFeat(m, f, c.seed ^ 0x51);
        Result r = bitEqual(
            segmentSumRows(csc, x, variant),
            segmentSumRows(csc, x, KernelVariant::Reference),
            tag("segmentSumRows"));
        if (!r)
            return r;
        r = bitEqual(
            scatterSumCols(csc, x, variant),
            scatterSumCols(csc, x, KernelVariant::Reference),
            tag("scatterSumCols"));
        if (!r)
            return r;
    }
    return Result::pass();
}

struct VariantWidth
{
    KernelVariant variant;
    int64_t f;
};

class FamilyConformance
    : public ::testing::TestWithParam<VariantWidth>
{
};

TEST_P(FamilyConformance, MatchesReference)
{
    const VariantWidth p = GetParam();
    EXPECT_TRUE(checkProperty(
        std::string("kernel-family-") + variantName(p.variant) +
            "-f" + std::to_string(p.f),
        [p](const GraphCase &c) {
            return familyConformance(c, p.variant, p.f);
        },
        opts(10)));
}

std::vector<VariantWidth>
allVariantWidths()
{
    std::vector<VariantWidth> v;
    for (KernelVariant variant : kOptVariants)
        for (int64_t f : kWidths)
            v.push_back({variant, f});
    return v;
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsWidths, FamilyConformance,
    ::testing::ValuesIn(allVariantWidths()), [](const auto &info) {
        return std::string(variantName(info.param.variant)) + "_f" +
               std::to_string(info.param.f);
    });

/** Results must not depend on GNNBENCH_NUM_THREADS (pool size). */
TEST(KernelDeterminism, ThreadCountInvariant)
{
    const int restore = core::parallel::numThreads();
    EXPECT_TRUE(checkProperty(
        "spmm-thread-invariance",
        [&](const GraphCase &c) {
            const graph::CsrGraph csc = graph::cooToCsc(c.coo);
            const Tensor x = randFeat(csc.numCols, 33, c.seed ^ 0x91);
            for (KernelVariant variant : kOptVariants) {
                core::parallel::setNumThreads(1);
                const Tensor base =
                    spmm(csc, x, ReduceOp::Sum, nullptr, variant);
                for (int t : {2, 4}) {
                    core::parallel::setNumThreads(t);
                    Result r = bitEqual(
                        spmm(csc, x, ReduceOp::Sum, nullptr,
                             variant),
                        base,
                        std::string("spmm ") + variantName(variant) +
                            " threads=" + std::to_string(t));
                    if (!r)
                        return r;
                }
            }
            return Result::pass();
        },
        opts(10)));
    core::parallel::setNumThreads(restore);
}

/** A row above kHeavyDegree takes the feature-tile-parallel path. */
TEST(KernelHeavyRow, TiledMatchesReference)
{
    const NodeId cols = 257;
    const EdgeId deg = Tiling::kHeavyDegree + 123;
    graph::CsrGraph adj;
    adj.numRows = 3;
    adj.numCols = cols;
    adj.indptr = {0, 2, 2 + deg, 2 + deg + 1};
    adj.indices.resize(static_cast<size_t>(2 + deg + 1));
    core::Rng rng(testenv::seed() ^ 0xEA51);
    for (auto &v : adj.indices)
        v = static_cast<NodeId>(rng.uniformInt(cols));
    adj.validate();

    for (const int64_t f : {1L, 70L, 257L}) {
        const Tensor x = randFeat(cols, f, testenv::seed() ^ f);
        for (ReduceOp op :
             {ReduceOp::Sum, ReduceOp::Mean, ReduceOp::Max}) {
            const Tensor ref =
                spmm(adj, x, op, nullptr, KernelVariant::Reference);
            for (KernelVariant variant : kOptVariants) {
                const Tensor out =
                    spmm(adj, x, op, nullptr, variant);
                Result r = compareOutputs(
                    op, out, ref,
                    std::string("heavy-row/") +
                        variantName(variant) + "/" +
                        reduceOpName(op) +
                        "/f=" + std::to_string(f));
                EXPECT_TRUE(r.ok) << r.message;
            }
        }
    }
}

TEST(KernelMaxArg, RecordsFirstMaximalSource)
{
    EXPECT_TRUE(checkProperty(
        "spmm-maxarg",
        [](const GraphCase &c) {
            const graph::CsrGraph csc = graph::cooToCsc(c.coo);
            const int64_t f = 9;
            const Tensor x = randFeat(csc.numCols, f, c.seed ^ 0xA1);
            std::vector<NodeId> argR;
            const Tensor outR =
                spmmMaxArg(csc, x, &argR, KernelVariant::Reference);
            for (KernelVariant variant : kOptVariants) {
                std::vector<NodeId> argV;
                const Tensor outV =
                    spmmMaxArg(csc, x, &argV, variant);
                Result r = ulpEqual(outV, outR, 2,
                                    std::string("spmmMaxArg ") +
                                        variantName(variant));
                if (!r)
                    return r;
                if (argV != argR)
                    return Result::fail(
                        "spmmMaxArg: argmax sources differ between "
                        "variants");
            }
            // Reference semantics: the recorded source is the first
            // in-edge attaining the row maximum.
            for (NodeId d = 0; d < csc.numRows; ++d) {
                for (int64_t j = 0; j < f; ++j) {
                    NodeId expect = -1;
                    float best =
                        -std::numeric_limits<float>::infinity();
                    for (EdgeId e = csc.indptr[d];
                         e < csc.indptr[d + 1]; ++e) {
                        const float v = x(csc.indices[e], j);
                        if (v > best) {
                            best = v;
                            expect = csc.indices[e];
                        }
                    }
                    if (argR[static_cast<size_t>(d) * f + j] != expect)
                        return Result::fail(
                            "spmmMaxArg: wrong argmax at row " +
                            std::to_string(d));
                }
            }
            return Result::pass();
        },
        opts(10)));
}

TEST(KernelDispatch, ParseAndNames)
{
    KernelVariant v;
    for (KernelVariant k :
         {KernelVariant::Auto, KernelVariant::Reference,
          KernelVariant::Tiled, KernelVariant::Simd}) {
        EXPECT_TRUE(parseVariant(variantName(k), &v));
        EXPECT_EQ(v, k);
        EXPECT_NE(std::string(validVariantList())
                      .find(variantName(k)),
                  std::string::npos);
    }
    EXPECT_FALSE(parseVariant("fused", &v));
}

TEST(KernelDispatch, EnvParsingRejectsUnknownVariants)
{
    EXPECT_EQ(detail::variantFromEnvValue(nullptr),
              KernelVariant::Auto);
    EXPECT_EQ(detail::variantFromEnvValue(""), KernelVariant::Auto);
    EXPECT_EQ(detail::variantFromEnvValue("simd"),
              KernelVariant::Simd);
    // Unknown values are fatal with a message listing the valid set —
    // not a silent fallback to Auto.
    EXPECT_EXIT(detail::variantFromEnvValue("fused"),
                ::testing::ExitedWithCode(1),
                "must be one of auto/reference/tiled/simd");
}

TEST(KernelDispatch, ResolvedVariantLabel)
{
    const KernelVariant saved = defaultVariant();
    setDefaultVariant(KernelVariant::Auto);
    EXPECT_EQ(resolvedVariantLabel(),
              simd::available() ? "simd[avx2]" : "tiled");
    EXPECT_EQ(resolvedVariantLabel(KernelVariant::Tiled), "tiled");
    EXPECT_EQ(resolvedVariantLabel(KernelVariant::Reference),
              "reference");
    setDefaultVariant(KernelVariant::Reference);
    EXPECT_EQ(resolvedVariantLabel(), "reference");
    setDefaultVariant(saved);
}

TEST(KernelDispatch, AutoPolicyAndDefaultOverride)
{
    // Explicit variants pass through.
    EXPECT_EQ(resolveVariant(KernelVariant::Reference, 1 << 20, 64),
              KernelVariant::Reference);
    EXPECT_EQ(resolveVariant(KernelVariant::Tiled, 1, 1),
              KernelVariant::Tiled);
    // Auto: tiny problems stay serial, large ones run Simd (which is
    // bit-identical to Tiled, so the policy switch is unobservable in
    // results; SimdResolvesToTiledWithoutAvx2 covers builds without
    // the row kernels).
    const KernelVariant saved = defaultVariant();
    setDefaultVariant(KernelVariant::Auto);
    EXPECT_EQ(resolveVariant(KernelVariant::Auto,
                             Tiling::kAutoReferenceNnz - 1, 64),
              KernelVariant::Reference);
    EXPECT_EQ(resolveVariant(KernelVariant::Auto,
                             Tiling::kAutoReferenceNnz, 64),
              resolveVariant(KernelVariant::Simd,
                             Tiling::kAutoReferenceNnz, 64));
    // A process-wide default redirects Auto call sites.
    setDefaultVariant(KernelVariant::Reference);
    EXPECT_EQ(resolveVariant(KernelVariant::Auto, 1 << 20, 64),
              KernelVariant::Reference);
    setDefaultVariant(saved);
}

/** Simd means the AVX2 row kernels; without them it runs, and
 *  reports, Tiled (the release-noavx2 CI leg takes that branch). */
TEST(KernelDispatch, SimdResolvesToTiledWithoutAvx2)
{
    const KernelVariant simdOrTiled =
        simd::available() ? KernelVariant::Simd : KernelVariant::Tiled;
    const KernelVariant saved = defaultVariant();
    setDefaultVariant(KernelVariant::Auto);
    EXPECT_EQ(resolveVariant(KernelVariant::Simd, 1, 64), simdOrTiled);
    EXPECT_EQ(resolveVariant(KernelVariant::Auto, 1 << 20, 64),
              simdOrTiled);
    EXPECT_EQ(resolvedVariantLabel(KernelVariant::Simd),
              resolvedVariantLabel());
    setDefaultVariant(saved);

    // The label names what the per-variant counter saw run.
    profiling::Counter &tiled =
        profiling::MetricsRegistry::global().counter(
            "kernels.variant.tiled");
    const uint64_t before = tiled.value();
    const graph::CsrGraph csc =
        graph::cooToCsc(check::generateGraphCase(testenv::seed()).coo);
    spmm(csc, randFeat(csc.numCols, 8, testenv::seed() ^ 0x51D),
         ReduceOp::Sum, nullptr, KernelVariant::Simd);
    const bool ranTiled = tiled.value() > before;
    EXPECT_EQ(ranTiled, !simd::available());
    EXPECT_EQ(ranTiled,
              resolvedVariantLabel(KernelVariant::Simd) == "tiled");
}

TEST(KernelStatsSink, RecordsPerChunkSeconds)
{
    // ~40k nnz across 400 rows: several nnz-balanced panels.
    core::Rng rng(testenv::seed() ^ 0x57A75);
    graph::CsrGraph adj;
    adj.numRows = 400;
    adj.numCols = 300;
    adj.indptr.resize(401);
    adj.indptr[0] = 0;
    for (NodeId r = 0; r < 400; ++r)
        adj.indptr[r + 1] =
            adj.indptr[r] + 50 + static_cast<EdgeId>(rng.uniformInt(100));
    adj.indices.resize(static_cast<size_t>(adj.indptr.back()));
    for (auto &v : adj.indices)
        v = static_cast<NodeId>(rng.uniformInt(300));
    adj.validate();
    const Tensor x = randFeat(300, 32, testenv::seed() ^ 0x57A76);

    KernelStats ref, tiled;
    spmm(adj, x, ReduceOp::Sum, nullptr, KernelVariant::Reference,
         &ref);
    spmm(adj, x, ReduceOp::Sum, nullptr, KernelVariant::Tiled, &tiled);
    EXPECT_EQ(ref.chunkSeconds.size(), 1u);
    EXPECT_GT(tiled.chunkSeconds.size(), 1u);
    for (double s : tiled.chunkSeconds)
        EXPECT_GE(s, 0.0);
}

} // namespace
} // namespace kernels
} // namespace gnnbench
