/**
 * Differential fuzzing between the dglx and pygx framework
 * reimplementations: identically-initialized layers and models must
 * agree (within float tolerance) on forward outputs, losses,
 * gradients, and post-step parameters on seeded random graphs, and
 * the randomized samplers must agree distributionally.  Cases come
 * from the gnncheck property harness, so failures shrink and print a
 * repro seed.
 */

#include <gtest/gtest.h>

#include "gnnbench/check/differential.h"
#include "gnnbench/check/property.h"
#include "gnnbench/dglx/nn.h"

#include "test_support.h"

namespace gnnbench {
namespace check {
namespace {

PropertyOptions
opts(int cases)
{
    PropertyOptions o;
    o.numCases = cases;
    o.baseSeed = testenv::seed();
    return o;
}

constexpr nn::ConvKind kAllKinds[] = {
    nn::ConvKind::Gcn,  nn::ConvKind::Gcn2,
    nn::ConvKind::Cheb, nn::ConvKind::Sage,
    nn::ConvKind::Gat,  nn::ConvKind::Gatv2,
    nn::ConvKind::Tag,  nn::ConvKind::Sg,
};

class ConvForward
    : public ::testing::TestWithParam<nn::ConvKind>
{
};

/** 8 kinds x 30 cases = 240 seeded forward comparisons (tier 1). */
TEST_P(ConvForward, AgreesAcrossFrameworks)
{
    const nn::ConvKind kind = GetParam();
    EXPECT_TRUE(checkProperty(
        std::string("conv-forward-") + nn::convKindName(kind),
        [kind](const GraphCase &c) {
            return diffConvForward(kind, c, c.seed ^ 0xC0);
        },
        opts(30)));
}

TEST_P(ConvForward, AgreesAcrossFrameworksSlow)
{
    const nn::ConvKind kind = GetParam();
    EXPECT_TRUE(checkProperty(
        std::string("conv-forward-slow-") +
            nn::convKindName(kind),
        [kind](const GraphCase &c) {
            return diffConvForward(kind, c, c.seed ^ 0xC1);
        },
        opts(150)));
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ConvForward, ::testing::ValuesIn(kAllKinds),
    [](const auto &info) {
        return std::string(nn::convKindName(info.param));
    });

TEST(Differential, TrainStepsAgree)
{
    EXPECT_TRUE(checkProperty(
        "train-steps",
        [](const GraphCase &c) {
            return diffTrainSteps(c, c.seed ^ 0x7A, 2);
        },
        opts(40)));
}

TEST(Differential, TrainStepsAgreeSlow)
{
    EXPECT_TRUE(checkProperty(
        "train-steps-slow",
        [](const GraphCase &c) {
            return diffTrainSteps(c, c.seed ^ 0x7B, 4);
        },
        opts(120)));
}

TEST(Differential, InducedStepAgrees)
{
    EXPECT_TRUE(checkProperty(
        "induced-step",
        [](const GraphCase &c) {
            return diffInducedStep(c, c.seed ^ 0x1D);
        },
        opts(60)));
}

TEST(Differential, UnifiedAggregationBitExact)
{
    EXPECT_TRUE(checkProperty(
        "unified-aggregation",
        [](const GraphCase &c) {
            return diffUnifiedAggregation(c, c.seed ^ 0x5E);
        },
        opts(60)));
}

TEST(Differential, UnifiedAggregationBitExactSlow)
{
    EXPECT_TRUE(checkProperty(
        "unified-aggregation-slow",
        [](const GraphCase &c) {
            return diffUnifiedAggregation(c, c.seed ^ 0x5F);
        },
        opts(200)));
}

TEST(Differential, InducedExtractionAgrees)
{
    EXPECT_TRUE(checkProperty(
        "induced-extraction",
        [](const GraphCase &c) {
            return diffInducedExtraction(c, c.seed ^ 0xEE);
        },
        opts(100)));
}

TEST(Differential, NeighborSamplerStatsAgree)
{
    EXPECT_TRUE(checkProperty(
        "neighbor-sampler-stats",
        [](const GraphCase &c) {
            return diffNeighborSamplerStats(c, {4, 3},
                                            c.seed ^ 0x45, 16);
        },
        opts(30)));
}

TEST(Differential, NeighborSamplerStatsAgreeSlow)
{
    EXPECT_TRUE(checkProperty(
        "neighbor-sampler-stats-slow",
        [](const GraphCase &c) {
            return diffNeighborSamplerStats(c, {6, 4, 2},
                                            c.seed ^ 0x46, 48,
                                            0.15);
        },
        opts(60)));
}

TEST(Differential, SaintRwStatsAgree)
{
    EXPECT_TRUE(checkProperty(
        "saint-rw-stats",
        [](const GraphCase &c) {
            return diffSaintRwStats(c, 8, 2, c.seed ^ 0x99, 16);
        },
        opts(25)));
}

} // namespace
} // namespace check
} // namespace gnnbench
