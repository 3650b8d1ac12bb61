/**
 * Test battery for the pipelined memory-hierarchy device model
 * (src/gnnbench/device/hierarchy.*).
 *
 * The LRU cache tiers carry an exact accounting contract — eviction
 * counts pinned to the arithmetic identity evictions == inserts -
 * resident, hit+miss conservation, byte budgets never exceeded —
 * checked both on hand-pinned scenarios and on gnncheck-generated
 * random access traces.  The transfer-path constants are pinned
 * against the former flat model (dmaTransfer == GpuModel::transferTime
 * exactly; tile-aligned uvaRead == bytes / 8 GB/s), so every figure of
 * the reproduction is provably unchanged by the hierarchy refactor.
 * The GNNBENCH_DEVICE_* env knobs follow the serve-layer contract:
 * unknown values are fatal at first read, never silently ignored.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "gnnbench/check/property.h"
#include "gnnbench/device/device.h"
#include "gnnbench/device/hierarchy.h"
#include "gnnbench/device/session.h"
#include "gnnbench/graph/convert.h"

#include "test_support.h"

namespace gnnbench {
namespace device {
namespace {

using check::GraphCase;
using check::PropertyOptions;
using check::Result;

PropertyOptions
propOpts(int cases)
{
    PropertyOptions o;
    o.numCases = cases;
    o.baseSeed = testenv::seed();
    return o;
}

/** The per-step accounting invariants of one tier. */
Result
tierInvariants(const CacheTier &t)
{
    if (t.hits() + t.misses() != t.accesses())
        return Result::fail("hits + misses != accesses");
    if (t.evictions() != t.inserts() - t.residentTiles())
        return Result::fail("evictions != inserts - resident");
    if (t.bytesUsed() > t.capacityBytes())
        return Result::fail("byte budget exceeded");
    if (t.residentTiles() > t.capacityTiles())
        return Result::fail("tile budget exceeded");
    return Result::pass();
}

TEST(CacheTier, ExactEvictionAccounting)
{
    // Four-tile cache; the access pattern is pinned, so every counter
    // value is an exact expectation, not a bound.
    CacheTier t("l2", 4 * 4096, 4096);
    EXPECT_EQ(t.capacityTiles(), 4u);

    for (uint64_t tile : {0u, 1u, 2u, 3u}) {
        EXPECT_FALSE(t.access(tile)); // cold miss
        t.insert(tile);
    }
    EXPECT_EQ(t.hits(), 0u);
    EXPECT_EQ(t.misses(), 4u);
    EXPECT_EQ(t.inserts(), 4u);
    EXPECT_EQ(t.evictions(), 0u);
    EXPECT_EQ(t.residentTiles(), 4u);
    EXPECT_EQ(t.bytesUsed(), t.capacityBytes());

    // Touch 0 (now MRU), then insert 4: the LRU victim must be 1.
    EXPECT_TRUE(t.access(0));
    t.insert(4);
    EXPECT_EQ(t.evictions(), 1u);
    EXPECT_FALSE(t.contains(1));
    EXPECT_TRUE(t.contains(0));
    EXPECT_TRUE(t.contains(2));
    EXPECT_TRUE(t.contains(3));
    EXPECT_TRUE(t.contains(4));

    // Re-inserting a resident tile promotes without insert/evict.
    t.insert(2);
    EXPECT_EQ(t.inserts(), 5u);
    EXPECT_EQ(t.evictions(), 1u);
    t.insert(5); // LRU order is now [2,4,0,3]: the victim is 3
    EXPECT_EQ(t.evictions(), 2u);
    EXPECT_FALSE(t.contains(3));
    EXPECT_TRUE(t.contains(0));
    EXPECT_TRUE(t.contains(2));

    EXPECT_EQ(t.hits() + t.misses(), t.accesses());
    EXPECT_EQ(t.evictions(), t.inserts() - t.residentTiles());

    t.reset();
    EXPECT_EQ(t.residentTiles(), 0u);
    EXPECT_EQ(t.accesses(), 0u);
    EXPECT_EQ(t.inserts(), 0u);
    EXPECT_EQ(t.evictions(), 0u);
}

/** Derive a tile-access trace from a generated graph: each edge's
 *  endpoints become tile ids, which preserves the generator's reuse
 *  structure (skew, duplicates, locality). */
std::vector<uint64_t>
traceFromCase(const GraphCase &c, uint64_t mod)
{
    std::vector<uint64_t> trace;
    trace.reserve(c.coo.src.size() * 2);
    for (size_t i = 0; i < c.coo.src.size(); ++i) {
        trace.push_back(static_cast<uint64_t>(c.coo.src[i]) % mod);
        trace.push_back(static_cast<uint64_t>(c.coo.dst[i]) % mod);
    }
    return trace;
}

TEST(CacheTier, ConservationOnRandomTraces)
{
    EXPECT_TRUE(checkProperty(
        "cache-tier-conservation",
        [](const GraphCase &c) {
            // Small cache so evictions actually happen.
            CacheTier t("l2", 8 * 64, 64);
            for (uint64_t tile : traceFromCase(c, 101)) {
                if (!t.access(tile))
                    t.insert(tile);
                Result r = tierInvariants(t);
                if (!r)
                    return r;
                if (!t.contains(tile))
                    return Result::fail(
                        "accessed tile not resident after fill");
            }
            return Result::pass();
        },
        propOpts(60)));
}

TEST(CacheTier, HitsMonotonicInCapacity)
{
    // LRU has the inclusion property: a larger cache serving the same
    // trace can only hit more.  This is the reuse-distance view — an
    // access hits iff its reuse distance fits the capacity.
    EXPECT_TRUE(checkProperty(
        "cache-tier-capacity-monotonic",
        [](const GraphCase &c) {
            const auto trace = traceFromCase(c, 257);
            uint64_t prev_hits = 0;
            for (uint64_t tiles : {4u, 8u, 16u, 32u}) {
                CacheTier t("l2", tiles * 64, 64);
                for (uint64_t tile : trace)
                    if (!t.access(tile))
                        t.insert(tile);
                if (t.hits() < prev_hits)
                    return Result::fail(
                        "hits dropped when capacity grew");
                prev_hits = t.hits();
            }
            return Result::pass();
        },
        propOpts(40)));
}

TEST(Hierarchy, DmaTransferMatchesFlatModel)
{
    // The pipelined path must reproduce the former flat PCIe charge
    // bit-for-bit: setup + bytes / 12 GB/s.
    MemoryHierarchy h;
    GpuModel flat{GpuSpec{}};
    for (uint64_t bytes : {0ull, 1ull, 4096ull, 1000000ull,
                           123456789ull, 26778000ull})
        EXPECT_DOUBLE_EQ(h.dmaTransfer(bytes),
                         flat.transferTime(bytes))
            << "bytes=" << bytes;
}

TEST(Hierarchy, UvaReadMatchesFlatModelAtTileGranularity)
{
    // Link drain (12 GB/s) + one controller round trip per tile
    // (tile / 24 GB/s) == the former flat 8 GB/s UVA charge, exactly,
    // for tile-aligned streams.
    MemoryHierarchy h;
    GpuModel flat{GpuSpec{}};
    const uint64_t tile = h.spec().tileBytes;
    for (uint64_t tiles : {1ull, 7ull, 1024ull}) {
        const uint64_t bytes = tiles * tile;
        EXPECT_DOUBLE_EQ(h.uvaRead(bytes, h.defaultTxns(bytes)),
                         flat.uvaAccessTime(bytes))
            << "bytes=" << bytes;
    }
    // Fewer, larger transactions beat tile-granular zero-copy: the
    // controller overhead is per transaction.
    const uint64_t bytes = 64 * tile;
    MemoryHierarchy h2;
    EXPECT_LT(h2.uvaRead(bytes, 4), h2.uvaRead(bytes, 64));
}

TEST(Hierarchy, PreloadMakesGathersHitVram)
{
    MemoryHierarchy h;
    FeatureRegion region = h.registerRegion(1024, 512);
    EXPECT_TRUE(region.valid());
    EXPECT_EQ(region.bytes(), 1024u * 512u);

    const double t = h.preloadRegion(region);
    EXPECT_GT(t, 0.0);
    EXPECT_EQ(h.vram().residentTiles(), region.numTiles);

    std::vector<NodeId> rows;
    for (NodeId v = 0; v < 1024; v += 3)
        rows.push_back(v);
    const auto c = h.gatherRead(region, rows, Placement::Device);
    EXPECT_GT(c.gpuSeconds, 0.0);
    // Everything was pre-loaded: no demand paging, no zero-copy.
    EXPECT_EQ(c.xferSeconds, 0.0);
    EXPECT_EQ(c.uvaBytes, 0u);
    EXPECT_EQ(h.vram().misses(), 0u);
}

TEST(Hierarchy, DemandPagingFillsVramOnDeviceMisses)
{
    MemoryHierarchy h;
    FeatureRegion region = h.registerRegion(1024, 512);
    std::vector<NodeId> rows = {0, 1, 2, 100, 200, 300};
    const auto c = h.gatherRead(region, rows, Placement::Device);
    // Nothing was pre-loaded: the cold misses demand-page over the
    // DMA engine and land in the VRAM tier.
    EXPECT_GT(c.xferSeconds, 0.0);
    EXPECT_EQ(c.uvaBytes, 0u);
    EXPECT_GT(h.vram().misses(), 0u);
    EXPECT_GT(h.vram().residentTiles(), 0u);

    // A second identical gather hits what the first paged in.
    const auto c2 = h.gatherRead(region, rows, Placement::Device);
    EXPECT_EQ(c2.xferSeconds, 0.0);
}

TEST(Hierarchy, HostPlacementCrossesLinkAndSkipsVram)
{
    MemoryHierarchy h;
    FeatureRegion region = h.registerRegion(1024, 512);
    std::vector<NodeId> rows = {0, 1, 2, 100, 200, 300};
    const auto c = h.gatherRead(region, rows, Placement::Host);
    // Zero-copy: bytes cross the link, the VRAM tier is never
    // populated (the rows live in pinned host memory).
    EXPECT_GT(c.uvaBytes, 0u);
    EXPECT_EQ(c.xferSeconds, 0.0);
    EXPECT_EQ(h.vram().residentTiles(), 0u);
    EXPECT_EQ(h.vram().accesses(), 0u);

    // With a hot L2, the same gather stops crossing the link.
    const auto c2 = h.gatherRead(region, rows, Placement::Host);
    EXPECT_LT(c2.uvaBytes, c.uvaBytes);
}

TEST(Hierarchy, GatherInvariantsOnRandomTraces)
{
    EXPECT_TRUE(checkProperty(
        "hierarchy-gather-invariants",
        [](const GraphCase &c) {
            if (c.coo.numNodes == 0)
                return Result::pass();
            MemoryHierarchy h;
            FeatureRegion region =
                h.registerRegion(c.coo.numNodes, 233);
            const bool preload = (c.seed & 1) != 0;
            const Placement placement = (c.seed & 2)
                                            ? Placement::Device
                                            : Placement::Host;
            if (preload && placement == Placement::Device)
                h.preloadRegion(region);
            std::vector<NodeId> rows = c.coo.src;
            rows.insert(rows.end(), c.coo.dst.begin(),
                        c.coo.dst.end());
            const auto cost = h.gatherRead(region, rows, placement);
            if (cost.gpuSeconds < 0 || cost.xferSeconds < 0)
                return Result::fail("negative modeled time");
            Result r = tierInvariants(h.l2());
            if (!r)
                return r;
            r = tierInvariants(h.vram());
            if (!r)
                return r;
            if (placement == Placement::Host &&
                h.vram().residentTiles() != 0)
                return Result::fail(
                    "host placement populated the VRAM tier");
            if (!rows.empty() && h.l2().accesses() == 0)
                return Result::fail("gather never probed L2");
            return Result::pass();
        },
        propOpts(60)));
}

TEST(Session, UvaTransactionCountDrivesCost)
{
    // Coalesced (few transactions) UVA reads are cheaper than
    // tile-granular ones — the effect the GPU sampler now derives
    // from the hierarchy instead of a hand-tuned efficiency.
    Session coalesced;
    Session granular;
    const uint64_t bytes = 1 << 22;
    coalesced.uvaAccess(bytes, 8);
    granular.uvaAccess(bytes);
    EXPECT_LT(coalesced.snapshot().modeled.gpuSeconds,
              granular.snapshot().modeled.gpuSeconds);
}

TEST(DeviceEnv, DefaultsWhenUnset)
{
    unsetenv("GNNBENCH_DEVICE_FUSION");
    unsetenv("GNNBENCH_DEVICE_L2_BYTES");
    unsetenv("GNNBENCH_DEVICE_TILE_BYTES");
    const DeviceConfig cfg = deviceConfigFromEnv();
    EXPECT_TRUE(cfg.fusionEnabled);
    EXPECT_EQ(cfg.l2Bytes, 6ull << 20);
    EXPECT_EQ(cfg.tileBytes, 4096u);
}

TEST(DeviceEnv, KnobsApply)
{
    setenv("GNNBENCH_DEVICE_FUSION", "off", 1);
    setenv("GNNBENCH_DEVICE_L2_BYTES", "1048576", 1);
    setenv("GNNBENCH_DEVICE_TILE_BYTES", "512", 1);
    const DeviceConfig cfg = deviceConfigFromEnv();
    EXPECT_FALSE(cfg.fusionEnabled);
    EXPECT_EQ(cfg.l2Bytes, 1048576u);
    EXPECT_EQ(cfg.tileBytes, 512u);
    unsetenv("GNNBENCH_DEVICE_FUSION");
    unsetenv("GNNBENCH_DEVICE_L2_BYTES");
    unsetenv("GNNBENCH_DEVICE_TILE_BYTES");
}

using DeviceEnvDeathTest = ::testing::Test;

TEST(DeviceEnvDeathTest, UnknownValuesAreFatal)
{
    // Same eager-validation contract as the GNNBENCH_SERVE_* knobs:
    // a typo dies with the valid values listed, never a silent
    // fallback.
    EXPECT_EXIT(
        {
            setenv("GNNBENCH_DEVICE_FUSION", "maybe", 1);
            deviceConfigFromEnv();
        },
        ::testing::ExitedWithCode(1), "must be one of on/off");
    EXPECT_EXIT(
        {
            setenv("GNNBENCH_DEVICE_L2_BYTES", "big", 1);
            deviceConfigFromEnv();
        },
        ::testing::ExitedWithCode(1), "must be a positive integer");
    EXPECT_EXIT(
        {
            setenv("GNNBENCH_DEVICE_TILE_BYTES", "-4096", 1);
            deviceConfigFromEnv();
        },
        ::testing::ExitedWithCode(1), "must be a positive integer");
    EXPECT_EXIT(
        {
            // Cross-field check: a tile larger than the L2 budget
            // cannot form a single-tile cache.
            setenv("GNNBENCH_DEVICE_L2_BYTES", "1024", 1);
            setenv("GNNBENCH_DEVICE_TILE_BYTES", "4096", 1);
            deviceConfigFromEnv();
        },
        ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace device
} // namespace gnnbench
