/**
 * @file
 * The pipelined memory hierarchy behind the device model.
 *
 * Every modeled byte that moves between the host and the device flows
 * through four pipelined stages — host DRAM channel → memory
 * controller → DMA engine → on-device cache tiers (L2 over VRAM) —
 * instead of being charged against a flat bandwidth constant.  A
 * transfer's modeled time is the time of its bottleneck stage (the
 * upstream stages stream into the DMA engine faster than it drains,
 * so they pipeline behind it); each stage's busy time is still
 * exported on its own synthetic trace lane ("device/<stage>
 * (modeled)") so Perfetto shows where a transfer actually spent its
 * bytes.
 *
 * On-device reuse is tracked at tile granularity: the L2 and VRAM
 * tiers are LRU caches with byte budgets and exact
 * hit/miss/eviction accounting (counters under "device.*").  Feature
 * placement policies fall out of the tiers:
 *  - *pre-loading* populates the VRAM tier once over the DMA engine,
 *    after which gathers hit VRAM (and, with reuse, L2);
 *  - *UVA / zero-copy* leaves the tiles in host DRAM, so every L2
 *    miss becomes a per-tile transaction across the link, paying the
 *    memory-controller overhead each time — which is exactly why UVA
 *    is slower per byte than a bulk DMA copy.
 *
 * The default constants are calibrated so that bulk transfers and
 * tile-granular UVA streams reproduce the former flat model exactly
 * (12 GB/s DMA; 1/12e9 + 1/24e9 = 1/8e9 s/byte for UVA), keeping
 * every figure of the reproduction stable; see docs/modeling.md.
 */

#ifndef GNNBENCH_DEVICE_HIERARCHY_H
#define GNNBENCH_DEVICE_HIERARCHY_H

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "gnnbench/core/common.h"

namespace gnnbench {

namespace profiling {
class JsonWriter;
class Counter;
} // namespace profiling

namespace device {

/**
 * Runtime configuration of the hierarchy, latched from the
 * GNNBENCH_DEVICE_* environment once per process:
 *  - GNNBENCH_DEVICE_FUSION     on|off   kernel fusion (default on)
 *  - GNNBENCH_DEVICE_L2_BYTES   positive integer, on-device L2 bytes
 *  - GNNBENCH_DEVICE_TILE_BYTES positive integer, cache-tile bytes
 * Unknown values are fatal at first read (same eager-validation
 * contract as the GNNBENCH_SERVE_* knobs).
 */
struct DeviceConfig
{
    bool fusionEnabled = true;
    uint64_t l2Bytes = 6ull << 20;
    uint64_t tileBytes = 4096;
};

/** Parse the GNNBENCH_DEVICE_* environment (fatal on bad values). */
DeviceConfig deviceConfigFromEnv();

/** The process config, read from the environment on first call and
 *  latched.  Benches call this eagerly from parseOptions so a bad
 *  knob dies at startup with a clear message. */
const DeviceConfig &deviceConfig();

/** Override the latched config (tests; also marks it latched). */
void setDeviceConfig(const DeviceConfig &cfg);

/** Stage timing constants of the modeled hierarchy. */
struct HierarchySpec
{
    /** Host DRAM channel feeding the controller (one channel). */
    double dramBandwidth = 24e9;
    /** Memory-controller service time per outstanding transaction
     *  (one tile): chosen so a saturated tile stream adds exactly
     *  tile/24e9 per transaction. */
    double controllerOverheadSeconds = 4096.0 / 24e9;
    /** DMA descriptor setup (covers the pipeline fill of the
     *  upstream stages; equals the former flat PCIe latency). */
    double dmaSetupSeconds = 10e-6;
    /** DMA engine drain rate (the former flat PCIe bandwidth). */
    double dmaBandwidth = 12e9;
    /** Cache-tile granularity of the on-device tiers. */
    uint64_t tileBytes = 4096;
    /** On-device L2 byte budget. */
    uint64_t l2Bytes = 6ull << 20;
    /** L2 service bandwidth for a hit. */
    double l2Bandwidth = 2000e9;
    /** VRAM byte budget (the device memory size). */
    uint64_t vramBytes = 48ull * 1024 * 1024 * 1024;
    /** VRAM bandwidth at full efficiency. */
    double vramBandwidth = 672e9;
    /** Achieved fraction of VRAM bandwidth for irregular row
     *  gathers (the former feature_gather efficiency). */
    double gatherEfficiency = 0.3;
};

/**
 * One LRU cache tier over fixed-size tiles, with exact accounting:
 *  - hits() + misses() == accesses()         (every access counted)
 *  - evictions() == inserts() - residentTiles() (no tile vanishes)
 *  - bytesUsed() <= capacityBytes()          (budget never exceeded)
 * access() never inserts; the caller decides what a miss fetches and
 * then insert()s, which keeps demand-fill and prefetch policies in
 * the hierarchy rather than in the tier.
 */
class CacheTier
{
  public:
    CacheTier(std::string name, uint64_t capacity_bytes,
              uint64_t tile_bytes);

    /** Touch @p tile: true on hit (promoted to MRU). */
    bool access(uint64_t tile);

    /** Make @p tile resident, evicting LRU tiles over budget; a
     *  re-insert of a resident tile only promotes it. */
    void insert(uint64_t tile);

    bool contains(uint64_t tile) const;

    /** Drop all tiles and zero the counters. */
    void reset();

    const std::string &name() const { return name_; }
    uint64_t capacityBytes() const { return capacityBytes_; }
    uint64_t tileBytes() const { return tileBytes_; }
    uint64_t capacityTiles() const { return capacityTiles_; }
    uint64_t residentTiles() const
    {
        return static_cast<uint64_t>(lru_.size());
    }
    uint64_t bytesUsed() const { return residentTiles() * tileBytes_; }

    uint64_t accesses() const { return hits_ + misses_; }
    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t inserts() const { return inserts_; }
    uint64_t evictions() const { return evictions_; }

  private:
    std::string name_;
    uint64_t capacityBytes_;
    uint64_t tileBytes_;
    uint64_t capacityTiles_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t inserts_ = 0;
    uint64_t evictions_ = 0;
    /** MRU at the front. */
    std::list<uint64_t> lru_;
    std::unordered_map<uint64_t, std::list<uint64_t>::iterator> map_;
};

/** Where a registered feature region's backing rows live. */
enum class Placement
{
    Device, ///< pre-loaded: tiles resident in the VRAM tier
    Host,   ///< pinned host memory, read zero-copy (UVA)
};

/**
 * A registered row-addressable array (a feature matrix) with its own
 * tile-id range in the hierarchy's namespace.
 */
struct FeatureRegion
{
    int id = -1;
    int64_t rows = 0;
    int64_t rowBytes = 0;
    uint64_t baseTile = 0;
    uint64_t numTiles = 0;

    bool valid() const { return id >= 0; }
    uint64_t bytes() const
    {
        return static_cast<uint64_t>(rows) *
               static_cast<uint64_t>(rowBytes);
    }
};

/**
 * The pipelined hierarchy model.  One instance per device::Session;
 * all methods return modeled seconds and leave the caller (the
 * Session) to decide which accounting bucket the time lands in.
 * Instances chain their synthetic trace timelines through a shared
 * origin (the PR 9 rank-lane pattern), so several sessions in one
 * process never interleave lane events backwards.
 */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchySpec &spec = specFromConfig());
    ~MemoryHierarchy();

    MemoryHierarchy(const MemoryHierarchy &) = delete;
    MemoryHierarchy &operator=(const MemoryHierarchy &) = delete;

    /** The default spec with the DeviceConfig knobs applied. */
    static HierarchySpec specFromConfig();

    /** Modeled seconds of one bulk host→device DMA transfer
     *  (descriptor setup + DMA-stage drain; DRAM and controller
     *  pipeline behind it). */
    double dmaTransfer(uint64_t bytes, const char *what = "h2d");

    /** Modeled seconds of @p txns zero-copy reads totalling
     *  @p bytes: the link drain plus one controller round trip per
     *  transaction (nothing hides it — that is the UVA tax). */
    double uvaRead(uint64_t bytes, uint64_t txns);

    /** Transactions a @p bytes zero-copy stream splits into at tile
     *  granularity. */
    uint64_t defaultTxns(uint64_t bytes) const;

    /** Register @p rows x @p row_bytes of gatherable data; assigns a
     *  fresh tile-id range. */
    FeatureRegion registerRegion(int64_t rows, int64_t row_bytes);

    /** Stream a region into the VRAM tier over the DMA engine;
     *  returns the modeled transfer seconds. */
    double preloadRegion(const FeatureRegion &region);

    /** Cost split of one gather, for the Session to bucket. */
    struct GatherCost
    {
        double gpuSeconds = 0.0;  ///< on-device + zero-copy read time
        double xferSeconds = 0.0; ///< demand-page DMA time
        uint64_t uvaBytes = 0;    ///< bytes that crossed zero-copy
    };

    /**
     * Walk the tiers for a row gather out of @p region: every row's
     * tiles probe L2; misses fall through to VRAM (Placement::Device)
     * or cross the link zero-copy (Placement::Host), then fill L2.
     * The packed output write lands in VRAM at gather efficiency.
     */
    GatherCost gatherRead(const FeatureRegion &region,
                          const std::vector<NodeId> &rows,
                          Placement placement);

    const CacheTier &l2() const { return l2_; }
    const CacheTier &vram() const { return vram_; }
    const HierarchySpec &spec() const { return spec_; }

    /// @name Synthetic per-tier trace lanes
    /// @{
    static constexpr const char *kDramLane = "device/dram (modeled)";
    static constexpr const char *kCtrlLane = "device/ctrl (modeled)";
    static constexpr const char *kDmaLane = "device/dma (modeled)";
    static constexpr const char *kL2Lane = "device/l2 (modeled)";
    static constexpr const char *kVramLane = "device/vram (modeled)";
    /// @}

  private:
    /** Per-stage busy seconds of one hierarchy operation. */
    struct StageTimes
    {
        double dram = 0.0;
        double ctrl = 0.0;
        double dma = 0.0;
        double l2 = 0.0;
        double vram = 0.0;
    };

    /** Emit one lane event per busy stage, all starting at the
     *  hierarchy clock, then advance the clock by @p total (every
     *  stage duration is <= total, so lanes stay monotonic). */
    void traceOp(const char *name, const StageTimes &t, double total);

    HierarchySpec spec_;
    CacheTier l2_;
    CacheTier vram_;
    int nextRegionId_ = 0;
    uint64_t nextTile_ = 0;
    double traceOrigin_ = 0.0;
    double clock_ = 0.0;
};

/**
 * Emit the "device" section of the unified run report as the value
 * of @p key: fusion counters, per-tier hit/miss/evict totals and
 * budgets, and the DMA/UVA byte streams — all from the process-wide
 * metrics registry plus the latched DeviceConfig.
 */
void writeDeviceJson(profiling::JsonWriter &w, const std::string &key);

} // namespace device
} // namespace gnnbench

#endif // GNNBENCH_DEVICE_HIERARCHY_H
