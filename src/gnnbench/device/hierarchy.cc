#include "gnnbench/device/hierarchy.h"

#include <algorithm>
#include <limits>
#include <mutex>

#include "gnnbench/core/parse.h"
#include "gnnbench/profiling/json_writer.h"
#include "gnnbench/profiling/metrics_registry.h"
#include "gnnbench/profiling/trace.h"

namespace gnnbench {
namespace device {

DeviceConfig
deviceConfigFromEnv()
{
    DeviceConfig cfg;
    cfg.fusionEnabled =
        core::envChoice("GNNBENCH_DEVICE_FUSION", cfg.fusionEnabled,
                        {{"on", true}, {"off", false}});
    constexpr uint64_t kMaxBytes = std::numeric_limits<int64_t>::max();
    cfg.l2Bytes = core::envInt<uint64_t>("GNNBENCH_DEVICE_L2_BYTES",
                                         cfg.l2Bytes, 1, kMaxBytes);
    cfg.tileBytes = core::envInt<uint64_t>("GNNBENCH_DEVICE_TILE_BYTES",
                                           cfg.tileBytes, 1, kMaxBytes);
    GNNBENCH_CHECK(cfg.tileBytes <= cfg.l2Bytes,
                   "GNNBENCH_DEVICE_TILE_BYTES (", cfg.tileBytes,
                   ") must not exceed GNNBENCH_DEVICE_L2_BYTES (",
                   cfg.l2Bytes, ")");
    return cfg;
}

namespace {

std::mutex g_config_mutex;
DeviceConfig g_config;
bool g_config_latched = false;

} // namespace

const DeviceConfig &
deviceConfig()
{
    std::lock_guard lock(g_config_mutex);
    if (!g_config_latched) {
        g_config = deviceConfigFromEnv();
        g_config_latched = true;
    }
    return g_config;
}

void
setDeviceConfig(const DeviceConfig &cfg)
{
    std::lock_guard lock(g_config_mutex);
    g_config = cfg;
    g_config_latched = true;
}

CacheTier::CacheTier(std::string name, uint64_t capacity_bytes,
                     uint64_t tile_bytes)
    : name_(std::move(name)), capacityBytes_(capacity_bytes),
      tileBytes_(tile_bytes)
{
    GNNBENCH_CHECK(tile_bytes > 0 && capacity_bytes >= tile_bytes,
                   "CacheTier ", name_,
                   ": capacity must hold at least one tile");
    capacityTiles_ = capacity_bytes / tile_bytes;
}

bool
CacheTier::access(uint64_t tile)
{
    auto it = map_.find(tile);
    if (it == map_.end()) {
        ++misses_;
        return false;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
}

void
CacheTier::insert(uint64_t tile)
{
    auto it = map_.find(tile);
    if (it != map_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    ++inserts_;
    lru_.push_front(tile);
    map_.emplace(tile, lru_.begin());
    while (lru_.size() > capacityTiles_) {
        map_.erase(lru_.back());
        lru_.pop_back();
        ++evictions_;
    }
}

bool
CacheTier::contains(uint64_t tile) const
{
    return map_.count(tile) != 0;
}

void
CacheTier::reset()
{
    lru_.clear();
    map_.clear();
    hits_ = misses_ = inserts_ = evictions_ = 0;
}

namespace {

// Registry metrics live for the process lifetime; references are
// cached once (the same pattern session.cc uses).
struct DeviceCounters
{
    profiling::Counter &l2Hits;
    profiling::Counter &l2Misses;
    profiling::Counter &l2Evictions;
    profiling::Counter &vramHits;
    profiling::Counter &vramMisses;
    profiling::Counter &vramEvictions;
    profiling::Counter &dmaTransfers;
    profiling::Counter &dmaBytes;
    profiling::Counter &uvaTxns;
    profiling::Counter &uvaBytes;
    profiling::Counter &preloadBytes;
    profiling::Counter &gatherRows;
};

DeviceCounters &
counters()
{
    auto &reg = profiling::MetricsRegistry::global();
    static DeviceCounters c{
        reg.counter("device.l2.hits"),
        reg.counter("device.l2.misses"),
        reg.counter("device.l2.evictions"),
        reg.counter("device.vram.hits"),
        reg.counter("device.vram.misses"),
        reg.counter("device.vram.evictions"),
        reg.counter("device.dma.transfers"),
        reg.counter("device.dma.bytes"),
        reg.counter("device.uva.transactions"),
        reg.counter("device.uva.bytes"),
        reg.counter("device.preload.bytes"),
        reg.counter("device.gather.rows"),
    };
    return c;
}

/**
 * Hands each hierarchy instance a trace-time origin at or after the
 * end of the previous instance's timeline (the PR 9 rank-lane
 * pattern), so several sessions in one process never interleave
 * their synthetic lane events backwards.
 */
std::mutex g_origin_mutex;
double g_next_origin = 0.0;

double
claimTraceOrigin()
{
    std::lock_guard lock(g_origin_mutex);
    const auto &rec = profiling::TraceRecorder::global();
    double origin = g_next_origin;
    if (rec.enabled())
        origin = std::max(origin, rec.now());
    g_next_origin = origin;
    return origin;
}

void
publishTraceEnd(double end)
{
    std::lock_guard lock(g_origin_mutex);
    g_next_origin = std::max(g_next_origin, end);
}

} // namespace

HierarchySpec
MemoryHierarchy::specFromConfig()
{
    const DeviceConfig &cfg = deviceConfig();
    HierarchySpec spec;
    spec.l2Bytes = cfg.l2Bytes;
    spec.tileBytes = cfg.tileBytes;
    // Keep the controller's saturated-stream identity (one tile per
    // transaction at tile/24e9) under a tile-size override.
    spec.controllerOverheadSeconds =
        static_cast<double>(cfg.tileBytes) / spec.dramBandwidth;
    return spec;
}

MemoryHierarchy::MemoryHierarchy(const HierarchySpec &spec)
    : spec_(spec), l2_("l2", spec.l2Bytes, spec.tileBytes),
      vram_("vram", spec.vramBytes, spec.tileBytes)
{
    GNNBENCH_CHECK(spec_.dramBandwidth > 0.0 &&
                       spec_.dmaBandwidth > 0.0 &&
                       spec_.l2Bandwidth > 0.0 &&
                       spec_.vramBandwidth > 0.0 &&
                       spec_.gatherEfficiency > 0.0,
                   "MemoryHierarchy: invalid stage constants");
    traceOrigin_ = claimTraceOrigin();
}

MemoryHierarchy::~MemoryHierarchy()
{
    publishTraceEnd(traceOrigin_ + clock_);
}

void
MemoryHierarchy::traceOp(const char *name, const StageTimes &t,
                         double total)
{
    if (total <= 0.0)
        return;
    auto &rec = profiling::TraceRecorder::global();
    if (rec.enabled()) {
        const std::pair<const char *, double> stages[] = {
            {kDramLane, t.dram}, {kCtrlLane, t.ctrl},
            {kDmaLane, t.dma},   {kL2Lane, t.l2},
            {kVramLane, t.vram},
        };
        for (const auto &[lane, dur] : stages)
            if (dur > 0.0)
                rec.recordSynthetic(lane, name, "device",
                                    traceOrigin_ + clock_, dur);
    }
    clock_ += total;
}

uint64_t
MemoryHierarchy::defaultTxns(uint64_t bytes) const
{
    return (bytes + spec_.tileBytes - 1) / spec_.tileBytes;
}

double
MemoryHierarchy::dmaTransfer(uint64_t bytes, const char *what)
{
    const double b = static_cast<double>(bytes);
    StageTimes t;
    t.dram = b / spec_.dramBandwidth;
    t.ctrl = static_cast<double>(defaultTxns(bytes)) *
             spec_.controllerOverheadSeconds;
    t.dma = spec_.dmaSetupSeconds + b / spec_.dmaBandwidth;
    // The DMA engine is the bottleneck stage; DRAM and the controller
    // stream into it faster than it drains, so they pipeline behind
    // it and the descriptor setup covers the pipeline fill.
    const double total = t.dma;
    counters().dmaTransfers.add(1);
    counters().dmaBytes.add(bytes);
    traceOp(what, t, total);
    return total;
}

double
MemoryHierarchy::uvaRead(uint64_t bytes, uint64_t txns)
{
    txns = std::max<uint64_t>(txns, 1);
    const double b = static_cast<double>(bytes);
    StageTimes t;
    t.dram = b / spec_.dramBandwidth;
    t.ctrl = static_cast<double>(txns) *
             spec_.controllerOverheadSeconds;
    t.dma = b / spec_.dmaBandwidth;
    // Zero-copy reads have no DMA descriptor to hide behind: every
    // transaction pays the controller round trip on top of the link
    // drain, which is why UVA is slower per byte than a bulk copy.
    const double total = t.dma + t.ctrl;
    counters().uvaTxns.add(txns);
    counters().uvaBytes.add(bytes);
    traceOp("uva:read", t, total);
    return total;
}

FeatureRegion
MemoryHierarchy::registerRegion(int64_t rows, int64_t row_bytes)
{
    GNNBENCH_ASSERT(rows >= 0 && row_bytes > 0,
                    "registerRegion: bad shape");
    FeatureRegion r;
    r.id = nextRegionId_++;
    r.rows = rows;
    r.rowBytes = row_bytes;
    r.baseTile = nextTile_;
    r.numTiles = (r.bytes() + spec_.tileBytes - 1) / spec_.tileBytes;
    nextTile_ += r.numTiles;
    return r;
}

double
MemoryHierarchy::preloadRegion(const FeatureRegion &region)
{
    GNNBENCH_ASSERT(region.valid(), "preloadRegion: unregistered");
    const double t = dmaTransfer(region.bytes(), "dma:preload");
    for (uint64_t tl = region.baseTile;
         tl < region.baseTile + region.numTiles; ++tl)
        vram_.insert(tl);
    counters().preloadBytes.add(region.bytes());
    return t;
}

MemoryHierarchy::GatherCost
MemoryHierarchy::gatherRead(const FeatureRegion &region,
                            const std::vector<NodeId> &rows,
                            Placement placement)
{
    GNNBENCH_ASSERT(region.valid(), "gatherRead: unregistered");
    const uint64_t tile = spec_.tileBytes;
    const double tile_b = static_cast<double>(tile);
    StageTimes t;
    uint64_t uva_bytes = 0, uva_txns = 0, dma_bytes = 0;
    uint64_t l2_hits = 0, l2_misses = 0;
    uint64_t vram_hits = 0, vram_misses = 0;
    const uint64_t l2_evict0 = l2_.evictions();
    const uint64_t vram_evict0 = vram_.evictions();

    for (const NodeId v : rows) {
        GNNBENCH_ASSERT(v >= 0 &&
                            static_cast<int64_t>(v) < region.rows,
                        "gatherRead: row out of region");
        const uint64_t off =
            static_cast<uint64_t>(v) *
            static_cast<uint64_t>(region.rowBytes);
        const uint64_t first = region.baseTile + off / tile;
        const uint64_t last =
            region.baseTile +
            (off + static_cast<uint64_t>(region.rowBytes) - 1) / tile;
        for (uint64_t tl = first; tl <= last; ++tl) {
            if (l2_.access(tl)) {
                ++l2_hits;
                t.l2 += tile_b / spec_.l2Bandwidth;
                continue;
            }
            ++l2_misses;
            if (placement == Placement::Device) {
                if (vram_.access(tl)) {
                    ++vram_hits;
                    t.vram += tile_b / (spec_.vramBandwidth *
                                        spec_.gatherEfficiency);
                } else {
                    // Demand page: the tile crosses the link once,
                    // then lives in VRAM.
                    ++vram_misses;
                    dma_bytes += tile;
                    vram_.insert(tl);
                }
            } else {
                // Zero-copy: the tile stays in host DRAM; one link
                // transaction per miss, VRAM is never populated.
                uva_bytes += tile;
                ++uva_txns;
            }
            l2_.insert(tl);
        }
    }
    // Packed output write into VRAM at gather efficiency.
    const double out_bytes = static_cast<double>(rows.size()) *
                             static_cast<double>(region.rowBytes);
    t.vram +=
        out_bytes / (spec_.vramBandwidth * spec_.gatherEfficiency);

    GatherCost c;
    c.uvaBytes = uva_bytes;
    if (uva_txns > 0) {
        const double b = static_cast<double>(uva_bytes);
        t.dram += b / spec_.dramBandwidth;
        t.ctrl += static_cast<double>(uva_txns) *
                  spec_.controllerOverheadSeconds;
        t.dma += b / spec_.dmaBandwidth;
        c.gpuSeconds += b / spec_.dmaBandwidth +
                        static_cast<double>(uva_txns) *
                            spec_.controllerOverheadSeconds;
    }
    if (dma_bytes > 0) {
        const double b = static_cast<double>(dma_bytes);
        t.dram += b / spec_.dramBandwidth;
        t.ctrl += static_cast<double>(vram_misses) *
                  spec_.controllerOverheadSeconds;
        t.dma += b / spec_.dmaBandwidth;
        c.xferSeconds += b / spec_.dmaBandwidth +
                         static_cast<double>(vram_misses) *
                             spec_.controllerOverheadSeconds;
        counters().dmaBytes.add(dma_bytes);
    }
    c.gpuSeconds += t.l2 + t.vram;

    auto &cnt = counters();
    cnt.l2Hits.add(l2_hits);
    cnt.l2Misses.add(l2_misses);
    cnt.l2Evictions.add(l2_.evictions() - l2_evict0);
    cnt.vramHits.add(vram_hits);
    cnt.vramMisses.add(vram_misses);
    cnt.vramEvictions.add(vram_.evictions() - vram_evict0);
    cnt.gatherRows.add(rows.size());
    if (uva_txns > 0) {
        cnt.uvaTxns.add(uva_txns);
        cnt.uvaBytes.add(uva_bytes);
    }

    traceOp(placement == Placement::Device ? "gather:dev"
                                           : "gather:uva",
            t, c.gpuSeconds + c.xferSeconds);
    return c;
}

void
writeDeviceJson(profiling::JsonWriter &w, const std::string &key)
{
    const DeviceConfig &cfg = deviceConfig();
    auto &reg = profiling::MetricsRegistry::global();
    auto cv = [&reg](const char *name) {
        return reg.counter(name).value();
    };
    w.beginObject(key);
    w.value("tile_bytes", cfg.tileBytes);
    w.beginObject("fusion");
    w.value("enabled", cfg.fusionEnabled);
    w.value("fused_pairs", cv("device.fusion.fused_pairs"));
    w.value("fused_bytes_saved",
            cv("device.fusion.fused_bytes_saved"));
    w.value("rejected_pairs", cv("device.fusion.rejected_pairs"));
    w.endObject();
    w.beginObject("tiers");
    w.beginObject("l2");
    w.value("capacity_bytes", cfg.l2Bytes);
    w.value("hits", cv("device.l2.hits"));
    w.value("misses", cv("device.l2.misses"));
    w.value("evictions", cv("device.l2.evictions"));
    w.endObject();
    w.beginObject("vram");
    w.value("capacity_bytes", HierarchySpec{}.vramBytes);
    w.value("hits", cv("device.vram.hits"));
    w.value("misses", cv("device.vram.misses"));
    w.value("evictions", cv("device.vram.evictions"));
    w.endObject();
    w.endObject();
    w.beginObject("dma");
    w.value("transfers", cv("device.dma.transfers"));
    w.value("bytes", cv("device.dma.bytes"));
    w.endObject();
    w.beginObject("uva");
    w.value("transactions", cv("device.uva.transactions"));
    w.value("bytes", cv("device.uva.bytes"));
    w.endObject();
    w.value("kernel_bytes", cv("device.kernel.bytes"));
    w.value("preload_bytes", cv("device.preload.bytes"));
    w.value("gather_rows", cv("device.gather.rows"));
    w.endObject();
}

} // namespace device
} // namespace gnnbench
