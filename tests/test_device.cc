/** Tests for the GPU roofline / transfer models and the Session
 *  time-accounting authority. */

#include <gtest/gtest.h>

#include "gnnbench/device/session.h"

namespace gnnbench {
namespace device {
namespace {

TEST(GpuModel, ComputeBoundKernel)
{
    GpuSpec spec;
    GpuModel gpu(spec);
    KernelDesc d;
    d.flops = spec.flopsPeak;  // one second of peak compute
    d.bytes = 0.0;
    const double t = gpu.kernelTime(d);
    EXPECT_NEAR(t, 1.0 + spec.kernelLaunchLatency, 1e-9);
}

TEST(GpuModel, MemoryBoundKernel)
{
    GpuSpec spec;
    GpuModel gpu(spec);
    KernelDesc d;
    d.flops = 0.0;
    d.bytes = spec.memBandwidth;  // one second of peak bandwidth
    EXPECT_NEAR(gpu.kernelTime(d), 1.0 + spec.kernelLaunchLatency,
                1e-9);
}

TEST(GpuModel, EfficiencyScalesTime)
{
    GpuModel gpu{GpuSpec{}};
    KernelDesc full, half;
    full.bytes = half.bytes = 1e9;
    full.efficiency = 1.0;
    half.efficiency = 0.5;
    const double launch = GpuSpec{}.kernelLaunchLatency;
    EXPECT_NEAR(gpu.kernelTime(half) - launch,
                2.0 * (gpu.kernelTime(full) - launch), 1e-9);
}

TEST(GpuModel, LaunchLatencyFloorsTinyKernels)
{
    GpuModel gpu{GpuSpec{}};
    KernelDesc d;
    d.flops = 100;
    d.bytes = 100;
    EXPECT_GE(gpu.kernelTime(d), GpuSpec{}.kernelLaunchLatency);
}

TEST(GpuModel, UtilizationBounds)
{
    GpuModel gpu{GpuSpec{}};
    KernelDesc tiny;
    tiny.flops = 1;
    tiny.bytes = 1;
    EXPECT_GE(gpu.kernelUtilization(tiny), 0.10);
    KernelDesc saturating;
    saturating.bytes = 1e12;
    EXPECT_LE(gpu.kernelUtilization(saturating), 1.0);
    EXPECT_GT(gpu.kernelUtilization(saturating), 0.8);
}

TEST(GpuModel, TransferBandwidth)
{
    GpuSpec spec;
    GpuModel gpu(spec);
    const double t = gpu.transferTime(static_cast<uint64_t>(
        spec.pcieBandwidth));
    EXPECT_NEAR(t, 1.0 + spec.pcieLatency, 1e-6);
    // UVA is slower than PCIe copies per byte.
    EXPECT_GT(gpu.uvaAccessTime(1 << 30),
              gpu.transferTime(1 << 30) - spec.pcieLatency);
}

TEST(Session, CpuKernelCountsWallTime)
{
    Session s;
    const auto a = s.snapshot();
    s.runKernel(DeviceType::CPU, KernelDesc{}, [] {
        volatile double x = 0;
        for (int i = 0; i < 2000000; ++i)
            x = x + i;
    });
    const auto b = s.snapshot();
    EXPECT_GT(Session::virtualSeconds(a, b), 0.0);
}

TEST(Session, GpuKernelExcludesWallChargesModel)
{
    Session s;
    KernelDesc d;
    d.bytes = 672e9;  // exactly 1 s at default peak bandwidth
    d.efficiency = 1.0;
    const auto a = s.snapshot();
    s.runKernel(DeviceType::GPU, d, [] {
        volatile double x = 0;
        for (int i = 0; i < 2000000; ++i)
            x = x + i;
    });
    const auto b = s.snapshot();
    const double virt = Session::virtualSeconds(a, b);
    // Modeled second dominates; the host's real wall time is gone.
    EXPECT_NEAR(virt, 1.0, 0.05);
    EXPECT_GT(b.modeled.gpuSeconds, 0.99);
}

TEST(Session, TransferAccounting)
{
    Session s;
    const auto a = s.snapshot();
    s.transfer(12ull * 1000 * 1000 * 1000);  // ~1 s at 12 GB/s
    const auto b = s.snapshot();
    EXPECT_NEAR(b.modeled.xferSeconds - a.modeled.xferSeconds, 1.0,
                0.01);
}

TEST(Session, OverlappedTransferDiscounts)
{
    Session s;
    const uint64_t bytes = 12ull * 1000 * 1000 * 1000;
    s.transferOverlapped(bytes, 0.4);
    EXPECT_NEAR(s.snapshot().modeled.xferSeconds, 0.6, 0.01);
    // Full overlap -> zero charged time, never negative.
    Session s2;
    s2.transferOverlapped(bytes, 100.0);
    EXPECT_EQ(s2.snapshot().modeled.xferSeconds, 0.0);
}

TEST(Session, CpuOverheadCharges)
{
    Session s;
    s.chargeCpuOverhead(0.25);
    const auto b = s.snapshot();
    EXPECT_EQ(b.modeled.cpuOverheadSeconds, 0.25);
}

TEST(Session, GpuMemoryReserveRelease)
{
    Session s;
    const uint64_t cap = GpuSpec{}.memoryBytes;
    EXPECT_TRUE(s.reserveGpu(cap / 2));
    EXPECT_TRUE(s.fitsOnGpu(cap / 2));
    EXPECT_FALSE(s.reserveGpu(cap));
    EXPECT_EQ(s.gpuBytesUsed(), cap / 2);
    s.releaseGpu(cap / 2);
    EXPECT_EQ(s.gpuBytesUsed(), 0u);
}

TEST(Session, UvaChargesGpuTimeAtLowUtil)
{
    Session s;
    s.uvaAccess(8ull * 1000 * 1000 * 1000);  // ~1 s at 8 GB/s
    const auto b = s.snapshot();
    EXPECT_NEAR(b.modeled.gpuSeconds, 1.0, 0.01);
    EXPECT_NEAR(b.modeled.gpuUtilSeconds, 0.15, 0.01);
}

} // namespace
} // namespace device
} // namespace gnnbench
