/** Tests for the phase tracker and the report tables. */

#include <gtest/gtest.h>

#include "gnnbench/profiling/profiler.h"
#include <fstream>
#include <thread>
#include <vector>

#include "gnnbench/core/parallel.h"
#include "gnnbench/profiling/report.h"

namespace gnnbench {
namespace profiling {
namespace {

void
spin()
{
    volatile double x = 0;
    for (int i = 0; i < 500000; ++i)
        x = x + i;
}

TEST(PhaseTracker, AttributesToPhases)
{
    device::Session session;
    PhaseTracker tracker(session);
    {
        auto s = tracker.track(Phase::Sampling);
        spin();
    }
    {
        auto s = tracker.track(Phase::Training);
        session.chargeCpuOverhead(0.5);
    }
    EXPECT_GT(tracker.phase(Phase::Sampling).cpuBusySeconds, 0.0);
    EXPECT_NEAR(tracker.phase(Phase::Training).cpuBusySeconds, 0.5,
                0.05);
    EXPECT_EQ(tracker.phase(Phase::DataLoading).seconds(), 0.0);
}

TEST(PhaseTracker, GpuKernelLandsInGpuSeconds)
{
    device::Session session;
    PhaseTracker tracker(session);
    device::KernelDesc d;
    d.bytes = 672e8;  // 0.1 s at peak
    {
        auto s = tracker.track(Phase::Training);
        session.runKernel(device::DeviceType::GPU, d, [] { spin(); });
    }
    const auto &slice = tracker.phase(Phase::Training);
    EXPECT_NEAR(slice.gpuBusySeconds, 0.1, 0.01);
    // Host wall time of the emulated kernel must NOT leak into CPU.
    EXPECT_LT(slice.cpuBusySeconds, 0.05);
}

TEST(PhaseTracker, TotalSumsPhases)
{
    device::Session session;
    PhaseTracker tracker(session);
    {
        auto s = tracker.track(Phase::Sampling);
        session.chargeCpuOverhead(0.2);
    }
    {
        auto s = tracker.track(Phase::DataMovement);
        session.transfer(12ull << 30);
    }
    const auto total = tracker.total();
    EXPECT_NEAR(total.seconds(),
                tracker.phase(Phase::Sampling).seconds() +
                    tracker.phase(Phase::DataMovement).seconds(),
                1e-9);
}

TEST(PhaseTracker, ConcurrentAddIsSafeAndExact)
{
    device::Session session;
    PhaseTracker tracker(session);
    constexpr int kThreads = 8;
    constexpr int kAdds = 1000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&tracker] {
            power::ActivitySlice s;
            s.cpuBusySeconds = 0.001;
            for (int i = 0; i < kAdds; ++i)
                tracker.add(Phase::Sampling, s);
        });
    for (auto &t : threads)
        t.join();
    EXPECT_NEAR(tracker.phase(Phase::Sampling).cpuBusySeconds,
                kThreads * kAdds * 0.001, 1e-6);
}

TEST(PhaseTracker, WorkerThreadScopeGoesToWorkerTally)
{
    device::Session session;
    PhaseTracker tracker(session);
    std::thread worker([&tracker] {
        core::parallel::WorkerThreadScope mark;
        auto s = tracker.track(Phase::Sampling);
        spin();
    });
    worker.join();
    // Worker time is detached: the main phases stay empty and the
    // measured CPU busy seconds land in the worker tally.
    EXPECT_EQ(tracker.phase(Phase::Sampling).seconds(), 0.0);
    EXPECT_GT(tracker.workerPhase(Phase::Sampling).cpuBusySeconds,
              0.0);
    EXPECT_EQ(tracker.total().seconds(), 0.0);
}

TEST(PhaseTracker, AddWorkerKeepsTotalUnchanged)
{
    device::Session session;
    PhaseTracker tracker(session);
    {
        auto s = tracker.track(Phase::Training);
        session.chargeCpuOverhead(0.25);
    }
    const double before = tracker.total().seconds();
    power::ActivitySlice w;
    w.cpuBusySeconds = 7.0;
    tracker.addWorker(Phase::Sampling, w);
    EXPECT_NEAR(before, 0.25, 0.05);
    EXPECT_EQ(tracker.total().seconds(), before);
    EXPECT_NEAR(tracker.workerPhase(Phase::Sampling).cpuBusySeconds,
                7.0, 1e-12);
}

TEST(Report, TableAlignsAndRenders)
{
    Table t({"a", "longer"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    const std::string s = t.render();
    EXPECT_NE(s.find("longer"), std::string::npos);
    EXPECT_NE(s.find("333"), std::string::npos);
    EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Report, CsvRendering)
{
    Table t({"name", "value"});
    t.addRow({"plain", "1"});
    t.addRow({"with,comma", "2"});
    t.addRow({"with\"quote", "3"});
    const std::string csv = t.renderCsv();
    EXPECT_EQ(csv, "name,value\n"
                   "plain,1\n"
                   "\"with,comma\",2\n"
                   "\"with\"\"quote\",3\n");
}

TEST(Report, CsvWriteToFile)
{
    Table t({"a"});
    t.addRow({"x"});
    const std::string path =
        std::string(::testing::TempDir()) + "/table.csv";
    t.writeCsv(path);
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "a");
    std::getline(in, line);
    EXPECT_EQ(line, "x");
}

TEST(Report, Formatters)
{
    EXPECT_EQ(fmtSeconds(0.5), "500.00 ms");
    EXPECT_EQ(fmtSeconds(2.0), "2.000 s");
    EXPECT_EQ(fmtSeconds(5e-6), "5.0 us");
    EXPECT_EQ(fmtJoules(1500.0), "1.50 kJ");
    EXPECT_EQ(fmtJoules(20.0), "20.00 J");
    EXPECT_EQ(fmtCount(1234567), "1,234,567");
    EXPECT_EQ(fmtCount(12), "12");
    EXPECT_EQ(fmtFixed(3.14159, 2), "3.14");
}

TEST(Report, PhaseNames)
{
    EXPECT_STREQ(phaseName(Phase::DataLoading), "data_loading");
    EXPECT_STREQ(phaseName(Phase::Sampling), "sampling");
    EXPECT_STREQ(phaseName(Phase::DataMovement), "data_movement");
    EXPECT_STREQ(phaseName(Phase::Training), "training");
}

} // namespace
} // namespace profiling
} // namespace gnnbench
