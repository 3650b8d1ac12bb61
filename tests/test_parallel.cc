/** The shared parallel substrate: chunked loops, reductions, the
 *  determinism contract across pool sizes, nested-call safety,
 *  exception propagation, fatal exits while the pool is live, and the
 *  bounded queue. */

#include <array>
#include <atomic>
#include <numeric>
#include <thread>

#include <gtest/gtest.h>

#include "gnnbench/check/validate.h"
#include "gnnbench/core/parallel.h"
#include "gnnbench/core/parse.h"
#include "gnnbench/core/rng.h"
#include "gnnbench/device/hierarchy.h"
#include "gnnbench/kernels/kernels.h"
#include "gnnbench/profiling/perf_counters.h"

namespace gnnbench {
namespace core {
namespace parallel {
namespace {

/** Run fn under each pool size and restore the original setting. */
template <typename Fn>
void
withThreadCounts(std::initializer_list<int> counts, Fn &&fn)
{
    const int restore = numThreads();
    for (int t : counts) {
        setNumThreads(t);
        fn(t);
    }
    setNumThreads(restore);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    withThreadCounts({1, 4}, [](int) {
        std::vector<int> hits(1000, 0);
        parallelFor(0, 1000, 7, [&](int64_t b, int64_t e) {
            for (int64_t i = b; i < e; ++i)
                hits[i] += 1;
        });
        for (int h : hits)
            ASSERT_EQ(h, 1);
    });
}

TEST(ParallelFor, EmptyAndSingleElementRanges)
{
    withThreadCounts({1, 4}, [](int) {
        int calls = 0;
        parallelFor(5, 5, 8, [&](int64_t, int64_t) { ++calls; });
        EXPECT_EQ(calls, 0);
        std::vector<int> one(1, 0);
        parallelFor(0, 1, 8,
                    [&](int64_t b, int64_t e) { one[b] = int(e); });
        EXPECT_EQ(one[0], 1);
    });
}

TEST(ParallelForChunks, ChunkDecompositionIndependentOfPoolSize)
{
    // The determinism contract: chunk (index, begin, end) triples
    // depend only on (begin, end, grain) — never on the pool size.
    auto collect = [] {
        std::vector<std::array<int64_t, 3>> chunks(
            static_cast<size_t>(detail::chunkCount(3, 1003, 17)));
        parallelForChunks(3, 1003, 17,
                          [&](int64_t c, int64_t b, int64_t e) {
                              chunks[static_cast<size_t>(c)] = {c, b,
                                                                e};
                          });
        return chunks;
    };
    std::vector<std::vector<std::array<int64_t, 3>>> seen;
    withThreadCounts({1, 2, 4}, [&](int) { seen.push_back(collect()); });
    EXPECT_EQ(seen[0], seen[1]);
    EXPECT_EQ(seen[0], seen[2]);
}

TEST(ParallelFor, ChunkSeededRngIdenticalAcrossPoolSizes)
{
    // Randomized callers derive one Rng per chunk: outputs must be
    // bit-identical for any thread count.
    auto draw = [] {
        std::vector<uint64_t> out(512);
        const uint64_t base = 0xfeedf00dULL;
        parallelForChunks(0, 512, 19,
                          [&](int64_t c, int64_t b, int64_t e) {
                              Rng rng(chunkSeed(base, 7, c));
                              for (int64_t i = b; i < e; ++i)
                                  out[i] = rng.next();
                          });
        return out;
    };
    std::vector<std::vector<uint64_t>> seen;
    withThreadCounts({1, 4}, [&](int) { seen.push_back(draw()); });
    EXPECT_EQ(seen[0], seen[1]);
}

TEST(ParallelReduce, SumMatchesSerialAndIsDeterministic)
{
    std::vector<double> values(10000);
    Rng rng(99);
    for (auto &v : values)
        v = rng.uniform() - 0.5;

    auto reduce = [&] {
        return parallelReduce(
            0, static_cast<int64_t>(values.size()), 64, 0.0,
            [&](int64_t b, int64_t e) {
                double s = 0.0;
                for (int64_t i = b; i < e; ++i)
                    s += values[i];
                return s;
            },
            [](double a, double b) { return a + b; });
    };
    std::vector<double> results;
    withThreadCounts({1, 2, 4},
                     [&](int) { results.push_back(reduce()); });
    // Bit-identical across pool sizes (in-order combine), and close
    // to the serial sum.
    EXPECT_EQ(results[0], results[1]);
    EXPECT_EQ(results[0], results[2]);
    const double serial =
        std::accumulate(values.begin(), values.end(), 0.0);
    EXPECT_NEAR(results[0], serial, 1e-9);
}

TEST(ParallelReduce, EmptyRangeReturnsInit)
{
    EXPECT_EQ(parallelReduce(
                  10, 10, 4, int64_t{42},
                  [](int64_t, int64_t) { return int64_t{1}; },
                  [](int64_t a, int64_t b) { return a + b; }),
              42);
}

TEST(ParallelFor, NestedCallsRunSeriallyAndCorrectly)
{
    withThreadCounts({1, 4}, [](int) {
        std::vector<int64_t> out(64 * 64, 0);
        parallelFor(0, 64, 4, [&](int64_t r0, int64_t r1) {
            for (int64_t r = r0; r < r1; ++r)
                parallelFor(0, 64, 8, [&](int64_t c0, int64_t c1) {
                    for (int64_t c = c0; c < c1; ++c)
                        out[r * 64 + c] = r * 64 + c;
                });
        });
        for (int64_t i = 0; i < 64 * 64; ++i)
            ASSERT_EQ(out[i], i);
    });
}

TEST(ParallelFor, WorkerThreadScopeForcesSerialExecution)
{
    EXPECT_FALSE(inWorkerThread());
    WorkerThreadScope scope;
    EXPECT_TRUE(inWorkerThread());
    // All chunks execute on this thread.
    const auto self = std::this_thread::get_id();
    parallelFor(0, 100, 3, [&](int64_t, int64_t) {
        EXPECT_EQ(std::this_thread::get_id(), self);
    });
}

TEST(ParallelFor, ExceptionPropagatesToCaller)
{
    withThreadCounts({1, 4}, [](int) {
        EXPECT_THROW(
            parallelFor(0, 1000, 8,
                        [&](int64_t b, int64_t) {
                            if (b >= 500)
                                throw std::runtime_error("boom");
                        }),
            std::runtime_error);
    });
}

TEST(ParallelFor, UsableAgainAfterException)
{
    withThreadCounts({4}, [](int) {
        try {
            parallelFor(0, 100, 4, [&](int64_t, int64_t) {
                throw std::runtime_error("first");
            });
            FAIL() << "expected throw";
        } catch (const std::runtime_error &) {
        }
        std::atomic<int64_t> sum{0};
        parallelFor(0, 100, 4, [&](int64_t b, int64_t e) {
            sum += e - b;
        });
        EXPECT_EQ(sum.load(), 100);
    });
}

// A user-facing fatal error must exit with status 1 while the pool is
// live.  Under the "fast" death-test style the child is forked without
// the pool's worker threads, so an exit path that ran the pool's
// static destructor would join threads that do not exist and crash.
TEST(ParallelForDeathTest, FatalExitsCleanlyWhilePoolIsLive)
{
    ::testing::GTEST_FLAG(death_test_style) = "fast";
    withThreadCounts({4}, [](int) {
        std::atomic<int64_t> sum{0};
        parallelFor(0, 100, 4, [&](int64_t b, int64_t e) {
            sum += e - b;
        });
        ASSERT_EQ(sum.load(), 100);
        EXPECT_EXIT(GNNBENCH_CHECK(false, "pool is live"),
                    ::testing::ExitedWithCode(1),
                    "fatal: .*pool is live");
    });
}

TEST(BoundedQueue, FifoWithinCapacity)
{
    BoundedQueue<int> q(4);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(q.push(i));
    EXPECT_EQ(q.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        auto v = q.pop();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, i);
    }
}

TEST(BoundedQueue, PushBlocksUntilPopThenCloseDrains)
{
    BoundedQueue<int> q(1);
    EXPECT_TRUE(q.push(0));
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        EXPECT_TRUE(q.push(1)); // blocks until the consumer pops
        pushed = true;
    });
    EXPECT_EQ(q.pop().value(), 0);
    producer.join();
    EXPECT_TRUE(pushed.load());
    q.close();
    EXPECT_FALSE(q.push(2));          // closed: rejected
    EXPECT_EQ(q.pop().value(), 1);    // drains buffered item
    EXPECT_FALSE(q.pop().has_value()); // then reports closed
}

TEST(BoundedQueue, CloseWakesBlockedConsumer)
{
    BoundedQueue<int> q(2);
    std::thread consumer([&] {
        EXPECT_FALSE(q.pop().has_value()); // woken by close()
    });
    q.close();
    consumer.join();
}

// Every numeric GNNBENCH_* knob (GNNBENCH_NUM_THREADS among them) and
// bench flag goes through parseInt / parsePositive.  Each malformed
// form exits 1 naming the knob and the accepted form: no partial read
// of "4x" as 4, no silent fallback, no uncaught exception.
TEST(ParseDeathTest, MalformedIntegersAreFatal)
{
    for (const char *v : {"abc", "4x", "2abc", "", " 4", "4 ", "+4", "1.5",
                          "0", "-3", "99999999999999999999"}) {
        SCOPED_TRACE(v);
        EXPECT_EXIT(parseInt<int>("GNNBENCH_NUM_THREADS", v),
                    ::testing::ExitedWithCode(1),
                    "GNNBENCH_NUM_THREADS must be a positive integer, "
                    "got '");
    }
    EXPECT_EXIT(parseInt<int>("--metrics-port", "65536", 0, 65535),
                ::testing::ExitedWithCode(1),
                "--metrics-port must be a non-negative integer, got "
                "'65536' \\(at most 65535\\)");
    EXPECT_EXIT(parseInt<uint64_t>("--seed", "-1", 0),
                ::testing::ExitedWithCode(1),
                "--seed must be a non-negative integer, got '-1'");
}

TEST(ParseDeathTest, MalformedNumbersAreFatal)
{
    for (const char *v :
         {"abc", "0.5x", "", " 1", "0", "-0.5", "nan", "inf", "1e999"}) {
        SCOPED_TRACE(v);
        EXPECT_EXIT(parsePositive("--scale", v),
                    ::testing::ExitedWithCode(1),
                    "--scale must be a positive number, got '");
    }
}

TEST(ParseDeathTest, MalformedEnvValueIsFatal)
{
    EXPECT_EXIT(
        {
            setenv("PARSE_TEST_KNOB", "4x", 1);
            envInt("PARSE_TEST_KNOB", 2);
        },
        ::testing::ExitedWithCode(1),
        "PARSE_TEST_KNOB must be a positive integer, got '4x'");
}

TEST(Parse, AcceptsWholeNumbersInRange)
{
    EXPECT_EQ(parseInt<int>("--epochs", "8"), 8);
    EXPECT_EQ(parseInt<int>("--workers", "0", 0), 0);
    EXPECT_EQ(parseInt<int>("--metrics-port", "65535", 0, 65535), 65535);
    EXPECT_EQ(parseInt<uint64_t>("--seed", "18446744073709551615", 0),
              UINT64_MAX);
    EXPECT_EQ(parsePositive("--scale", "0.5"), 0.5);
    EXPECT_EQ(parsePositive("--scale", "1e-3"), 1e-3);

    // Unset and empty environment values keep the fallback.
    unsetenv("PARSE_TEST_KNOB");
    EXPECT_EQ(envInt("PARSE_TEST_KNOB", 3), 3);
    setenv("PARSE_TEST_KNOB", "", 1);
    EXPECT_EQ(envInt("PARSE_TEST_KNOB", 3), 3);
    EXPECT_EQ(envPositive("PARSE_TEST_KNOB", 50.0), 50.0);
    setenv("PARSE_TEST_KNOB", "12", 1);
    EXPECT_EQ(envInt("PARSE_TEST_KNOB", 3), 12);
    EXPECT_EQ(envPositive("PARSE_TEST_KNOB", 50.0), 12.0);
    unsetenv("PARSE_TEST_KNOB");
}

TEST(Parse, ChoicesMatchWholeWords)
{
    const Choice<int> sizes[] = {{"small", 1}, {"large", 2}};
    EXPECT_EQ(parseChoice("--size", "small", sizes), 1);
    EXPECT_EQ(parseChoice("--size", "large", sizes), 2);
    unsetenv("PARSE_TEST_KNOB");
    EXPECT_EQ(envChoice("PARSE_TEST_KNOB", 7, sizes), 7);
    setenv("PARSE_TEST_KNOB", "", 1);
    EXPECT_EQ(envChoice("PARSE_TEST_KNOB", 7, sizes), 7);
    setenv("PARSE_TEST_KNOB", "large", 1);
    EXPECT_EQ(envChoice("PARSE_TEST_KNOB", 7, sizes), 2);
    unsetenv("PARSE_TEST_KNOB");
}

TEST(ParseDeathTest, MalformedChoiceIsFatal)
{
    const Choice<bool> onOff[] = {{"on", true}, {"off", false}};
    for (const char *v : {"ON", "on ", " on", "", "of", "1"}) {
        SCOPED_TRACE(v);
        EXPECT_EXIT(parseChoice("PARSE_TEST_KNOB", v, onOff),
                    ::testing::ExitedWithCode(1),
                    "fatal: PARSE_TEST_KNOB must be one of on/off, got '");
    }
}

// A GNNBENCH_CHECK with a message prints the message alone; one
// without prints its condition.
TEST(ParseDeathTest, CheckPrintsMessageNotCondition)
{
    EXPECT_EXIT(GNNBENCH_CHECK(numThreads() < 0, "bad ", 42),
                ::testing::ExitedWithCode(1), "^fatal: bad 42 \\(");
    EXPECT_EXIT(GNNBENCH_CHECK(numThreads() < 0),
                ::testing::ExitedWithCode(1),
                "^fatal: numThreads\\(\\) < 0 \\(");
}

/** Every word-valued knob, with the call that reads (and latches) it. */
struct WordKnob
{
    const char *name;
    bool (*read)();
};

const WordKnob kWordKnobs[] = {
    {"GNNBENCH_KERNEL_VARIANT",
     [] {
         return kernels::defaultVariant() == kernels::KernelVariant::Tiled;
     }},
    {"GNNBENCH_DEVICE_FUSION",
     [] { return device::deviceConfigFromEnv().fusionEnabled; }},
    {"GNNBENCH_PERF", [] { return profiling::perfAvailable(); }},
    {"GNNBENCH_VALIDATE", [] { return gnnbench::check::enabled(); }},
};

// Each knob is read once per process, so every row runs in a freshly
// executed child ("threadsafe" death tests re-run the binary).
TEST(ParseDeathTest, MalformedWordKnobsAreFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const WordKnob &k : kWordKnobs) {
        SCOPED_TRACE(k.name);
        EXPECT_EXIT(
            {
                setenv(k.name, "maybe", 1);
                k.read();
            },
            ::testing::ExitedWithCode(1),
            std::string("fatal: ") + k.name +
                " must be one of [a-z0-9/]+, got 'maybe'");
    }
}

// The spellings accepted before the knobs shared one parser keep their
// meaning; a child reports what its knob read as its exit code.
TEST(ParseDeathTest, WordKnobSpellingsKeepTheirMeaning)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const struct
    {
        const WordKnob &knob;
        const char *value;
        bool want;
    } rows[] = {
        {kWordKnobs[0], "tiled", true},
        {kWordKnobs[0], "auto", false},
        {kWordKnobs[1], "on", true},
        {kWordKnobs[1], "off", false},
        {kWordKnobs[2], "off", false},
        {kWordKnobs[3], "", false},
        {kWordKnobs[3], "0", false},
        {kWordKnobs[3], "off", false},
        {kWordKnobs[3], "false", false},
        {kWordKnobs[3], "1", true},
        {kWordKnobs[3], "on", true},
        {kWordKnobs[3], "true", true},
    };
    for (const auto &r : rows) {
        SCOPED_TRACE(std::string(r.knob.name) + "=" + r.value);
        EXPECT_EXIT(
            {
                setenv(r.knob.name, r.value, 1);
                std::_Exit(r.knob.read() ? 10 : 11);
            },
            ::testing::ExitedWithCode(r.want ? 10 : 11), "");
    }
}

TEST(Parallel, NumThreadsPositiveAndAdjustable)
{
    const int restore = numThreads();
    EXPECT_GE(restore, 1);
    setNumThreads(3);
    EXPECT_EQ(numThreads(), 3);
    setNumThreads(restore);
}

} // namespace
} // namespace parallel
} // namespace core
} // namespace gnnbench
