/**
 * @file
 * Shared gtest entry point for every test binary.
 *
 * - Reads the run's base RNG seed from GNNBENCH_TEST_SEED (default
 *   42); randomized tests obtain it through testenv::seed().
 * - On any failed check, prints a one-line repro recipe to stderr
 *   carrying the seed and the failing test's --gtest_filter.
 * - Stops at the first failing test (--gtest_fail_fast) so the first
 *   broken invariant is the one reported; set
 *   GNNBENCH_TEST_KEEP_GOING=1 to run the full suite regardless.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "gnnbench/core/parse.h"
#include "test_support.h"

namespace gnnbench {
namespace testenv {

uint64_t
seed()
{
    static const uint64_t s =
        core::envInt<uint64_t>("GNNBENCH_TEST_SEED", 42, 0);
    return s;
}

} // namespace testenv
} // namespace gnnbench

namespace {

/** Prints a seed-carrying repro line for every failed check. */
class SeedReporter : public ::testing::EmptyTestEventListener
{
  public:
    explicit SeedReporter(const char *binary) : binary_(binary) {}

  private:
    // NB: gtest holds its internal mutex while notifying
    // OnTestPartResult, so we must not call back into UnitTest
    // there; the running test's name is captured in OnTestStart.
    void
    OnTestStart(const ::testing::TestInfo &info) override
    {
        suite_ = info.test_suite_name();
        test_ = info.name();
    }

    void
    OnTestPartResult(const ::testing::TestPartResult &result) override
    {
        if (!result.failed())
            return;
        std::fprintf(
            stderr,
            "[gnncheck] repro: GNNBENCH_TEST_SEED=%llu %s "
            "--gtest_filter='%s.%s'\n",
            static_cast<unsigned long long>(
                gnnbench::testenv::seed()),
            binary_, suite_, test_);
    }

    const char *binary_;
    const char *suite_ = "?";
    const char *test_ = "?";
};

} // namespace

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    if (std::getenv("GNNBENCH_TEST_KEEP_GOING") == nullptr)
        ::testing::GTEST_FLAG(fail_fast) = true;
    ::testing::UnitTest::GetInstance()->listeners().Append(
        new SeedReporter(argc > 0 ? argv[0] : "test"));
    return RUN_ALL_TESTS();
}
