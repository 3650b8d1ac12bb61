#!/usr/bin/env bash
# Build the threaded parts of gnnbench under ThreadSanitizer and run
# the tests that exercise them: the parallel substrate, the prefetch
# pipeline/dataloaders, the (parallelized) samplers, the observability
# layer, and the threaded gnncheck property/differential suites.
#
# The target list is NOT hardcoded: it is derived from the ctest
# "tsan" label (see tests/CMakeLists.txt), so adding a threaded test
# to GNNBENCH_TSAN_TESTS automatically adds it here.
#
# Every gnnbench-owned thread goes through core/parallel and
# sampling/prefetch, which is exactly what this script checks.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build-tsan"

cmake -S "$repo" -B "$build" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGNNBENCH_SANITIZE=thread \
    -DGNNBENCH_NATIVE=OFF

# `ctest -N -L tsan` prints "  Test #N: <name>" lines; the sed keeps
# just the names.  _slow registrations reuse a binary already listed.
mapfile -t targets < <(
    cd "$build" &&
    ctest -N -L tsan |
    sed -n 's/^ *Test *#[0-9]*: *\([A-Za-z0-9_]*\)$/\1/p' |
    sed 's/_slow$//' | sort -u)
if [ "${#targets[@]}" -eq 0 ]; then
    echo "error: no tests carry the 'tsan' ctest label" >&2
    exit 1
fi
echo "TSan targets (from ctest label): ${targets[*]}"

cmake --build "$build" -j"$(nproc)" --target "${targets[@]}"

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
for t in "${targets[@]}"; do
    echo "== $t (TSan) =="
    "$build/tests/$t" --gtest_filter=-*Slow*
done
echo "TSan checks passed."
