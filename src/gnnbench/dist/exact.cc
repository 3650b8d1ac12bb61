#include "gnnbench/dist/exact.h"

#include <algorithm>
#include <limits>

#include "gnnbench/core/parallel.h"

namespace gnnbench {
namespace dist {

namespace {

// ---------------------------------------------------------------
// exactMatmulTa computes toFixed(double(a) * double(b)) for eight
// output columns at once, in GCC vector extensions, with no library
// call per term.  Per lane, with m = |s|:
//
//   s  = (a * 2^80) * b       exact: 24 + 24 significand bits fit
//                             in 53, and a power-of-two scale is exact
//   hi = int64(m * 2^-64)     floor(m / 2^64), below 2^62
//   r  = m - double(hi)*2^64  the bits of m below 2^64: a subset of
//                             m's significand, so exact, in [0, 2^64)
//   lo = uint64(r)            truncation: hi * 2^64 + lo == trunc(m)
//
// so hi * 2^64 + lo is |t| for t = static_cast<__int128>(s).
// Positive and negative terms add into separate (lo, hi) word pairs
// with carry, and the element is (P - N) mod 2^128: the wraparound
// sum of every t, as adding them one by one gives.
// ---------------------------------------------------------------

/** Output columns per vector: one 64-byte vector of doubles. */
constexpr int64_t kLanes = 8;

typedef double VecD __attribute__((vector_size(kLanes * sizeof(double))));
typedef int64_t VecI __attribute__((vector_size(kLanes * sizeof(int64_t))));
typedef uint64_t VecU
    __attribute__((vector_size(kLanes * sizeof(uint64_t))));

/** Columns of a per parallel chunk.  Each element is summed exactly
 *  inside one chunk, so the grain cannot change any word. */
constexpr int64_t kColGrain = 8;

/** The 128-bit word hi * 2^64 + lo. */
inline unsigned __int128
word(uint64_t hi, uint64_t lo)
{
    return (static_cast<unsigned __int128>(hi) << 64) | lo;
}

/** The positive (P) and negative (N) sums of eight elements. */
struct Acc
{
    VecU pLo{}, pHi{}, nLo{}, nHi{};

    /** Lane @p l's element, (P - N) mod 2^128. */
    unsigned __int128
    element(int64_t l) const
    {
        return word(pHi[l], pLo[l]) - word(nHi[l], nLo[l]);
    }
};

/**
 * Add toFixed(a * b) of each lane to @p acc, given as = a * 2^80.
 * @p ok keeps per lane whether every term so far had |s| < 2^126
 * (false for Inf and NaN); a term out of range adds 0 instead, so no
 * conversion sees an out-of-range double.
 */
inline void
addTerms(double as, VecD b, Acc &acc, VecI &ok)
{
    const VecD s = as * b;
    const VecU neg = (VecU)((VecI)s >> 63);
    const VecI bits = (VecI)s & std::numeric_limits<int64_t>::max();
    const VecI in_range = (VecD)bits < 0x1p126;
    ok &= in_range;
    const VecD m = (VecD)(bits & in_range);
    const VecI hi = __builtin_convertvector(m * 0x1p-64, VecI);
    const VecU lo = __builtin_convertvector(
        m - __builtin_convertvector(hi, VecD) * 0x1p64, VecU);
    // A carry out of lo is (lo_sum < addend), which compares to -1.
    const VecU plo = lo & ~neg, nlo = lo & neg;
    acc.pLo += plo;
    acc.pHi += ((VecU)hi & ~neg) - (VecU)(acc.pLo < plo);
    acc.nLo += nlo;
    acc.nHi += ((VecU)hi & neg) - (VecU)(acc.nLo < nlo);
}

} // namespace

ExactTensor
exactMatmulTa(const core::Tensor &a, const core::Tensor &b)
{
    GNNBENCH_ASSERT(a.rows() == b.rows(), "exactMatmulTa row mismatch");
    const int64_t n = a.rows();
    const int64_t cols = b.cols();
    const int64_t blocks = (cols + kLanes - 1) / kLanes;
    ExactTensor out(a.cols(), cols);

    // b in doubles, one vector per (block, row), block-major; lanes
    // past b's last column stay zero, add 0 and are never stored.
    std::vector<VecD> bpack(static_cast<size_t>(blocks * n));
    for (int64_t u = 0; u < n; ++u)
        for (int64_t j = 0; j < cols; ++j)
            bpack[static_cast<size_t>(j / kLanes * n + u)][j % kLanes] =
                static_cast<double>(b(u, j));

    core::parallel::parallelFor(
        0, a.cols(), kColGrain, [&](int64_t i0, int64_t i1) {
            // The rows u of column i where a(u, i) != 0, and
            // a(u, i) * 2^80 (exact).
            std::vector<int64_t> rows;
            std::vector<double> scaled;
            VecI ok = ~VecI{};
            for (int64_t i = i0; i < i1; ++i) {
                rows.clear();
                scaled.clear();
                for (int64_t u = 0; u < n; ++u)
                    if (a(u, i) != 0.0f) {
                        rows.push_back(u);
                        scaled.push_back(static_cast<double>(a(u, i)) *
                                         0x1p80);
                    }
                for (int64_t q = 0; q < blocks; ++q) {
                    const VecD *bq = bpack.data() + q * n;
                    Acc acc;
                    for (size_t t = 0; t < rows.size(); ++t)
                        addTerms(scaled[t], bq[rows[t]], acc, ok);
                    const int64_t j0 = q * kLanes;
                    for (int64_t l = 0; l < std::min(kLanes, cols - j0);
                         ++l)
                        out.raw(static_cast<size_t>(i * cols + j0 + l)) =
                            acc.element(l);
                }
            }
            for (int64_t l = 0; l < kLanes; ++l)
                GNNBENCH_ASSERT(ok[l] != 0, "exact accumulator overflow");
        });
    return out;
}

} // namespace dist
} // namespace gnnbench
