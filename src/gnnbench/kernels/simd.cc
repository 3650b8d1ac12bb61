/**
 * @file
 * The AVX2 row kernels behind KernelVariant::Simd.
 *
 * See simd.h for the contract.  The performance idea, in one line:
 * keep the output feature tile in registers across a row's whole edge
 * list (the Tiled loops instead read-modify-write the output row once
 * per edge), and make the per-lane arithmetic explicit so it does not
 * depend on what the auto-vectorizer felt like doing.
 *
 * Per-function target attributes keep the rest of the build on its
 * base ISA.  All sums use separate _mm256_mul_ps + _mm256_add_ps (no
 * fmadd) to preserve Reference rounding, and max uses
 * _mm256_max_ps(x, acc), which matches std::max(acc, x) selection
 * exactly (returns the second operand — the accumulator — on NaN or
 * equal-zero operands).  This translation unit is also compiled with
 * -ffp-contract=off (see src/CMakeLists.txt).
 */

#include "gnnbench/kernels/simd.h"

#include <algorithm>
#include <limits>

#include "gnnbench/core/common.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    !defined(GNNBENCH_DISABLE_AVX2)
#define GNNBENCH_SIMD_AVX2 1
#include <immintrin.h>
#else
#define GNNBENCH_SIMD_AVX2 0
#endif

namespace gnnbench {
namespace kernels {
namespace simd {

using core::Tensor;
using graph::CsrGraph;

#if GNNBENCH_SIMD_AVX2

bool
available()
{
    static const bool supported = __builtin_cpu_supports("avx2");
    return supported;
}

namespace {

/** 8 YMM accumulators = 64 floats: exactly one Tiling::kFeatTile. */
constexpr int64_t kVec = 8;

/** Edges of lookahead for software prefetch of gathered x rows.  The
 *  CSR gather is the latency-bound part of every SpMM: idx[] is
 *  sequential (the prefetcher handles it) but x.row(idx[e]) is not.
 *  Prefetching a few edges ahead overlaps those misses with the
 *  current edge's arithmetic; it has no effect on results. */
constexpr EdgeId kPrefetchDist = 8;

/** Prefetch the @p bytes-long span at @p p into L1. */
__attribute__((target("avx2"))) inline void
prefetchSpan(const float *p, int64_t bytes)
{
    const char *c = reinterpret_cast<const char *>(p);
    for (int64_t off = 0; off < bytes; off += 64)
        _mm_prefetch(c + off, _MM_HINT_T0);
}

template <bool Weighted>
__attribute__((target("avx2"))) void
spmmSumRowsAvx2T(const CsrGraph &adj, const Tensor &x, const float *w,
                 bool mean, Tensor &out, NodeId r0, NodeId r1,
                 int64_t j0, int64_t j1)
{
    const NodeId *idx = adj.indices.data();
    for (NodeId r = r0; r < r1; ++r) {
        float *orow = out.row(r);
        const EdgeId e0 = adj.indptr[r];
        const EdgeId e1 = adj.indptr[r + 1];
        const bool scale = mean && e1 > e0;
        const float inv =
            scale ? 1.0f / static_cast<float>(e1 - e0) : 1.0f;
        int64_t jt = j0;
        // 64-wide blocks: the whole feature tile lives in registers
        // while the row's edge list streams past once.
        for (; jt + 8 * kVec <= j1; jt += 8 * kVec) {
            __m256 a0 = _mm256_setzero_ps(), a1 = a0, a2 = a0,
                   a3 = a0, a4 = a0, a5 = a0, a6 = a0, a7 = a0;
            for (EdgeId e = e0; e < e1; ++e) {
                const float *xp = x.row(idx[e]) + jt;
                // First pass only: look a few edges ahead to hide
                // the gather miss; later passes re-walk the same
                // rows from cache.
                if (jt == j0 && e + kPrefetchDist < e1)
                    prefetchSpan(x.row(idx[e + kPrefetchDist]) + j0,
                                 8 * kVec * 4);
                if constexpr (Weighted) {
                    const __m256 wv = _mm256_set1_ps(w[e]);
                    a0 = _mm256_add_ps(
                        a0, _mm256_mul_ps(wv, _mm256_loadu_ps(xp)));
                    a1 = _mm256_add_ps(
                        a1,
                        _mm256_mul_ps(wv, _mm256_loadu_ps(xp + 8)));
                    a2 = _mm256_add_ps(
                        a2,
                        _mm256_mul_ps(wv, _mm256_loadu_ps(xp + 16)));
                    a3 = _mm256_add_ps(
                        a3,
                        _mm256_mul_ps(wv, _mm256_loadu_ps(xp + 24)));
                    a4 = _mm256_add_ps(
                        a4,
                        _mm256_mul_ps(wv, _mm256_loadu_ps(xp + 32)));
                    a5 = _mm256_add_ps(
                        a5,
                        _mm256_mul_ps(wv, _mm256_loadu_ps(xp + 40)));
                    a6 = _mm256_add_ps(
                        a6,
                        _mm256_mul_ps(wv, _mm256_loadu_ps(xp + 48)));
                    a7 = _mm256_add_ps(
                        a7,
                        _mm256_mul_ps(wv, _mm256_loadu_ps(xp + 56)));
                } else {
                    a0 = _mm256_add_ps(a0, _mm256_loadu_ps(xp));
                    a1 = _mm256_add_ps(a1, _mm256_loadu_ps(xp + 8));
                    a2 = _mm256_add_ps(a2, _mm256_loadu_ps(xp + 16));
                    a3 = _mm256_add_ps(a3, _mm256_loadu_ps(xp + 24));
                    a4 = _mm256_add_ps(a4, _mm256_loadu_ps(xp + 32));
                    a5 = _mm256_add_ps(a5, _mm256_loadu_ps(xp + 40));
                    a6 = _mm256_add_ps(a6, _mm256_loadu_ps(xp + 48));
                    a7 = _mm256_add_ps(a7, _mm256_loadu_ps(xp + 56));
                }
            }
            if (scale) {
                const __m256 iv = _mm256_set1_ps(inv);
                a0 = _mm256_mul_ps(a0, iv);
                a1 = _mm256_mul_ps(a1, iv);
                a2 = _mm256_mul_ps(a2, iv);
                a3 = _mm256_mul_ps(a3, iv);
                a4 = _mm256_mul_ps(a4, iv);
                a5 = _mm256_mul_ps(a5, iv);
                a6 = _mm256_mul_ps(a6, iv);
                a7 = _mm256_mul_ps(a7, iv);
            }
            float *op = orow + jt;
            if ((reinterpret_cast<uintptr_t>(op) & 31u) == 0) {
                // Streaming stores: the freshly reduced output row
                // is not re-read here, so skip the read-for-
                // ownership and keep the cache for gathered x rows.
                _mm256_stream_ps(op, a0);
                _mm256_stream_ps(op + 8, a1);
                _mm256_stream_ps(op + 16, a2);
                _mm256_stream_ps(op + 24, a3);
                _mm256_stream_ps(op + 32, a4);
                _mm256_stream_ps(op + 40, a5);
                _mm256_stream_ps(op + 48, a6);
                _mm256_stream_ps(op + 56, a7);
            } else {
                _mm256_storeu_ps(op, a0);
                _mm256_storeu_ps(op + 8, a1);
                _mm256_storeu_ps(op + 16, a2);
                _mm256_storeu_ps(op + 24, a3);
                _mm256_storeu_ps(op + 32, a4);
                _mm256_storeu_ps(op + 40, a5);
                _mm256_storeu_ps(op + 48, a6);
                _mm256_storeu_ps(op + 56, a7);
            }
        }
        for (; jt + kVec <= j1; jt += kVec) {
            __m256 acc = _mm256_setzero_ps();
            for (EdgeId e = e0; e < e1; ++e) {
                const float *xp = x.row(idx[e]) + jt;
                if constexpr (Weighted)
                    acc = _mm256_add_ps(
                        acc, _mm256_mul_ps(_mm256_set1_ps(w[e]),
                                           _mm256_loadu_ps(xp)));
                else
                    acc = _mm256_add_ps(acc, _mm256_loadu_ps(xp));
            }
            if (scale)
                acc = _mm256_mul_ps(acc, _mm256_set1_ps(inv));
            _mm256_storeu_ps(orow + jt, acc);
        }
        if (jt < j1) {
            const int64_t bw = j1 - jt;
            float acc[kVec] = {0};
            for (EdgeId e = e0; e < e1; ++e) {
                const float *xp = x.row(idx[e]) + jt;
                if constexpr (Weighted) {
                    const float we = w[e];
                    for (int64_t k = 0; k < bw; ++k)
                        acc[k] += we * xp[k];
                } else {
                    for (int64_t k = 0; k < bw; ++k)
                        acc[k] += xp[k];
                }
            }
            for (int64_t k = 0; k < bw; ++k)
                orow[jt + k] = scale ? acc[k] * inv : acc[k];
        }
    }
    // Drain the write-combining buffers of the streaming stores
    // before this task is reported done to the scheduler.
    _mm_sfence();
}

__attribute__((target("avx2"))) void
spmmMaxRowsAvx2(const CsrGraph &adj, const Tensor &x, Tensor &out,
                NodeId r0, NodeId r1, int64_t j0, int64_t j1)
{
    const NodeId *idx = adj.indices.data();
    constexpr float kNegInf = -std::numeric_limits<float>::infinity();
    for (NodeId r = r0; r < r1; ++r) {
        float *orow = out.row(r);
        const EdgeId e0 = adj.indptr[r];
        const EdgeId e1 = adj.indptr[r + 1];
        if (e0 == e1) {
            for (int64_t j = j0; j < j1; ++j)
                orow[j] = 0.0f;
            continue;
        }
        int64_t jt = j0;
        for (; jt + 4 * kVec <= j1; jt += 4 * kVec) {
            const __m256 ninf = _mm256_set1_ps(kNegInf);
            __m256 a0 = ninf, a1 = ninf, a2 = ninf, a3 = ninf;
            for (EdgeId e = e0; e < e1; ++e) {
                const float *xp = x.row(idx[e]) + jt;
                if (jt == j0 && e + kPrefetchDist < e1)
                    prefetchSpan(x.row(idx[e + kPrefetchDist]) + j0,
                                 4 * kVec * 4);
                a0 = _mm256_max_ps(_mm256_loadu_ps(xp), a0);
                a1 = _mm256_max_ps(_mm256_loadu_ps(xp + 8), a1);
                a2 = _mm256_max_ps(_mm256_loadu_ps(xp + 16), a2);
                a3 = _mm256_max_ps(_mm256_loadu_ps(xp + 24), a3);
            }
            float *op = orow + jt;
            if ((reinterpret_cast<uintptr_t>(op) & 31u) == 0) {
                _mm256_stream_ps(op, a0);
                _mm256_stream_ps(op + 8, a1);
                _mm256_stream_ps(op + 16, a2);
                _mm256_stream_ps(op + 24, a3);
            } else {
                _mm256_storeu_ps(op, a0);
                _mm256_storeu_ps(op + 8, a1);
                _mm256_storeu_ps(op + 16, a2);
                _mm256_storeu_ps(op + 24, a3);
            }
        }
        for (; jt + kVec <= j1; jt += kVec) {
            __m256 acc = _mm256_set1_ps(kNegInf);
            for (EdgeId e = e0; e < e1; ++e)
                acc = _mm256_max_ps(
                    _mm256_loadu_ps(x.row(idx[e]) + jt), acc);
            _mm256_storeu_ps(orow + jt, acc);
        }
        if (jt < j1) {
            const int64_t bw = j1 - jt;
            float acc[kVec];
            for (int64_t k = 0; k < bw; ++k)
                acc[k] = kNegInf;
            for (EdgeId e = e0; e < e1; ++e) {
                const float *xp = x.row(idx[e]) + jt;
                for (int64_t k = 0; k < bw; ++k)
                    acc[k] = std::max(acc[k], xp[k]);
            }
            for (int64_t k = 0; k < bw; ++k)
                orow[jt + k] = acc[k];
        }
    }
    _mm_sfence();
}

__attribute__((target("avx2"))) void
segmentSumRowsAvx2(const CsrGraph &adj, const Tensor &x, Tensor &out,
                   NodeId r0, NodeId r1, int64_t j0, int64_t j1)
{
    for (NodeId r = r0; r < r1; ++r) {
        float *orow = out.row(r);
        const EdgeId e0 = adj.indptr[r];
        const EdgeId e1 = adj.indptr[r + 1];
        int64_t jt = j0;
        for (; jt + 4 * kVec <= j1; jt += 4 * kVec) {
            __m256 a0 = _mm256_setzero_ps(), a1 = a0, a2 = a0,
                   a3 = a0;
            for (EdgeId e = e0; e < e1; ++e) {
                const float *xp = x.row(e) + jt;
                a0 = _mm256_add_ps(a0, _mm256_loadu_ps(xp));
                a1 = _mm256_add_ps(a1, _mm256_loadu_ps(xp + 8));
                a2 = _mm256_add_ps(a2, _mm256_loadu_ps(xp + 16));
                a3 = _mm256_add_ps(a3, _mm256_loadu_ps(xp + 24));
            }
            _mm256_storeu_ps(orow + jt, a0);
            _mm256_storeu_ps(orow + jt + 8, a1);
            _mm256_storeu_ps(orow + jt + 16, a2);
            _mm256_storeu_ps(orow + jt + 24, a3);
        }
        for (; jt + kVec <= j1; jt += kVec) {
            __m256 acc = _mm256_setzero_ps();
            for (EdgeId e = e0; e < e1; ++e)
                acc = _mm256_add_ps(acc,
                                    _mm256_loadu_ps(x.row(e) + jt));
            _mm256_storeu_ps(orow + jt, acc);
        }
        if (jt < j1) {
            const int64_t bw = j1 - jt;
            float acc[kVec] = {0};
            for (EdgeId e = e0; e < e1; ++e) {
                const float *xp = x.row(e) + jt;
                for (int64_t k = 0; k < bw; ++k)
                    acc[k] += xp[k];
            }
            for (int64_t k = 0; k < bw; ++k)
                orow[jt + k] = acc[k];
        }
    }
}

} // namespace

void
spmmSumRows(const CsrGraph &adj, const Tensor &x, const float *w,
            bool mean, Tensor &out, NodeId r0, NodeId r1, int64_t j0,
            int64_t j1)
{
    if (w)
        spmmSumRowsAvx2T<true>(adj, x, w, mean, out, r0, r1, j0, j1);
    else
        spmmSumRowsAvx2T<false>(adj, x, w, mean, out, r0, r1, j0, j1);
}

void
spmmMaxRows(const CsrGraph &adj, const Tensor &x, Tensor &out,
            NodeId r0, NodeId r1, int64_t j0, int64_t j1)
{
    spmmMaxRowsAvx2(adj, x, out, r0, r1, j0, j1);
}

void
segmentSumRows(const CsrGraph &adj, const Tensor &x, Tensor &out,
               NodeId r0, NodeId r1, int64_t j0, int64_t j1)
{
    segmentSumRowsAvx2(adj, x, out, r0, r1, j0, j1);
}

#else // !GNNBENCH_SIMD_AVX2

// No row kernels in this build: resolveVariant() runs Tiled wherever
// Simd is asked for, so these are never reached.

bool
available()
{
    return false;
}

void
spmmSumRows(const CsrGraph &, const Tensor &, const float *, bool,
            Tensor &, NodeId, NodeId, int64_t, int64_t)
{
    GNNBENCH_ASSERT(false, "simd::spmmSumRows without AVX2");
}

void
spmmMaxRows(const CsrGraph &, const Tensor &, Tensor &, NodeId, NodeId,
            int64_t, int64_t)
{
    GNNBENCH_ASSERT(false, "simd::spmmMaxRows without AVX2");
}

void
segmentSumRows(const CsrGraph &, const Tensor &, Tensor &, NodeId,
               NodeId, int64_t, int64_t)
{
    GNNBENCH_ASSERT(false, "simd::segmentSumRows without AVX2");
}

#endif // GNNBENCH_SIMD_AVX2

} // namespace simd
} // namespace kernels
} // namespace gnnbench
