/**
 * @file
 * AVX2 row kernels backing KernelVariant::Simd.  Internal to the
 * kernel layer (and its conformance tests); include kernels.h for the
 * public API.
 *
 * Only the register-blocked row kernels live here: they keep a row's
 * output tile in registers across its whole edge list, which is the
 * one place hand-written lanes beat the compiler-vectorized Tiled
 * loops (docs/kernels.md records the measurements).  Every other
 * kernel runs its Tiled loop under Simd.  The kernels are compiled
 * with per-function target attributes, so the rest of the build needs
 * no -mavx2; -DGNNBENCH_DISABLE_AVX2=ON and non-x86 builds leave them
 * out, and resolveVariant() then maps Simd to Tiled.
 *
 * Bit-exactness: every kernel here accumulates each output element in
 * ascending stored-edge order using separate multiply and add (never
 * a fused multiply-add), which is the Reference arithmetic — the
 * kernels translation units are compiled with -ffp-contract=off so
 * the scalar golden model cannot silently contract either.  Sum and
 * mean are therefore bit-identical to Reference; max matches the
 * scalar `std::max(acc, x)` selection exactly (the operand order of
 * _mm256_max_ps is chosen to reproduce its NaN/zero semantics).
 */

#ifndef GNNBENCH_KERNELS_SIMD_H
#define GNNBENCH_KERNELS_SIMD_H

#include <cstdint>

#include "gnnbench/core/tensor.h"
#include "gnnbench/graph/csr.h"

namespace gnnbench {
namespace kernels {
namespace simd {

/** True when the AVX2 row kernels are compiled in (x86 and not
 *  -DGNNBENCH_DISABLE_AVX2=ON) and the CPU reports AVX2.  The row
 *  kernels below may only be called when this holds. */
bool available();

/// @name Row-range kernels (the Simd inner loops of spmm.cc)
/// Each processes rows [r0, r1) over columns [j0, j1) with the output
/// tile held in registers across the row's whole edge list, so the
/// per-edge memory traffic is just the gathered x row (plus the
/// weight), not a read-modify-write of the output.
/// @{

void spmmSumRows(const graph::CsrGraph &adj, const core::Tensor &x,
                 const float *w, bool mean, core::Tensor &out,
                 NodeId r0, NodeId r1, int64_t j0, int64_t j1);

void spmmMaxRows(const graph::CsrGraph &adj, const core::Tensor &x,
                 core::Tensor &out, NodeId r0, NodeId r1, int64_t j0,
                 int64_t j1);

void segmentSumRows(const graph::CsrGraph &adj, const core::Tensor &x,
                    core::Tensor &out, NodeId r0, NodeId r1,
                    int64_t j0, int64_t j1);

/// @}

} // namespace simd
} // namespace kernels
} // namespace gnnbench

#endif // GNNBENCH_KERNELS_SIMD_H
