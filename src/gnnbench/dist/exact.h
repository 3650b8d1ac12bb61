/**
 * @file
 * Exact fixed-point accumulation for order-invariant reductions.
 *
 * The distributed trainer must produce bit-identical weights no
 * matter how the graph is sharded: the same gradient sum computed as
 * one group (1 rank) or as N partial sums (N ranks) has to yield the
 * same float.  Plain float/double addition is not associative, so
 * cross-rank reductions instead accumulate into a 128-bit
 * fixed-point value (a small Kulisch accumulator):
 *
 *   - each float x float product is formed exactly in double
 *     (24 + 24 significand bits fit in double's 53),
 *   - scaled by 2^80 (exact: a power-of-two scale) and truncated
 *     toward zero to an __int128 (deterministic, per-term),
 *   - added with two's-complement wraparound arithmetic, which is
 *     exactly associative and commutative.
 *
 * Any grouping of the terms — per rank, per thread chunk, or one
 * serial loop — produces the same 128-bit value, so the final
 * double -> float conversion is performed once on identical bits
 * everywhere.  The 2^-80 quantum truncates contributions below
 * ~8e-25 (irrelevant at gradient magnitudes), and the 2^47 integer
 * headroom is far above any realistic gradient sum; encoding a term
 * of magnitude 2^46 or more, Inf or NaN panics with "exact
 * accumulator overflow".
 *
 * This is also what makes the modeled allreduce order-invariant (see
 * dist/comm.h): reducing rank partials in any permutation gives the
 * same bits, which tests/test_dist.cc asserts directly.
 */

#ifndef GNNBENCH_DIST_EXACT_H
#define GNNBENCH_DIST_EXACT_H

#include <cmath>
#include <cstdint>
#include <vector>

#include "gnnbench/core/common.h"
#include "gnnbench/core/tensor.h"

namespace gnnbench {
namespace dist {

/** Encode a double as a 2^-80-quantum fixed-point 128-bit value. */
inline unsigned __int128
toFixed(double v)
{
    const double scaled = v * 0x1p80;
    GNNBENCH_ASSERT(std::abs(scaled) < 0x1p126,
                    "exact accumulator overflow");
    return static_cast<unsigned __int128>(
        static_cast<__int128>(scaled));
}

/** Decode a fixed-point value back to double (one rounding). */
inline double
fromFixed(unsigned __int128 a)
{
    return static_cast<double>(static_cast<__int128>(a)) * 0x1p-80;
}

/**
 * A rows x cols matrix of exact fixed-point accumulators.  The
 * gradient reductions build one per parameter tensor; merge() is the
 * (wraparound, hence order-invariant) allreduce combine step.
 */
class ExactTensor
{
  public:
    ExactTensor() = default;

    ExactTensor(int64_t rows, int64_t cols)
        : rows_(rows), cols_(cols),
          acc_(static_cast<size_t>(rows * cols), 0)
    {
    }

    int64_t rows() const { return rows_; }
    int64_t cols() const { return cols_; }
    int64_t numel() const { return rows_ * cols_; }

    /** acc[i][j] += a * b, exactly. */
    void
    addProduct(int64_t i, int64_t j, float a, float b)
    {
        acc_[static_cast<size_t>(i * cols_ + j)] +=
            toFixed(static_cast<double>(a) * static_cast<double>(b));
    }

    /** acc[i][j] += v, exactly (v quantized once). */
    void
    add(int64_t i, int64_t j, double v)
    {
        acc_[static_cast<size_t>(i * cols_ + j)] += toFixed(v);
    }

    /** Elementwise wraparound merge (the allreduce combine). */
    void
    merge(const ExactTensor &other)
    {
        GNNBENCH_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
                       "ExactTensor::merge shape mismatch");
        for (size_t i = 0; i < acc_.size(); ++i)
            acc_[i] += other.acc_[i];
    }

    /** Raw accumulator words (tests poke at merge order). */
    unsigned __int128 &raw(size_t i) { return acc_[i]; }
    const unsigned __int128 &raw(size_t i) const { return acc_[i]; }

    /** Convert to a float tensor (one rounding per element). */
    core::Tensor
    toTensor() const
    {
        core::Tensor t(rows_, cols_);
        float *p = t.data();
        for (size_t i = 0; i < acc_.size(); ++i)
            p[i] = static_cast<float>(fromFixed(acc_[i]));
        return t;
    }

  private:
    int64_t rows_ = 0;
    int64_t cols_ = 0;
    std::vector<unsigned __int128> acc_;
};

/** A single exact scalar (loss sums, diagnostics). */
class ExactScalar
{
  public:
    void add(double v) { acc_ += toFixed(v); }
    void merge(const ExactScalar &o) { acc_ += o.acc_; }
    double value() const { return fromFixed(acc_); }

  private:
    unsigned __int128 acc_ = 0;
};

/**
 * Exact a^T b: the (a.cols x b.cols) accumulator whose element (i, j)
 * holds the wraparound sum over rows u of toFixed(a(u,i) * b(u,j)),
 * word for word what addProduct() would build term by term, skipping
 * the terms with a(u,i) == 0.  Computed eight output columns per
 * vector (see exact.cc); chunked over a's columns, so neither the
 * thread count nor a row grouping (per rank) changes any word.
 * Panics with "exact accumulator overflow" like toFixed().
 */
ExactTensor exactMatmulTa(const core::Tensor &a, const core::Tensor &b);

} // namespace dist
} // namespace gnnbench

#endif // GNNBENCH_DIST_EXACT_H
