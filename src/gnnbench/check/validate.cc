#include "gnnbench/check/validate.h"

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "gnnbench/core/common.h"
#include "gnnbench/core/parse.h"

namespace gnnbench {
namespace check {

namespace {

/** -1: consult env/compile default; 0/1: setEnabled() override. */
std::atomic<int> g_override{-1};

bool
envDefault()
{
#ifdef GNNBENCH_VALIDATE_DEFAULT
    constexpr bool compiled = true;
#else
    constexpr bool compiled = false;
#endif
    // Set but empty means off, even when the compiled default is on.
    const char *v = std::getenv("GNNBENCH_VALIDATE");
    if (v != nullptr && *v == '\0')
        return false;
    return core::envChoice("GNNBENCH_VALIDATE", compiled,
                           {{"0", false},
                            {"off", false},
                            {"false", false},
                            {"1", true},
                            {"on", true},
                            {"true", true}});
}

thread_local std::vector<std::string> t_context;

} // namespace

bool
enabled()
{
    const int o = g_override.load(std::memory_order_relaxed);
    if (o >= 0)
        return o != 0;
    static const bool from_env = envDefault();
    return from_env;
}

void
setEnabled(bool on)
{
    g_override.store(on ? 1 : 0, std::memory_order_relaxed);
}

ScopedContext::ScopedContext(std::string text)
{
    t_context.push_back(std::move(text));
}

ScopedContext::~ScopedContext() { t_context.pop_back(); }

std::string
contextString()
{
    std::string out;
    for (const auto &line : t_context) {
        if (!out.empty())
            out += "; ";
        out += line;
    }
    return out;
}

void
require(const Result &r)
{
    if (r.ok)
        return;
    std::string msg = "validation failed: " + r.message;
    const std::string ctx = contextString();
    if (!ctx.empty())
        msg += " [" + ctx + "]";
    GNNBENCH_CHECK(false, msg);
}

Result
checkCoo(const graph::CooGraph &g)
{
    if (g.numNodes < 0)
        return Result::fail("coo: negative numNodes");
    if (g.src.size() != g.dst.size())
        return Result::fail("coo: src/dst length mismatch");
    for (size_t e = 0; e < g.src.size(); ++e) {
        if (g.src[e] < 0 || g.src[e] >= g.numNodes ||
            g.dst[e] < 0 || g.dst[e] >= g.numNodes) {
            std::ostringstream oss;
            oss << "coo: edge " << e << " = (" << g.src[e] << " -> "
                << g.dst[e] << ") out of range [0, " << g.numNodes
                << ")";
            return Result::fail(oss.str());
        }
    }
    return Result::pass();
}

Result
checkCsr(const graph::CsrGraph &g, const CsrOptions &opts)
{
    if (g.numRows < 0 || g.numCols < 0)
        return Result::fail("csr: negative dimension");
    if (opts.requireSquare && g.numRows != g.numCols)
        return Result::fail("csr: expected square adjacency");
    if (g.indptr.size() != static_cast<size_t>(g.numRows) + 1)
        return Result::fail("csr: indptr size != numRows + 1");
    if (g.indptr.front() != 0)
        return Result::fail("csr: indptr[0] != 0");
    for (NodeId r = 0; r < g.numRows; ++r)
        if (g.indptr[r] > g.indptr[r + 1]) {
            std::ostringstream oss;
            oss << "csr: indptr not monotone at row " << r;
            return Result::fail(oss.str());
        }
    if (g.indptr.back() != static_cast<EdgeId>(g.indices.size()))
        return Result::fail(
            "csr: degree sum != nnz (indptr.back() != indices.size())");
    for (NodeId r = 0; r < g.numRows; ++r) {
        for (EdgeId e = g.indptr[r]; e < g.indptr[r + 1]; ++e) {
            const NodeId c = g.indices[static_cast<size_t>(e)];
            if (c < 0 || c >= g.numCols) {
                std::ostringstream oss;
                oss << "csr: row " << r << " has out-of-range column "
                    << c << " (numCols=" << g.numCols << ")";
                return Result::fail(oss.str());
            }
            if (e > g.indptr[r]) {
                const NodeId prev =
                    g.indices[static_cast<size_t>(e) - 1];
                if (opts.requireSortedRows && prev > c) {
                    std::ostringstream oss;
                    oss << "csr: row " << r << " not sorted";
                    return Result::fail(oss.str());
                }
                if (opts.requireUniqueCols &&
                    opts.requireSortedRows && prev == c) {
                    std::ostringstream oss;
                    oss << "csr: row " << r << " duplicates column "
                        << c;
                    return Result::fail(oss.str());
                }
            }
        }
        if (opts.requireUniqueCols && !opts.requireSortedRows) {
            // Unsorted rows: O(deg^2) scan, fine for the row sizes
            // validation runs on.
            for (EdgeId a = g.indptr[r]; a < g.indptr[r + 1]; ++a)
                for (EdgeId b = a + 1; b < g.indptr[r + 1]; ++b)
                    if (g.indices[static_cast<size_t>(a)] ==
                        g.indices[static_cast<size_t>(b)]) {
                        std::ostringstream oss;
                        oss << "csr: row " << r
                            << " duplicates column "
                            << g.indices[static_cast<size_t>(a)];
                        return Result::fail(oss.str());
                    }
        }
    }
    return Result::pass();
}

Result
checkPartition(const graph::CsrGraph &g,
               const graph::PartitionResult &p)
{
    if (p.numParts <= 0)
        return Result::fail("partition: numParts <= 0");
    if (p.assignment.size() != static_cast<size_t>(g.numRows))
        return Result::fail(
            "partition: assignment does not cover every node");
    std::vector<NodeId> sizes(static_cast<size_t>(p.numParts), 0);
    for (size_t v = 0; v < p.assignment.size(); ++v) {
        const int32_t a = p.assignment[v];
        if (a < 0 || a >= p.numParts) {
            std::ostringstream oss;
            oss << "partition: node " << v << " assigned to part "
                << a << " outside [0, " << p.numParts << ")";
            return Result::fail(oss.str());
        }
        ++sizes[static_cast<size_t>(a)];
    }
    NodeId max_size = 0;
    for (NodeId s : sizes)
        max_size = std::max(max_size, s);
    if (max_size != p.maxPartSize) {
        std::ostringstream oss;
        oss << "partition: maxPartSize " << p.maxPartSize
            << " != recount " << max_size;
        return Result::fail(oss.str());
    }
    // Independent recount of the directed edge cut (do not reuse
    // graph::countCutEdges; a bug there must not self-certify).
    EdgeId cut = 0;
    for (NodeId u = 0; u < g.numRows; ++u) {
        const int32_t pu = p.assignment[static_cast<size_t>(u)];
        for (EdgeId e = g.indptr[u]; e < g.indptr[u + 1]; ++e) {
            const NodeId v = g.indices[static_cast<size_t>(e)];
            if (v >= 0 && v < g.numRows &&
                p.assignment[static_cast<size_t>(v)] != pu)
                ++cut;
        }
    }
    if (cut != p.cutEdges) {
        std::ostringstream oss;
        oss << "partition: cutEdges " << p.cutEdges << " != recount "
            << cut;
        return Result::fail(oss.str());
    }
    return Result::pass();
}

} // namespace check
} // namespace gnnbench
