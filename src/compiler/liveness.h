/**
 * @file
 * Backward liveness over MIR virtual registers: the one dataflow that
 * dead-code elimination and register allocation both read.
 *
 * Live sets are dense bit rows, ceil(next_vreg / 64) words per block,
 * every block's row in one flat array. Each block's transfer function is
 * summarized once as gen (upward-exposed uses, its terminator's included)
 * and kill (vregs it defines), and successor positions are resolved once,
 * so one fixpoint step is `in = gen | (succ_in & ~kill)` a word at a
 * time. Starting from empty sets the iteration reaches the least
 * fixpoint of the liveness equations, which is unique: the sets do not
 * depend on the visiting order, the word width or the summary, only on
 * the procedure.
 */
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "compiler/mir.h"

namespace firmup::compiler {

/** Per-block live sets of one procedure, as dense bit rows. */
struct LiveSets
{
    std::size_t words = 0;  ///< uint64_t words per row
    /** Row b: vregs live on entry to proc.blocks[b]. */
    std::vector<std::uint64_t> live_in;
    /**
     * Row b: vregs live just before proc.blocks[b]'s terminator — its
     * successors' live-in plus the terminator's own use.
     */
    std::vector<std::uint64_t> live_end;

    const std::uint64_t *in_row(std::size_t b) const
    {
        return live_in.data() + b * words;
    }
    const std::uint64_t *end_row(std::size_t b) const
    {
        return live_end.data() + b * words;
    }
};

/**
 * Liveness of @p proc. Vregs at or above proc.next_vreg are never live;
 * terminator targets naming no block contribute nothing.
 */
LiveSets compute_live_in(const MProc &proc);

/** Is vreg @p v set in the @p words-word row @p row? */
inline bool
row_test(const std::uint64_t *row, std::size_t words, VReg v)
{
    return (v >> 6) < words && ((row[v >> 6] >> (v & 63)) & 1) != 0;
}

/** Add vreg @p v to @p row (no-op beyond the row). */
inline void
row_set(std::uint64_t *row, std::size_t words, VReg v)
{
    if ((v >> 6) < words) {
        row[v >> 6] |= std::uint64_t{1} << (v & 63);
    }
}

/** Remove vreg @p v from @p row (no-op beyond the row). */
inline void
row_clear(std::uint64_t *row, std::size_t words, VReg v)
{
    if ((v >> 6) < words) {
        row[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
    }
}

/** Call @p fn(v) for every vreg in @p row, ascending. */
template <typename Fn>
void
for_each_vreg(const std::uint64_t *row, std::size_t words, Fn fn)
{
    for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
            fn(static_cast<VReg>(w * 64 + std::countr_zero(bits)));
        }
    }
}

}  // namespace firmup::compiler
