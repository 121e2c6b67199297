#include "compiler/liveness.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>

namespace firmup::compiler {

namespace {

/** Successor slot naming no block. */
constexpr std::size_t kNone = SIZE_MAX;

}  // namespace

LiveSets
compute_live_in(const MProc &proc)
{
    const std::size_t n_blocks = proc.blocks.size();
    const VReg n_vregs = proc.next_vreg;
    LiveSets out;
    const std::size_t words = (std::size_t{n_vregs} + 63) / 64;
    out.words = words;
    out.live_in.assign(n_blocks * words, 0);
    out.live_end.assign(n_blocks * words, 0);

    // Block id -> layout position, resolved once per successor edge.
    // Among duplicate ids the later block wins.
    std::vector<std::pair<int, std::size_t>> by_id(n_blocks);
    for (std::size_t b = 0; b < n_blocks; ++b) {
        by_id[b] = {proc.blocks[b].id, b};
    }
    std::sort(by_id.begin(), by_id.end());
    auto position = [&by_id](int id) {
        const auto it = std::upper_bound(
            by_id.begin(), by_id.end(), std::pair{id, kNone});
        return it != by_id.begin() && std::prev(it)->first == id
                   ? std::prev(it)->second
                   : kNone;
    };
    std::vector<std::size_t> succ(2 * n_blocks, kNone);
    for (std::size_t b = 0; b < n_blocks; ++b) {
        const MTerm &term = proc.blocks[b].term;
        if (term.kind == MTerm::Kind::Jump) {
            succ[2 * b] = position(term.target);
        } else if (term.kind == MTerm::Kind::Branch) {
            succ[2 * b] = position(term.target);
            succ[2 * b + 1] = position(term.fallthrough);
        }
    }

    // Terminator uses, which every block's live_end also holds.
    auto term_use = [&](std::size_t b, std::uint64_t *row) {
        const MTerm &term = proc.blocks[b].term;
        const VReg v = term.kind == MTerm::Kind::Branch ? term.cond
                       : term.kind == MTerm::Kind::Ret  ? term.ret_reg
                                                       : n_vregs;
        if (v < n_vregs) {
            row_set(row, words, v);
        }
    };

    // gen/kill per block: walking backward from the terminator, a def
    // leaves gen and joins kill, then the instruction's uses join gen.
    std::vector<std::uint64_t> gen(n_blocks * words, 0);
    std::vector<std::uint64_t> kill(n_blocks * words, 0);
    for (std::size_t b = 0; b < n_blocks; ++b) {
        std::uint64_t *g = gen.data() + b * words;
        std::uint64_t *k = kill.data() + b * words;
        term_use(b, g);
        const std::vector<MInst> &insts = proc.blocks[b].insts;
        for (std::size_t i = insts.size(); i-- > 0;) {
            const MInst &inst = insts[i];
            if (inst.has_dst() && inst.dst < n_vregs) {
                row_clear(g, words, inst.dst);
                row_set(k, words, inst.dst);
            }
            for_each_use(inst, [&](VReg r) {
                if (r < n_vregs) {
                    row_set(g, words, r);
                }
            });
        }
    }

    // Round-robin to the least fixpoint, last block first so most
    // successors are current before their predecessors read them.
    std::uint64_t *in = out.live_in.data();
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t b = n_blocks; b-- > 0;) {
            const std::size_t s0 = succ[2 * b];
            const std::size_t s1 = succ[2 * b + 1];
            const std::uint64_t *in0 =
                s0 != kNone ? in + s0 * words : nullptr;
            const std::uint64_t *in1 =
                s1 != kNone ? in + s1 * words : nullptr;
            const std::uint64_t *g = gen.data() + b * words;
            const std::uint64_t *k = kill.data() + b * words;
            std::uint64_t *row = in + b * words;
            for (std::size_t w = 0; w < words; ++w) {
                const std::uint64_t succ_in =
                    (in0 != nullptr ? in0[w] : 0) |
                    (in1 != nullptr ? in1[w] : 0);
                const std::uint64_t next = g[w] | (succ_in & ~k[w]);
                if (next != row[w]) {
                    row[w] = next;
                    changed = true;
                }
            }
        }
    }

    for (std::size_t b = 0; b < n_blocks; ++b) {
        std::uint64_t *end = out.live_end.data() + b * words;
        for (std::size_t s : {succ[2 * b], succ[2 * b + 1]}) {
            if (s != kNone) {
                for (std::size_t w = 0; w < words; ++w) {
                    end[w] |= in[s * words + w];
                }
            }
        }
        term_use(b, end);
    }
    return out;
}

}  // namespace firmup::compiler
