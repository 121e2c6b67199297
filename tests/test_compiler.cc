/**
 * @file
 * Unit tests for the compiler substrate: AST lowering, optimization
 * passes, CFG reshaping (merge/rotate), inlining, toolchain profiles and
 * the bitset liveness analysis (against a per-vreg reference).
 */
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "compiler/liveness.h"
#include "compiler/lower.h"
#include "compiler/passes.h"
#include "compiler/toolchain.h"
#include "firmware/catalog.h"
#include "lang/generate.h"
#include "support/rng.h"

namespace firmup::compiler {
namespace {

using lang::Expr;
using lang::Stmt;

lang::PackageSource
simple_package()
{
    lang::PackageSource pkg;
    pkg.name = "p";
    pkg.globals = {{"g0", 4}};
    lang::ProcedureAst proc;
    proc.name = "f";
    proc.num_params = 1;
    proc.num_locals = 1;
    // v0 = p0 * 8; if (v0 < 10) return 1; return v0;
    proc.body.push_back(Stmt::assign_local(
        0, Expr::bin(lang::BinOp::Mul, Expr::param(0),
                     Expr::constant(8))));
    std::vector<lang::StmtPtr> then_body;
    then_body.push_back(Stmt::ret(Expr::constant(1)));
    proc.body.push_back(Stmt::if_stmt(
        Expr::bin(lang::BinOp::Lt, Expr::local(0), Expr::constant(10)),
        std::move(then_body), {}));
    proc.body.push_back(Stmt::ret(Expr::local(0)));
    pkg.procedures.push_back(std::move(proc));
    return pkg;
}

TEST(Lowering, ProducesEntryBlockAndTerminators)
{
    const MModule module = lower_package(simple_package());
    ASSERT_EQ(module.procs.size(), 1u);
    const MProc &proc = module.procs[0];
    EXPECT_EQ(proc.blocks[0].id, 0);
    for (const MBlock &block : proc.blocks) {
        // Every block has a well-formed terminator target.
        switch (block.term.kind) {
          case MTerm::Kind::Jump:
            EXPECT_NE(proc.block_by_id(block.term.target), nullptr);
            break;
          case MTerm::Kind::Branch:
            EXPECT_NE(proc.block_by_id(block.term.target), nullptr);
            EXPECT_NE(proc.block_by_id(block.term.fallthrough), nullptr);
            break;
          case MTerm::Kind::Ret:
            break;
        }
    }
}

TEST(Lowering, GtBecomesSwappedLt)
{
    lang::PackageSource pkg;
    pkg.name = "p";
    lang::ProcedureAst proc;
    proc.name = "f";
    proc.num_params = 2;
    proc.body.push_back(lang::Stmt::ret(Expr::bin(
        lang::BinOp::Gt, Expr::param(0), Expr::param(1))));
    pkg.procedures.push_back(std::move(proc));
    const MModule module = lower_package(pkg);
    bool found = false;
    for (const MInst &inst : module.procs[0].blocks[0].insts) {
        if (inst.kind == MInst::Kind::Bin && mop_is_compare(inst.op)) {
            EXPECT_EQ(inst.op, MOp::CmpLTS);
            // p0 > p1 => p1 < p0: operands swapped.
            EXPECT_EQ(inst.a, 1u);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Lowering, MissingCalleeDropsCall)
{
    lang::PackageSource pkg;
    pkg.name = "p";
    lang::ProcedureAst opt;
    opt.name = "optional";
    opt.feature = "extra";
    opt.body.push_back(Stmt::ret(Expr::constant(1)));
    lang::ProcedureAst caller;
    caller.name = "caller";
    caller.body.push_back(
        Stmt::ret(Expr::call("optional", {})));
    pkg.procedures.push_back(std::move(opt));
    pkg.procedures.push_back(std::move(caller));

    const MModule without = lower_package(pkg, {});
    ASSERT_EQ(without.procs.size(), 1u);
    for (const MBlock &block : without.procs[0].blocks) {
        for (const MInst &inst : block.insts) {
            EXPECT_NE(inst.kind, MInst::Kind::Call);
        }
    }
    const MModule with = lower_package(pkg, {"extra"});
    EXPECT_EQ(with.procs.size(), 2u);
}

TEST(Passes, ConstantFoldingFoldsChains)
{
    MProc proc;
    proc.name = "f";
    proc.next_vreg = 3;
    MBlock block;
    block.id = 0;
    block.insts.push_back(MInst::make_const(0, 6));
    block.insts.push_back(MInst::make_const(1, 7));
    block.insts.push_back(
        MInst::bin(2, MOp::Mul, 0, MVal::vreg(1)));
    block.term = MTerm::ret(2);
    proc.blocks.push_back(std::move(block));

    fold_constants(proc, true);
    const MInst &last = proc.blocks[0].insts.back();
    EXPECT_EQ(last.kind, MInst::Kind::Const);
    EXPECT_EQ(last.imm, 42);
}

TEST(Passes, StrengthReduction)
{
    MProc proc;
    proc.next_vreg = 2;
    MBlock block;
    block.id = 0;
    block.insts.push_back(
        MInst::bin(1, MOp::Mul, 0, MVal::immediate(16)));
    block.term = MTerm::ret(1);
    proc.blocks.push_back(std::move(block));
    fold_constants(proc, true);
    EXPECT_EQ(proc.blocks[0].insts[0].op, MOp::Shl);
    EXPECT_EQ(proc.blocks[0].insts[0].b.imm, 4);
}

TEST(Passes, DeadCodeEliminationKeepsSideEffects)
{
    MProc proc;
    proc.next_vreg = 5;
    MBlock block;
    block.id = 0;
    block.insts.push_back(MInst::make_const(1, 1));  // dead
    block.insts.push_back(MInst::make_const(2, 2));  // feeds store addr
    block.insts.push_back(MInst::make_const(3, 3));  // feeds store value
    block.insts.push_back(MInst::store(2, 3));       // side effect
    block.insts.push_back(MInst::make_const(4, 4));  // return value
    block.term = MTerm::ret(4);
    proc.blocks.push_back(std::move(block));
    eliminate_dead_code(proc);
    EXPECT_EQ(proc.blocks[0].insts.size(), 4u);  // only vreg 1 dropped
}

TEST(Passes, CseReusesPureExpressions)
{
    MProc proc;
    proc.next_vreg = 4;
    MBlock block;
    block.id = 0;
    block.insts.push_back(MInst::bin(1, MOp::Add, 0, MVal::immediate(4)));
    block.insts.push_back(MInst::bin(2, MOp::Add, 0, MVal::immediate(4)));
    block.insts.push_back(MInst::bin(3, MOp::Add, 1, MVal::vreg(2)));
    block.term = MTerm::ret(3);
    proc.blocks.push_back(std::move(block));
    eliminate_common_subexpressions(proc);
    EXPECT_EQ(proc.blocks[0].insts[1].kind, MInst::Kind::Copy);
}

TEST(Passes, CseRespectsStoreBarriers)
{
    MProc proc;
    proc.next_vreg = 5;
    MBlock block;
    block.id = 0;
    block.insts.push_back(MInst::load(1, 0));
    block.insts.push_back(MInst::store(0, 1));
    block.insts.push_back(MInst::load(2, 0));  // must NOT be CSE'd
    block.term = MTerm::ret(2);
    proc.blocks.push_back(std::move(block));
    eliminate_common_subexpressions(proc);
    EXPECT_EQ(proc.blocks[0].insts[2].kind, MInst::Kind::Load);
}

TEST(Passes, BranchSimplification)
{
    MProc proc;
    proc.next_vreg = 2;
    MBlock b0;
    b0.id = 0;
    b0.insts.push_back(MInst::make_const(0, 1));
    b0.term = MTerm::branch(0, 1, 2);
    MBlock b1;
    b1.id = 1;
    b1.term = MTerm::ret(0);
    MBlock b2;
    b2.id = 2;
    b2.term = MTerm::ret(0);
    proc.blocks = {std::move(b0), std::move(b1), std::move(b2)};
    simplify_branches(proc);
    EXPECT_EQ(proc.blocks[0].term.kind, MTerm::Kind::Jump);
    EXPECT_EQ(proc.blocks[0].term.target, 1);
    remove_unreachable_blocks(proc);
    EXPECT_EQ(proc.blocks.size(), 2u);
}

TEST(Passes, MergeBlocksFusesChains)
{
    MProc proc;
    proc.next_vreg = 2;
    MBlock b0;
    b0.id = 0;
    b0.insts.push_back(MInst::make_const(0, 1));
    b0.term = MTerm::jump(1);
    MBlock b1;  // empty forwarder
    b1.id = 1;
    b1.term = MTerm::jump(2);
    MBlock b2;
    b2.id = 2;
    b2.insts.push_back(MInst::make_const(1, 2));
    b2.term = MTerm::ret(1);
    proc.blocks = {std::move(b0), std::move(b1), std::move(b2)};
    merge_blocks(proc);
    ASSERT_EQ(proc.blocks.size(), 1u);
    EXPECT_EQ(proc.blocks[0].insts.size(), 2u);
    EXPECT_EQ(proc.blocks[0].term.kind, MTerm::Kind::Ret);
}

TEST(Passes, RotateLoopsAddsGuard)
{
    // 0 -> 1(head: branch 2, 3) ; 2(body) -> 1 ; 3: ret
    MProc proc;
    proc.next_vreg = 3;
    MBlock b0;
    b0.id = 0;
    b0.term = MTerm::jump(1);
    MBlock b1;
    b1.id = 1;
    b1.insts.push_back(
        MInst::bin(1, MOp::CmpLTS, 0, MVal::immediate(10)));
    b1.term = MTerm::branch(1, 2, 3);
    MBlock b2;
    b2.id = 2;
    b2.insts.push_back(MInst::bin(0, MOp::Add, 0, MVal::immediate(1)));
    b2.term = MTerm::jump(1);
    MBlock b3;
    b3.id = 3;
    b3.term = MTerm::ret(0);
    proc.blocks = {std::move(b0), std::move(b1), std::move(b2),
                   std::move(b3)};

    EXPECT_EQ(rotate_loops(proc), 1);
    EXPECT_EQ(proc.blocks.size(), 5u);
    // Entry now reaches the guard, not the head; the backedge still
    // targets the head.
    EXPECT_NE(proc.blocks[0].term.target, 1);
    const MBlock *body = proc.block_by_id(2);
    ASSERT_NE(body, nullptr);
    EXPECT_EQ(body->term.target, 1);
}

TEST(Passes, RotateLoopsSkipsImpureHeads)
{
    MProc proc;
    proc.next_vreg = 3;
    MBlock b0;
    b0.id = 0;
    b0.term = MTerm::jump(1);
    MBlock b1;
    b1.id = 1;
    b1.insts.push_back(MInst::call(1, 0, {}));  // side effect in head
    b1.term = MTerm::branch(1, 2, 3);
    MBlock b2;
    b2.id = 2;
    b2.term = MTerm::jump(1);
    MBlock b3;
    b3.id = 3;
    b3.term = MTerm::ret(0);
    proc.blocks = {std::move(b0), std::move(b1), std::move(b2),
                   std::move(b3)};
    EXPECT_EQ(rotate_loops(proc), 0);
}

TEST(Passes, InlineSmallProcs)
{
    lang::PackageSource pkg;
    pkg.name = "p";
    lang::ProcedureAst tiny;
    tiny.name = "tiny";
    tiny.num_params = 1;
    tiny.body.push_back(Stmt::ret(Expr::bin(
        lang::BinOp::Add, Expr::param(0), Expr::constant(1))));
    lang::ProcedureAst caller;
    caller.name = "caller";
    caller.num_params = 1;
    caller.body.push_back(Stmt::ret(Expr::call(
        "tiny", [] {
            std::vector<lang::ExprPtr> args;
            args.push_back(Expr::param(0));
            return args;
        }())));
    pkg.procedures.push_back(std::move(tiny));
    pkg.procedures.push_back(std::move(caller));

    MModule module = lower_package(pkg);
    EXPECT_GT(inline_small_procs(module, 8), 0);
    const int caller_index = module.find_proc("caller");
    ASSERT_GE(caller_index, 0);
    for (const MBlock &block :
         module.procs[static_cast<std::size_t>(caller_index)].blocks) {
        for (const MInst &inst : block.insts) {
            EXPECT_NE(inst.kind, MInst::Kind::Call);
        }
    }
}

TEST(Passes, OptimizeModulePreservesProcedureSet)
{
    Rng rng(3);
    lang::GenOptions options;
    lang::PackageSource pkg;
    pkg.name = "p";
    pkg.globals = {{"g0", 8}, {"g1", 8}};
    for (int i = 0; i < 4; ++i) {
        Rng body = rng.fork("p" + std::to_string(i));
        pkg.procedures.push_back(lang::generate_procedure(
            body, "p" + std::to_string(i), options));
    }
    for (const ToolchainProfile &profile : vendor_toolchains()) {
        MModule module = lower_package(pkg);
        optimize_module(module, profile);
        EXPECT_EQ(module.procs.size(), 4u) << profile.name;
        for (const MProc &proc : module.procs) {
            EXPECT_FALSE(proc.blocks.empty()) << profile.name;
        }
    }
}

TEST(Toolchain, CatalogIsConsistent)
{
    const ToolchainProfile ref = gcc_like_toolchain();
    EXPECT_EQ(ref.opt_level, 2);
    EXPECT_EQ(toolchain_by_name(ref.name).name, ref.name);
    std::set<std::string> names;
    for (const ToolchainProfile &p : vendor_toolchains()) {
        EXPECT_TRUE(names.insert(p.name).second) << "duplicate name";
        EXPECT_EQ(toolchain_by_name(p.name).name, p.name);
    }
}

// ---- liveness ----------------------------------------------------------

/** Reference liveness: one vector<bool> per block, one vreg at a time. */
struct ReferenceLiveness
{
    std::vector<std::vector<bool>> live_in;
    std::vector<std::vector<bool>> live_end;
};

ReferenceLiveness
reference_liveness(const MProc &proc)
{
    const std::size_t n_vregs = proc.next_vreg;
    std::map<int, std::size_t> block_pos;
    for (std::size_t i = 0; i < proc.blocks.size(); ++i) {
        block_pos[proc.blocks[i].id] = i;
    }
    ReferenceLiveness ref;
    ref.live_in.assign(proc.blocks.size(),
                       std::vector<bool>(n_vregs, false));
    ref.live_end = ref.live_in;
    auto mark = [n_vregs](std::vector<bool> &live, VReg r, bool value) {
        if (r < n_vregs) {
            live[r] = value;
        }
    };
    auto end_of = [&](const MBlock &block) {
        std::vector<bool> live(n_vregs, false);
        auto absorb = [&](int succ_id) {
            const auto it = block_pos.find(succ_id);
            if (it == block_pos.end()) {
                return;
            }
            for (std::size_t v = 0; v < n_vregs; ++v) {
                if (ref.live_in[it->second][v]) {
                    live[v] = true;
                }
            }
        };
        switch (block.term.kind) {
          case MTerm::Kind::Jump:
            absorb(block.term.target);
            break;
          case MTerm::Kind::Branch:
            absorb(block.term.target);
            absorb(block.term.fallthrough);
            mark(live, block.term.cond, true);
            break;
          case MTerm::Kind::Ret:
            mark(live, block.term.ret_reg, true);
            break;
        }
        return live;
    };
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t bi = proc.blocks.size(); bi-- > 0;) {
            const MBlock &block = proc.blocks[bi];
            std::vector<bool> live = end_of(block);
            for (std::size_t ii = block.insts.size(); ii-- > 0;) {
                const MInst &inst = block.insts[ii];
                if (inst.has_dst()) {
                    mark(live, inst.dst, false);
                }
                for_each_use(inst,
                             [&](VReg r) { mark(live, r, true); });
            }
            if (live != ref.live_in[bi]) {
                ref.live_in[bi] = std::move(live);
                changed = true;
            }
        }
    }
    for (std::size_t bi = 0; bi < proc.blocks.size(); ++bi) {
        ref.live_end[bi] = end_of(proc.blocks[bi]);
    }
    return ref;
}

/** Row @p row of @p words words as a vector<bool> over @p n vregs. */
std::vector<bool>
row_bits(const std::uint64_t *row, std::size_t words, std::size_t n)
{
    std::vector<bool> out(n, false);
    for (std::size_t v = 0; v < n; ++v) {
        out[v] = row_test(row, words, static_cast<VReg>(v));
    }
    // No bit beyond next_vreg may be set, and for_each_vreg must agree.
    std::vector<bool> walked(n, false);
    for_each_vreg(row, words, [&](VReg v) {
        EXPECT_LT(v, n);
        if (v < n) {
            walked[v] = true;
        }
    });
    EXPECT_EQ(walked, out);
    return out;
}

void
expect_liveness_matches_reference(const MProc &proc,
                                  const std::string &where)
{
    const LiveSets live = compute_live_in(proc);
    const ReferenceLiveness ref = reference_liveness(proc);
    ASSERT_EQ(live.words, (proc.next_vreg + 63u) / 64u) << where;
    ASSERT_EQ(live.live_in.size(), proc.blocks.size() * live.words);
    ASSERT_EQ(live.live_end.size(), proc.blocks.size() * live.words);
    for (std::size_t b = 0; b < proc.blocks.size(); ++b) {
        EXPECT_EQ(row_bits(live.in_row(b), live.words, proc.next_vreg),
                  ref.live_in[b])
            << where << " block " << b << " live_in";
        EXPECT_EQ(row_bits(live.end_row(b), live.words, proc.next_vreg),
                  ref.live_end[b])
            << where << " block " << b << " live_end";
    }
}

TEST(Liveness, MatchesReferenceOnEveryCatalogPackageAndProfile)
{
    std::vector<ToolchainProfile> profiles = vendor_toolchains();
    profiles.push_back(gcc_like_toolchain());
    std::size_t checked = 0;
    for (const firmware::PackageSpec &pkg : firmware::package_catalog()) {
        const lang::PackageSource source =
            firmware::generate_package_source(pkg, pkg.versions.back());
        const MModule lowered = lower_package(source);
        for (const MProc &proc : lowered.procs) {
            expect_liveness_matches_reference(
                proc, pkg.name + "/" + proc.name + " (lowered)");
            ++checked;
        }
        for (const ToolchainProfile &profile : profiles) {
            MModule module = lowered;
            optimize_module(module, profile);
            for (const MProc &proc : module.procs) {
                expect_liveness_matches_reference(
                    proc, pkg.name + "/" + proc.name + " (" +
                              profile.name + ")");
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, 0u);
}

/**
 * A random CFG over @p n_vregs vregs whose highest vreg is used late and
 * defined early, so live bits cross word boundaries. Block ids are
 * sparse and one edge names no block.
 */
MProc
random_proc(VReg n_vregs, Rng &rng)
{
    MProc proc;
    proc.name = "r" + std::to_string(n_vregs);
    proc.num_params = 2;
    proc.next_vreg = n_vregs;
    const int n_blocks = static_cast<int>(rng.range(2, 8));
    auto any_vreg = [&] {
        return static_cast<VReg>(rng.index(n_vregs));
    };
    auto high_vreg = [&] {
        return static_cast<VReg>(n_vregs - 1 - rng.index(3));
    };
    for (int b = 0; b < n_blocks; ++b) {
        MBlock block;
        block.id = 10 * b + 3;
        const int n_insts = static_cast<int>(rng.range(0, 12));
        for (int i = 0; i < n_insts; ++i) {
            const VReg dst = rng.chance(1, 3) ? high_vreg() : any_vreg();
            switch (rng.index(5)) {
              case 0:
                block.insts.push_back(MInst::make_const(dst, i));
                break;
              case 1:
                block.insts.push_back(MInst::copy(dst, any_vreg()));
                break;
              case 2:
                block.insts.push_back(MInst::bin(
                    dst, MOp::Add, high_vreg(),
                    rng.chance(1, 2) ? MVal::vreg(any_vreg())
                                     : MVal::immediate(1)));
                break;
              case 3:
                block.insts.push_back(MInst::store(any_vreg(), high_vreg()));
                break;
              default:
                block.insts.push_back(MInst::call(
                    dst, 0, {any_vreg(), high_vreg(), any_vreg()}));
                break;
            }
        }
        auto some_block = [&] {
            return rng.chance(1, 10)
                       ? 999  // names no block
                       : 10 * static_cast<int>(rng.index(
                                  static_cast<std::size_t>(n_blocks))) +
                             3;
        };
        switch (rng.index(3)) {
          case 0:
            block.term = MTerm::jump(some_block());
            break;
          case 1:
            block.term = MTerm::branch(high_vreg(), some_block(),
                                       some_block());
            break;
          default:
            block.term = MTerm::ret(rng.chance(1, 2) ? high_vreg()
                                                     : any_vreg());
            break;
        }
        proc.blocks.push_back(std::move(block));
    }
    return proc;
}

TEST(Liveness, MatchesReferenceAcrossWordBoundaries)
{
    // No vregs at all: empty rows, and a Ret naming vreg 0 adds nothing.
    MProc empty;
    empty.blocks.resize(2);
    empty.blocks[0].id = 0;
    empty.blocks[0].term = MTerm::jump(1);
    empty.blocks[1].id = 1;
    empty.blocks[1].term = MTerm::ret(0);
    expect_liveness_matches_reference(empty, "next_vreg 0");
    for (VReg n : {VReg{1}, VReg{63}, VReg{64}, VReg{65}, VReg{129}}) {
        Rng rng(n);
        for (int trial = 0; trial < 50; ++trial) {
            const MProc proc = random_proc(n, rng);
            expect_liveness_matches_reference(
                proc, "next_vreg " + std::to_string(n) + " trial " +
                          std::to_string(trial));
        }
    }
}

TEST(Liveness, LoopCarriesHighVregAcrossBackEdge)
{
    // b0: v128 = 7; jump b1
    // b1: v64 = v128 + v63; branch v64 ? b1 : b2
    // b2: ret v128
    MProc proc;
    proc.next_vreg = 129;
    MBlock b0;
    b0.id = 0;
    b0.insts.push_back(MInst::make_const(128, 7));
    b0.term = MTerm::jump(1);
    MBlock b1;
    b1.id = 1;
    b1.insts.push_back(MInst::bin(64, MOp::Add, 128, MVal::vreg(63)));
    b1.term = MTerm::branch(64, 1, 2);
    MBlock b2;
    b2.id = 2;
    b2.term = MTerm::ret(128);
    proc.blocks = {b0, b1, b2};
    const LiveSets live = compute_live_in(proc);
    ASSERT_EQ(live.words, 3u);
    std::vector<VReg> in0;
    for_each_vreg(live.in_row(0), live.words,
                  [&](VReg v) { in0.push_back(v); });
    std::vector<VReg> in1;
    for_each_vreg(live.in_row(1), live.words,
                  [&](VReg v) { in1.push_back(v); });
    std::vector<VReg> end1;
    for_each_vreg(live.end_row(1), live.words,
                  [&](VReg v) { end1.push_back(v); });
    EXPECT_EQ(in0, (std::vector<VReg>{63}));
    EXPECT_EQ(in1, (std::vector<VReg>{63, 128}));
    EXPECT_EQ(end1, (std::vector<VReg>{63, 64, 128}));
    expect_liveness_matches_reference(proc, "loop");
}

}  // namespace
}  // namespace firmup::compiler
