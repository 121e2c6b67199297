/**
 * @file
 * MIR — the compiler's mid-level IR (three-address code over virtual
 * registers, CFG of blocks).
 *
 * This is the substrate for the "different compilations of the same source"
 * phenomenon (paper Fig. 1): one MIR module can be optimized at different
 * levels, re-ordered, inlined, and code-generated to four ISAs under
 * different toolchain profiles. It is intentionally separate from µIR
 * (src/ir), which is the *lifted* representation — the compiler and the
 * analyzer must not share data structures, or the reproduction would be
 * circular.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace firmup::compiler {

/** Virtual register id. vregs [0, num_params) hold incoming arguments. */
using VReg = std::uint32_t;

/** MIR binary operators (all 32-bit). */
enum class MOp : std::uint8_t {
    Add, Sub, Mul, DivS, RemS,
    And, Or, Xor, Shl, ShrA, ShrL,
    CmpEQ, CmpNE, CmpLTS, CmpLES, CmpLTU, CmpLEU,
};

/** True for the CmpXX operators. */
bool mop_is_compare(MOp op);
/** True when operand order does not affect the result. */
bool mop_is_commutative(MOp op);
/** Printable mnemonic. */
const char *mop_name(MOp op);

/** Right-hand operand: virtual register or immediate. */
struct MVal
{
    enum class Kind : std::uint8_t { VReg, Imm } kind = Kind::Imm;
    std::uint32_t reg = 0;
    std::int32_t imm = 0;

    static MVal vreg(VReg r) { return {Kind::VReg, r, 0}; }
    static MVal immediate(std::int32_t v) { return {Kind::Imm, 0, v}; }

    bool is_vreg() const { return kind == Kind::VReg; }
    bool is_imm() const { return kind == Kind::Imm; }

    bool operator==(const MVal &) const = default;
};

/** One MIR instruction. */
struct MInst
{
    enum class Kind : std::uint8_t {
        Const,   ///< dst = imm
        Copy,    ///< dst = a
        Bin,     ///< dst = a `op` b
        GAddr,   ///< dst = &global[global_index]
        Load,    ///< dst = mem32[a]
        Store,   ///< mem32[a] = b (b must be a vreg)
        Call,    ///< dst = call callee(args...) ; callee < 0 => removed
    };

    Kind kind;
    VReg dst = 0;
    MOp op = MOp::Add;
    VReg a = 0;
    MVal b;
    std::int32_t imm = 0;     ///< Const payload
    int global_index = -1;    ///< GAddr target
    int callee = -1;          ///< Call target (module procedure index)
    std::vector<VReg> args;

    static MInst make_const(VReg dst, std::int32_t imm);
    static MInst copy(VReg dst, VReg src);
    static MInst bin(VReg dst, MOp op, VReg a, MVal b);
    static MInst gaddr(VReg dst, int global_index);
    static MInst load(VReg dst, VReg addr);
    static MInst store(VReg addr, VReg value);
    static MInst call(VReg dst, int callee, std::vector<VReg> args);

    /** True for kinds that define dst. */
    bool has_dst() const { return kind != Kind::Store; }
    /** True for instructions that must not be dead-code eliminated. */
    bool has_side_effects() const
    {
        return kind == Kind::Store || kind == Kind::Call;
    }
};

/** Call @p fn(r) for every vreg @p inst reads, in operand order. */
template <typename Fn>
void
for_each_use(const MInst &inst, Fn fn)
{
    switch (inst.kind) {
      case MInst::Kind::Const:
      case MInst::Kind::GAddr:
        break;
      case MInst::Kind::Copy:
      case MInst::Kind::Load:
        fn(inst.a);
        break;
      case MInst::Kind::Bin:
      case MInst::Kind::Store:
        fn(inst.a);
        if (inst.b.is_vreg()) {
            fn(inst.b.reg);
        }
        break;
      case MInst::Kind::Call:
        for (VReg arg : inst.args) {
            fn(arg);
        }
        break;
    }
}

/** Block terminator. */
struct MTerm
{
    enum class Kind : std::uint8_t { Jump, Branch, Ret } kind = Kind::Ret;
    VReg cond = 0;       ///< Branch condition (nonzero = taken)
    int target = 0;      ///< Jump target / Branch taken target (block id)
    int fallthrough = 0; ///< Branch not-taken target (block id)
    VReg ret_reg = 0;    ///< Ret value

    static MTerm jump(int target);
    static MTerm branch(VReg cond, int target, int fallthrough);
    static MTerm ret(VReg value);
};

/** A MIR basic block. */
struct MBlock
{
    int id = 0;
    std::vector<MInst> insts;
    MTerm term;
};

/** A MIR procedure. Block 0 is the entry. */
struct MProc
{
    std::string name;
    int num_params = 0;
    bool exported = false;
    VReg next_vreg = 0;   ///< first unused vreg id
    std::vector<MBlock> blocks;

    VReg fresh() { return next_vreg++; }

    /** Block lookup by id; blocks are stored in layout order. */
    MBlock *block_by_id(int id);
    const MBlock *block_by_id(int id) const;

    std::size_t inst_count() const;
};

/** A compiled module: procedures plus global word-array sizes. */
struct MModule
{
    std::string name;
    std::vector<MProc> procs;
    std::vector<int> global_words;  ///< size of each global, in 32-bit words

    int find_proc(const std::string &name) const;
};

/** Render for debugging. */
std::string to_string(const MInst &inst);
std::string to_string(const MProc &proc);

}  // namespace firmup::compiler
