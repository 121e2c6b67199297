#include "lifter/cfg.h"

#include <algorithm>
#include <vector>

#include "isa/arm.h"
#include "isa/mips.h"
#include "isa/ppc.h"
#include "isa/x86.h"
#include "support/error.h"
#include "support/trace.h"

namespace firmup::lifter {

namespace {

const trace::Counter c_executables("lift.executables");
const trace::Counter c_procedures("lift.procedures");
const trace::Counter c_blocks("lift.blocks");

/** One decoded instruction with its lifted control-flow class. */
struct DecodedInst
{
    isa::MachInst inst;
    std::uint64_t addr = 0;
    int size = 0;
    Flow flow;
    std::uint64_t call_target = 0;  ///< nonzero for direct calls
    bool is_call = false;
};

/**
 * Decode + classify one instruction, lifting it into @p scratch (cleared
 * first; reused across calls so its statement storage is too).
 */
Result<DecodedInst>
decode_classify(const isa::Target &target, const loader::Executable &exe,
                std::uint64_t addr, ir::Block &scratch)
{
    if (!exe.in_text(addr)) {
        return Result<DecodedInst>::error(ErrorCode::UndecodableInsn,
                                          "address outside text");
    }
    const std::size_t offset =
        static_cast<std::size_t>(addr - exe.text_addr);
    auto decoded = target.decode(exe.text.data() + offset,
                                 exe.text.size() - offset, addr);
    if (!decoded.ok()) {
        return Result<DecodedInst>::error(ErrorCode::UndecodableInsn,
                                          decoded.error_message());
    }
    DecodedInst out;
    out.inst = decoded.value().inst;
    out.addr = addr;
    out.size = decoded.value().size;
    scratch.stmts.clear();
    LiftState state;
    out.flow = lift_inst(target.arch, out.inst, addr, state, scratch);
    for (const ir::Stmt &s : scratch.stmts) {
        if (s.kind == ir::Stmt::Kind::Call) {
            out.is_call = true;
            if (s.a.is_const()) {
                out.call_target = s.a.as_const();
            }
        }
    }
    return out;
}

/** Does @p inst look like the first instruction of a procedure? */
bool
is_prologue(isa::Arch arch, const isa::MachInst &inst)
{
    switch (arch) {
      case isa::Arch::Mips32:
        return static_cast<isa::mips::Op>(inst.op) ==
                   isa::mips::Op::Addiu &&
               inst.rd == isa::mips::Sp && inst.rs == isa::mips::Sp &&
               inst.imm < 0;
      case isa::Arch::Arm32:
        return static_cast<isa::arm::Op>(inst.op) ==
                   isa::arm::Op::SubImm &&
               inst.rd == isa::arm::Sp && inst.rs == isa::arm::Sp &&
               inst.imm > 0;
      case isa::Arch::Ppc32:
        return static_cast<isa::ppc::Op>(inst.op) == isa::ppc::Op::Addi &&
               inst.rd == isa::ppc::R1 && inst.rs == isa::ppc::R1 &&
               inst.imm < 0;
      case isa::Arch::X86:
        return static_cast<isa::x86::Op>(inst.op) == isa::x86::Op::Push &&
               inst.rd == isa::x86::Ebp;
    }
    return false;
}

/**
 * Discovers and lifts the procedures of one executable, one at a time,
 * and tracks which text bytes they claimed.
 *
 * A procedure's decoded instructions sit in a pool addressed through a
 * table over the text section; a table slot belongs to the current
 * procedure only when its stamp equals the procedure's epoch, so moving
 * on to the next procedure clears nothing.
 */
class ProcLifter
{
  public:
    ProcLifter(const isa::Target &target, const loader::Executable &exe)
        : target_(target), exe_(exe),
          is_mips_(target.arch == isa::Arch::Mips32),
          stamp_(exe.text.size(), 0), slot_(exe.text.size(), 0),
          claimed_(exe.text.size(), 0)
    {
    }

    /** Did a lifted procedure decode an instruction at @p addr? */
    bool claimed(std::uint64_t addr) const
    {
        return exe_.in_text(addr) && claimed_[offset(addr)] != 0;
    }

    /**
     * Lift the procedure at @p entry, claiming its instructions on
     * success.
     * @param call_targets out: direct call targets found, in decode
     *        order, possibly repeated.
     */
    Result<ir::Procedure>
    lift(std::uint64_t entry, std::vector<std::uint64_t> &call_targets)
    {
        ++epoch_;
        insts_.clear();
        leaders_.assign(1, entry);
        std::vector<std::uint64_t> work{entry};

        // Pass A: discover leaders and instruction runs. A start address
        // decoded before stops at once, and one that failed to decode
        // fails again, so revisits need no explored set.
        while (!work.empty()) {
            std::uint64_t addr = work.back();
            work.pop_back();
            while (true) {
                if (find(addr) != nullptr) {
                    break;  // ran into already-decoded code
                }
                auto di = decode_classify(target_, exe_, addr, scratch_);
                if (!di.ok()) {
                    // Lifter bail-out (paper 3.1: tools "may still fail
                    // to identify several blocks"); keep what we have.
                    break;
                }
                const DecodedInst &inst = record(di.value(), call_targets);
                const std::uint64_t next =
                    addr + static_cast<std::uint64_t>(inst.size);
                const Flow flow = inst.flow;
                if (flow.kind == Flow::Kind::Normal) {
                    addr = next;
                    continue;
                }
                // Control transfer: account for the MIPS delay slot.
                std::uint64_t after = next;
                if (is_mips_) {
                    auto slot =
                        decode_classify(target_, exe_, next, scratch_);
                    if (slot.ok()) {
                        after = next + static_cast<std::uint64_t>(
                                           record(slot.value(),
                                                  call_targets)
                                               .size);
                    }
                }
                switch (flow.kind) {
                  case Flow::Kind::Branch:
                    leaders_.push_back(flow.target);
                    leaders_.push_back(after);
                    work.push_back(flow.target);
                    work.push_back(after);
                    break;
                  case Flow::Kind::Jump:
                    leaders_.push_back(flow.target);
                    work.push_back(flow.target);
                    break;
                  case Flow::Kind::Ret:
                  case Flow::Kind::Normal:
                    break;
                }
                break;
            }
        }

        // Pass B: build blocks leader-by-leader, in address order.
        std::sort(leaders_.begin(), leaders_.end());
        leaders_.erase(std::unique(leaders_.begin(), leaders_.end()),
                       leaders_.end());
        ir::Procedure proc;
        proc.entry = entry;
        for (std::uint64_t leader : leaders_) {
            if (find(leader) == nullptr) {
                continue;  // unlifted region (decode failure)
            }
            build_block(leader);
            proc.blocks.emplace_hint(proc.blocks.end(), leader, block_);
        }
        if (proc.blocks.empty()) {
            return Result<ir::Procedure>::error(
                ErrorCode::LiftBailout, "no decodable block at entry");
        }
        for (const DecodedInst &di : insts_) {
            claimed_[offset(di.addr)] = 1;
        }
        return proc;
    }

  private:
    std::size_t offset(std::uint64_t addr) const
    {
        return static_cast<std::size_t>(addr - exe_.text_addr);
    }

    /** This procedure's instruction at @p addr, or nullptr. */
    const DecodedInst *find(std::uint64_t addr) const
    {
        if (!exe_.in_text(addr) || stamp_[offset(addr)] != epoch_) {
            return nullptr;
        }
        return &insts_[slot_[offset(addr)]];
    }

    /** Record @p di (replacing an earlier decode at its address). */
    const DecodedInst &
    record(const DecodedInst &di, std::vector<std::uint64_t> &call_targets)
    {
        if (di.is_call && di.call_target != 0) {
            call_targets.push_back(di.call_target);
        }
        const std::size_t off = offset(di.addr);
        if (stamp_[off] == epoch_) {
            return insts_[slot_[off]] = di;
        }
        stamp_[off] = epoch_;
        slot_[off] = static_cast<std::uint32_t>(insts_.size());
        return insts_.emplace_back(di);
    }

    bool is_leader(std::uint64_t addr) const
    {
        return std::binary_search(leaders_.begin(), leaders_.end(), addr);
    }

    /**
     * Build the block at @p leader into block_, whose statement storage
     * is reused from block to block (the procedure keeps an exact-size
     * copy).
     */
    void
    build_block(std::uint64_t leader)
    {
        std::vector<ir::Stmt> stmts = std::move(block_.stmts);
        stmts.clear();
        block_ = ir::Block{leader, std::move(stmts)};
        ir::Block &block = block_;
        LiftState state;
        std::uint64_t addr = leader;
        while (true) {
            const DecodedInst *di = find(addr);
            if (di == nullptr) {
                // Decode hole: end the block conservatively.
                block.end = ir::BlockEndKind::Ret;
                break;
            }
            const std::uint64_t next =
                addr + static_cast<std::uint64_t>(di->size);
            if (di->flow.kind == Flow::Kind::Normal) {
                lift_inst(target_.arch, di->inst, addr, state, block);
                if (is_leader(next)) {
                    block.end = ir::BlockEndKind::Fallthrough;
                    block.fallthrough = next;
                    break;
                }
                addr = next;
                continue;
            }
            // Control transfer. For MIPS, the delay-slot instruction
            // executes regardless of the branch outcome and (by the
            // toolchain's filling rules) never feeds the branch
            // condition, so lifting it *before* the branch preserves
            // semantics and re-attaches it to this block — the paper's
            // block-boundary fix.
            std::uint64_t after = next;
            if (is_mips_) {
                if (const DecodedInst *slot = find(next); slot != nullptr) {
                    lift_inst(target_.arch, slot->inst, next, state,
                              block);
                    after = next + static_cast<std::uint64_t>(slot->size);
                }
            }
            lift_inst(target_.arch, di->inst, addr, state, block);
            switch (di->flow.kind) {
              case Flow::Kind::Branch:
                block.end = ir::BlockEndKind::CondJump;
                block.target = di->flow.target;
                block.fallthrough = after;
                break;
              case Flow::Kind::Jump:
                block.end = ir::BlockEndKind::Jump;
                block.target = di->flow.target;
                break;
              default:
                block.end = ir::BlockEndKind::Ret;
                break;
            }
            break;
        }
    }

    const isa::Target &target_;
    const loader::Executable &exe_;
    const bool is_mips_;
    /** Per text byte: epoch of the procedure that decoded it there. */
    std::vector<std::uint32_t> stamp_;
    /** Per text byte: its instruction's index in insts_ (when stamped). */
    std::vector<std::uint32_t> slot_;
    /** Per text byte: 1 when a lifted procedure decoded it. */
    std::vector<std::uint8_t> claimed_;
    std::uint32_t epoch_ = 0;
    std::vector<DecodedInst> insts_;       ///< this procedure's, pooled
    std::vector<std::uint64_t> leaders_;   ///< sorted before pass B
    ir::Block scratch_;                    ///< decode_classify's block
    ir::Block block_;                      ///< build_block's block
};

}  // namespace

isa::Arch
detect_arch(const loader::Executable &exe)
{
    int best_score = -1;
    isa::Arch best = exe.declared_arch;
    for (isa::Arch arch : isa::kAllArches) {
        const isa::Target &target = isa::target_for(arch);
        std::uint64_t addr = exe.entry;
        int score = 0;
        for (int i = 0; i < 64; ++i) {
            if (addr >= exe.text_addr + exe.text.size()) {
                break;
            }
            const std::size_t offset =
                static_cast<std::size_t>(addr - exe.text_addr);
            auto decoded = target.decode(exe.text.data() + offset,
                                         exe.text.size() - offset, addr);
            if (!decoded.ok()) {
                break;
            }
            ++score;
            addr += static_cast<std::uint64_t>(decoded.value().size);
        }
        // Prefer the declared arch on ties: vendors are usually right.
        if (score > best_score ||
            (score == best_score && arch == exe.declared_arch)) {
            best_score = score;
            best = arch;
        }
    }
    return best;
}

Result<LiftedExecutable>
lift_executable(const loader::Executable &exe, const LiftOptions &options)
{
    const trace::TraceSpan span("lift", exe.name);
    LiftedExecutable out;
    out.name = exe.name;
    out.arch = options.sniff_arch ? detect_arch(exe) : exe.declared_arch;
    out.text_addr = exe.text_addr;
    out.text_end = exe.text_addr + exe.text.size();
    out.data_addr = exe.data_addr;
    out.data_end = exe.data_addr + exe.data.size();
    const isa::Target &target = isa::target_for(out.arch);

    ProcLifter lifter(target, exe);
    std::vector<std::uint8_t> is_entry(exe.text.size(), 0);
    std::vector<std::uint64_t> work;
    auto add_entry = [&](std::uint64_t addr) {
        if (exe.in_text(addr) && is_entry[addr - out.text_addr] == 0) {
            is_entry[addr - out.text_addr] = 1;
            work.push_back(addr);
        }
    };
    add_entry(exe.entry);
    for (const loader::Symbol &sym : exe.symbols) {
        add_entry(sym.addr);
    }

    std::vector<std::uint64_t> call_targets;
    auto drain = [&] {
        while (!work.empty()) {
            const std::uint64_t entry = work.back();
            work.pop_back();
            if (out.procs.contains(entry)) {
                continue;
            }
            call_targets.clear();
            auto proc = lifter.lift(entry, call_targets);
            if (!proc.ok()) {
                continue;  // undecodable entry (corrupt or data)
            }
            proc.value().name = exe.symbol_at(
                static_cast<std::uint32_t>(entry));
            out.procs[entry] = std::move(proc).take();
            std::sort(call_targets.begin(), call_targets.end());
            for (std::uint64_t t : call_targets) {
                add_entry(t);
            }
        }
    };
    drain();

    if (options.prologue_scan) {
        // Sweep unclaimed, 4-aligned text for prologue shapes; each hit
        // seeds another discovery round (its callees follow).
        for (std::uint64_t addr = out.text_addr; addr + 4 <= out.text_end;
             addr += 4) {
            if (lifter.claimed(addr) || is_entry[addr - out.text_addr]) {
                continue;
            }
            const std::size_t offset =
                static_cast<std::size_t>(addr - out.text_addr);
            auto decoded = target.decode(exe.text.data() + offset,
                                         exe.text.size() - offset, addr);
            if (decoded.ok() &&
                is_prologue(out.arch, decoded.value().inst)) {
                add_entry(addr);
                drain();
            }
        }
    }
    c_executables.add();
    c_procedures.add(out.procs.size());
    if (trace::level() != trace::Level::Off) {
        std::uint64_t blocks = 0;
        for (const auto &[entry, proc] : out.procs) {
            blocks += proc.blocks.size();
        }
        c_blocks.add(blocks);
    }
    return out;
}

}  // namespace firmup::lifter
