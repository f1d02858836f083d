#include "src/isa/interpreter.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "src/arch/decompose.h"
#include "src/common/bitutils.h"
#include "src/common/logging.h"
#include "src/isa/exec_plan.h"

namespace bitfusion {

Interpreter::Interpreter(MemoryModel &memory) : memory(memory)
{
}

void
Interpreter::run(const InstructionBlock &b)
{
    run(*ExecPlan::build(b));
}

void
Interpreter::run(const ExecPlan &plan)
{
    plan.execute(memory, _stats, buffers);
}

std::uint64_t
Interpreter::evalAddr(BufferId buf, AddrSpace space, std::uint64_t row) const
{
    const AddrExpr &e = exprs[static_cast<unsigned>(buf)]
                             [static_cast<unsigned>(space)];
    std::uint64_t addr = 0;
    if (space == AddrSpace::Mem)
        addr = block->baseAddr[static_cast<unsigned>(buf)];
    for (const auto &[id, stride] : e.strides) {
        if (id == addr_id::dmaRow) {
            addr += row * stride;
        } else {
            const auto it = iter.find(id);
            BF_ASSERT(it != iter.end(), "address references loop ", id,
                      " outside its scope");
            addr += it->second * stride;
        }
    }
    return addr;
}

void
Interpreter::transfer(const Instruction &inst, bool to_buffer)
{
    const BufferId buf = inst.buffer();
    const unsigned b = static_cast<unsigned>(buf);
    const std::uint64_t words = inst.fullImm();
    const std::uint64_t rows = pendingRows;
    pendingRows = 1;
    if (rows == 0)
        return;

    auto &store = buffers[b];
    // Pre-size once per transfer: row strides are non-negative, so
    // the last row holds the high-water address. This replaces the
    // old per-row resize churn; the bufHighWater stat is unchanged
    // (it always equaled the last row's top).
    const std::uint64_t top =
        evalAddr(buf, AddrSpace::BufFill, rows - 1) + words;
    if (top > store.size())
        store.resize(top, 0);
    _stats.bufHighWater[b] =
        std::max<std::uint64_t>(_stats.bufHighWater[b], top);

    if (words > 0) {
        const bool activate = !to_buffer && inst.isActivate();
        for (std::uint64_t r = 0; r < rows; ++r) {
            const std::uint64_t mem0 = evalAddr(buf, AddrSpace::Mem, r);
            const std::uint64_t buf0 =
                evalAddr(buf, AddrSpace::BufFill, r);
            if (to_buffer) {
                std::memcpy(&store[buf0], memory.readSpan(mem0, words),
                            words * sizeof(std::int64_t));
            } else if (activate) {
                // Activation unit on the drain path (Fig. 3):
                // relu then requantize.
                std::int64_t *dst = memory.writeSpan(mem0, words);
                for (std::uint64_t kk = 0; kk < words; ++kk) {
                    std::int64_t v = store[buf0 + kk];
                    v = std::max<std::int64_t>(v, 0) >> block->actShift;
                    if (block->actOutBits)
                        v = clampUnsigned(v, block->actOutBits);
                    dst[kk] = v;
                }
                _stats.auxOps += words;
            } else {
                std::memcpy(memory.writeSpan(mem0, words), &store[buf0],
                            words * sizeof(std::int64_t));
            }
        }
    }
    if (to_buffer)
        _stats.dramLoadElems[b] += rows * words;
    else
        _stats.dramStoreElems[b] += rows * words;
}

void
Interpreter::execBody(const Instruction &inst)
{
    switch (inst.op) {
      case Opcode::LdMem:
        transfer(inst, true);
        break;
      case Opcode::StMem:
        transfer(inst, false);
        break;
      case Opcode::SetRows:
        pendingRows = inst.fullImm();
        break;
      case Opcode::RdBuf: {
        const unsigned b = static_cast<unsigned>(inst.buffer());
        const std::uint64_t addr =
            evalAddr(inst.buffer(), AddrSpace::BufAccess, 0);
        auto &store = buffers[b];
        BF_ASSERT(addr < store.size(), "rd-buf beyond filled data in ",
                  block->name);
        const std::int64_t v = store[addr];
        switch (inst.buffer()) {
          case BufferId::Ibuf: regIn = v; break;
          case BufferId::Wbuf: regWgt = v; break;
          case BufferId::Obuf: regOut = v; break;
        }
        ++_stats.bufReads[b];
        break;
      }
      case Opcode::WrBuf: {
        const unsigned b = static_cast<unsigned>(inst.buffer());
        const std::uint64_t addr =
            evalAddr(inst.buffer(), AddrSpace::BufAccess, 0);
        auto &store = buffers[b];
        if (addr >= store.size())
            store.resize(addr + 1, 0);
        _stats.bufHighWater[b] =
            std::max<std::uint64_t>(_stats.bufHighWater[b], addr + 1);
        store[addr] = regOut;
        ++_stats.bufWrites[b];
        break;
      }
      case Opcode::Compute:
        switch (inst.fn()) {
          case ComputeFn::Mac: {
            // The product goes through the BitBrick decomposition so
            // the interpreter exercises the fusion arithmetic.
            const auto ops =
                decomposeMultiply(regIn, regWgt, block->config);
            regOut += evaluateDecomposition(ops);
            ++_stats.macs;
            _stats.bitBrickOps += ops.size();
            break;
          }
          case ComputeFn::Max:
            regOut = std::max(regOut, regIn);
            ++_stats.auxOps;
            break;
          case ComputeFn::ReluQuant: {
            const unsigned shift = inst.imm & 0xff;
            const unsigned out_bits = (inst.imm >> 8) & 0xff;
            std::int64_t v = std::max<std::int64_t>(regIn, 0) >> shift;
            regOut = out_bits ? clampUnsigned(v, out_bits) : v;
            ++_stats.auxOps;
            break;
          }
          case ComputeFn::Reset:
            regOut = std::numeric_limits<std::int64_t>::min();
            break;
        }
        break;
      default:
        BF_PANIC("unexpected opcode in block body");
    }
}

void
Interpreter::runLevel(unsigned level)
{
    for (const Instruction *inst : levels[level].pre)
        execBody(*inst);
    if (level < loops.size()) {
        const LoopInfo &loop = loops[level];
        for (std::uint64_t it = 0; it < loop.iterations; ++it) {
            iter[loop.id] = it;
            runLevel(level + 1);
        }
        iter.erase(loop.id);
    }
    for (const Instruction *inst : levels[level].post)
        execBody(*inst);
}

void
Interpreter::runLegacy(const InstructionBlock &b)
{
    b.validate();
    block = &b;
    loops.clear();
    iter.clear();
    for (auto &row : exprs)
        for (auto &e : row)
            e.strides.clear();
    for (auto &buf : buffers)
        buf.clear();
    pendingRows = 1;
    regIn = regWgt = regOut = 0;

    // First pass: collect loops, address expressions, and body
    // instructions grouped by level.
    for (const auto &inst : b.instructions) {
        if (inst.op == Opcode::Loop)
            loops.push_back({inst.id, inst.fullImm()});
    }
    levels.assign(loops.size() + 1, LevelBody{});
    for (const auto &inst : b.instructions) {
        switch (inst.op) {
          case Opcode::Setup:
          case Opcode::Loop:
          case Opcode::BlockEnd:
            break;
          case Opcode::GenAddr:
            exprs[static_cast<unsigned>(inst.buffer())]
                 [static_cast<unsigned>(inst.space())]
                .strides.emplace_back(inst.id, inst.fullImm());
            break;
          default: {
            const unsigned level = inst.id;
            BF_ASSERT(level < levels.size(), "body level out of range");
            if (inst.isPost())
                levels[level].post.push_back(&inst);
            else
                levels[level].pre.push_back(&inst);
            break;
          }
        }
    }

    runLevel(0);
    block = nullptr;
}

} // namespace bitfusion
