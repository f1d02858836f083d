/**
 * @file
 * Compiled execution plans for Fusion-ISA blocks.
 *
 * The interpreter's reference walk (Interpreter::runLegacy) re-derives
 * everything per element: a recursive descent over the loop nest, a
 * std::map lookup per address term, a fresh BitBrick decomposition per
 * MAC, and resize churn on every transfer. An ExecPlan lowers a block
 * ONCE into one flat program and executes it with one switch loop:
 *
 *  - the loop nest becomes a linear instruction stream with explicit
 *    LoopHead/LoopBack jumps;
 *  - every gen-addr expression is resolved to (loop depth, stride)
 *    terms evaluated against a dense iteration-counter array;
 *  - the compiler's innermost RdBuf/RdBuf/Mac reduction nest is
 *    recognized at lowering time and replaced by one FusedMac op that
 *    runs the whole nest in the vectorizable macNest kernel
 *    (src/isa/exec_kernels.h);
 *  - scratchpad sizes come from a static high-water analysis, so the
 *    hot loop never calls resize;
 *  - ld-mem / st-mem move whole rows through MemoryModel spans (one
 *    bounds check per row instead of per element);
 *  - a MAC the fusion does not cover range-checks its operands and
 *    multiplies natively. The BitBrick decomposition is an exact
 *    multiply (tests/test_decompose.cc) and its size is
 *    value-independent, so results AND the bitBrickOps / macs
 *    counters stay bit-identical to the reference walk.
 *
 * Plans are immutable after build() and safe to execute concurrently;
 * all run state lives on the caller's stack.
 * Oracle's fast path: PlanParity.* pins it to Interpreter::runLegacy.
 */

#ifndef BITFUSION_ISA_EXEC_PLAN_H
#define BITFUSION_ISA_EXEC_PLAN_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/arch/fusion_config.h"
#include "src/isa/block.h"
#include "src/isa/exec_kernels.h"
#include "src/isa/interpreter.h"
#include "src/isa/memory.h"

namespace bitfusion {

/** One lowered, recursion-free Fusion-ISA block. See file docs. */
class ExecPlan
{
  public:
    /** Lower @p block into a plan. The block must validate(). */
    static std::shared_ptr<const ExecPlan>
    build(const InstructionBlock &block);

    /**
     * Execute the plan. @p buffers are the interpreter's
     * scratchpads: resized once to the static high-water sizes and
     * zero-filled, so the hot loop never reallocates. Stats
     * accumulate into @p stats exactly as the reference walk would.
     */
    void execute(MemoryModel &memory, InterpStats &stats,
                 std::array<std::vector<std::int64_t>, 3> &buffers) const;

    /** Static per-buffer size (elements) the plan executes within. */
    const std::array<std::uint64_t, 3> &
    bufferSizes() const
    {
        return bufSize_;
    }

    /**
     * One past the largest off-chip address any transfer can touch:
     * a MemoryModel of at least this size executes the plan without
     * tripping the bounds checks. Harness code (parity tests, the
     * perf bench) sizes synthetic memories from this.
     */
    std::uint64_t memoryExtent() const { return memExtent_; }

    /** Nest depth (number of loops). */
    unsigned depth() const { return static_cast<unsigned>(iters_.size()); }

    /** True when the innermost reduction nest runs as one FusedMac
     *  op instead of op by op. */
    bool fused() const { return fused_.dims > 0; }

    /** Loop dimensions the fused kernel covers (0 when unfused). */
    unsigned fusedDims() const { return fused_.dims; }

  private:
    ExecPlan() = default;

    /** One (loop depth, stride) address term. */
    struct AddrTerm
    {
        unsigned depth;
        std::uint64_t stride;
    };

    /** A fully resolved gen-addr expression for one (buffer, space). */
    struct AddrExpr
    {
        /** Constant part (the memory base for the Mem space). */
        std::uint64_t base = 0;
        /** Stride of the 2-D DMA row counter (addr_id::dmaRow). */
        std::uint64_t rowStride = 0;
        std::vector<AddrTerm> terms;
    };

    /** Lowered program operation. */
    enum class OpKind : std::uint8_t
    {
        LdMem = 0,
        StMem,
        SetRows,
        RdBuf,
        WrBuf,
        Mac,
        MaxOp,
        ReluQuant,
        Reset,
        /** Loop entry: reset the counter; jump past LoopBack when the
         *  trip count is zero. */
        LoopHead,
        /** Loop latch: bump the counter; jump to the loop top while
         *  iterations remain. */
        LoopBack,
        /** The fused reduction nest. */
        FusedMac,
        /** End of program. */
        Halt,
    };

    struct CodeOp
    {
        OpKind kind;
        std::uint8_t buf = 0;
        /** Loop depth (LoopHead/LoopBack). */
        std::uint16_t loop = 0;
        /** Jump target (LoopHead: past the latch; LoopBack: top). */
        std::uint32_t target = 0;
        /** Words per row (transfers) or row count (set-rows). */
        std::uint64_t imm = 0;
        /** Relu-quant requantization shift. */
        unsigned shift = 0;
        /** Relu-quant output width (0 = no clamp). */
        unsigned outBits = 0;
        /** St-mem drain-path activation flag. */
        bool activate = false;
    };

    /** The fused reduction nest: everything static precomputed. */
    struct FusedNest
    {
        /** Loops [firstLoop, depth) the kernel covers; dims == 0
         *  means no nest was recognized. */
        unsigned firstLoop = 0;
        unsigned dims = 0;
        /** Total MACs per dispatch (0 skips the op entirely). */
        std::uint64_t total = 0;
        /** Offset of the last element read per operand side. */
        std::uint64_t lastOffA = 0, lastOffW = 0;
        /** Outer-loop parts of the operand access expressions. */
        AddrExpr aOuter, wOuter;
        /** Iteration-space prototype (pointers patched per call). */
        MacNestArgs proto;
    };

    struct Runtime;

    std::uint64_t evalMax(const AddrExpr &e) const;
    void transfer(const CodeOp &op, bool to_buffer, Runtime &rt) const;
    void doRdBuf(const CodeOp &op, Runtime &rt) const;
    void doWrBuf(const CodeOp &op, Runtime &rt) const;
    void doMac(Runtime &rt) const;
    void doMax(Runtime &rt) const;
    void doReluQuant(const CodeOp &op, Runtime &rt) const;
    void doReset(Runtime &rt) const;
    void doFusedMac(Runtime &rt) const;
    void runProgram(Runtime &rt) const;

    /** Iteration counts by loop depth. */
    std::vector<std::uint64_t> iters_;
    /** The lowered program, reduction nest fused where recognized. */
    std::vector<CodeOp> code_;
    FusedNest fused_;
    /** exprs_[buffer][space]; see AddrSpace. */
    AddrExpr exprs_[3][3];
    /** Static high-water scratchpad sizes. */
    std::array<std::uint64_t, 3> bufSize_{0, 0, 0};
    /** Largest set-rows immediate (row bound of the 2-D DMAs). */
    std::uint64_t maxRows_ = 1;
    /** Static bound on off-chip addresses; see memoryExtent(). */
    std::uint64_t memExtent_ = 0;

    FusionConfig config_;
    unsigned actShift_ = 0;
    unsigned actOutBits_ = 0;
    /** bitBrickOps per MAC: aLanes x wLanes, value-independent. */
    std::uint64_t opsPerMac_ = 0;
    /** Representable operand ranges (the reference walk asserts). */
    std::int64_t aMin_ = 0, aMax_ = 0, wMin_ = 0, wMax_ = 0;
};

} // namespace bitfusion

#endif // BITFUSION_ISA_EXEC_PLAN_H
