/**
 * @file
 * Functional interpreter for Fusion-ISA blocks.
 *
 * Executes a block instruction-accurately against the flat memory
 * model: the loop nest is walked like the hardware's iterative block
 * execution, gen-addr expressions realize Equation (4), and the
 * reference walk sends every mac through the BitBrick decomposition
 * path (the fast path's native multiply is pinned to it), so functional
 * bugs anywhere in the fusion arithmetic or the compiler's address
 * arithmetic surface as output mismatches against the golden
 * reference executor.
 *
 * The interpreter also counts the traffic the block generates
 * (DRAM bits, scratchpad accesses, compute operations); integration
 * tests reconcile these counts against the analytical performance
 * simulator.
 *
 * Two execution paths produce bit-identical memory, buffer, and
 * statistics results:
 *  - run() lowers the block into a compiled ExecPlan
 *    (src/isa/exec_plan.h) -- one flat program with dense stride
 *    tables, bulk row DMA and a fused MAC-nest kernel -- and runs
 *    it. This is the fast path every caller should use.
 *  - runLegacy() is the original recursive walk kept as the oracle
 *    for plan-vs-legacy parity tests and the perf benchmark
 *    baseline (bench/bench_perf.cc).
 */

#ifndef BITFUSION_ISA_INTERPRETER_H
#define BITFUSION_ISA_INTERPRETER_H

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "src/isa/block.h"
#include "src/isa/memory.h"

namespace bitfusion {

class ExecPlan;

/** Traffic and op counts observed while interpreting a block. */
struct InterpStats
{
    /** Elements moved from DRAM per buffer (ld-mem). */
    std::array<std::uint64_t, 3> dramLoadElems{0, 0, 0};
    /** Elements moved to DRAM per buffer (st-mem). */
    std::array<std::uint64_t, 3> dramStoreElems{0, 0, 0};
    /** rd-buf accesses per buffer. */
    std::array<std::uint64_t, 3> bufReads{0, 0, 0};
    /** wr-buf accesses per buffer. */
    std::array<std::uint64_t, 3> bufWrites{0, 0, 0};
    /** mac operations executed. */
    std::uint64_t macs = 0;
    /** BitBrick operations the macs decomposed into. */
    std::uint64_t bitBrickOps = 0;
    /** Non-mac compute operations (max/relu). */
    std::uint64_t auxOps = 0;
    /** High-water mark of scratchpad occupancy, in elements. */
    std::array<std::uint64_t, 3> bufHighWater{0, 0, 0};

    bool
    operator==(const InterpStats &o) const
    {
        return dramLoadElems == o.dramLoadElems &&
               dramStoreElems == o.dramStoreElems &&
               bufReads == o.bufReads && bufWrites == o.bufWrites &&
               macs == o.macs && bitBrickOps == o.bitBrickOps &&
               auxOps == o.auxOps && bufHighWater == o.bufHighWater;
    }
    bool operator!=(const InterpStats &o) const { return !(*this == o); }
};

/** Executes Fusion-ISA blocks functionally. */
class Interpreter
{
  public:
    /** Interpret blocks against @p memory (shared across blocks). */
    explicit Interpreter(MemoryModel &memory);

    /**
     * Execute one block to completion on the compiled-plan fast
     * path: run(*ExecPlan::build(block)).
     */
    void run(const InstructionBlock &block);

    /** Execute a pre-built plan (callers that run it repeatedly). */
    void run(const ExecPlan &plan);

    /**
     * Execute one block on the original recursive reference walk.
     * Kept for plan-vs-legacy parity tests and as the perf-bench
     * baseline; results are bit-identical to run().
     */
    void runLegacy(const InstructionBlock &block);

    /** Statistics accumulated across run() calls. */
    const InterpStats &stats() const { return _stats; }

  private:
    struct AddrExpr
    {
        // (loop id or pseudo id) -> stride.
        std::vector<std::pair<unsigned, std::uint64_t>> strides;
    };

    struct LoopInfo
    {
        unsigned id;
        std::uint64_t iterations;
    };

    /** Per-level body instructions (pre and post lists). */
    struct LevelBody
    {
        std::vector<const Instruction *> pre;
        std::vector<const Instruction *> post;
    };

    void execBody(const Instruction &inst);
    void runLevel(unsigned level);
    std::uint64_t evalAddr(BufferId buf, AddrSpace space,
                           std::uint64_t row) const;
    void transfer(const Instruction &inst, bool to_buffer);

    MemoryModel &memory;
    InterpStats _stats;

    // Per-block state.
    const InstructionBlock *block = nullptr;
    std::vector<LoopInfo> loops;
    std::vector<LevelBody> levels;
    std::map<unsigned, std::uint64_t> iter; // loop id -> current value
    // (buffer, space) -> expression
    AddrExpr exprs[3][3];
    std::array<std::vector<std::int64_t>, 3> buffers;
    std::uint64_t pendingRows = 1;
    std::int64_t regIn = 0, regWgt = 0, regOut = 0;
};

} // namespace bitfusion

#endif // BITFUSION_ISA_INTERPRETER_H
