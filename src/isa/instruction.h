/**
 * @file
 * Fusion-ISA instruction definitions (paper Table I).
 *
 * Instructions are 32 bits: a 5-bit opcode, a 6-bit identifier field
 * (loop id for loop/gen-addr, loop level for body instructions), a
 * 5-bit operand-specification field (scratchpad id, compute fn,
 * signedness flags, post flag), and a 16-bit immediate (iteration
 * counts, strides, word counts, bitwidths).
 *
 * Blocks are structured (paper §IV-A): a block opens with setup,
 * closes with block-end, and contains a single loop nest. Non-loop
 * instructions carry the loop *level* they execute at; an instruction
 * at level v runs once per iteration combination of loops 0..v-1,
 * either before the deeper loops start (pre) or after they finish
 * (post). This realizes the iterative block semantics the paper uses
 * to amortize fetch/decode over a whole layer.
 */

#ifndef BITFUSION_ISA_INSTRUCTION_H
#define BITFUSION_ISA_INSTRUCTION_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/arch/fusion_config.h"

namespace bitfusion {

/** Fusion-ISA opcodes (paper Table I). */
enum class Opcode : std::uint8_t
{
    Setup = 0,   ///< Configure fusion bitwidths for the block.
    Loop = 1,    ///< Declare a loop (id, iteration count).
    GenAddr = 2, ///< Bind an address stride to (buffer, space, loop).
    LdMem = 3,   ///< DRAM -> scratchpad transfer.
    StMem = 4,   ///< Scratchpad -> DRAM transfer.
    RdBuf = 5,   ///< Scratchpad -> operand register.
    WrBuf = 6,   ///< Operand register -> scratchpad.
    Compute = 7, ///< Execute the configured function.
    SetRows = 8, ///< Row count for the next 2-D ld-mem/st-mem.
    BlockEnd = 9 ///< End of block; immediate = next block id.
};

/** On-chip scratchpad buffers (paper Fig. 3). */
enum class BufferId : std::uint8_t
{
    Ibuf = 0, ///< Input buffer (shared across a row).
    Obuf = 1, ///< Output buffer (below column accumulators).
    Wbuf = 2, ///< Weight buffer (per Fusion Unit).
};

/** Address spaces a gen-addr stride can apply to. */
enum class AddrSpace : std::uint8_t
{
    Mem = 0,       ///< Off-chip memory side (ld-mem / st-mem).
    BufAccess = 1, ///< Scratchpad-local side of rd-buf / wr-buf.
    BufFill = 2,   ///< Scratchpad-local side of ld-mem / st-mem.
};

/** Compute functions (paper: multiply-add, max, nonlinearities). */
enum class ComputeFn : std::uint8_t
{
    Mac = 0,       ///< out += in * weight (systolic array).
    Max = 1,       ///< out = max(out, in) (pooling unit).
    ReluQuant = 2, ///< out = clamp(relu(in) >> shift) (activation).
    Reset = 3,     ///< out = -inf (pooling-window initialization).
};

/** Special gen-addr identifiers (not real loops). */
namespace addr_id {
/** Loop ids are below this; a gen-addr id at or above it is special. */
constexpr unsigned loopLimit = 48;
/** DMA row counter of a 2-D ld-mem/st-mem. */
constexpr unsigned dmaRow = 59;
} // namespace addr_id

/** Named bits of the 5-bit operand specification (per opcode). */
namespace spec_bit {
constexpr std::uint8_t aSigned = 1u << 0;   ///< setup: signed activations
constexpr std::uint8_t wSigned = 1u << 1;   ///< setup: signed weights
constexpr std::uint8_t buffer = 0x3;        ///< spec[1:0]: a BufferId
constexpr std::uint8_t fn = 0x7;            ///< spec[2:0]: a ComputeFn
constexpr std::uint8_t access = 1u << 2;    ///< gen-addr: BufAccess space
constexpr std::uint8_t activate = 1u << 2;  ///< st-mem: drain activation
constexpr std::uint8_t extension = 1u << 3; ///< an extension word follows
constexpr std::uint8_t fill = 1u << 4;      ///< gen-addr: BufFill space
constexpr std::uint8_t post = 1u << 4;      ///< body: run after the nest
} // namespace spec_bit

/** Bitwidth encoding used by setup immediates: 1,2,4,8,16 -> 0..4. */
unsigned encodeBits(unsigned bits);
/** Inverse of encodeBits(). */
unsigned decodeBits(unsigned code);

/**
 * A decoded Fusion-ISA instruction. instruction.cc's opcode table and
 * the named accessors and factories below own the encoding.
 */
struct Instruction
{
    Opcode op = Opcode::Setup;
    /** Loop id (loop/gen-addr) or loop level (body instructions). */
    std::uint8_t id = 0;
    /** Operand specification (meaning depends on opcode). */
    std::uint8_t spec = 0;
    /** Immediate. */
    std::uint16_t imm = 0;
    /**
     * Extended immediate (strides/word counts that exceed 16 bits).
     * Carried as an extension word in the binary encoding; zero for
     * instructions whose immediate fits.
     */
    std::uint32_t immHi = 0;

    /** Full immediate value: (immHi << 16) | imm. */
    std::uint64_t
    fullImm() const
    {
        return (static_cast<std::uint64_t>(immHi) << 16) | imm;
    }

    /** A loop-body op: its id is the loop level it runs at. */
    bool isBody() const;

    /** The post flag of body instructions. */
    bool isPost() const { return spec & spec_bit::post; }

    /** Drain-path activation flag of st-mem. */
    bool isActivate() const { return spec & spec_bit::activate; }

    /** Buffer targeted by memory/buffer instructions. */
    BufferId
    buffer() const
    {
        return static_cast<BufferId>(spec & spec_bit::buffer);
    }

    /** Compute function of a compute instruction. */
    ComputeFn
    fn() const
    {
        return static_cast<ComputeFn>(spec & spec_bit::fn);
    }

    // Oracle-only, tested by Instruction.FieldAccessors: space(), relu*().
    /** Address space of a gen-addr instruction. */
    AddrSpace space() const;

    /** Fusion configuration a setup instruction encodes. */
    FusionConfig fusionConfig() const;

    /** Right shift of a relu-quant compute. */
    unsigned reluShift() const;
    /** Output bitwidth of a relu-quant compute (0 = no clamp). */
    unsigned reluOutBits() const;

    /**
     * Why decode() would reject this instruction's operands: an
     * operand out of the range toString() can name (bitwidth code,
     * buffer id, compute fn). Empty when they are well formed.
     */
    std::string error() const;

    /** error() is empty; decided without building a string. */
    bool valid() const;

    /** Human-readable disassembly; panics on an error() instruction. */
    std::string toString() const;

    // --- Construction helpers (used by the code generator) -------

    static Instruction setup(const FusionConfig &cfg);
    static Instruction loop(unsigned loop_id, std::uint64_t iterations);
    static Instruction genAddr(BufferId buf, AddrSpace space,
                               unsigned loop_id, std::uint64_t stride);
    static Instruction ldMem(BufferId buf, unsigned level,
                             std::uint64_t words, bool post = false);
    static Instruction stMem(BufferId buf, unsigned level,
                             std::uint64_t words, bool post = false,
                             bool activate = false);
    static Instruction rdBuf(BufferId buf, unsigned level,
                             bool post = false);
    static Instruction wrBuf(BufferId buf, unsigned level,
                             bool post = false);
    static Instruction compute(ComputeFn fn, unsigned level);
    /** out = clamp(relu(in) >> @p shift) to @p out_bits (0 = none). */
    static Instruction reluQuant(unsigned level, unsigned shift,
                                 unsigned out_bits);
    static Instruction setRows(unsigned level, std::uint64_t rows,
                               bool post = false);
    static Instruction blockEnd(unsigned next_block);

  private:
    /** The one constructor path: splits @p imm into imm and immHi. */
    static Instruction make(Opcode op, unsigned id, unsigned spec,
                            std::uint64_t imm);
};

/**
 * Encode to the 32-bit word stream. Instructions with a wide
 * immediate occupy two words: the first sets spec_bit::extension and
 * the second is the raw immHi. Returns the number of words written
 * (1 or 2).
 */
unsigned encode(const Instruction &inst, std::uint32_t out[2]);

/**
 * Decode the instruction at the front of @p words[0, @p count) into
 * @p out; @p consumed reports how many words it used (1 or 2).
 * Returns false, with a diagnostic in @p error, when the stream is
 * truncated (an extension flag on the last word), the opcode is not
 * a Fusion-ISA opcode, Instruction::error() is not empty, or the
 * words are not the canonical encoding (a zero extension word).
 * Every accepted instruction re-encodes to exactly the words it
 * consumed.
 */
bool decode(const std::uint32_t *words, std::size_t count,
            Instruction &out, unsigned &consumed, std::string &error);

} // namespace bitfusion

#endif // BITFUSION_ISA_INSTRUCTION_H
