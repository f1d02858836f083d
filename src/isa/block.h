/**
 * @file
 * Instruction blocks: the unit of Fusion-ISA programs.
 *
 * A block implements one DNN layer (or a group of fused layers). The
 * fusion configuration is fixed across the block (set by setup); the
 * words following setup carry the memory base addresses for the three
 * scratchpads (paper §IV-A).
 */

#ifndef BITFUSION_ISA_BLOCK_H
#define BITFUSION_ISA_BLOCK_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/arch/fusion_config.h"
#include "src/isa/instruction.h"

namespace bitfusion {

/** One block-structured Fusion-ISA program unit. */
struct InstructionBlock
{
    /** Layer (or fused-layer-group) name, for reports. */
    std::string name;
    /**
     * Memory base addresses (in elements) for IBUF, OBUF, WBUF
     * fills/drains -- the "words after the setup instruction".
     */
    std::array<std::uint64_t, 3> baseAddr{0, 0, 0};
    /** The instructions, setup first, block-end last. */
    std::vector<Instruction> instructions;
    /** Drain-path activation: requantization right shift. */
    unsigned actShift = 0;
    /** Drain-path activation: output bitwidth (0 = no clamp). */
    unsigned actOutBits = 0;

    /** Fusion configuration the leading setup instruction encodes. */
    FusionConfig config() const;

    /**
     * Validate the block: setup first, block-end last, operands that
     * decode() accepts, unique loop ids below addr_id::loopLimit,
     * gen-addr ids a declared loop or addr_id::dmaRow, body levels
     * within the nest depth. Fatal on violation (a malformed block
     * is a compiler bug surfaced to the user).
     */
    void validate() const;

    /** Encode all instructions into 32-bit words. */
    std::vector<std::uint32_t> encodeWords() const;

    /**
     * Decode a word stream back into instructions. Returns false,
     * with "word N: <reason>" in @p error, on a stream decode()
     * rejects.
     */
    static bool decodeWords(const std::vector<std::uint32_t> &words,
                            std::vector<Instruction> &out,
                            std::string &error);

    /** Multi-line disassembly with nest indentation. */
    std::string disassemble() const;
};

} // namespace bitfusion

#endif // BITFUSION_ISA_BLOCK_H
