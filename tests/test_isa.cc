/**
 * @file
 * Fusion-ISA tests: instruction construction, 32-bit encode/decode
 * round trips (including wide-immediate extension words), decoder
 * input validation, block validation, and disassembly.
 */

#include <gtest/gtest.h>

#include "src/common/prng.h"
#include "src/compiler/codegen.h"
#include "src/dnn/model_zoo.h"
#include "src/isa/block.h"
#include "src/isa/instruction.h"

namespace bitfusion {
namespace {

TEST(Instruction, BitwidthCodes)
{
    EXPECT_EQ(encodeBits(1), 0u);
    EXPECT_EQ(encodeBits(16), 4u);
    for (unsigned b : {1u, 2u, 4u, 8u, 16u})
        EXPECT_EQ(decodeBits(encodeBits(b)), b);
}

TEST(Instruction, SetupCarriesConfig)
{
    const FusionConfig cfg{4, 2, false, true};
    const Instruction i = Instruction::setup(cfg);
    EXPECT_EQ(i.op, Opcode::Setup);
    EXPECT_EQ(i.fusionConfig(), cfg);
    EXPECT_EQ(Instruction::setup({16, 1, true, false}).fusionConfig(),
              FusionConfig({16, 1, true, false}));
}

TEST(Instruction, FieldAccessors)
{
    const Instruction ld = Instruction::ldMem(BufferId::Wbuf, 2, 64);
    EXPECT_EQ(ld.buffer(), BufferId::Wbuf);
    EXPECT_EQ(ld.id, 2);
    EXPECT_EQ(ld.fullImm(), 64u);
    EXPECT_FALSE(ld.isPost());

    const Instruction st =
        Instruction::stMem(BufferId::Obuf, 1, 32, true, true);
    EXPECT_TRUE(st.isPost());
    EXPECT_TRUE(st.isActivate());

    const Instruction ga = Instruction::genAddr(
        BufferId::Ibuf, AddrSpace::BufAccess, 3, 7);
    EXPECT_EQ(ga.space(), AddrSpace::BufAccess);
    EXPECT_EQ(ga.buffer(), BufferId::Ibuf);

    const Instruction cm = Instruction::compute(ComputeFn::Max, 5);
    EXPECT_EQ(cm.fn(), ComputeFn::Max);

    const Instruction rq = Instruction::reluQuant(1, 7, 4);
    EXPECT_EQ(rq.fn(), ComputeFn::ReluQuant);
    EXPECT_EQ(rq.id, 1);
    EXPECT_EQ(rq.reluShift(), 7u);
    EXPECT_EQ(rq.reluOutBits(), 4u);
}

TEST(Instruction, EncodeDecodeRoundTripNarrow)
{
    const Instruction insts[] = {
        Instruction::setup({8, 2, false, true}),
        Instruction::loop(3, 100),
        Instruction::genAddr(BufferId::Wbuf, AddrSpace::Mem, 1, 128),
        Instruction::genAddr(BufferId::Obuf, AddrSpace::BufFill, 2, 9),
        Instruction::ldMem(BufferId::Ibuf, 0, 4096),
        Instruction::stMem(BufferId::Obuf, 1, 16, true, true),
        Instruction::rdBuf(BufferId::Wbuf, 4),
        Instruction::wrBuf(BufferId::Obuf, 3, true),
        Instruction::compute(ComputeFn::Mac, 4),
        Instruction::reluQuant(1, 7, 4),
        Instruction::setRows(2, 8),
        Instruction::blockEnd(7),
    };
    for (const auto &inst : insts) {
        std::uint32_t words[2];
        const unsigned n = encode(inst, words);
        EXPECT_EQ(n, 1u) << inst.toString();
        Instruction back;
        unsigned consumed = 0;
        std::string error;
        ASSERT_TRUE(decode(words, n, back, consumed, error)) << error;
        EXPECT_EQ(consumed, 1u);
        EXPECT_EQ(back.op, inst.op) << inst.toString();
        EXPECT_EQ(back.id, inst.id) << inst.toString();
        EXPECT_EQ(back.spec, inst.spec) << inst.toString();
        EXPECT_EQ(back.imm, inst.imm) << inst.toString();
        if (inst.op == Opcode::Compute &&
            inst.fn() == ComputeFn::ReluQuant) {
            EXPECT_EQ(back.reluShift(), 7u);
            EXPECT_EQ(back.reluOutBits(), 4u);
        }
    }
}

TEST(Instruction, EncodeDecodeRoundTripWide)
{
    // Strides and word counts beyond 16 bits use an extension word.
    const Instruction insts[] = {
        Instruction::loop(1, 1ULL << 20),
        Instruction::genAddr(BufferId::Wbuf, AddrSpace::Mem, 2,
                             151'000'000ULL),
        Instruction::ldMem(BufferId::Ibuf, 0, 1ULL << 18),
    };
    for (const auto &inst : insts) {
        std::uint32_t words[2];
        const unsigned n = encode(inst, words);
        EXPECT_EQ(n, 2u) << inst.toString();
        Instruction back;
        unsigned consumed = 0;
        std::string error;
        ASSERT_TRUE(decode(words, n, back, consumed, error)) << error;
        EXPECT_EQ(consumed, 2u);
        EXPECT_EQ(back.fullImm(), inst.fullImm()) << inst.toString();
        EXPECT_EQ(back.op, inst.op);
        EXPECT_EQ(back.spec, inst.spec) << inst.toString();
    }
}

constexpr std::uint32_t extensionBit = 1u << 19; // spec bit 3

std::uint32_t
word(Opcode op, std::uint32_t low = 0)
{
    return (static_cast<std::uint32_t>(op) << 27) | low;
}

/** decodeWords' diagnostic for @p words; empty when it decodes. */
std::string
decodeError(const std::vector<std::uint32_t> &words)
{
    std::vector<Instruction> out;
    std::string error;
    const bool ok = InstructionBlock::decodeWords(words, out, error);
    EXPECT_EQ(ok, error.empty());
    return error;
}

TEST(InstructionDecode, RejectsTruncatedExtension)
{
    // The extension flag on the last word used to read past the end.
    EXPECT_NE(decodeError({(31u << 27) | extensionBit}), "");
    EXPECT_EQ(decodeError({word(Opcode::Loop, extensionBit | 4)}),
              "word 0: loop sets the extension flag but the extension "
              "word is missing");
    EXPECT_EQ(decodeError({word(Opcode::Setup),
                           word(Opcode::LdMem, extensionBit)}),
              "word 1: ld-mem sets the extension flag but the "
              "extension word is missing");
}

TEST(InstructionDecode, RejectsUnknownOpcodes)
{
    for (std::uint32_t op = 10; op < 32; ++op) {
        EXPECT_EQ(decodeError({op << 27}),
                  "word 0: opcode " + std::to_string(op) +
                      " is not a Fusion-ISA opcode")
            << op;
    }
    EXPECT_EQ(decodeError({word(Opcode::BlockEnd)}), "");
}

TEST(InstructionDecode, RejectsZeroExtensionWord)
{
    // encode() writes a zero high immediate narrow, so this pair is
    // not the encoding of any instruction.
    EXPECT_EQ(decodeError({word(Opcode::Loop, extensionBit | 4), 0}),
              "word 0: loop has a zero extension word");
    EXPECT_EQ(decodeError({word(Opcode::Loop, extensionBit | 4), 1}),
              "");
}

TEST(InstructionDecode, RejectsOperandsDisassemblyCannotName)
{
    EXPECT_EQ(decodeError({word(Opcode::Setup, 5u << 8)}),
              "word 0: setup activation bitwidth code 5 out of range "
              "(max 4)");
    EXPECT_EQ(decodeError({word(Opcode::Setup, 0xff)}),
              "word 0: setup weight bitwidth code 255 out of range "
              "(max 4)");
    EXPECT_EQ(decodeError({word(Opcode::RdBuf, 3u << 16)}),
              "word 0: rd-buf buffer id 3 out of range (max 2)");
    EXPECT_EQ(decodeError({word(Opcode::Compute, 4u << 16)}),
              "word 0: compute compute fn 4 out of range (max 3)");
}

TEST(InstructionDecode, RandomStreamsRoundTripOrAreRejected)
{
    // Property: every word stream either decodes to instructions
    // that re-encode to exactly the same words (and disassemble), or
    // is rejected with a diagnostic. Words are biased toward valid
    // opcodes and small operands so both outcomes are common.
    Prng prng(0x15a);
    std::size_t accepted = 0, rejected = 0, wide = 0;
    for (int round = 0; round < 20000; ++round) {
        std::vector<std::uint32_t> words(1 + prng.below(8));
        for (auto &w : words) {
            w = static_cast<std::uint32_t>(prng.next());
            if (prng.below(4) != 0) {
                // Opcode 0-11, spec and imm fields kept small.
                w = (static_cast<std::uint32_t>(prng.below(12)) << 27) |
                    (w & (0x3fu << 21)) |
                    (w & (0x17u << 16)) |
                    (prng.below(2) != 0 ? extensionBit : 0) |
                    (w & 0x0707u);
            } else if (prng.below(4) == 0) {
                w = 0; // a zero extension word or a plain setup
            }
        }
        std::vector<Instruction> insts;
        std::string error;
        if (!InstructionBlock::decodeWords(words, insts, error)) {
            EXPECT_NE(error, "");
            ++rejected;
            continue;
        }
        ++accepted;
        std::vector<std::uint32_t> again;
        for (const Instruction &inst : insts) {
            std::uint32_t buf[2];
            const unsigned n = encode(inst, buf);
            again.insert(again.end(), buf, buf + n);
            wide += n == 2;
            EXPECT_EQ(inst.error(), "");
            EXPECT_FALSE(inst.toString().empty());
        }
        ASSERT_EQ(again, words) << "round " << round;
    }
    EXPECT_GT(accepted, 1000u);
    EXPECT_GT(rejected, 1000u);
    EXPECT_GT(wide, 100u);
}

TEST(Instruction, ToStringIsInformative)
{
    EXPECT_NE(Instruction::setup({4, 2, false, true}).toString().find("a4"),
              std::string::npos);
    EXPECT_NE(Instruction::ldMem(BufferId::Wbuf, 2, 64)
                  .toString()
                  .find("WBUF"),
              std::string::npos);
    EXPECT_NE(Instruction::compute(ComputeFn::Mac, 4)
                  .toString()
                  .find("mac"),
              std::string::npos);
    EXPECT_NE(Instruction::stMem(BufferId::Obuf, 1, 8, true, true)
                  .toString()
                  .find("+act"),
              std::string::npos);
    EXPECT_EQ(Instruction::setRows(2, 8, true).toString(),
              "set-rows rows=8 @L2/post");
}

TEST(Block, EncodeWordsRoundTrip)
{
    const Compiler compiler(AcceleratorConfig::eyerissMatched45());
    const Layer fc = Layer::fc("fc", 64, 32, zoo::cfg4x4());
    const InstructionBlock b =
        compiler.emitFc(fc, BlockBases{}, 16, 16);
    const auto words = b.encodeWords();
    std::vector<Instruction> back;
    std::string error;
    ASSERT_TRUE(InstructionBlock::decodeWords(words, back, error)) << error;
    ASSERT_EQ(back.size(), b.instructions.size());
    for (std::size_t i = 0; i < back.size(); ++i) {
        EXPECT_EQ(back[i].op, b.instructions[i].op);
        EXPECT_EQ(back[i].fullImm(), b.instructions[i].fullImm());
        EXPECT_EQ(back[i].id, b.instructions[i].id);
        EXPECT_EQ(back[i].spec, b.instructions[i].spec);
    }
}

TEST(Block, LoopAccounting)
{
    const Compiler compiler(AcceleratorConfig::eyerissMatched45());
    const Layer fc = Layer::fc("fc", 64, 32, zoo::cfg4x4());
    const InstructionBlock b =
        compiler.emitFc(fc, BlockBases{}, 16, 16);
    std::vector<std::uint64_t> extents;
    for (const auto &i : b.instructions)
        if (i.op == Opcode::Loop)
            extents.push_back(i.fullImm());
    ASSERT_EQ(extents.size(), 4u);
    // Product of loop extents covers every MAC exactly once: the
    // output loops (0, 2) tile the 32 outputs, the reduction loops
    // (1, 3) the 64 inputs.
    EXPECT_EQ(extents[0] * extents[2], 32u);
    EXPECT_EQ(extents[1] * extents[3], 64u);
}

TEST(BlockDeath, ValidationCatchesStructuralErrors)
{
    InstructionBlock b;
    b.name = "bad";
    EXPECT_DEATH(b.validate(), "empty");

    b.instructions = {Instruction::loop(0, 4),
                      Instruction::blockEnd(0)};
    EXPECT_DEATH(b.validate(), "setup");

    b.instructions = {Instruction::setup(zoo::cfg4x4()),
                      Instruction::loop(0, 4)};
    EXPECT_DEATH(b.validate(), "block-end");

    b.instructions = {Instruction::setup(zoo::cfg4x4()),
                      Instruction::loop(0, 4), Instruction::loop(0, 2),
                      Instruction::blockEnd(0)};
    EXPECT_DEATH(b.validate(), "fatal: block 'bad': duplicate loop id 0 \\(");

    // The top of the loop-id space is no different.
    b.instructions = {Instruction::setup(zoo::cfg4x4()),
                      Instruction::loop(addr_id::loopLimit - 1, 4),
                      Instruction::loop(addr_id::loopLimit - 1, 2),
                      Instruction::blockEnd(0)};
    EXPECT_DEATH(b.validate(), "fatal: block 'bad': duplicate loop id 47 \\(");

    b.instructions = {Instruction::setup(zoo::cfg4x4()),
                      Instruction::loop(0, 4),
                      Instruction::compute(ComputeFn::Mac, 3),
                      Instruction::blockEnd(0)};
    EXPECT_DEATH(b.validate(), "level");

    // Operands decode() rejects, with decode()'s message.
    b.instructions = {Instruction::setup(zoo::cfg4x4()),
                      Instruction::loop(0, 4),
                      Instruction::rdBuf(static_cast<BufferId>(3), 1),
                      Instruction::blockEnd(0)};
    EXPECT_DEATH(b.validate(), "rd-buf buffer id 3 out of range");

    b.instructions = {Instruction::setup(zoo::cfg4x4()),
                      Instruction::loop(0, 4),
                      Instruction::compute(static_cast<ComputeFn>(5), 1),
                      Instruction::blockEnd(0)};
    EXPECT_DEATH(b.validate(), "compute compute fn 5 out of range");

    // The loop-id space: loops below 48, special ids only dmaRow.
    b.instructions = {Instruction::setup(zoo::cfg4x4()),
                      Instruction::loop(50, 4),
                      Instruction::blockEnd(0)};
    EXPECT_DEATH(b.validate(), "loop id 50 out of range");

    b.instructions = {Instruction::setup(zoo::cfg4x4()),
                      Instruction::genAddr(BufferId::Ibuf,
                                           AddrSpace::BufAccess, 50, 1),
                      Instruction::blockEnd(0)};
    EXPECT_DEATH(b.validate(), "gen-addr id 50");

    // The first special id that is not dmaRow.
    b.instructions = {Instruction::setup(zoo::cfg4x4()),
                      Instruction::genAddr(BufferId::Ibuf,
                                           AddrSpace::BufAccess,
                                           addr_id::loopLimit, 1),
                      Instruction::blockEnd(0)};
    EXPECT_DEATH(b.validate(),
                 "gen-addr id 48 is neither a declared loop nor the DMA "
                 "row id 59");

    // A gen-addr may only name a loop declared before it.
    b.instructions = {Instruction::setup(zoo::cfg4x4()),
                      Instruction::genAddr(BufferId::Ibuf,
                                           AddrSpace::BufAccess, 3, 1),
                      Instruction::loop(3, 4),
                      Instruction::blockEnd(0)};
    EXPECT_DEATH(b.validate(),
                 "gen-addr id 3 is neither a declared loop nor the DMA "
                 "row id 59");
}

TEST(Block, ValidationAcceptsTheLoopIdSpaceEdges)
{
    InstructionBlock b;
    b.name = "edges";
    // The highest loop id, and a gen-addr naming it.
    b.instructions = {Instruction::setup(zoo::cfg4x4()),
                      Instruction::loop(addr_id::loopLimit - 1, 4),
                      Instruction::genAddr(BufferId::Ibuf,
                                           AddrSpace::BufAccess,
                                           addr_id::loopLimit - 1, 1),
                      Instruction::blockEnd(0)};
    b.validate();

    // The DMA row id needs no declared loop.
    b.instructions = {Instruction::setup(zoo::cfg4x4()),
                      Instruction::genAddr(BufferId::Ibuf,
                                           AddrSpace::BufAccess,
                                           addr_id::dmaRow, 1),
                      Instruction::blockEnd(0)};
    b.validate();
}

TEST(Block, DisassemblyMentionsEveryOpcode)
{
    const Compiler compiler(AcceleratorConfig::eyerissMatched45());
    const Layer fc = Layer::fc("fc", 64, 32, zoo::cfg4x4());
    const InstructionBlock b =
        compiler.emitFc(fc, BlockBases{}, 16, 16);
    const std::string d = b.disassemble();
    for (const char *tok : {"setup", "loop", "gen-addr", "ld-mem",
                            "st-mem", "rd-buf", "wr-buf", "compute",
                            "block-end"})
        EXPECT_NE(d.find(tok), std::string::npos) << tok;
}

TEST(Block, PaperInstructionBudget)
{
    // Paper §IV-A: blocks of 30-86 instructions cover LSTM, CNN,
    // pooling and fully-connected layers.
    const Compiler compiler(AcceleratorConfig::eyerissMatched45());
    for (const auto &bench : zoo::all()) {
        const CompiledNetwork cn = compiler.compile(bench.quantized);
        for (const auto &s : cn.schedules) {
            EXPECT_GE(s.block.instructions.size(), 8u) << s.layer.name;
            EXPECT_LE(s.block.instructions.size(), 86u) << s.layer.name;
        }
    }
}

} // namespace
} // namespace bitfusion
