#include "src/isa/instruction.h"

#include <iterator>
#include <sstream>

#include "src/common/logging.h"

namespace bitfusion {

namespace {

/** A bit field of an unsigned value: (value >> lsb) & mask. */
struct Field
{
    unsigned lsb;
    unsigned mask;

    unsigned get(std::uint32_t value) const { return (value >> lsb) & mask; }
    std::uint32_t put(std::uint32_t value) const
    {
        return (value & mask) << lsb;
    }
};

/** The 32-bit instruction word. */
constexpr Field opcodeField{27, 0x1f};
constexpr Field idField{21, 0x3f};
constexpr Field specField{16, 0x1f};
constexpr Field immField{0, 0xffff};

/**
 * The setup and relu-quant immediates pack two bytes: the
 * activation/weight bitwidth codes, and the output bits/right shift.
 */
constexpr Field immHighByte{8, 0xff};
constexpr Field immLowByte{0, 0xff};

/** Operand bitwidths, indexed by their setup code. */
constexpr unsigned bitwidths[] = {1, 2, 4, 8, 16};
/** Names, indexed by BufferId, ComputeFn and AddrSpace. */
constexpr const char *bufferNames[] = {"IBUF", "OBUF", "WBUF"};
constexpr const char *fnNames[] = {"mac", "max", "relu-quant", "reset"};
constexpr const char *spaceNames[] = {"mem", "buf", "fill"};
/** The gen-addr spec bit of each AddrSpace. */
constexpr unsigned spaceBits[] = {0, spec_bit::access, spec_bit::fill};

/**
 * A checked operand field of imm or spec, with the largest value it
 * may hold; error() rejects anything above it. A spec field with a
 * name table prints through it, so every decoded instruction
 * disassembles.
 */
struct Operand
{
    const char *what = nullptr;
    bool inImm = false;
    Field field{0, 0};
    unsigned max = 0;
    const char *const *names = nullptr;
};

constexpr Operand bufferOperand{"buffer id", false, {0, spec_bit::buffer},
                                std::size(bufferNames) - 1, bufferNames};

/** One row per opcode: every fact the encoding states about it. */
struct OpcodeInfo
{
    const char *mnemonic;
    /** A loop-body op (its id is a loop level). */
    bool body;
    Operand operands[2];
};

constexpr OpcodeInfo opcodeTable[] = {
    {"setup", false,
     {{"activation bitwidth code", true, immHighByte,
       std::size(bitwidths) - 1},
      {"weight bitwidth code", true, immLowByte,
       std::size(bitwidths) - 1}}},
    {"loop", false, {}},
    {"gen-addr", false, {bufferOperand}},
    {"ld-mem", true, {bufferOperand}},
    {"st-mem", true, {bufferOperand}},
    {"rd-buf", true, {bufferOperand}},
    {"wr-buf", true, {bufferOperand}},
    {"compute", true,
     {{"compute fn", false, {0, spec_bit::fn}, std::size(fnNames) - 1,
       fnNames}}},
    {"set-rows", true, {}},
    {"block-end", false, {}},
};
static_assert(std::size(opcodeTable) ==
                  static_cast<std::size_t>(Opcode::BlockEnd) + 1,
              "one opcode table row per Fusion-ISA opcode");

const OpcodeInfo &
info(Opcode op)
{
    BF_ASSERT(static_cast<std::size_t>(op) < std::size(opcodeTable));
    return opcodeTable[static_cast<std::size_t>(op)];
}

/**
 * The first operand of @p inst above its max, or nullptr when every
 * operand is in range. @p inst's opcode must be in the table.
 */
const Operand *
badOperand(const Instruction &inst)
{
    for (const Operand &operand : info(inst.op).operands)
        if (operand.what &&
            operand.field.get(operand.inImm ? inst.imm : inst.spec) >
                operand.max)
            return &operand;
    return nullptr;
}

bool
knownOpcode(Opcode op)
{
    return static_cast<std::size_t>(op) < std::size(opcodeTable);
}

/** The spec of a buffer-addressing instruction. */
unsigned
bufferSpec(BufferId buf, bool post)
{
    return static_cast<unsigned>(buf) | (post ? spec_bit::post : 0);
}

} // namespace

unsigned
encodeBits(unsigned bits)
{
    for (unsigned code = 0; code < std::size(bitwidths); ++code)
        if (bitwidths[code] == bits)
            return code;
    BF_FATAL("unsupported bitwidth ", bits);
}

unsigned
decodeBits(unsigned code)
{
    BF_ASSERT(code < std::size(bitwidths), "bad bitwidth code ", code);
    return bitwidths[code];
}

bool
Instruction::isBody() const
{
    return info(op).body;
}

AddrSpace
Instruction::space() const
{
    if (spec & spec_bit::access)
        return AddrSpace::BufAccess;
    if (spec & spec_bit::fill)
        return AddrSpace::BufFill;
    return AddrSpace::Mem;
}

FusionConfig
Instruction::fusionConfig() const
{
    BF_ASSERT(op == Opcode::Setup, "fusionConfig() of ", info(op).mnemonic);
    return {decodeBits(immHighByte.get(imm)),
            decodeBits(immLowByte.get(imm)),
            (spec & spec_bit::aSigned) != 0,
            (spec & spec_bit::wSigned) != 0};
}

unsigned
Instruction::reluShift() const
{
    return immLowByte.get(imm);
}

unsigned
Instruction::reluOutBits() const
{
    return immHighByte.get(imm);
}

bool
Instruction::valid() const
{
    return knownOpcode(op) && badOperand(*this) == nullptr;
}

std::string
Instruction::error() const
{
    if (!knownOpcode(op))
        return detail::concat("opcode ", static_cast<unsigned>(op),
                              " is not a Fusion-ISA opcode");
    const Operand *operand = badOperand(*this);
    if (operand == nullptr)
        return "";
    return detail::concat(info(op).mnemonic, " ", operand->what, " ",
                          operand->field.get(operand->inImm ? imm : spec),
                          " out of range (max ", operand->max, ")");
}

std::string
Instruction::toString() const
{
    const std::string bad = error();
    BF_ASSERT(bad.empty(), bad);
    std::ostringstream os;
    os << info(op).mnemonic;
    for (const Operand &operand : info(op).operands)
        if (operand.names)
            os << " " << operand.names[operand.field.get(spec)];
    switch (op) {
      case Opcode::Setup: {
        const FusionConfig cfg = fusionConfig();
        os << " a" << cfg.aBits << (cfg.aSigned ? "s" : "u") << " w"
           << cfg.wBits << (cfg.wSigned ? "s" : "u");
        break;
      }
      case Opcode::Loop:
        os << " id=" << static_cast<int>(id) << " iters=" << fullImm();
        break;
      case Opcode::GenAddr:
        os << "." << spaceNames[static_cast<unsigned>(space())]
           << " loop=" << static_cast<int>(id) << " stride=" << fullImm();
        break;
      case Opcode::LdMem:
      case Opcode::StMem:
        os << " words=" << fullImm();
        break;
      case Opcode::SetRows:
        os << " rows=" << fullImm();
        break;
      case Opcode::BlockEnd:
        os << " next=" << imm;
        break;
      default:
        break;
    }
    if (isBody())
        os << " @L" << static_cast<int>(id) << (isPost() ? "/post" : "");
    if (op == Opcode::StMem && isActivate())
        os << " +act";
    if (op == Opcode::Compute && fn() == ComputeFn::ReluQuant)
        os << " shift=" << reluShift() << " bits=" << reluOutBits();
    return os.str();
}

Instruction
Instruction::make(Opcode op, unsigned id, unsigned spec, std::uint64_t imm)
{
    BF_ASSERT(id < 64, "id ", id, " does not fit the 6-bit id field");
    Instruction i;
    i.op = op;
    i.id = static_cast<std::uint8_t>(id);
    i.spec = static_cast<std::uint8_t>(spec);
    i.imm = static_cast<std::uint16_t>(imm & 0xffff);
    i.immHi = static_cast<std::uint32_t>(imm >> 16);
    return i;
}

Instruction
Instruction::setup(const FusionConfig &cfg)
{
    return make(Opcode::Setup, 0,
                (cfg.aSigned ? spec_bit::aSigned : 0) |
                    (cfg.wSigned ? spec_bit::wSigned : 0),
                immHighByte.put(encodeBits(cfg.aBits)) |
                    immLowByte.put(encodeBits(cfg.wBits)));
}

Instruction
Instruction::loop(unsigned loop_id, std::uint64_t iterations)
{
    BF_ASSERT(iterations > 0, "loop with zero iterations");
    return make(Opcode::Loop, loop_id, 0, iterations);
}

Instruction
Instruction::genAddr(BufferId buf, AddrSpace space, unsigned loop_id,
                     std::uint64_t stride)
{
    return make(Opcode::GenAddr, loop_id,
                static_cast<unsigned>(buf) |
                    spaceBits[static_cast<unsigned>(space)],
                stride);
}

Instruction
Instruction::ldMem(BufferId buf, unsigned level, std::uint64_t words,
                   bool post)
{
    return make(Opcode::LdMem, level, bufferSpec(buf, post), words);
}

Instruction
Instruction::stMem(BufferId buf, unsigned level, std::uint64_t words,
                   bool post, bool activate)
{
    return make(Opcode::StMem, level,
                bufferSpec(buf, post) | (activate ? spec_bit::activate : 0),
                words);
}

Instruction
Instruction::rdBuf(BufferId buf, unsigned level, bool post)
{
    return make(Opcode::RdBuf, level, bufferSpec(buf, post), 0);
}

Instruction
Instruction::wrBuf(BufferId buf, unsigned level, bool post)
{
    return make(Opcode::WrBuf, level, bufferSpec(buf, post), 0);
}

Instruction
Instruction::compute(ComputeFn fn, unsigned level)
{
    return make(Opcode::Compute, level, static_cast<unsigned>(fn), 0);
}

Instruction
Instruction::reluQuant(unsigned level, unsigned shift, unsigned out_bits)
{
    return make(Opcode::Compute, level,
                static_cast<unsigned>(ComputeFn::ReluQuant),
                immHighByte.put(out_bits) | immLowByte.put(shift));
}

Instruction
Instruction::setRows(unsigned level, std::uint64_t rows, bool post)
{
    return make(Opcode::SetRows, level, post ? spec_bit::post : 0, rows);
}

Instruction
Instruction::blockEnd(unsigned next_block)
{
    return make(Opcode::BlockEnd, 0, 0, next_block);
}

unsigned
encode(const Instruction &inst, std::uint32_t out[2])
{
    const bool wide = inst.immHi != 0;
    std::uint8_t spec = inst.spec;
    if (wide)
        spec |= spec_bit::extension;
    out[0] = opcodeField.put(static_cast<std::uint32_t>(inst.op)) |
             idField.put(inst.id) | specField.put(spec) |
             immField.put(inst.imm);
    if (wide) {
        out[1] = inst.immHi;
        return 2;
    }
    return 1;
}

bool
decode(const std::uint32_t *words, std::size_t count, Instruction &out,
       unsigned &consumed, std::string &error)
{
    if (count == 0) {
        error = "empty word stream";
        return false;
    }
    const std::uint32_t w = words[0];
    Instruction i;
    i.op = static_cast<Opcode>(opcodeField.get(w));
    i.id = static_cast<std::uint8_t>(idField.get(w));
    const auto spec = static_cast<std::uint8_t>(specField.get(w));
    i.spec = spec & static_cast<std::uint8_t>(~spec_bit::extension);
    i.imm = static_cast<std::uint16_t>(immField.get(w));
    error = i.error();
    if (!error.empty())
        return false;
    consumed = 1;
    if ((spec & spec_bit::extension) != 0) {
        if (count < 2) {
            error = detail::concat(info(i.op).mnemonic,
                                   " sets the extension flag but the "
                                   "extension word is missing");
            return false;
        }
        i.immHi = words[1];
        if (i.immHi == 0) {
            // encode() emits a narrow word for a zero high immediate,
            // so this pair could never re-encode to itself.
            error = detail::concat(info(i.op).mnemonic,
                                   " has a zero extension word");
            return false;
        }
        consumed = 2;
    }
    out = i;
    return true;
}

} // namespace bitfusion
