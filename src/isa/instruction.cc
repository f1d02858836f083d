#include "src/isa/instruction.h"

#include <sstream>

#include "src/common/logging.h"

namespace bitfusion {

namespace {

constexpr std::uint8_t extensionFlag = 1u << 3;

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Setup: return "setup";
      case Opcode::Loop: return "loop";
      case Opcode::GenAddr: return "gen-addr";
      case Opcode::LdMem: return "ld-mem";
      case Opcode::StMem: return "st-mem";
      case Opcode::RdBuf: return "rd-buf";
      case Opcode::WrBuf: return "wr-buf";
      case Opcode::Compute: return "compute";
      case Opcode::SetRows: return "set-rows";
      case Opcode::BlockEnd: return "block-end";
    }
    BF_PANIC("unknown opcode");
}

const char *
bufferName(BufferId buf)
{
    switch (buf) {
      case BufferId::Ibuf: return "IBUF";
      case BufferId::Obuf: return "OBUF";
      case BufferId::Wbuf: return "WBUF";
    }
    BF_PANIC("unknown buffer");
}

const char *
fnName(ComputeFn fn)
{
    switch (fn) {
      case ComputeFn::Mac: return "mac";
      case ComputeFn::Max: return "max";
      case ComputeFn::ReluQuant: return "relu-quant";
      case ComputeFn::Reset: return "reset";
    }
    BF_PANIC("unknown compute fn");
}

} // namespace

unsigned
encodeBits(unsigned bits)
{
    switch (bits) {
      case 1: return 0;
      case 2: return 1;
      case 4: return 2;
      case 8: return 3;
      case 16: return 4;
    }
    BF_FATAL("unsupported bitwidth ", bits);
}

unsigned
decodeBits(unsigned code)
{
    BF_ASSERT(code <= 4, "bad bitwidth code ", code);
    return 1u << code;
}

BufferId
Instruction::buffer() const
{
    return static_cast<BufferId>(spec & 0x3);
}

ComputeFn
Instruction::fn() const
{
    return static_cast<ComputeFn>(spec & 0x7);
}

AddrSpace
Instruction::space() const
{
    if (spec & 0x4)
        return AddrSpace::BufAccess;
    if (spec & 0x10)
        return AddrSpace::BufFill;
    return AddrSpace::Mem;
}

std::string
Instruction::toString() const
{
    std::ostringstream os;
    os << opcodeName(op);
    switch (op) {
      case Opcode::Setup:
        os << " a" << decodeBits((imm >> 8) & 0xff)
           << (spec & 1 ? "s" : "u") << " w" << decodeBits(imm & 0xff)
           << (spec & 2 ? "s" : "u");
        break;
      case Opcode::Loop:
        os << " id=" << static_cast<int>(id) << " iters=" << fullImm();
        break;
      case Opcode::GenAddr:
        os << " " << bufferName(buffer())
           << (space() == AddrSpace::Mem ? ".mem" :
               space() == AddrSpace::BufAccess ? ".buf" : ".fill")
           << " loop=" << static_cast<int>(id) << " stride=" << fullImm();
        break;
      case Opcode::LdMem:
      case Opcode::StMem:
        os << " " << bufferName(buffer()) << " words=" << fullImm()
           << " @L" << static_cast<int>(id) << (isPost() ? "/post" : "")
           << (op == Opcode::StMem && isActivate() ? " +act" : "");
        break;
      case Opcode::RdBuf:
      case Opcode::WrBuf:
        os << " " << bufferName(buffer()) << " @L" << static_cast<int>(id)
           << (isPost() ? "/post" : "");
        break;
      case Opcode::Compute:
        os << " " << fnName(fn()) << " @L" << static_cast<int>(id);
        if (fn() == ComputeFn::ReluQuant)
            os << " shift=" << (imm & 0xff) << " bits="
               << ((imm >> 8) & 0xff);
        break;
      case Opcode::SetRows:
        os << " rows=" << fullImm() << " @L" << static_cast<int>(id);
        break;
      case Opcode::BlockEnd:
        os << " next=" << imm;
        break;
    }
    return os.str();
}

Instruction
Instruction::setup(unsigned a_bits, unsigned w_bits, bool a_signed,
                   bool w_signed)
{
    Instruction i;
    i.op = Opcode::Setup;
    i.spec = static_cast<std::uint8_t>((a_signed ? 1 : 0) |
                                       (w_signed ? 2 : 0));
    i.imm = static_cast<std::uint16_t>((encodeBits(a_bits) << 8) |
                                       encodeBits(w_bits));
    return i;
}

Instruction
Instruction::loop(unsigned loop_id, std::uint64_t iterations)
{
    BF_ASSERT(loop_id < 48, "loop id out of range");
    BF_ASSERT(iterations > 0, "loop with zero iterations");
    Instruction i;
    i.op = Opcode::Loop;
    i.id = static_cast<std::uint8_t>(loop_id);
    i.imm = static_cast<std::uint16_t>(iterations & 0xffff);
    i.immHi = static_cast<std::uint32_t>(iterations >> 16);
    return i;
}

Instruction
Instruction::genAddr(BufferId buf, AddrSpace space, unsigned loop_id,
                     std::uint64_t stride)
{
    BF_ASSERT(loop_id < 64, "gen-addr id out of range");
    Instruction i;
    i.op = Opcode::GenAddr;
    i.id = static_cast<std::uint8_t>(loop_id);
    i.spec = static_cast<std::uint8_t>(
        static_cast<unsigned>(buf) |
        (space == AddrSpace::BufAccess ? 0x4 :
         space == AddrSpace::BufFill ? 0x10 : 0x0));
    i.imm = static_cast<std::uint16_t>(stride & 0xffff);
    i.immHi = static_cast<std::uint32_t>(stride >> 16);
    return i;
}

namespace {

Instruction
memInstr(Opcode op, BufferId buf, unsigned level, std::uint64_t words,
         bool post)
{
    Instruction i;
    i.op = op;
    i.id = static_cast<std::uint8_t>(level);
    i.spec = static_cast<std::uint8_t>(static_cast<unsigned>(buf) |
                                       (post ? 0x10 : 0x0));
    i.imm = static_cast<std::uint16_t>(words & 0xffff);
    i.immHi = static_cast<std::uint32_t>(words >> 16);
    return i;
}

} // namespace

Instruction
Instruction::ldMem(BufferId buf, unsigned level, std::uint64_t words,
                   bool post)
{
    return memInstr(Opcode::LdMem, buf, level, words, post);
}

Instruction
Instruction::stMem(BufferId buf, unsigned level, std::uint64_t words,
                   bool post, bool activate)
{
    Instruction i = memInstr(Opcode::StMem, buf, level, words, post);
    if (activate)
        i.spec |= 0x4;
    return i;
}

Instruction
Instruction::rdBuf(BufferId buf, unsigned level, bool post)
{
    return memInstr(Opcode::RdBuf, buf, level, 0, post);
}

Instruction
Instruction::wrBuf(BufferId buf, unsigned level, bool post)
{
    return memInstr(Opcode::WrBuf, buf, level, 0, post);
}

Instruction
Instruction::compute(ComputeFn fn, unsigned level, unsigned imm)
{
    Instruction i;
    i.op = Opcode::Compute;
    i.id = static_cast<std::uint8_t>(level);
    i.spec = static_cast<std::uint8_t>(fn);
    i.imm = static_cast<std::uint16_t>(imm);
    return i;
}

Instruction
Instruction::setRows(unsigned level, std::uint64_t rows, bool post)
{
    Instruction i;
    i.op = Opcode::SetRows;
    i.id = static_cast<std::uint8_t>(level);
    i.spec = post ? 0x10 : 0x0;
    i.imm = static_cast<std::uint16_t>(rows & 0xffff);
    i.immHi = static_cast<std::uint32_t>(rows >> 16);
    return i;
}

Instruction
Instruction::blockEnd(unsigned next_block)
{
    Instruction i;
    i.op = Opcode::BlockEnd;
    i.imm = static_cast<std::uint16_t>(next_block);
    return i;
}

namespace {

/** A bit field of the 32-bit instruction word. */
struct WordField
{
    unsigned lsb;
    unsigned width;

    std::uint32_t get(std::uint32_t word) const
    {
        return (word >> lsb) & ((1u << width) - 1);
    }
    std::uint32_t put(std::uint32_t value) const
    {
        return (value & ((1u << width) - 1)) << lsb;
    }
};

constexpr WordField opcodeField{27, 5};
constexpr WordField idField{21, 6};
constexpr WordField specField{16, 5};
constexpr WordField immField{0, 16};

/**
 * An operand field toString() names through a lookup, with the
 * largest value it can name; decode() rejects anything above it, so
 * every decoded instruction disassembles.
 */
struct OperandRange
{
    Opcode op;
    const char *what;
    WordField field;
    unsigned max;
};

constexpr WordField bufferField{16, 2}; // spec[1:0]
constexpr WordField fnField{16, 3};     // spec[2:0]
constexpr unsigned maxBuffer = static_cast<unsigned>(BufferId::Wbuf);

constexpr OperandRange operandRanges[] = {
    {Opcode::Setup, "activation bitwidth code", {8, 8}, 4},
    {Opcode::Setup, "weight bitwidth code", {0, 8}, 4},
    {Opcode::GenAddr, "buffer id", bufferField, maxBuffer},
    {Opcode::LdMem, "buffer id", bufferField, maxBuffer},
    {Opcode::StMem, "buffer id", bufferField, maxBuffer},
    {Opcode::RdBuf, "buffer id", bufferField, maxBuffer},
    {Opcode::WrBuf, "buffer id", bufferField, maxBuffer},
    {Opcode::Compute, "compute fn", fnField,
     static_cast<unsigned>(ComputeFn::Reset)},
};

} // namespace

unsigned
encode(const Instruction &inst, std::uint32_t out[2])
{
    const bool wide = inst.immHi != 0;
    std::uint8_t spec = inst.spec;
    if (wide)
        spec |= extensionFlag;
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
    const std::uint32_t op = opcodeField.get(w);
    if (op > static_cast<std::uint32_t>(Opcode::BlockEnd)) {
        error = detail::concat("opcode ", op, " is not a Fusion-ISA opcode");
        return false;
    }
    Instruction i;
    i.op = static_cast<Opcode>(op);
    i.id = static_cast<std::uint8_t>(idField.get(w));
    const auto spec = static_cast<std::uint8_t>(specField.get(w));
    i.spec = spec & static_cast<std::uint8_t>(~extensionFlag);
    i.imm = static_cast<std::uint16_t>(immField.get(w));
    for (const OperandRange &range : operandRanges) {
        const std::uint32_t value = range.field.get(w);
        if (range.op == i.op && value > range.max) {
            error = detail::concat(opcodeName(i.op), " ", range.what,
                                   " ", value, " out of range (max ",
                                   range.max, ")");
            return false;
        }
    }
    consumed = 1;
    if ((spec & extensionFlag) != 0) {
        if (count < 2) {
            error = detail::concat(opcodeName(i.op),
                                   " sets the extension flag but the "
                                   "extension word is missing");
            return false;
        }
        i.immHi = words[1];
        if (i.immHi == 0) {
            // encode() emits a narrow word for a zero high immediate,
            // so this pair could never re-encode to itself.
            error = detail::concat(opcodeName(i.op),
                                   " has a zero extension word");
            return false;
        }
        consumed = 2;
    }
    out = i;
    return true;
}

} // namespace bitfusion
