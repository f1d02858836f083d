#include "src/isa/block.h"

#include <bitset>
#include <sstream>

#include "src/common/logging.h"

namespace bitfusion {

FusionConfig
InstructionBlock::config() const
{
    BF_ASSERT(!instructions.empty(), "block '", name, "' is empty");
    return instructions.front().fusionConfig();
}

void
InstructionBlock::validate() const
{
    if (instructions.empty())
        BF_FATAL("block '", name, "' is empty");
    if (instructions.front().op != Opcode::Setup)
        BF_FATAL("block '", name, "' does not start with setup");
    if (instructions.back().op != Opcode::BlockEnd)
        BF_FATAL("block '", name, "' does not end with block-end");

    std::bitset<addr_id::loopLimit> loop_ids;
    unsigned loops = 0;
    for (const auto &inst : instructions) {
        if (!inst.valid())
            BF_FATAL("block '", name, "': ", inst.error());
        const int id = inst.id;
        if (inst.op == Opcode::Loop) {
            if (inst.id >= addr_id::loopLimit)
                BF_FATAL("block '", name, "': loop id ", id,
                         " out of range (max ", addr_id::loopLimit - 1,
                         ")");
            if (loop_ids.test(inst.id))
                BF_FATAL("block '", name, "': duplicate loop id ", id);
            loop_ids.set(inst.id);
            ++loops;
        } else if (inst.op == Opcode::GenAddr &&
                   inst.id != addr_id::dmaRow &&
                   (inst.id >= addr_id::loopLimit ||
                    !loop_ids.test(inst.id))) {
            BF_FATAL("block '", name, "': gen-addr id ", id,
                     " is neither a declared loop nor the DMA row id ",
                     addr_id::dmaRow);
        } else if (inst.isBody() && inst.id > loops) {
            // Body instructions may sit at most one level inside the
            // loops declared so far (level == loops means innermost
            // body of the declared nest).
            BF_FATAL("block '", name, "': instruction at level ", id,
                     " but only ", loops, " loops declared before it");
        }
    }
    config().validate();
}

std::vector<std::uint32_t>
InstructionBlock::encodeWords() const
{
    std::vector<std::uint32_t> words;
    words.reserve(instructions.size() + 4);
    std::uint32_t buf[2];
    for (const auto &inst : instructions) {
        const unsigned n = encode(inst, buf);
        words.push_back(buf[0]);
        if (n == 2)
            words.push_back(buf[1]);
    }
    return words;
}

bool
InstructionBlock::decodeWords(const std::vector<std::uint32_t> &words,
                              std::vector<Instruction> &out,
                              std::string &error)
{
    out.clear();
    std::size_t pos = 0;
    while (pos < words.size()) {
        Instruction inst;
        unsigned consumed = 0;
        if (!decode(words.data() + pos, words.size() - pos, inst,
                    consumed, error)) {
            error = "word " + std::to_string(pos) + ": " + error;
            return false;
        }
        out.push_back(inst);
        pos += consumed;
    }
    return true;
}

std::string
InstructionBlock::disassemble() const
{
    std::ostringstream os;
    os << "; block '" << name << "' config " << config().toString()
       << " bases I=" << baseAddr[0] << " O=" << baseAddr[1]
       << " W=" << baseAddr[2] << "\n";
    unsigned depth = 0;
    for (const auto &inst : instructions) {
        const unsigned indent = inst.isBody()             ? inst.id
                                : inst.op == Opcode::Loop ? depth++
                                                          : 0;
        os << std::string(2 * indent, ' ') << inst.toString() << "\n";
    }
    return os.str();
}

} // namespace bitfusion
