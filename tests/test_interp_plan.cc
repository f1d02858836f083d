/**
 * @file
 * Compiled-plan vs reference-walk interpreter parity.
 *
 * The ExecPlan fast path (src/isa/exec_plan.h) must be bit-identical
 * to Interpreter::runLegacy in everything observable -- final memory
 * contents and every InterpStats field (including bufHighWater and
 * bitBrickOps, which the plan derives from static analysis and a
 * build-time ops-per-MAC constant instead of executing the slow
 * way). This suite checks that across the model zoo (shrunken to
 * interpreter scale, quantized and baseline variants), across
 * randomized compiler-emitted conv/fc blocks on every paper bitwidth
 * config, on randomized hand-built blocks that stress nest shapes the
 * compiler never emits (sparse loop ids, set-rows DMA, pooling and
 * activation ops at odd levels, vetoed fusion), and on a zero-trip
 * nest (reachable through decoded word streams, which bypass the
 * builder's nonzero-iterations assert). The native multiply both MAC
 * paths use is pinned against the decomposition in
 * tests/test_decompose.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/common/prng.h"
#include "src/compiler/codegen.h"
#include "src/dnn/model_zoo.h"
#include "src/dnn/tensor.h"
#include "src/isa/exec_plan.h"
#include "src/isa/interpreter.h"
#include "src/isa/memory.h"

namespace bitfusion {
namespace {

AcceleratorConfig
batch1Config()
{
    AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
    cfg.batch = 1;
    return cfg;
}

/** Compare every InterpStats field with a named message. */
void
expectStatsEqual(const InterpStats &legacy, const InterpStats &plan,
                 const std::string &what)
{
    for (unsigned b = 0; b < 3; ++b) {
        EXPECT_EQ(legacy.dramLoadElems[b], plan.dramLoadElems[b])
            << what << " dramLoadElems[" << b << "]";
        EXPECT_EQ(legacy.dramStoreElems[b], plan.dramStoreElems[b])
            << what << " dramStoreElems[" << b << "]";
        EXPECT_EQ(legacy.bufReads[b], plan.bufReads[b])
            << what << " bufReads[" << b << "]";
        EXPECT_EQ(legacy.bufWrites[b], plan.bufWrites[b])
            << what << " bufWrites[" << b << "]";
        EXPECT_EQ(legacy.bufHighWater[b], plan.bufHighWater[b])
            << what << " bufHighWater[" << b << "]";
    }
    EXPECT_EQ(legacy.macs, plan.macs) << what << " macs";
    EXPECT_EQ(legacy.bitBrickOps, plan.bitBrickOps)
        << what << " bitBrickOps";
    EXPECT_EQ(legacy.auxOps, plan.auxOps) << what << " auxOps";
    EXPECT_TRUE(legacy == plan) << what << " InterpStats operator==";
}

void
expectMemoryEqual(const MemoryModel &a, const MemoryModel &b,
                  const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::uint64_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.read(i), b.read(i)) << what << " address " << i;
}

/** The paper's bitwidth configs, one per distinct precision. */
std::vector<FusionConfig>
paperConfigs()
{
    return {zoo::cfg1x1(), zoo::cfg2x2(), zoo::cfg4x1(),
            zoo::cfg4x4(), zoo::cfg8x8(), zoo::cfg16x16()};
}

/**
 * Run one block through the reference walk and through the compiled
 * plan, each on its own copy of @p seed; both executions must agree
 * on stats and memory bit-for-bit. Returns the plan for callers that
 * inspect its shape.
 */
std::shared_ptr<const ExecPlan>
checkBlockParity(const InstructionBlock &block, const MemoryModel &seed,
                 const std::string &what)
{
    MemoryModel legacyMem = seed;
    Interpreter legacy(legacyMem);
    legacy.runLegacy(block);

    const auto plan = ExecPlan::build(block);
    MemoryModel planMem = seed;
    Interpreter interp(planMem);
    interp.run(*plan);
    expectStatsEqual(legacy.stats(), interp.stats(), what);
    expectMemoryEqual(legacyMem, planMem, what);
    return plan;
}

// ------------------------------------------------ model-zoo parity

/**
 * Shrink a zoo layer to interpreter scale while preserving its kind,
 * bitwidths, signedness, kernel, stride, padding, and groups -- the
 * properties the lowering actually branches on. Channel counts stay
 * multiples of the group count so the layer remains valid.
 */
Layer
shrinkLayer(const Layer &l)
{
    Layer s = l;
    const unsigned g = std::max(1u, l.groups);
    auto capChannels = [g](unsigned c, unsigned cap) {
        unsigned limit = std::max(g, cap - cap % g);
        unsigned v = std::min(c, limit);
        v -= v % g;
        return std::max(v, g);
    };
    switch (l.kind) {
      case LayerKind::Conv:
        s.inC = capChannels(l.inC, 8);
        s.outC = capChannels(l.outC, 8);
        s.inH = std::min(l.inH, std::max(l.kH, 6u));
        s.inW = std::min(l.inW, std::max(l.kW, 6u));
        break;
      case LayerKind::FullyConnected:
      case LayerKind::Rnn:
      case LayerKind::Lstm:
        s.inC = std::min(l.inC, 48u);
        s.outC = std::min(l.outC, 24u);
        break;
      case LayerKind::Pool:
        s.inC = std::min(l.inC, 6u);
        s.inH = std::min(l.inH, std::max(l.kH * 2, 8u));
        s.inW = std::min(l.inW, std::max(l.kW * 2, 8u));
        break;
      case LayerKind::Activation:
        s.inC = std::min(l.inC, 4u);
        s.inH = std::min(l.inH, 6u);
        s.inW = std::min(l.inW, 6u);
        break;
    }
    return s;
}

Network
shrinkNetwork(const Network &net)
{
    std::vector<Layer> layers;
    for (const Layer &l : net.layers())
        layers.push_back(shrinkLayer(l));
    return Network(net.name() + "-small", layers);
}

/**
 * Memory image for a compiled network: every block's input and
 * weight regions filled with representable random values (the
 * output regions stay zero; MAC blocks preload them as initial
 * accumulators, which needs no representability).
 */
MemoryModel
seedMemory(const CompiledNetwork &cn, unsigned seed)
{
    // The plans' static memory-extent analysis bounds every address
    // any block can touch (the gemm view of RNN/LSTM blocks reads
    // and writes more than the per-layer element counts suggest).
    std::uint64_t total = 0;
    for (const LayerSchedule &sched : cn.schedules)
        total = std::max(
            total, ExecPlan::build(sched.block)->memoryExtent());

    MemoryModel mem;
    mem.allocate(total);
    Prng prng(seed);
    for (const LayerSchedule &sched : cn.schedules) {
        const Layer &l = sched.layer;
        const auto &base = sched.block.baseAddr;
        const std::uint64_t inElems =
            l.kind == LayerKind::Conv
                ? static_cast<std::uint64_t>(l.inC) *
                      (l.inH + 2 * l.pad) * (l.inW + 2 * l.pad)
                : l.inputCount();
        for (std::uint64_t i = 0; i < inElems; ++i)
            mem.write(base[0] + i,
                      l.bits.aSigned ? prng.nextSigned(l.bits.aBits)
                                     : prng.nextUnsigned(l.bits.aBits));
        if (sched.usesMacArray) {
            for (std::uint64_t i = 0; i < l.weightCount(); ++i)
                mem.write(base[2] + i,
                          l.bits.wSigned
                              ? prng.nextSigned(l.bits.wBits)
                              : prng.nextUnsigned(l.bits.wBits));
        }
    }
    return mem;
}

TEST(PlanParity, ModelZooStatsAndMemoryIdentical)
{
    const Compiler compiler(batch1Config());
    unsigned seed = 100;
    for (const zoo::Benchmark &bench : zoo::all()) {
        for (const Network *variant :
             {&bench.quantized, &bench.baseline}) {
            const Network net = shrinkNetwork(*variant);
            const CompiledNetwork cn = compiler.compile(net);
            const MemoryModel seedMem = seedMemory(cn, ++seed);

            MemoryModel legacyMem = seedMem;
            Interpreter legacy(legacyMem);
            for (const LayerSchedule &sched : cn.schedules)
                legacy.runLegacy(sched.block);
            EXPECT_GT(legacy.stats().macs, 0u) << net.name();

            MemoryModel planMem = seedMem;
            Interpreter plan(planMem);
            for (const LayerSchedule &sched : cn.schedules)
                plan.run(sched.block);
            expectStatsEqual(legacy.stats(), plan.stats(), net.name());
            expectMemoryEqual(legacyMem, planMem, net.name());
        }
    }
}

// --------------------------------------- compiler-emitted blocks

TEST(PlanParity, RandomConvBlocksAllConfigs)
{
    const Compiler compiler(batch1Config());
    unsigned seed = 500;
    for (const FusionConfig &cfg : paperConfigs()) {
        const Layer layer =
            Layer::conv("c", 4, 7, 7, 6, 3, 1, 1, cfg, 2);
        Prng prng(++seed);
        Tensor input(layer.inC, layer.inH, layer.inW);
        input.fillRandom(prng, cfg.aBits, cfg.aSigned);
        Tensor weights(layer.weightCount());
        weights.fillRandom(prng, cfg.wBits, cfg.wSigned);

        MemoryModel mem;
        BlockBases bases;
        const unsigned hp = layer.inH + 2 * layer.pad;
        const unsigned wp = layer.inW + 2 * layer.pad;
        bases.input = mem.allocate(
            static_cast<std::size_t>(layer.inC) * hp * wp);
        for (unsigned c = 0; c < layer.inC; ++c)
            for (unsigned y = 0; y < layer.inH; ++y)
                for (unsigned x = 0; x < layer.inW; ++x)
                    mem.write(bases.input +
                                  (static_cast<std::uint64_t>(c) * hp +
                                   (y + layer.pad)) *
                                      wp +
                                  (x + layer.pad),
                              input.at(c, y, x));
        bases.weights = mem.allocate(weights.size());
        for (std::size_t i = 0; i < weights.size(); ++i)
            mem.write(bases.weights + i, weights[i]);
        bases.output = mem.allocate(layer.outputCount());

        ActFusion act;
        act.enabled = true;
        act.shift = 3;
        act.outBits = 8;
        checkBlockParity(compiler.emitConv(layer, bases, 3, act), mem,
                         "conv " + cfg.toString());
    }
}

TEST(PlanParity, RandomFcBlocksAllConfigs)
{
    const Compiler compiler(batch1Config());
    unsigned seed = 600;
    for (const FusionConfig &cfg : paperConfigs()) {
        const Layer layer = Layer::fc("f", 24, 10, cfg);
        Prng prng(++seed);
        Tensor input(static_cast<std::size_t>(layer.inC));
        input.fillRandom(prng, cfg.aBits, cfg.aSigned);
        Tensor weights(layer.weightCount());
        weights.fillRandom(prng, cfg.wBits, cfg.wSigned);

        MemoryModel mem;
        BlockBases bases;
        bases.input = mem.allocate(input.size());
        for (std::size_t i = 0; i < input.size(); ++i)
            mem.write(bases.input + i, input[i]);
        bases.weights = mem.allocate(weights.size());
        for (std::size_t i = 0; i < weights.size(); ++i)
            mem.write(bases.weights + i, weights[i]);
        bases.output = mem.allocate(layer.outC);

        // The 2-D set-rows weight DMA makes this the interesting
        // case for the plan's row handling.
        checkBlockParity(compiler.emitFc(layer, bases, 5, 8), mem,
                         "fc " + cfg.toString());
    }
}

// --------------------------------------------- randomized blocks

/**
 * Build a random valid block the compiler would never emit: sparse
 * loop ids, random per-level placement of transfers, set-rows 2-D
 * weight DMA, and a MAC or pooling body. Every rd-buf is covered by
 * a prior ld-mem fill, so both interpreter paths stay within their
 * bounds contracts.
 */
InstructionBlock
fuzzBlock(Prng &prng, MemoryModel &mem)
{
    const std::vector<FusionConfig> cfgs = paperConfigs();
    const FusionConfig cfg = cfgs[prng.below(cfgs.size())];
    const unsigned depth = 1 + static_cast<unsigned>(prng.below(4));

    // Sparse, shuffled loop ids in [0, 48).
    std::vector<unsigned> ids;
    for (unsigned i = 0; i < 48; ++i)
        ids.push_back(i);
    for (unsigned i = 47; i > 0; --i)
        std::swap(ids[i], ids[prng.below(i + 1)]);
    ids.resize(depth);

    // 1..3 iterations each (the ISA forbids zero-trip loops).
    std::vector<std::uint64_t> iters(depth);
    for (unsigned d = 0; d < depth; ++d)
        iters[d] = 1 + prng.below(3);

    InstructionBlock b;
    b.name = "fuzz";
    b.config = cfg;
    b.actShift = static_cast<unsigned>(prng.below(4));
    b.actOutBits = prng.below(2) ? 8 : 0;

    auto &ins = b.instructions;
    ins.push_back(Instruction::setup(cfg.aBits, cfg.wBits, cfg.aSigned,
                                     cfg.wSigned));
    for (unsigned d = 0; d < depth; ++d)
        ins.push_back(Instruction::loop(ids[d], iters[d]));

    const auto IB = BufferId::Ibuf;
    const auto OB = BufferId::Obuf;
    const auto WB = BufferId::Wbuf;
    const auto ACC = AddrSpace::BufAccess;
    const auto MEM = AddrSpace::Mem;
    const auto FILL = AddrSpace::BufFill;

    // The OBUF read/write level; IB/WB are read at the innermost
    // level, OB at obLevel (mirroring the compiler's accumulator
    // placement, but at a random height).
    const unsigned obLevel =
        1 + static_cast<unsigned>(prng.below(depth));

    // Access expressions: random (declared-loop, stride) terms whose
    // loops are active at the op's level.
    auto maxAddr = [&](unsigned buf) {
        std::uint64_t top = 0;
        for (const Instruction &inst : ins) {
            if (inst.op != Opcode::GenAddr ||
                inst.buffer() != static_cast<BufferId>(buf) ||
                inst.space() != ACC) {
                continue;
            }
            for (unsigned d = 0; d < depth; ++d)
                if (ids[d] == inst.id && iters[d] > 0)
                    top += (iters[d] - 1) * inst.fullImm();
        }
        return top;
    };
    auto emitAccess = [&](BufferId buf, unsigned level) {
        for (unsigned d = 0; d < level; ++d)
            if (prng.below(2))
                ins.push_back(Instruction::genAddr(
                    buf, ACC, ids[d], 1 + prng.below(3)));
    };
    emitAccess(IB, depth);
    emitAccess(WB, depth);
    emitAccess(OB, obLevel);

    const std::uint64_t ibufNeed =
        maxAddr(static_cast<unsigned>(IB)) + 1;
    const std::uint64_t obufNeed =
        maxAddr(static_cast<unsigned>(OB)) + 1;
    const std::uint64_t wbufAccessNeed =
        maxAddr(static_cast<unsigned>(WB)) + 1;

    // WBUF loads through a set-rows 2-D DMA; rows * words covers the
    // access range.
    const std::uint64_t wbRows = 1 + prng.below(3);
    const std::uint64_t wbWords = divCeil(wbufAccessNeed, wbRows);
    ins.push_back(
        Instruction::genAddr(WB, MEM, addr_id::dmaRow, wbWords));
    ins.push_back(
        Instruction::genAddr(WB, FILL, addr_id::dmaRow, wbWords));

    // Memory regions (base addresses via the shared bump model).
    const std::uint64_t ibufBase = mem.allocate(ibufNeed);
    const std::uint64_t obufBase = mem.allocate(obufNeed);
    const std::uint64_t wbufBase = mem.allocate(wbRows * wbWords);
    b.baseAddr = {ibufBase, obufBase, wbufBase};
    Prng fill(prng.next());
    for (std::uint64_t i = 0; i < ibufNeed; ++i)
        mem.write(ibufBase + i,
                  cfg.aSigned ? fill.nextSigned(cfg.aBits)
                              : fill.nextUnsigned(cfg.aBits));
    for (std::uint64_t i = 0; i < wbRows * wbWords; ++i)
        mem.write(wbufBase + i,
                  cfg.wSigned ? fill.nextSigned(cfg.wBits)
                              : fill.nextUnsigned(cfg.wBits));

    // Body: fills at a level above the reads, a MAC or pooling
    // reduction at the innermost level, a store on the way out.
    const unsigned ldLevel =
        static_cast<unsigned>(prng.below(obLevel + 1));
    ins.push_back(Instruction::ldMem(IB, ldLevel, ibufNeed));
    ins.push_back(Instruction::setRows(ldLevel, wbRows));
    ins.push_back(Instruction::ldMem(WB, ldLevel, wbWords));
    ins.push_back(Instruction::ldMem(OB, ldLevel, obufNeed));
    const bool pooling = prng.below(4) == 0;
    ins.push_back(Instruction::rdBuf(OB, obLevel));
    if (pooling) {
        ins.push_back(Instruction::compute(ComputeFn::Reset, obLevel));
        ins.push_back(Instruction::rdBuf(IB, depth));
        ins.push_back(Instruction::compute(ComputeFn::Max, depth));
    } else {
        ins.push_back(Instruction::rdBuf(IB, depth));
        ins.push_back(Instruction::rdBuf(WB, depth));
        ins.push_back(Instruction::compute(ComputeFn::Mac, depth));
    }
    ins.push_back(Instruction::wrBuf(OB, obLevel, true));
    ins.push_back(Instruction::stMem(OB, ldLevel, obufNeed, true,
                                     prng.below(2) != 0));
    ins.push_back(Instruction::blockEnd(0));
    b.validate();
    return b;
}

TEST(PlanParity, FuzzedBlocks)
{
    // Some fuzzed nest shapes veto fusion, so the corpus also checks
    // the per-op MAC against the oracle. Pin that it does so on every
    // config, so the corpus cannot drift away from those blocks.
    std::set<std::string> unfusedMacConfigs;
    Prng prng(20260731);
    for (unsigned round = 0; round < 60; ++round) {
        MemoryModel mem;
        const InstructionBlock block = fuzzBlock(prng, mem);
        const auto plan = checkBlockParity(
            block, mem, "fuzz round " + std::to_string(round));
        const bool hasMac = std::any_of(
            block.instructions.begin(), block.instructions.end(),
            [](const Instruction &inst) {
                return inst.op == Opcode::Compute &&
                       inst.fn() == ComputeFn::Mac;
            });
        if (hasMac && !plan->fused())
            unfusedMacConfigs.insert(block.config.toString());
    }
    for (const FusionConfig &cfg : paperConfigs())
        EXPECT_EQ(unfusedMacConfigs.count(cfg.toString()), 1u)
            << "no unfused MAC plan for " << cfg.toString();
}

TEST(PlanParity, ZeroTripLoopRunsPrologueAndEpilogueOnly)
{
    // The Instruction::loop builder rejects zero iterations, but a
    // decoded word stream does not: a block arriving through
    // decodeWords can carry a zero-trip loop, and both paths must
    // agree (pre/post spans outside the loop still run; the body
    // and its stats never happen).
    InstructionBlock b;
    b.name = "zero-trip";
    b.config = zoo::cfg8x8();
    auto &ins = b.instructions;
    ins.push_back(Instruction::setup(8, 8, false, true));
    ins.push_back(Instruction::loop(3, 2));
    ins.push_back(Instruction::loop(7, 1)); // imm zeroed below
    ins.push_back(Instruction::genAddr(BufferId::Ibuf,
                                       AddrSpace::BufAccess, 3, 1));
    ins.push_back(Instruction::genAddr(BufferId::Obuf,
                                       AddrSpace::BufAccess, 3, 1));
    ins.push_back(Instruction::ldMem(BufferId::Ibuf, 0, 2));
    ins.push_back(Instruction::rdBuf(BufferId::Ibuf, 1));
    ins.push_back(Instruction::rdBuf(BufferId::Wbuf, 2));
    ins.push_back(Instruction::compute(ComputeFn::Mac, 2));
    ins.push_back(Instruction::wrBuf(BufferId::Obuf, 1, true));
    ins.push_back(Instruction::stMem(BufferId::Obuf, 0, 2, true));
    ins.push_back(Instruction::blockEnd(0));
    // Zero the inner loop's iteration count the way a word stream
    // would deliver it.
    for (Instruction &inst : ins)
        if (inst.op == Opcode::Loop && inst.id == 7)
            inst.imm = 0;
    b.validate();

    MemoryModel mem;
    const std::uint64_t base = mem.allocate(4);
    mem.write(base + 0, 5);
    mem.write(base + 1, 7);
    b.baseAddr = {base, base + 2, base};
    checkBlockParity(b, mem, "zero-trip");

    // The inner body never ran: no MACs, no WBUF reads; the outer
    // level's rd/wr and the transfers did.
    MemoryModel planMem = mem;
    Interpreter interp(planMem);
    interp.run(*ExecPlan::build(b));
    EXPECT_EQ(interp.stats().macs, 0u);
    EXPECT_EQ(interp.stats().bufReads[2], 0u);
    EXPECT_EQ(interp.stats().bufReads[0], 2u);
    EXPECT_EQ(interp.stats().bufWrites[1], 2u);
    EXPECT_EQ(interp.stats().dramLoadElems[0], 2u);
    EXPECT_EQ(interp.stats().dramStoreElems[1], 2u);
}

TEST(PlanParity, UnknownComputeFnIsANoOpOnBothPaths)
{
    // fn() is a raw 3-bit field: a decoded word stream can carry
    // 4..7, which the reference walk's switch executes as a silent
    // no-op. The lowering must drop it the same way (and count
    // nothing), not execute garbage.
    InstructionBlock b;
    b.name = "unknown-fn";
    b.config = zoo::cfg8x8();
    auto &ins = b.instructions;
    ins.push_back(Instruction::setup(8, 8, false, true));
    ins.push_back(Instruction::loop(0, 3));
    ins.push_back(Instruction::genAddr(BufferId::Ibuf,
                                       AddrSpace::BufAccess, 0, 1));
    ins.push_back(Instruction::genAddr(BufferId::Obuf,
                                       AddrSpace::BufAccess, 0, 1));
    ins.push_back(Instruction::ldMem(BufferId::Ibuf, 0, 3));
    ins.push_back(Instruction::rdBuf(BufferId::Ibuf, 1));
    Instruction bogus = Instruction::compute(ComputeFn::Mac, 1);
    bogus.spec = (bogus.spec & ~0x7u) | 0x5; // fn 5: undefined
    ins.push_back(bogus);
    ins.push_back(Instruction::wrBuf(BufferId::Obuf, 1, true));
    ins.push_back(Instruction::stMem(BufferId::Obuf, 0, 3, true));
    ins.push_back(Instruction::blockEnd(0));
    b.validate();

    MemoryModel mem;
    const std::uint64_t base = mem.allocate(6);
    for (unsigned i = 0; i < 3; ++i)
        mem.write(base + i, i + 1);
    b.baseAddr = {base, base + 3, base};
    checkBlockParity(b, mem, "unknown-fn");

    MemoryModel planMem = mem;
    Interpreter interp(planMem);
    interp.run(*ExecPlan::build(b));
    EXPECT_EQ(interp.stats().macs, 0u);
    EXPECT_EQ(interp.stats().auxOps, 0u);
}

// ----------------------------------------------- plan internals

TEST(ExecPlanStatic, BufferSizesCoverDynamicHighWater)
{
    const Compiler compiler(batch1Config());
    const Layer layer = Layer::fc("f", 96, 40, zoo::cfg8x8());
    MemoryModel mem;
    BlockBases bases;
    bases.input = mem.allocate(layer.inputCount());
    bases.weights = mem.allocate(layer.weightCount());
    bases.output = mem.allocate(layer.outputCount());
    const InstructionBlock block = compiler.emitFc(layer, bases, 8, 16);

    const auto plan = ExecPlan::build(block);
    Interpreter interp(mem);
    interp.run(*plan);
    for (unsigned b = 0; b < 3; ++b)
        EXPECT_GE(plan->bufferSizes()[b],
                  interp.stats().bufHighWater[b])
            << "buffer " << b;
}

TEST(ExecPlanStatic, SixteenBitCountsDecompositionOpsPerMac)
{
    // The plan multiplies natively but must count one 16x16
    // decomposition's worth of BitBrick ops (8 x 8 lanes) per MAC.
    const Compiler compiler(batch1Config());
    const Layer layer = Layer::fc("f", 8, 4, zoo::cfg16x16());
    MemoryModel mem;
    BlockBases bases;
    bases.input = mem.allocate(layer.inputCount());
    bases.weights = mem.allocate(layer.weightCount());
    bases.output = mem.allocate(layer.outputCount());
    Interpreter interp(mem);
    interp.run(compiler.emitFc(layer, bases, 4, 8));
    EXPECT_EQ(interp.stats().macs, 32u);
    EXPECT_EQ(interp.stats().bitBrickOps, interp.stats().macs * 64);
}

// ------------------------------------------- fused-nest recognition

TEST(ExecPlanFusion, CompilerConvNestIsFused)
{
    const Compiler compiler(batch1Config());
    const Layer layer =
        Layer::conv("c", 4, 7, 7, 6, 3, 1, 1, zoo::cfg8x8(), 2);
    MemoryModel mem;
    BlockBases bases;
    const unsigned hp = layer.inH + 2 * layer.pad;
    const unsigned wp = layer.inW + 2 * layer.pad;
    bases.input =
        mem.allocate(static_cast<std::size_t>(layer.inC) * hp * wp);
    bases.weights = mem.allocate(layer.weightCount());
    bases.output = mem.allocate(layer.outputCount());
    const auto plan =
        ExecPlan::build(compiler.emitConv(layer, bases, 3, ActFusion{}));
    // The conv reduction nest is icpg x kH x kW.
    EXPECT_TRUE(plan->fused());
    EXPECT_EQ(plan->fusedDims(), 3u);
}

TEST(ExecPlanFusion, CompilerFcNestIsFusedOnEveryWidth)
{
    const Compiler compiler(batch1Config());
    auto fcPlan = [&](const FusionConfig &cfg) {
        const Layer layer = Layer::fc("f", 16, 6, cfg);
        MemoryModel mem;
        BlockBases bases;
        bases.input = mem.allocate(layer.inputCount());
        bases.weights = mem.allocate(layer.weightCount());
        bases.output = mem.allocate(layer.outputCount());
        return ExecPlan::build(compiler.emitFc(layer, bases, 4, 8));
    };

    for (const FusionConfig &cfg : paperConfigs()) {
        const auto plan = fcPlan(cfg);
        EXPECT_TRUE(plan->fused()) << cfg.toString();
        EXPECT_EQ(plan->fusedDims(), 1u) << cfg.toString();
    }
}

TEST(ExecPlanFusion, PoolingBodyIsNotFused)
{
    // A pooling reduction (Reset / rd-buf / Max) must not match the
    // MAC-nest pattern.
    InstructionBlock b;
    b.name = "pool";
    b.config = zoo::cfg8x8();
    auto &ins = b.instructions;
    ins.push_back(Instruction::setup(8, 8, false, true));
    ins.push_back(Instruction::loop(0, 2));
    ins.push_back(Instruction::loop(1, 2));
    ins.push_back(Instruction::genAddr(BufferId::Ibuf,
                                       AddrSpace::BufAccess, 1, 1));
    ins.push_back(Instruction::genAddr(BufferId::Obuf,
                                       AddrSpace::BufAccess, 0, 1));
    ins.push_back(Instruction::ldMem(BufferId::Ibuf, 0, 2));
    ins.push_back(Instruction::ldMem(BufferId::Obuf, 0, 2));
    ins.push_back(Instruction::rdBuf(BufferId::Obuf, 1));
    ins.push_back(Instruction::compute(ComputeFn::Reset, 1));
    ins.push_back(Instruction::rdBuf(BufferId::Ibuf, 2));
    ins.push_back(Instruction::compute(ComputeFn::Max, 2));
    ins.push_back(Instruction::wrBuf(BufferId::Obuf, 1, true));
    ins.push_back(Instruction::stMem(BufferId::Obuf, 0, 2, true));
    ins.push_back(Instruction::blockEnd(0));
    b.validate();

    MemoryModel mem;
    const std::uint64_t base = mem.allocate(4);
    mem.write(base + 0, 9);
    mem.write(base + 1, 4);
    b.baseAddr = {base, base + 2, base};

    const auto plan = ExecPlan::build(b);
    EXPECT_FALSE(plan->fused());
    EXPECT_EQ(plan->fusedDims(), 0u);
    checkBlockParity(b, mem, "pool");
}

TEST(PlanParity, RegistersObservableAfterFusedNest)
{
    // An op outside the fused nest that reads the operand registers
    // (a MAC at the accumulator level) must see exactly the values
    // the last per-element body iteration would have left: the last
    // elements read from IBUF and WBUF.
    InstructionBlock b;
    b.name = "register-observer";
    b.config = zoo::cfg8x8();
    auto &ins = b.instructions;
    ins.push_back(Instruction::setup(8, 8, false, true));
    ins.push_back(Instruction::loop(0, 2));
    ins.push_back(Instruction::loop(1, 3));
    ins.push_back(Instruction::genAddr(BufferId::Ibuf,
                                       AddrSpace::BufAccess, 1, 1));
    ins.push_back(Instruction::genAddr(BufferId::Wbuf,
                                       AddrSpace::BufAccess, 1, 1));
    ins.push_back(Instruction::genAddr(BufferId::Obuf,
                                       AddrSpace::BufAccess, 0, 1));
    ins.push_back(Instruction::ldMem(BufferId::Ibuf, 0, 3));
    ins.push_back(Instruction::ldMem(BufferId::Wbuf, 0, 3));
    ins.push_back(Instruction::ldMem(BufferId::Obuf, 0, 2));
    ins.push_back(Instruction::rdBuf(BufferId::Obuf, 1));
    // Observer: on the second outer iteration this MACs the register
    // values left by the first fused-nest dispatch.
    ins.push_back(Instruction::compute(ComputeFn::Mac, 1));
    ins.push_back(Instruction::rdBuf(BufferId::Ibuf, 2));
    ins.push_back(Instruction::rdBuf(BufferId::Wbuf, 2));
    ins.push_back(Instruction::compute(ComputeFn::Mac, 2));
    ins.push_back(Instruction::wrBuf(BufferId::Obuf, 1, true));
    ins.push_back(Instruction::stMem(BufferId::Obuf, 0, 2, true));
    ins.push_back(Instruction::blockEnd(0));
    b.validate();

    MemoryModel mem;
    const std::uint64_t ib = mem.allocate(3);
    const std::uint64_t ob = mem.allocate(2);
    const std::uint64_t wb = mem.allocate(3);
    const std::int64_t acts[3] = {5, 2, 7};
    const std::int64_t wgts[3] = {3, -1, -4};
    for (unsigned i = 0; i < 3; ++i) {
        mem.write(ib + i, acts[i]);
        mem.write(wb + i, wgts[i]);
    }
    b.baseAddr = {ib, ob, wb};

    const auto plan = ExecPlan::build(b);
    EXPECT_TRUE(plan->fused());
    EXPECT_EQ(plan->fusedDims(), 1u);
    checkBlockParity(b, mem, "register-observer");

    // Spell the expectation out: output 1 is (regIn * regWgt after
    // nest 0) + the second nest, i.e. 7 * -4 + (5*3 + 2*-1 + 7*-4).
    MemoryModel runMem = mem;
    Interpreter interp(runMem);
    interp.run(*plan);
    EXPECT_EQ(runMem.read(ob + 0), 5 * 3 + 2 * -1 + 7 * -4);
    EXPECT_EQ(runMem.read(ob + 1),
              7 * -4 + (5 * 3 + 2 * -1 + 7 * -4));
}

TEST(PlanParity, ZeroTripFusedNestExecutesNothing)
{
    // A recognized MAC nest whose static trip count is zero (decoded
    // word streams can deliver zero-trip loops) must run no body at
    // all -- the program simply omits the fused op.
    InstructionBlock b;
    b.name = "zero-trip-fused";
    b.config = zoo::cfg8x8();
    auto &ins = b.instructions;
    ins.push_back(Instruction::setup(8, 8, false, true));
    ins.push_back(Instruction::loop(0, 2));
    ins.push_back(Instruction::loop(1, 1)); // imm zeroed below
    ins.push_back(Instruction::genAddr(BufferId::Ibuf,
                                       AddrSpace::BufAccess, 1, 1));
    ins.push_back(Instruction::genAddr(BufferId::Wbuf,
                                       AddrSpace::BufAccess, 1, 1));
    ins.push_back(Instruction::genAddr(BufferId::Obuf,
                                       AddrSpace::BufAccess, 0, 1));
    ins.push_back(Instruction::ldMem(BufferId::Ibuf, 0, 1));
    ins.push_back(Instruction::ldMem(BufferId::Wbuf, 0, 1));
    ins.push_back(Instruction::ldMem(BufferId::Obuf, 0, 2));
    ins.push_back(Instruction::rdBuf(BufferId::Obuf, 1));
    ins.push_back(Instruction::rdBuf(BufferId::Ibuf, 2));
    ins.push_back(Instruction::rdBuf(BufferId::Wbuf, 2));
    ins.push_back(Instruction::compute(ComputeFn::Mac, 2));
    ins.push_back(Instruction::wrBuf(BufferId::Obuf, 1, true));
    ins.push_back(Instruction::stMem(BufferId::Obuf, 0, 2, true));
    ins.push_back(Instruction::blockEnd(0));
    for (Instruction &inst : ins)
        if (inst.op == Opcode::Loop && inst.id == 1)
            inst.imm = 0;
    b.validate();

    MemoryModel mem;
    const std::uint64_t base = mem.allocate(4);
    mem.write(base + 0, 11);
    b.baseAddr = {base, base + 2, base + 1};

    const auto plan = ExecPlan::build(b);
    EXPECT_TRUE(plan->fused());
    checkBlockParity(b, mem, "zero-trip-fused");

    MemoryModel runMem = mem;
    Interpreter interp(runMem);
    interp.run(*plan);
    EXPECT_EQ(interp.stats().macs, 0u);
    EXPECT_EQ(interp.stats().bufReads[0], 0u);
    EXPECT_EQ(interp.stats().bufReads[2], 0u);
}

using ExecPlanDeathTest = ::testing::Test;

TEST(ExecPlanDeathTest, FusedNestRejectsUnrepresentableWeight)
{
    // The fused kernel's range mask must reproduce the reference
    // walk's representability failure, not silently accumulate an
    // out-of-range operand.
    const Compiler compiler(batch1Config());
    const Layer layer = Layer::fc("f", 8, 4, zoo::cfg8x8());
    MemoryModel mem;
    BlockBases bases;
    bases.input = mem.allocate(layer.inputCount());
    bases.weights = mem.allocate(layer.weightCount());
    bases.output = mem.allocate(layer.outputCount());
    const InstructionBlock block = compiler.emitFc(layer, bases, 4, 8);
    const auto plan = ExecPlan::build(block);
    ASSERT_TRUE(plan->fused());

    // 200 does not fit 8-bit signed weights.
    mem.write(bases.weights, 200);
    Interpreter interp(mem);
    EXPECT_DEATH(interp.run(*plan), "not representable");
}

TEST(ExecPlanDeathTest, UnfusedMacRejectsUnrepresentableActivation)
{
    // A wr-buf in the innermost body vetoes fusion, so the MAC runs
    // op by op; its range check must fail like the reference walk.
    InstructionBlock b;
    b.name = "unfused-mac";
    b.config = zoo::cfg8x8();
    auto &ins = b.instructions;
    ins.push_back(Instruction::setup(8, 8, false, true));
    ins.push_back(Instruction::loop(0, 3));
    for (BufferId buf : {BufferId::Ibuf, BufferId::Wbuf, BufferId::Obuf})
        ins.push_back(
            Instruction::genAddr(buf, AddrSpace::BufAccess, 0, 1));
    ins.push_back(Instruction::ldMem(BufferId::Ibuf, 0, 3));
    ins.push_back(Instruction::ldMem(BufferId::Wbuf, 0, 3));
    ins.push_back(Instruction::rdBuf(BufferId::Ibuf, 1));
    ins.push_back(Instruction::rdBuf(BufferId::Wbuf, 1));
    ins.push_back(Instruction::compute(ComputeFn::Mac, 1));
    ins.push_back(Instruction::wrBuf(BufferId::Obuf, 1, true));
    ins.push_back(Instruction::stMem(BufferId::Obuf, 0, 3, true));
    ins.push_back(Instruction::blockEnd(0));
    b.validate();

    MemoryModel mem;
    const std::uint64_t ib = mem.allocate(3);
    const std::uint64_t ob = mem.allocate(3);
    const std::uint64_t wb = mem.allocate(3);
    b.baseAddr = {ib, ob, wb};
    for (unsigned i = 0; i < 3; ++i) {
        mem.write(ib + i, i + 1);
        mem.write(wb + i, -2);
    }
    const auto plan = checkBlockParity(b, mem, "unfused-mac");
    ASSERT_FALSE(plan->fused());

    // 300 does not fit 8-bit unsigned activations.
    mem.write(ib + 2, 300);
    Interpreter interp(mem);
    EXPECT_DEATH(interp.run(*plan), "activation 300 not representable");
}

} // namespace
} // namespace bitfusion
