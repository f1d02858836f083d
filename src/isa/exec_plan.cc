#include "src/isa/exec_plan.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "src/arch/decompose.h"
#include "src/common/bitutils.h"
#include "src/common/logging.h"

namespace bitfusion {

// ------------------------------------------------------------ lowering

std::uint64_t
ExecPlan::evalMax(const AddrExpr &e) const
{
    // Largest address the expression can produce over the whole nest;
    // a zero-trip loop's body never runs, so its term contributes 0.
    std::uint64_t addr = e.base;
    for (const AddrTerm &t : e.terms)
        if (iters_[t.depth] > 0)
            addr += (iters_[t.depth] - 1) * t.stride;
    return addr;
}

std::shared_ptr<const ExecPlan>
ExecPlan::build(const InstructionBlock &block)
{
    block.validate();
    std::shared_ptr<ExecPlan> plan(new ExecPlan);
    plan->config_ = block.config();
    plan->actShift_ = block.actShift;
    plan->actOutBits_ = block.actOutBits;
    const FusionConfig &cfg = plan->config_;
    // The decomposition size is value-independent (one BitBrick op
    // per digit pair); one exact call pins it.
    plan->opsPerMac_ = decomposeMultiply(0, 0, cfg).size();
    plan->aMin_ = cfg.aSigned ? signedMin(cfg.aBits) : 0;
    plan->aMax_ =
        cfg.aSigned ? signedMax(cfg.aBits) : unsignedMax(cfg.aBits);
    plan->wMin_ = cfg.wSigned ? signedMin(cfg.wBits) : 0;
    plan->wMax_ =
        cfg.wSigned ? signedMax(cfg.wBits) : unsignedMax(cfg.wBits);

    // Loop ids -> nest depth (ids are 6-bit; dmaRow is a pseudo id).
    int idToDepth[64];
    std::fill(std::begin(idToDepth), std::end(idToDepth), -1);
    for (const Instruction &inst : block.instructions) {
        if (inst.op == Opcode::Loop) {
            idToDepth[inst.id] =
                static_cast<int>(plan->iters_.size());
            plan->iters_.push_back(inst.fullImm());
        }
    }
    const unsigned depth = static_cast<unsigned>(plan->iters_.size());

    // Pre/post body spans per nest level: levels[l] runs inside
    // loops 0..l-1 (levels[0] is the block prologue/epilogue). This
    // is a build-time view; the plan stores the linearized program.
    struct Level
    {
        std::vector<CodeOp> pre;
        std::vector<CodeOp> post;
    };
    std::vector<Level> levels(depth + 1);

    // validate() guarantees every gen-addr loop is declared and every
    // body level is within the nest.
    for (const Instruction &inst : block.instructions) {
        if (inst.op == Opcode::GenAddr) {
            AddrExpr &e =
                plan->exprs_[static_cast<unsigned>(inst.buffer())]
                            [static_cast<unsigned>(inst.space())];
            if (inst.id == addr_id::dmaRow)
                e.rowStride += inst.fullImm();
            else
                e.terms.push_back({static_cast<unsigned>(idToDepth[inst.id]),
                                   inst.fullImm()});
        } else if (inst.isBody()) {
            // Each kind reads only its own operands.
            CodeOp op{};
            op.buf = static_cast<std::uint8_t>(inst.buffer());
            op.imm = inst.fullImm();
            switch (inst.op) {
              case Opcode::LdMem: op.kind = OpKind::LdMem; break;
              case Opcode::StMem:
                op.kind = OpKind::StMem;
                op.activate = inst.isActivate();
                break;
              case Opcode::SetRows:
                op.kind = OpKind::SetRows;
                plan->maxRows_ =
                    std::max<std::uint64_t>(plan->maxRows_, op.imm);
                break;
              case Opcode::RdBuf: op.kind = OpKind::RdBuf; break;
              case Opcode::WrBuf: op.kind = OpKind::WrBuf; break;
              case Opcode::Compute:
                switch (inst.fn()) {
                  case ComputeFn::Mac:
                    op.kind = OpKind::Mac;
                    break;
                  case ComputeFn::Max:
                    op.kind = OpKind::MaxOp;
                    break;
                  case ComputeFn::ReluQuant:
                    op.kind = OpKind::ReluQuant;
                    op.shift = inst.reluShift();
                    op.outBits = inst.reluOutBits();
                    break;
                  case ComputeFn::Reset:
                    op.kind = OpKind::Reset;
                    break;
                }
                break;
              default:
                BF_PANIC("unexpected opcode in block body");
            }
            Level &level = levels[inst.id];
            (inst.isPost() ? level.post : level.pre).push_back(op);
        }
    }

    // Memory-side bases come from the block; buffer-side expressions
    // start at zero, exactly like the reference walk.
    for (unsigned b = 0; b < 3; ++b)
        plan->exprs_[b][static_cast<unsigned>(AddrSpace::Mem)].base =
            block.baseAddr[b];

    // Static high-water analysis: the largest address each buffer can
    // see through any transfer fill or any rd-buf/wr-buf access. The
    // row bound of 2-D transfers is the largest set-rows immediate
    // (conservative when a smaller set-rows reaches a transfer, which
    // only over-allocates; the dynamic bufHighWater stat stays exact).
    for (const Level &level : levels) {
        for (const auto *span : {&level.pre, &level.post}) {
            for (const CodeOp &op : *span) {
                if (op.kind == OpKind::LdMem ||
                    op.kind == OpKind::StMem) {
                    const AddrExpr &fill =
                        plan->exprs_[op.buf][static_cast<unsigned>(
                            AddrSpace::BufFill)];
                    const std::uint64_t need =
                        plan->evalMax(fill) +
                        (plan->maxRows_ - 1) * fill.rowStride + op.imm;
                    plan->bufSize_[op.buf] =
                        std::max(plan->bufSize_[op.buf], need);
                    const AddrExpr &mem =
                        plan->exprs_[op.buf][static_cast<unsigned>(
                            AddrSpace::Mem)];
                    plan->memExtent_ = std::max(
                        plan->memExtent_,
                        plan->evalMax(mem) +
                            (plan->maxRows_ - 1) * mem.rowStride +
                            op.imm);
                } else if (op.kind == OpKind::RdBuf ||
                           op.kind == OpKind::WrBuf) {
                    const AddrExpr &acc =
                        plan->exprs_[op.buf][static_cast<unsigned>(
                            AddrSpace::BufAccess)];
                    plan->bufSize_[op.buf] =
                        std::max(plan->bufSize_[op.buf],
                                 plan->evalMax(acc) + 1);
                }
            }
        }
    }

    // ------------------------------------------ fused-nest recognition
    //
    // The compiler's MAC reduction is an innermost body of exactly
    // {RdBuf(Ibuf), RdBuf(Wbuf)} (either order) followed by Mac,
    // wrapped in loops whose intermediate levels carry no other ops.
    // That whole sub-nest collapses into one FusedMac op that runs
    // the macNest kernel. Fusion is vetoed when anything outside the
    // nest touches the operand buffers' counters or scratchpads in a
    // way the kernel would not reproduce:
    //  - another RdBuf/WrBuf on Ibuf/Wbuf outside the fused body
    //    (their addresses share the fused access expressions);
    //  - any other address expression referencing a fused loop (the
    //    fused program never advances those counters).
    const unsigned IBv = static_cast<unsigned>(BufferId::Ibuf);
    const unsigned WBv = static_cast<unsigned>(BufferId::Wbuf);
    const unsigned ACCv = static_cast<unsigned>(AddrSpace::BufAccess);
    if (depth > 0) {
        std::vector<CodeOp> body = levels[depth].pre;
        body.insert(body.end(), levels[depth].post.begin(),
                    levels[depth].post.end());
        const bool shape =
            body.size() == 3 && body[0].kind == OpKind::RdBuf &&
            body[1].kind == OpKind::RdBuf &&
            body[2].kind == OpKind::Mac &&
            ((body[0].buf == IBv && body[1].buf == WBv) ||
             (body[0].buf == WBv && body[1].buf == IBv));
        if (shape) {
            unsigned g = depth - 1;
            while (g > 0 && levels[g].pre.empty() &&
                   levels[g].post.empty())
                --g;
            if (depth - g > kMaxFusedDims)
                g = depth - kMaxFusedDims;

            bool ok = true;
            for (unsigned b = 0; b < 3 && ok; ++b) {
                for (unsigned s = 0; s < 3 && ok; ++s) {
                    if (s == ACCv && (b == IBv || b == WBv))
                        continue;
                    for (const AddrTerm &t : plan->exprs_[b][s].terms)
                        if (t.depth >= g)
                            ok = false;
                }
            }
            for (unsigned l = 0; l < depth && ok; ++l) {
                for (const auto *span : {&levels[l].pre,
                                         &levels[l].post}) {
                    for (const CodeOp &op : *span) {
                        if ((op.kind == OpKind::RdBuf ||
                             op.kind == OpKind::WrBuf) &&
                            (op.buf == IBv || op.buf == WBv))
                            ok = false;
                    }
                }
            }

            if (ok) {
                FusedNest &f = plan->fused_;
                f.firstLoop = g;
                f.dims = depth - g;
                f.proto.dims = f.dims;
                f.proto.aMin = plan->aMin_;
                f.proto.aMax = plan->aMax_;
                f.proto.wMin = plan->wMin_;
                f.proto.wMax = plan->wMax_;
                const AddrExpr &aAcc = plan->exprs_[IBv][ACCv];
                const AddrExpr &wAcc = plan->exprs_[WBv][ACCv];
                f.aOuter.base = aAcc.base;
                for (const AddrTerm &t : aAcc.terms) {
                    if (t.depth >= g)
                        f.proto.aStride[t.depth - g] += t.stride;
                    else
                        f.aOuter.terms.push_back(t);
                }
                f.wOuter.base = wAcc.base;
                for (const AddrTerm &t : wAcc.terms) {
                    if (t.depth >= g)
                        f.proto.wStride[t.depth - g] += t.stride;
                    else
                        f.wOuter.terms.push_back(t);
                }
                f.total = 1;
                for (unsigned d = 0; d < f.dims; ++d) {
                    const std::uint64_t it = plan->iters_[g + d];
                    f.proto.iters[d] = it;
                    f.total *= it;
                    if (it > 0) {
                        f.lastOffA += (it - 1) * f.proto.aStride[d];
                        f.lastOffW += (it - 1) * f.proto.wStride[d];
                    }
                }
            }
        }
    }

    // ------------------------------------------- program linearization
    //
    // The nest becomes a flat instruction stream: LoopHead resets the
    // counter and skips a zero-trip loop; LoopBack jumps to the loop
    // top while iterations remain. A fused nest replaces loops
    // [firstLoop, depth) and the body with one FusedMac op (or
    // nothing, when the static trip count is zero -- the reference
    // walk would never reach the body either).
    std::vector<CodeOp> &code = plan->code_;
    auto emitSpan = [&code](const std::vector<CodeOp> &span) {
        code.insert(code.end(), span.begin(), span.end());
    };
    const unsigned cut =
        plan->fused_.dims > 0 ? plan->fused_.firstLoop : depth;
    emitSpan(levels[0].pre);
    std::vector<std::size_t> heads;
    for (unsigned d = 0; d < cut; ++d) {
        heads.push_back(code.size());
        CodeOp head{};
        head.kind = OpKind::LoopHead;
        head.loop = static_cast<std::uint16_t>(d);
        code.push_back(head);
        emitSpan(levels[d + 1].pre);
    }
    if (cut < depth && plan->fused_.total > 0) {
        CodeOp f{};
        f.kind = OpKind::FusedMac;
        code.push_back(f);
    }
    for (unsigned d = cut; d-- > 0;) {
        emitSpan(levels[d + 1].post);
        CodeOp back{};
        back.kind = OpKind::LoopBack;
        back.loop = static_cast<std::uint16_t>(d);
        back.target = static_cast<std::uint32_t>(heads[d] + 1);
        code.push_back(back);
        code[heads[d]].target = static_cast<std::uint32_t>(code.size());
    }
    emitSpan(levels[0].post);
    CodeOp halt{};
    halt.kind = OpKind::Halt;
    code.push_back(halt);

    return plan;
}

// ----------------------------------------------------------- execution

struct ExecPlan::Runtime
{
    MemoryModel &memory;
    InterpStats &stats;
    std::array<std::vector<std::int64_t>, 3> &buffers;
    std::uint64_t *pos;
    std::uint64_t pendingRows = 1;
    std::int64_t regIn = 0, regWgt = 0, regOut = 0;
};

void
ExecPlan::transfer(const CodeOp &op, bool to_buffer, Runtime &rt) const
{
    const unsigned b = op.buf;
    const std::uint64_t words = op.imm;
    const std::uint64_t rows = rt.pendingRows;
    rt.pendingRows = 1;
    if (rows == 0)
        return;

    const AddrExpr &mem_e =
        exprs_[b][static_cast<unsigned>(AddrSpace::Mem)];
    const AddrExpr &fill_e =
        exprs_[b][static_cast<unsigned>(AddrSpace::BufFill)];
    std::uint64_t mem0 = mem_e.base;
    for (const AddrTerm &t : mem_e.terms)
        mem0 += rt.pos[t.depth] * t.stride;
    std::uint64_t buf0 = fill_e.base;
    for (const AddrTerm &t : fill_e.terms)
        buf0 += rt.pos[t.depth] * t.stride;

    auto &store = rt.buffers[b];
    // The fill range is inside the static high-water size; the stat
    // itself tracks the dynamically reached mark (bit-identical to
    // the reference walk's per-row maximum: row strides are
    // non-negative, so the last row is the high-water row).
    const std::uint64_t top =
        buf0 + (rows - 1) * fill_e.rowStride + words;
    BF_ASSERT(top <= store.size(), "transfer beyond planned size");
    rt.stats.bufHighWater[b] =
        std::max<std::uint64_t>(rt.stats.bufHighWater[b], top);

    if (words > 0) {
        const bool activate = !to_buffer && op.activate;
        for (std::uint64_t r = 0; r < rows; ++r) {
            if (to_buffer) {
                const std::int64_t *src =
                    rt.memory.readSpan(mem0, words);
                std::memcpy(&store[buf0], src,
                            words * sizeof(std::int64_t));
            } else if (activate) {
                // Activation unit on the drain path (Fig. 3): relu
                // then requantize, per element.
                std::int64_t *dst = rt.memory.writeSpan(mem0, words);
                for (std::uint64_t kk = 0; kk < words; ++kk) {
                    std::int64_t v = store[buf0 + kk];
                    v = std::max<std::int64_t>(v, 0) >> actShift_;
                    if (actOutBits_)
                        v = clampUnsigned(v, actOutBits_);
                    dst[kk] = v;
                }
                rt.stats.auxOps += words;
            } else {
                std::memcpy(rt.memory.writeSpan(mem0, words),
                            &store[buf0], words * sizeof(std::int64_t));
            }
            mem0 += mem_e.rowStride;
            buf0 += fill_e.rowStride;
        }
    }
    if (to_buffer)
        rt.stats.dramLoadElems[b] += rows * words;
    else
        rt.stats.dramStoreElems[b] += rows * words;
}

inline void
ExecPlan::doRdBuf(const CodeOp &op, Runtime &rt) const
{
    const AddrExpr &e =
        exprs_[op.buf][static_cast<unsigned>(AddrSpace::BufAccess)];
    std::uint64_t addr = e.base;
    for (const AddrTerm &t : e.terms)
        addr += rt.pos[t.depth] * t.stride;
    const auto &store = rt.buffers[op.buf];
    BF_ASSERT(addr < store.size(), "rd-buf beyond planned size");
    const std::int64_t v = store[addr];
    switch (static_cast<BufferId>(op.buf)) {
      case BufferId::Ibuf: rt.regIn = v; break;
      case BufferId::Wbuf: rt.regWgt = v; break;
      case BufferId::Obuf: rt.regOut = v; break;
    }
    ++rt.stats.bufReads[op.buf];
}

inline void
ExecPlan::doWrBuf(const CodeOp &op, Runtime &rt) const
{
    const AddrExpr &e =
        exprs_[op.buf][static_cast<unsigned>(AddrSpace::BufAccess)];
    std::uint64_t addr = e.base;
    for (const AddrTerm &t : e.terms)
        addr += rt.pos[t.depth] * t.stride;
    auto &store = rt.buffers[op.buf];
    BF_ASSERT(addr < store.size(), "wr-buf beyond planned size");
    store[addr] = rt.regOut;
    rt.stats.bufHighWater[op.buf] = std::max<std::uint64_t>(
        rt.stats.bufHighWater[op.buf], addr + 1);
    ++rt.stats.bufWrites[op.buf];
}

inline void
ExecPlan::doMac(Runtime &rt) const
{
    // The decomposition asserts representability; route a failure
    // through it for the reference walk's exact panic.
    if (rt.regIn < aMin_ || rt.regIn > aMax_ || rt.regWgt < wMin_ ||
        rt.regWgt > wMax_)
        decomposeMultiply(rt.regIn, rt.regWgt, config_);
    // Wraparound accumulation, like the fused kernel.
    rt.regOut = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(rt.regOut) +
        static_cast<std::uint64_t>(rt.regIn * rt.regWgt));
    ++rt.stats.macs;
    rt.stats.bitBrickOps += opsPerMac_;
}

inline void
ExecPlan::doMax(Runtime &rt) const
{
    rt.regOut = std::max(rt.regOut, rt.regIn);
    ++rt.stats.auxOps;
}

inline void
ExecPlan::doReluQuant(const CodeOp &op, Runtime &rt) const
{
    const std::int64_t v =
        std::max<std::int64_t>(rt.regIn, 0) >> op.shift;
    rt.regOut = op.outBits ? clampUnsigned(v, op.outBits) : v;
    ++rt.stats.auxOps;
}

inline void
ExecPlan::doReset(Runtime &rt) const
{
    rt.regOut = std::numeric_limits<std::int64_t>::min();
}

inline void
ExecPlan::doFusedMac(Runtime &rt) const
{
    const FusedNest &f = fused_;
    std::uint64_t aBase = f.aOuter.base;
    for (const AddrTerm &t : f.aOuter.terms)
        aBase += rt.pos[t.depth] * t.stride;
    std::uint64_t wBase = f.wOuter.base;
    for (const AddrTerm &t : f.wOuter.terms)
        wBase += rt.pos[t.depth] * t.stride;

    const unsigned ib = static_cast<unsigned>(BufferId::Ibuf);
    const unsigned wb = static_cast<unsigned>(BufferId::Wbuf);
    const auto &ibuf = rt.buffers[ib];
    const auto &wbuf = rt.buffers[wb];
    // One bounds check per operand per dispatch instead of one per
    // element (addresses are monotone in the fused counters).
    BF_ASSERT(aBase + f.lastOffA < ibuf.size(),
              "rd-buf beyond planned size");
    BF_ASSERT(wBase + f.lastOffW < wbuf.size(),
              "rd-buf beyond planned size");

    MacNestArgs args = f.proto;
    args.a = ibuf.data() + aBase;
    args.w = wbuf.data() + wBase;
    std::uint64_t bad = 0;
    const std::uint64_t acc = macNest(args, bad);
    if (bad != 0)
        reportUnrepresentable(args, config_); // [[noreturn]]

    // Same observable end-state as per-element execution: the operand
    // registers hold the last elements read, and the accumulator adds
    // the (wraparound-exact) product sum.
    rt.regIn = args.a[f.lastOffA];
    rt.regWgt = args.w[f.lastOffW];
    rt.regOut = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(rt.regOut) + acc);
    rt.stats.bufReads[ib] += f.total;
    rt.stats.bufReads[wb] += f.total;
    rt.stats.macs += f.total;
    rt.stats.bitBrickOps += f.total * opsPerMac_;
}

void
ExecPlan::runProgram(Runtime &rt) const
{
    std::size_t pc = 0;
    for (;;) {
        const CodeOp &op = code_[pc];
        switch (op.kind) {
          case OpKind::LdMem: transfer(op, true, rt); break;
          case OpKind::StMem: transfer(op, false, rt); break;
          case OpKind::SetRows: rt.pendingRows = op.imm; break;
          case OpKind::RdBuf: doRdBuf(op, rt); break;
          case OpKind::WrBuf: doWrBuf(op, rt); break;
          case OpKind::Mac: doMac(rt); break;
          case OpKind::MaxOp: doMax(rt); break;
          case OpKind::ReluQuant: doReluQuant(op, rt); break;
          case OpKind::Reset: doReset(rt); break;
          case OpKind::LoopHead:
            rt.pos[op.loop] = 0;
            if (iters_[op.loop] == 0) {
                pc = op.target;
                continue;
            }
            break;
          case OpKind::LoopBack:
            if (++rt.pos[op.loop] < iters_[op.loop]) {
                pc = op.target;
                continue;
            }
            break;
          case OpKind::FusedMac: doFusedMac(rt); break;
          case OpKind::Halt: return;
        }
        ++pc;
    }
}

void
ExecPlan::execute(MemoryModel &memory, InterpStats &stats,
                  std::array<std::vector<std::int64_t>, 3> &buffers)
    const
{
    for (unsigned b = 0; b < 3; ++b)
        buffers[b].assign(bufSize_[b], 0);

    std::vector<std::uint64_t> pos(depth(), 0);
    Runtime rt{memory, stats, buffers, pos.data()};
    runProgram(rt);
}

} // namespace bitfusion
