#include "src/compiler/tiling.h"

#include <algorithm>

#include "src/common/bitutils.h"
#include "src/common/logging.h"

namespace bitfusion {

Tiling
Tiler::chooseTiles(std::uint64_t m, std::uint64_t k, std::uint64_t n_total,
                   const FusionConfig &bits) const
{
    cfg.validate();
    // Half of each scratchpad is usable by a tile; the other half is
    // the double-buffer shadow that hides DRAM latency.
    const std::uint64_t wbuf = std::max<std::uint64_t>(cfg.wbufBits / 2, 1);
    const std::uint64_t ibuf = std::max<std::uint64_t>(cfg.ibufBits / 2, 1);
    const std::uint64_t obuf = std::max<std::uint64_t>(cfg.obufBits / 2, 1);
    const unsigned acc_bits = 32; // partial sums accumulate at 32-bit

    const std::uint64_t w_total = m * k * bits.wBits;
    const std::uint64_t i_total = k * n_total * bits.aBits;
    const std::uint64_t o_total = m * n_total * acc_bits;

    // Search power-of-two tile candidates for the (mt, kt, nt)
    // triple minimizing off-chip traffic under the residency
    // constraints:  mt*kt*wBits <= wbuf,  kt*nt*aBits <= ibuf,
    // mt*nt*acc <= obuf (partials live in OBUF across k-tiles).
    // Each candidate's cost is min(trafficBits) over both loop
    // orders, with each tile count computed once. Below the clip at
    // m, mt is 2^shift, so its divisions are shifts.
    Tiling best;
    std::uint64_t best_cost = ~0ULL;
    for (std::uint64_t kt = 1;; kt *= 2) {
        kt = std::min(kt, k);
        const std::uint64_t nt_ibuf =
            ibuf / std::max<std::uint64_t>(1, kt * bits.aBits);
        unsigned shift = 0;
        for (std::uint64_t mt = 1;; mt *= 2, ++shift) {
            mt = std::min(mt, m);
            if (mt * kt * bits.wBits > wbuf && !(mt == 1 && kt == 1))
                break;
            const bool m_whole = mt == m;
            // obuf / (mt * acc_bits) as a shift; from mt = 2^59 the
            // product wraps to 0, which max(1, .) makes a divisor of 1.
            const std::uint64_t nt_obuf =
                m_whole      ? obuf / std::max<std::uint64_t>(
                                          1, mt * acc_bits)
                : shift < 59 ? obuf >> (shift + 5)
                             : obuf;
            const std::uint64_t nt = std::max<std::uint64_t>(
                1, std::min({nt_ibuf, nt_obuf, n_total}));

            // trafficBits() of both orders, sharing the tile counts.
            const bool weights_resident = m_whole && kt >= k;
            const bool inputs_resident = kt >= k && nt >= n_total;
            const std::uint64_t n_tiles =
                weights_resident ? 1 : divCeil(n_total, nt);
            const std::uint64_t m_tiles =
                inputs_resident ? 1
                : m_whole       ? divCeil(m, mt)
                                : (m + mt - 1) >> shift;
            const std::uint64_t cost =
                std::min(i_total + w_total * n_tiles + o_total,
                         w_total + i_total * m_tiles + o_total);
            if (cost < best_cost ||
                (cost == best_cost && mt * kt > best.mt * best.kt)) {
                best_cost = cost;
                best = Tiling{mt, kt, nt};
            }
            if (m_whole)
                break;
        }
        if (kt == k)
            break;
    }
    BF_ASSERT(best_cost != ~0ULL, "tile search found no feasible tile");
    return best;
}

std::uint64_t
Tiler::trafficBits(LoopOrder order, const Tiling &tile, std::uint64_t m,
                   std::uint64_t k, std::uint64_t n_total,
                   std::uint64_t w_bits_total, std::uint64_t i_bits_total,
                   std::uint64_t o_bits_total)
{
    const std::uint64_t n_tiles = divCeil(n_total, tile.nt);
    const std::uint64_t m_tiles = divCeil(m, tile.mt);
    const bool weights_resident = tile.mt >= m && tile.kt >= k;
    const bool inputs_resident = tile.kt >= k && tile.nt >= n_total;
    switch (order) {
      case LoopOrder::InputStationary:
        // Inputs fetched once; each n-tile revisits all weight tiles
        // unless the whole weight matrix stays on chip.
        return i_bits_total +
               w_bits_total * (weights_resident ? 1 : n_tiles) +
               o_bits_total;
      case LoopOrder::WeightStationary:
        // Weights fetched once; each m-tile revisits all input tiles
        // unless the whole input stream stays on chip.
        return w_bits_total +
               i_bits_total * (inputs_resident ? 1 : m_tiles) +
               o_bits_total;
    }
    BF_PANIC("unknown loop order");
}

LoopOrder
Tiler::chooseOrder(const Tiling &tile, std::uint64_t m, std::uint64_t k,
                   std::uint64_t n_total, std::uint64_t w_bits_total,
                   std::uint64_t i_bits_total,
                   std::uint64_t o_bits_total) const
{
    if (!cfg.loopOrdering)
        return LoopOrder::InputStationary;
    const std::uint64_t in_stat =
        trafficBits(LoopOrder::InputStationary, tile, m, k, n_total,
                    w_bits_total, i_bits_total, o_bits_total);
    const std::uint64_t w_stat =
        trafficBits(LoopOrder::WeightStationary, tile, m, k, n_total,
                    w_bits_total, i_bits_total, o_bits_total);
    return w_stat < in_stat ? LoopOrder::WeightStationary
                            : LoopOrder::InputStationary;
}

} // namespace bitfusion
