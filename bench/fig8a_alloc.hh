/**
 * @file
 * The Figure 8(a) scenario, shared by bench_fig8a_alloc and its
 * golden test so both run the same system, enclave and loop: one
 * fresh system and enclave per allocation size, then repeated
 * EALLOC/EFREE pairs at one fixed heap address.
 */

#ifndef HYPERTEE_BENCH_FIG8A_ALLOC_HH
#define HYPERTEE_BENCH_FIG8A_ALLOC_HH

#include <vector>

#include "bench/bench_util.hh"
#include "core/sdk.hh"

namespace hypertee
{

/** Allocation sizes of the sweep, in KiB. */
inline const std::vector<Addr> fig8aSizesKb = {128, 256, 512, 1024,
                                               2048};

/** EALLOC/EFREE pairs per size: full run and --smoke. */
constexpr int fig8aReps = 1000;
constexpr int fig8aSmokeReps = 100;

struct AllocSweep
{
    Tick allocTicks = 0;             ///< summed EALLOC latency
    Tick freeTicks = 0;              ///< summed EFREE latency
    std::uint64_t bitmapUpdates = 0; ///< enclave-bitmap flips
    std::size_t poolFreePages = 0;   ///< pool free pages at the end
    Addr lastPpn = 0;                ///< last PPN the last EALLOC mapped
};

/** @p reps EALLOC/EFREE pairs of @p pages pages each. */
inline AllocSweep
runAllocSweep(Addr pages, int reps)
{
    SystemParams params = evalSystem(true);
    params.ems.pool.initialPages = 80000; // keep refills rare
    params.ems.pool.refillBatch = 16384;
    params.csMemSize = 1024ULL * 1024 * 1024;
    HyperTeeSystem sys(params);

    EnclaveConfig cfg;
    cfg.heapPages = 16;
    EnclaveHandle enclave(sys, 0, cfg);
    enclave.setChargeCore(false);
    enclave.addImage(Bytes(pageSize, 1), EnclaveLayout::codeBase,
                     PteRead | PteExec);
    enclave.measure();
    enclave.enter();

    AllocSweep sweep;
    const Addr region = EnclaveLayout::heapBase + (8 << 20);
    for (int i = 0; i < reps; ++i) {
        fatalIf(enclave.allocAt(region, pages) != region,
                "EALLOC failed");
        sweep.allocTicks += enclave.lastLatency();
        const PageTable *pt = sys.ems().enclavePageTable(enclave.id());
        const Addr last_va = region + (pages - 1) * pageSize;
        sweep.lastPpn = pageNumber(pt->walk(last_va).pa);
        fatalIf(!enclave.free(region, pages), "EFREE failed");
        sweep.freeTicks += enclave.lastLatency();
    }
    sweep.bitmapUpdates = sys.bitmap().updates();
    sweep.poolFreePages = sys.ems().pool().freePages();
    return sweep;
}

} // namespace hypertee

#endif // HYPERTEE_BENCH_FIG8A_ALLOC_HH
