/**
 * @file
 * Figure 8(a): latency of enclave EALLOC vs host malloc for
 * allocation sizes from 128 KB to 2 MB, 1000 repetitions each.
 *
 * Each allocation size is one shard with its own system and enclave
 * (so the pool state seen by a size does not depend on the sizes
 * before it), fanned across --jobs workers; the merged output is
 * byte-identical for any job count. Per size, --stats-json carries
 * the summed EALLOC and EFREE latencies, the bitmap flips, the
 * pool's free-page count and the PPN the last EALLOC mapped, so
 * page-table, bitmap, ownership and pool-order bookkeeping all show
 * up in the export if they drift.
 *
 * Paper: enclave allocation costs 6.3%-49.7% more than host malloc,
 * dominated by the CS->EMS primitive round trip and the weaker EMS
 * core.
 */

#include "bench/bench_util.hh"
#include "core/sdk.hh"

using namespace hypertee;

namespace
{

/**
 * @p reps EALLOC/EFREE pairs of @p kb KiB each, on a fresh system
 * and enclave at one fixed heap address, against the host malloc
 * model for the same page count.
 */
BenchShardResult
runSize(Addr kb, int reps)
{
    Addr pages = (kb * 1024) >> pageShift;

    // Host malloc model: per-page OS fault+zero+map work, measured
    // for the same page count.
    Tick host_total = 0;
    for (int i = 0; i < reps; ++i)
        host_total += Tick(pages) * hostMallocCyclesPerPage * 400;

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

    Tick enclave_total = 0, free_total = 0;
    Addr last_ppn = 0;
    const Addr region = EnclaveLayout::heapBase + (8 << 20);
    for (int i = 0; i < reps; ++i) {
        fatalIf(enclave.allocAt(region, pages) != region,
                "EALLOC failed");
        enclave_total += enclave.lastLatency();
        const PageTable *pt = sys.ems().enclavePageTable(enclave.id());
        const Addr last_va = region + (pages - 1) * pageSize;
        last_ppn = pageNumber(pt->walk(last_va).pa);
        fatalIf(!enclave.free(region, pages), "EFREE failed");
        free_total += enclave.lastLatency();
    }

    BenchShardResult result;
    const std::string size_name = std::to_string(kb) + "KB";
    auto stat = [&](const char *name, double value) {
        result.stats.scalar(size_name + name).set(value);
    };
    stat("_host_ticks", double(host_total));
    stat("_ealloc_ticks", double(enclave_total));
    stat("_efree_ticks", double(free_total));
    stat("_bitmap_updates", double(sys.bitmap().updates()));
    stat("_pool_free_pages", double(sys.ems().pool().freePages()));
    stat("_last_ppn", double(last_ppn));

    double host_us = double(host_total) / 1e6 / reps;
    double enc_us = double(enclave_total) / 1e6 / reps;
    result.rows.push_back({size_name, num(host_us, 1), num(enc_us, 1),
                           pct(enc_us / host_us - 1.0, 1)});
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    logging_detail::setVerbose(false);
    BenchOptions opts = parseBenchOptions(argc, argv);
    if (!opts.ok)
        return 2;

    benchHeader("Figure 8(a): enclave memory allocation latency",
                "EALLOC vs host malloc, 128KB-2MB x1000");

    const std::vector<Addr> sizes_kb = {128, 256, 512, 1024, 2048};
    const int reps = opts.smoke ? 100 : 1000;

    printRow({"size", "malloc(us)", "ealloc(us)", "overhead"});
    ShardStats merged = runShardedBench(
        opts, sizes_kb.size(), 14, [&](ShardContext &ctx) {
            return runSize(sizes_kb[ctx.index], reps);
        });

    std::printf("\npaper: 6.3%% (2MB) .. 49.7%% (128KB) overhead; "
                "fixed round-trip cost amortizes with size\n");

    return finishBench(opts, {{"fig8a_alloc", &merged}});
}
