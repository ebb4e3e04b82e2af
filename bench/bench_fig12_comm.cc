/**
 * @file
 * Figure 12: enclave communication performance for two I/O usage
 * scenarios: DNN inference on the Gemmini accelerator and a NIC
 * streaming workload.
 *
 * Conventional TEEs stage data through non-enclave memory with
 * software encryption + decryption on the CS core; HyperTEE uses
 * EMS-managed shared enclave memory at plaintext speed (the MKTME
 * line latency is part of the DMA path).
 *
 * Each workload row is an independent shard fanned across --jobs
 * workers; the merged output is byte-identical for any job count.
 *
 * Paper: ResNet50 >4.0x, MobileNet >3.3x, MLPs >27.7x, NIC ~50x.
 */

#include "bench/bench_util.hh"
#include "crypto/crypto_engine.hh"
#include "workload/gemmini.hh"

using namespace hypertee;

namespace
{

/** Software AES on the CS core (conventional design's data path). */
Tick
softwareCrypto(std::uint64_t bytes)
{
    CryptoEngineParams p;
    p.coreFreqHz = 2'500'000'000ULL;
    p.softwareAesCyclesPerByte = 21.0; // table-based AES on the OoO
    CryptoEngine sw(p, /*engine_present=*/false);
    // Encrypt at the producer plus decrypt at the consumer.
    return 2 * sw.aesTime(bytes);
}

/** Plaintext-speed shared-memory transfer (DMA-grade copy). */
Tick
sharedMemoryMove(std::uint64_t bytes)
{
    // 12.8 GB/s on-chip copy/DMA path.
    return static_cast<Tick>(double(bytes) / 12.8);
}

/** One-time cost of establishing the shared region (HyperTEE). */
Tick
shmSetupCost()
{
    // ESHMGET + ESHMSHR + 2x ESHMAT round trips at ~3 us each,
    // amortized over the inferences in a batch of 100.
    return Tick(4) * 3'000'000 / 100;
}

BenchShardResult
makeRow(const std::string &name, Tick conventional, Tick hypertee,
        Tick crypto_time, int ms_decimals)
{
    BenchShardResult result;
    result.stats.scalar(name + "_conventional_ticks")
        .set(double(conventional));
    result.stats.scalar(name + "_hypertee_ticks")
        .set(double(hypertee));
    double crypto_share = double(crypto_time) / double(conventional);
    result.rows.push_back(
        {name, num(double(conventional) / 1e9, ms_decimals),
         num(double(hypertee) / 1e9, ms_decimals),
         pct(crypto_share, 1),
         num(double(conventional) / double(hypertee), 1) + "x"});
    return result;
}

BenchShardResult
dnnRow(const DnnNetwork &net)
{
    GemminiModel gemmini;
    Tick compute = gemmini.inferenceTime(net.macs, net.layers);
    Tick crypto_time = softwareCrypto(net.transferBytes);
    Tick conventional = compute + crypto_time +
                        sharedMemoryMove(net.transferBytes);
    Tick hypertee = compute + sharedMemoryMove(net.transferBytes) +
                    shmSetupCost();
    return makeRow(net.name, conventional, hypertee, crypto_time, 2);
}

BenchShardResult
nicRow()
{
    // NIC scenario: almost no computation, the whole transmission is
    // staged buffers; conventional designs pay sw crypto on >98% of
    // the time.
    NicScenario nic;
    // The wire time pipelines with staging: only ~1/3 is exposed on
    // the critical path of a burst.
    Tick wire = nic.wireTime() / 3;
    Tick driver = Tick(nic.perBurstSetup) * 400; // CS cycles
    Tick crypto_time = softwareCrypto(nic.bytesPerBurst);
    Tick conventional = wire + driver + crypto_time +
                        sharedMemoryMove(nic.bytesPerBurst);
    Tick hypertee = wire + driver +
                    sharedMemoryMove(nic.bytesPerBurst) +
                    shmSetupCost();
    return makeRow("nic-burst", conventional, hypertee, crypto_time,
                   3);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv);
    if (!opts.ok)
        return 2;

    benchHeader("Figure 12: enclave communication speedup",
                "conventional (software enc/dec) vs HyperTEE shared "
                "encrypted memory");

    std::vector<DnnNetwork> networks = {resnet50(), mobileNet()};
    for (const DnnNetwork &mlp : mlpSuite())
        networks.push_back(mlp);

    printRow({"workload", "conv(ms)", "hyper(ms)", "sw-crypto",
              "speedup"});
    // Shards: one per network plus the trailing NIC scenario.
    ShardStats merged = runShardedBench(
        opts, networks.size() + 1, 14, [&](ShardContext &ctx) {
            return ctx.index < networks.size()
                       ? dnnRow(networks[ctx.index])
                       : nicRow();
        });

    std::printf("\npaper: ResNet50 >4.0x (sw crypto >74.7%%), "
                "MobileNet >3.3x, MLPs >27.7x, NIC ~50x (crypto "
                ">98%%)\n");

    return finishBench(opts, {{"fig12_comm", &merged}});
}
