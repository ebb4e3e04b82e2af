#include "workload/runner.hh"

#include "sim/logging.hh"

namespace hypertee
{

RunStats
WorkloadRunner::runHost(const WorkloadProfile &profile,
                        std::uint64_t seed)
{
    Addr base = _hostCursor;
    Addr ws_pages = pagesFor(profile.workingSetBytes);
    _sys->osMapRange(base, ws_pages * pageSize, PteRead | PteWrite);
    _hostCursor += ws_pages * pageSize;

    Addr sparse_base = _hostCursor;
    if (profile.sparseFrac > 0) {
        _sys->osMapRange(sparse_base, profile.sparsePages * pageSize,
                         PteRead | PteWrite);
        _hostCursor += profile.sparsePages * pageSize;
    }

    SyntheticWorkload stream(profile, base, sparse_base, seed);
    return _sys->core(_core).run(stream);
}

EnclaveRunResult
WorkloadRunner::runEnclave(const WorkloadProfile &profile,
                           std::uint64_t seed, bool charge_primitives)
{
    EnclaveRunResult result;

    EnclaveConfig cfg;
    cfg.stackPages = 16;
    cfg.heapPages = pagesFor(profile.workingSetBytes);
    cfg.maxShmPages = 256;

    EnclaveHandle enclave(*_sys, _core, cfg, charge_primitives);
    fatalIf(!enclave.valid(), "enclave creation failed for ",
            profile.name);
    result.createLatency = enclave.lastLatency();

    // Deterministic image derived from the profile name.
    Bytes image(profile.imageBytes);
    for (std::size_t i = 0; i < image.size(); ++i) {
        image[i] = static_cast<std::uint8_t>(
            i * 131 + profile.name.size() * 17 + profile.name[0]);
    }
    bool added = enclave.addImage(image, EnclaveLayout::codeBase,
                                  PteRead | PteExec);
    fatalIf(!added, "EADD failed for ", profile.name);
    result.addLatency = enclave.totalPrimitiveLatency() -
                        result.createLatency;

    fatalIf(enclave.measure().empty(), "EMEAS failed");
    result.measLatency = enclave.lastLatency();

    fatalIf(!enclave.enter(), "EENTER failed");
    result.enterExitLatency = enclave.lastLatency();

    // Sparse region, if any, via dynamic EALLOC.
    Addr sparse_base = 0;
    if (profile.sparseFrac > 0) {
        sparse_base = enclave.alloc(profile.sparsePages);
        fatalIf(sparse_base == 0, "sparse EALLOC failed");
    }

    SyntheticWorkload stream(profile, EnclaveLayout::heapBase,
                             sparse_base, seed);
    result.stats = _sys->core(_core).run(stream);

    enclave.exit();
    result.enterExitLatency += enclave.lastLatency();
    enclave.destroy();
    result.destroyLatency = enclave.lastLatency();
    return result;
}

RunStats
WorkloadRunner::runSwitching(const WorkloadProfile &profile, double hz)
{
    EnclaveConfig cfg;
    cfg.heapPages = pagesFor(profile.workingSetBytes);
    EnclaveHandle enclave(*_sys, _core, cfg, /*charge_core=*/false);
    enclave.addImage(Bytes(profile.imageBytes, 0x3c),
                     EnclaveLayout::codeBase, PteRead | PteExec);
    enclave.measure();
    enclave.enter();

    SyntheticWorkload stream(profile, EnclaveLayout::heapBase, 0, 1);
    Core &core = _sys->core(_core);

    if (hz <= 0)
        return core.run(stream);

    // Convert the wall-clock switch rate into an instruction quantum
    // using the measured execution rate, then run quantum-by-quantum.
    enclave.setChargeCore(true);
    const std::uint64_t probe = 500'000;
    RunStats total = core.run(stream, probe);
    double ticks_per_inst =
        double(total.ticks) / double(total.instructions);
    double insts_per_second = ticksPerSecond / ticks_per_inst;
    std::uint64_t quantum =
        static_cast<std::uint64_t>(insts_per_second / hz);

    while (true) {
        core.mmu().flushTlbs();
        core.hierarchy().l1().invalidateAll();
        enclave.resume();
        RunStats chunk = core.run(stream, quantum);
        if (chunk.instructions == 0)
            break;
        total.add(chunk);
    }
    return total;
}

} // namespace hypertee
