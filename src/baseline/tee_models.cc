#include "baseline/tee_models.hh"

#include <algorithm>
#include <iterator>

namespace hypertee
{

namespace
{

struct TeeRow
{
    TeeModel model;
    const char *name;
    ManagementExposure exposure; ///< only the closed channels named
};

/** In allTeeModels() order. */
constexpr TeeRow teeRows[] = {
    // Untrusted OS performs all management (Table VI row 1).
    {TeeModel::Sgx, "SGX", {}},
    // Hypervisor manages nested page tables; PSP handles only
    // crypto/attestation and holds the keys off-core.
    {TeeModel::Sev, "SEV", {.mgmtPartiallyIsolated = true}},
    // TDX module owns the secure EPT: page-table attacks are
    // defeated, but allocation and swapping remain hypervisor-
    // visible, and the module shares the cores.
    {TeeModel::Tdx, "TDX", {.pageTablesAttackerManaged = false}},
    // RMM owns stage-2 tables; delegation events stay visible.
    {TeeModel::Cca, "CCA", {.pageTablesAttackerManaged = false}},
    // Static carve-out: no paging at all, so no paging channels;
    // no managed sharing, and the secure world shares the cores.
    {TeeModel::TrustZone, "TrustZone",
     {.allocationEventsVisible = false,
      .pageTablesAttackerManaged = false,
      .swapVictimsAttackerChosen = false,
      .mgmtPartiallyIsolated = true}},
    // Enclave self-paging inside a static PMP region: paging
    // channels closed, communication unmanaged; SM in M-mode on the
    // same core.
    {TeeModel::Keystone, "Keystone",
     {.allocationEventsVisible = false,
      .pageTablesAttackerManaged = false,
      .swapVictimsAttackerChosen = false,
      .mgmtPartiallyIsolated = true}},
    // Guarded page tables defeat PT attacks; the host still
    // observes allocation/swapping of the page pool.
    {TeeModel::Penglai, "Penglai",
     {.pageTablesAttackerManaged = false, .mgmtPartiallyIsolated = true}},
    {TeeModel::Cure, "CURE",
     {.pageTablesAttackerManaged = false, .mgmtPartiallyIsolated = true}},
    {TeeModel::HyperTee, "HyperTEE",
     {.allocationEventsVisible = false,
      .pageTablesAttackerManaged = false,
      .swapVictimsAttackerChosen = false,
      .communicationUnmanaged = false,
      .mgmtSharesMicroarchitecture = false}},
};

const TeeRow &
rowOf(TeeModel model)
{
    return *std::find_if(std::begin(teeRows), std::end(teeRows),
                         [&](const TeeRow &r) { return r.model == model; });
}

} // namespace

ManagementExposure
exposureOf(TeeModel model)
{
    return rowOf(model).exposure;
}

const char *
teeName(TeeModel model)
{
    return rowOf(model).name;
}

std::vector<TeeModel>
allTeeModels()
{
    std::vector<TeeModel> models;
    for (const TeeRow &row : teeRows)
        models.push_back(row.model);
    return models;
}

} // namespace hypertee
