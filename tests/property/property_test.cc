/**
 * @file
 * Parameterized property sweeps (TEST_P) over the core invariants:
 * cache/TLB geometry, crypto round trips, primitive privilege
 * enforcement, and pool concealment across configurations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <tuple>

#include "core/sdk.hh"
#include "crypto/aes128.hh"
#include "crypto/merkle.hh"
#include "ems/attestation.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"
#include "sim/random.hh"
#include "sim/shard.hh"
#include "sim/stats_export.hh"

namespace hypertee
{
namespace
{

// ---------------------------------------------------- cache geometry

class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<std::size_t,
                                                 std::size_t>>
{
};

TEST_P(CacheGeometry, MissThenHitInvariant)
{
    auto [size, ways] = GetParam();
    Cache cache(size, ways);
    EXPECT_EQ(cache.sizeBytes(), size);
    for (Addr a = 0; a < 16 * lineSize; a += lineSize) {
        EXPECT_FALSE(cache.access(a, false).hit) << "cold miss";
        EXPECT_TRUE(cache.access(a, false).hit) << "warm hit";
    }
}

TEST_P(CacheGeometry, CapacityBoundsResidency)
{
    auto [size, ways] = GetParam();
    Cache cache(size, ways);
    std::size_t lines = size / lineSize;
    // Fill twice the capacity, then count residents: never more
    // lines than the cache holds.
    for (Addr a = 0; a < 2 * size; a += lineSize)
        cache.access(a, false);
    std::size_t resident = 0;
    for (Addr a = 0; a < 2 * size; a += lineSize)
        resident += cache.contains(a);
    EXPECT_LE(resident, lines);
    EXPECT_GT(resident, 0u);
}

TEST_P(CacheGeometry, DirtyWritebackConservation)
{
    auto [size, ways] = GetParam();
    Cache cache(size, ways);
    // Write 3x the capacity: every line was dirtied, so writebacks
    // must equal evictions of dirty lines = total misses - resident.
    std::uint64_t stores = 0;
    for (Addr a = 0; a < 3 * size; a += lineSize) {
        cache.access(a, true);
        ++stores;
    }
    std::size_t resident = 0;
    for (Addr a = 0; a < 3 * size; a += lineSize)
        resident += cache.contains(a);
    EXPECT_EQ(cache.writebacks() + resident, stores);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_tuple(4096, 1),
                      std::make_tuple(4096, 4),
                      std::make_tuple(16 * 1024, 4),
                      std::make_tuple(32 * 1024, 8),
                      std::make_tuple(64 * 1024, 8),
                      std::make_tuple(256 * 1024, 16)));

// ------------------------------------------------------ TLB geometry

class TlbGeometry
    : public ::testing::TestWithParam<std::tuple<std::size_t,
                                                 std::size_t>>
{
};

TEST_P(TlbGeometry, WorkingSetWithinCapacityAlwaysHits)
{
    auto [entries, ways] = GetParam();
    Tlb tlb(entries, ways);
    // Insert exactly `entries` translations with set-uniform VPNs,
    // then every lookup must hit (no premature eviction).
    for (Addr i = 0; i < entries; ++i)
        tlb.insert(i << pageShift, (i + 1000) << pageShift, PteRead, 0,
                   false);
    for (Addr i = 0; i < entries; ++i)
        EXPECT_NE(tlb.lookup(i << pageShift), nullptr) << "entry " << i;
}

TEST_P(TlbGeometry, FlushAlwaysEmpties)
{
    auto [entries, ways] = GetParam();
    Tlb tlb(entries, ways);
    for (Addr i = 0; i < 2 * entries; ++i)
        tlb.insert(i << pageShift, i << pageShift, PteRead, 0, false);
    tlb.flushAll();
    for (Addr i = 0; i < 2 * entries; ++i)
        EXPECT_EQ(tlb.lookup(i << pageShift), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbGeometry,
    ::testing::Values(std::make_tuple(8, 2), std::make_tuple(16, 4),
                      std::make_tuple(32, 4), std::make_tuple(64, 8),
                      std::make_tuple(1024, 8)));

// ------------------------------------------------- crypto round trips

class CryptoSizes : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(CryptoSizes, AesCtrRoundTrip)
{
    std::size_t n = GetParam();
    Aes128 aes(Bytes(16, 0x42));
    Bytes msg(n);
    for (std::size_t i = 0; i < n; ++i)
        msg[i] = static_cast<std::uint8_t>(i * 13 + 1);
    Bytes ct = aes.ctrTransform(msg, 99, 0);
    if (n > 0) {
        EXPECT_NE(ct, msg);
    }
    EXPECT_EQ(aes.ctrTransform(ct, 99, 0), msg);
}

TEST_P(CryptoSizes, SealUnsealRoundTrip)
{
    std::size_t n = GetParam();
    EFuse f;
    f.endorsementSeed = Bytes(32, 1);
    f.sealedKey = Bytes(32, 2);
    KeyManager km(f);
    Bytes meas(32, 0x55);
    Bytes secret(n, 0x77);
    SealedBlob blob = seal(km, meas, secret, n + 1);
    Bytes out;
    ASSERT_TRUE(unseal(km, meas, blob, out));
    EXPECT_EQ(out, secret);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CryptoSizes,
                         ::testing::Values(0, 1, 15, 16, 17, 64, 255,
                                           4096, 10000));

// ------------------------------------------------ merkle tree widths

class MerkleWidths : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(MerkleWidths, EveryLeafProvesAndTamperFails)
{
    std::size_t n = GetParam();
    std::vector<Bytes> leaves;
    for (std::size_t i = 0; i < n; ++i)
        leaves.push_back(Bytes(32, static_cast<std::uint8_t>(i * 3)));
    MerkleTree tree(leaves);
    for (std::size_t i = 0; i < n; ++i) {
        auto proof = tree.prove(i);
        EXPECT_TRUE(
            MerkleTree::verify(tree.root(), i, n, leaves[i], proof));
        Bytes bad = leaves[i];
        bad[0] ^= 1;
        EXPECT_FALSE(
            MerkleTree::verify(tree.root(), i, n, bad, proof));
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, MerkleWidths,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 13, 32,
                                           33));

// -------------------------------------- primitive privilege lattice

struct PrivCase
{
    PrimitiveOp op;
    PrivMode wrongMode;
};

class PrivilegeLattice : public ::testing::TestWithParam<PrivCase>
{
  protected:
    static HyperTeeSystem *
    system()
    {
        static HyperTeeSystem *sys = [] {
            SystemParams p;
            p.csMemSize = 128ULL * 1024 * 1024;
            p.csCoreCount = 1;
            return new HyperTeeSystem(p);
        }();
        return sys;
    }
};

TEST_P(PrivilegeLattice, WrongModeIsBlockedAtTheGate)
{
    PrivCase c = GetParam();
    ASSERT_NE(c.wrongMode, requiredPrivilege(c.op));
    InvokeResult r =
        system()->emCall(0).invoke(c.op, c.wrongMode, {1, 1, 1});
    EXPECT_FALSE(r.accepted) << primitiveName(c.op);
    EXPECT_EQ(r.response.status, PrimStatus::PermissionDenied);
}

std::vector<PrivCase>
allWrongModes()
{
    std::vector<PrivCase> cases;
    for (PrimitiveOp op :
         {PrimitiveOp::ECreate, PrimitiveOp::EAdd, PrimitiveOp::EEnter,
          PrimitiveOp::EResume, PrimitiveOp::EExit,
          PrimitiveOp::EDestroy, PrimitiveOp::EAlloc,
          PrimitiveOp::EFree, PrimitiveOp::EWb, PrimitiveOp::EShmGet,
          PrimitiveOp::EShmAt, PrimitiveOp::EShmDt,
          PrimitiveOp::EShmShr, PrimitiveOp::EShmDes,
          PrimitiveOp::EMeas, PrimitiveOp::EAttest}) {
        for (PrivMode mode : {PrivMode::User, PrivMode::Supervisor}) {
            if (mode != requiredPrivilege(op))
                cases.push_back({op, mode});
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(AllPrimitives, PrivilegeLattice,
                         ::testing::ValuesIn(allWrongModes()),
                         [](const auto &test_info) {
                             return std::string(primitiveName(
                                        test_info.param.op)) +
                                    (test_info.param.wrongMode ==
                                             PrivMode::User
                                         ? "_fromUser"
                                         : "_fromSupervisor");
                         });

// ----------------------------------------------- pool configurations

class PoolConfigs
    : public ::testing::TestWithParam<std::tuple<std::size_t,
                                                 std::size_t>>
{
};

TEST_P(PoolConfigs, WarmPoolConcealsAllocationBursts)
{
    auto [initial, batch] = GetParam();
    SystemParams p;
    p.csMemSize = 256ULL * 1024 * 1024;
    p.csCoreCount = 1;
    p.ems.pool.initialPages = initial;
    p.ems.pool.refillBatch = batch;
    HyperTeeSystem sys(p);

    EnclaveHandle enclave(sys, 0, EnclaveConfig{});
    enclave.addImage(Bytes(pageSize, 1), EnclaveLayout::codeBase,
                     PteRead | PteExec);
    enclave.measure();
    enclave.enter();

    // 32 single-page allocations: far fewer OS grants than
    // allocations, whatever the pool configuration.
    std::uint64_t grants_before = sys.osPoolGrants();
    for (int i = 0; i < 32; ++i)
        ASSERT_NE(enclave.alloc(1), 0u);
    std::uint64_t grants = sys.osPoolGrants() - grants_before;
    EXPECT_LT(grants, 4u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PoolConfigs,
    ::testing::Values(std::make_tuple(2048, 512),
                      std::make_tuple(4096, 1024),
                      std::make_tuple(8192, 2048),
                      std::make_tuple(16384, 4096)));

// ------------------------------------------------ stat shard merging

/**
 * The determinism contract of the parallel driver rests on stat
 * merging being exactly equivalent to sequential accumulation. Sweep
 * shard counts (including 1 and counts that do not divide the sample
 * count evenly) over an integer-valued sample stream so every
 * floating-point comparison is exact.
 */
class StatShardMerge : public ::testing::TestWithParam<std::size_t>
{
  protected:
    /** Deterministic integer-valued stream; integers up to 10^4 are
     *  exactly representable so sums and means compare exactly. */
    static std::vector<double>
    sampleStream(std::size_t n)
    {
        Random rng(20240806);
        std::vector<double> samples;
        samples.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            samples.push_back(double(rng.between(0, 10000)));
        return samples;
    }

    /** Split [0, n) into `shards` contiguous chunks (first chunks one
     *  longer when the division is uneven, trailing chunks possibly
     *  empty when shards > n). */
    static std::vector<std::pair<std::size_t, std::size_t>>
    chunks(std::size_t n, std::size_t shards)
    {
        std::vector<std::pair<std::size_t, std::size_t>> out;
        std::size_t base = n / shards, extra = n % shards, begin = 0;
        for (std::size_t s = 0; s < shards; ++s) {
            std::size_t len = base + (s < extra ? 1 : 0);
            out.emplace_back(begin, begin + len);
            begin += len;
        }
        return out;
    }
};

TEST_P(StatShardMerge, MergeEqualsSequentialAccumulation)
{
    const std::size_t shards = GetParam();
    const auto samples = sampleStream(997); // prime: uneven chunks

    ShardStats sequential;
    for (double v : samples) {
        sequential.scalar("events") += 1;
        sequential.scalar("sum") += v;
        sequential.distribution("latency").sample(v);
    }

    ShardStats merged;
    for (auto [begin, end] : chunks(samples.size(), shards)) {
        ShardStats part;
        for (std::size_t i = begin; i < end; ++i) {
            part.scalar("events") += 1;
            part.scalar("sum") += samples[i];
            part.distribution("latency").sample(samples[i]);
        }
        merged.merge(part);
    }

    EXPECT_DOUBLE_EQ(merged.scalar("events").value(),
                     sequential.scalar("events").value());
    EXPECT_DOUBLE_EQ(merged.scalar("sum").value(),
                     sequential.scalar("sum").value());
    // Index-ordered merging reproduces the exact sample sequence.
    EXPECT_EQ(merged.distribution("latency").samples(),
              sequential.distribution("latency").samples());

    std::ostringstream seq_json, par_json;
    dumpStatsJson(seq_json, {{"merge", &sequential}});
    dumpStatsJson(par_json, {{"merge", &merged}});
    EXPECT_EQ(seq_json.str(), par_json.str());
}

TEST_P(StatShardMerge, MergedQuantilesMatchConcatenatedSamples)
{
    const std::size_t shards = GetParam();
    const auto samples = sampleStream(1013);

    Distribution merged;
    for (auto [begin, end] : chunks(samples.size(), shards)) {
        Distribution part;
        for (std::size_t i = begin; i < end; ++i)
            part.sample(samples[i]);
        merged.merge(part);
    }
    ASSERT_EQ(merged.count(), samples.size());

    // Independent nearest-rank reference over the concatenation.
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    auto nearest_rank = [&](double q) {
        auto n = double(sorted.size());
        auto rank = std::size_t(std::ceil(q * n - 1e-9));
        rank = std::min(std::max<std::size_t>(rank, 1), sorted.size());
        return sorted[rank - 1];
    };
    for (double q :
         {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0})
        EXPECT_DOUBLE_EQ(merged.quantile(q), nearest_rank(q))
            << "q=" << q << " shards=" << shards;
    EXPECT_DOUBLE_EQ(merged.min(), sorted.front());
    EXPECT_DOUBLE_EQ(merged.max(), sorted.back());
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, StatShardMerge,
                         ::testing::Values(1, 2, 3, 4, 7, 16, 1200));

} // namespace
} // namespace hypertee
