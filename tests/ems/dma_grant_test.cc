/** @file Enclave-peripheral DMA grant tests (Section V-B). */

#include <gtest/gtest.h>

#include "core/sdk.hh"
#include "core/system.hh"

namespace hypertee
{
namespace
{

struct DmaGrantTest : ::testing::Test
{
    SystemParams
    params()
    {
        SystemParams p;
        p.csMemSize = 256ULL * 1024 * 1024;
        p.csCoreCount = 2;
        return p;
    }

    HyperTeeSystem sys{params()};
    EnclaveHandle user{sys, 0, EnclaveConfig{}};
    EnclaveHandle driver{sys, 1, EnclaveConfig{}};
    ShmId channel = 0;

    void
    SetUp() override
    {
        for (EnclaveHandle *e : {&user, &driver}) {
            e->addImage(Bytes(pageSize, 0x42),
                        EnclaveLayout::codeBase, PteRead | PteExec);
            e->measure();
        }
        user.enter();
        channel = user.shmCreate(8, PteRead | PteWrite);
        ASSERT_NE(channel, 0u);
        ASSERT_TRUE(user.shmShare(channel, driver.id(),
                                  PteRead | PteWrite));
        user.exit();
    }

    Addr
    channelPa(std::size_t page = 0)
    {
        return sys.ems().shm(channel)->pages.at(page) << pageShift;
    }
};

TEST_F(DmaGrantTest, DriverGrantOpensExactWindow)
{
    std::size_t windows = sys.ems().grantDmaAccess(
        driver.id(), channel, 1, DmaRead | DmaWrite);
    EXPECT_GE(windows, 1u);
    // Device 1 reaches every channel page...
    for (std::size_t p = 0; p < 8; ++p)
        EXPECT_TRUE(sys.ihub().dmaAccess(1, channelPa(p), 64, true));
    // ...and nothing adjacent.
    EXPECT_FALSE(
        sys.ihub().dmaAccess(1, channelPa(7) + pageSize, 64, false));
    EXPECT_FALSE(sys.ihub().dmaAccess(1, channelPa(0) - 64, 64, false));
}

TEST_F(DmaGrantTest, OtherDevicesStayBlocked)
{
    sys.ems().grantDmaAccess(driver.id(), channel, 1, DmaRead);
    EXPECT_FALSE(sys.ihub().dmaAccess(2, channelPa(), 64, false));
}

TEST_F(DmaGrantTest, ReadOnlyGrantBlocksDeviceWrites)
{
    sys.ems().grantDmaAccess(driver.id(), channel, 1, DmaRead);
    EXPECT_TRUE(sys.ihub().dmaAccess(1, channelPa(), 64, false));
    EXPECT_FALSE(sys.ihub().dmaAccess(1, channelPa(), 64, true));
}

TEST_F(DmaGrantTest, UnauthorizedEnclaveCannotGrant)
{
    EnclaveHandle intruder(sys, 0, EnclaveConfig{});
    intruder.addImage(Bytes(pageSize, 0x66), EnclaveLayout::codeBase,
                      PteRead | PteExec);
    intruder.measure();
    EXPECT_EQ(sys.ems().grantDmaAccess(intruder.id(), channel, 1,
                                       DmaRead),
              0u)
        << "no legal connection: no grant";
    EXPECT_FALSE(sys.ihub().dmaAccess(1, channelPa(), 64, false));
}

TEST_F(DmaGrantTest, UnknownShmRejected)
{
    EXPECT_EQ(sys.ems().grantDmaAccess(driver.id(), 777, 1, DmaRead),
              0u);
}

TEST_F(DmaGrantTest, DmaCannotReachPrivateEnclaveMemory)
{
    // Even with a window for the shared channel, the victim's
    // private pages remain unreachable by the device.
    sys.ems().grantDmaAccess(driver.id(), channel, 1,
                             DmaRead | DmaWrite);
    for (Addr ppn : sys.ems().ownership().pagesOf(user.id())) {
        EXPECT_FALSE(
            sys.ihub().dmaAccess(1, ppn << pageShift, 64, false));
    }
}

} // namespace
} // namespace hypertee
