/**
 * @file
 * Integration-level tests of the ACCL engine over the fabric: busbw
 * physics (NVLink cap, dual-port imbalance), algorithm variants,
 * point-to-point, ordering, straggler skew, and crash semantics.
 */

#include <gtest/gtest.h>

#include "accl/accl.h"
#include "net/fabric.h"
#include "testutil/testutil.h"

namespace c4::accl {
namespace {

using net::Plane;

using Harness = testutil::AcclHarness;

/** Pins rx plane to tx plane and spreads spines: an ideal-path policy. */
class PinnedPolicy : public PathPolicy
{
  public:
    PathDecision
    decide(const ConnContext &ctx) override
    {
        PathDecision d;
        d.txPlane = net::planeFromIndex((ctx.channel + ctx.qpIndex) % 2);
        d.rxPlane = net::planeIndex(d.txPlane);
        d.spine = next_++ % 8;
        d.flowLabel = next_;
        return d;
    }

  private:
    std::uint32_t next_ = 0;
};

TEST(Accl, SingleNodeAllReduceHitsNvlinkBw)
{
    Harness h(1);
    CommId comm = h.lib.createCommunicator(1, h.fullNodes({0}));
    double busbw = 0.0;
    h.lib.postCollective(comm, CollOp::AllReduce, mib(256),
                         [&](const CollectiveResult &r) {
                             busbw = toGbps(r.busBw());
                         });
    h.sim.run();
    EXPECT_NEAR(busbw, 362.0, 1.0);
}

TEST(Accl, CrossNodeAllReduceCappedByNvlinkWithPinnedPaths)
{
    Harness h(2);
    PinnedPolicy policy;
    h.lib.setPathPolicy(&policy);
    CommId comm = h.lib.createCommunicator(1, h.fullNodes({0, 1}));
    double busbw = 0.0;
    h.lib.postCollective(comm, CollOp::AllReduce, mib(256),
                         [&](const CollectiveResult &r) {
                             busbw = toGbps(r.busBw());
                         });
    h.sim.run();
    EXPECT_NEAR(busbw, 362.0, 2.0);
}

TEST(Accl, DualPortCollisionHalvesBusBw)
{
    // Force both channels' flows onto the same landing plane: the two
    // bonded RX ports become one 200 Gbps port (paper Fig. 9 syndrome).
    class CollidingPolicy : public PathPolicy
    {
      public:
        PathDecision
        decide(const ConnContext &ctx) override
        {
            PathDecision d;
            d.txPlane =
                net::planeFromIndex((ctx.channel + ctx.qpIndex) % 2);
            d.rxPlane = net::planeIndex(Plane::Left); // all on left
            d.spine = next_++ % 8;
            return d;
        }
        std::uint32_t next_ = 0;
    };

    Harness h(2);
    CollidingPolicy policy;
    h.lib.setPathPolicy(&policy);
    CommId comm = h.lib.createCommunicator(1, h.fullNodes({0, 1}));
    double busbw = 0.0;
    h.lib.postCollective(comm, CollOp::AllReduce, mib(256),
                         [&](const CollectiveResult &r) {
                             busbw = toGbps(r.busBw());
                         });
    h.sim.run();
    EXPECT_NEAR(busbw, 200.0, 5.0);
}

TEST(Accl, AllGatherAndReduceScatterComplete)
{
    Harness h(2);
    CommId comm = h.lib.createCommunicator(1, h.fullNodes({0, 1}));
    int done = 0;
    h.lib.postCollective(comm, CollOp::AllGather, mib(64),
                         [&](const CollectiveResult &r) {
                             ++done;
                             EXPECT_EQ(r.op, CollOp::AllGather);
                             EXPECT_GT(r.busBw(), 0.0);
                         });
    h.lib.postCollective(comm, CollOp::ReduceScatter, mib(64),
                         [&](const CollectiveResult &r) {
                             ++done;
                             EXPECT_EQ(r.op, CollOp::ReduceScatter);
                         });
    h.lib.postCollective(comm, CollOp::Broadcast, mib(64),
                         [&](const CollectiveResult &r) {
                             ++done;
                             EXPECT_EQ(r.op, CollOp::Broadcast);
                         });
    h.sim.run();
    EXPECT_EQ(done, 3);
}

TEST(Accl, TreeAlgorithmCompletesAndIsSlowerOrEqual)
{
    Harness h(4);
    PinnedPolicy policy;
    h.lib.setPathPolicy(&policy);
    CommId comm =
        h.lib.createCommunicator(1, h.fullNodes({0, 1, 2, 3}));
    Duration ring_time = 0, tree_time = 0;
    h.lib.postCollective(
        comm, CollOp::AllReduce, mib(128),
        [&](const CollectiveResult &r) { ring_time = r.commDuration(); },
        {}, AlgoKind::Ring);
    h.lib.postCollective(
        comm, CollOp::AllReduce, mib(128),
        [&](const CollectiveResult &r) { tree_time = r.commDuration(); },
        {}, AlgoKind::Tree);
    h.sim.run();
    EXPECT_GT(ring_time, 0);
    EXPECT_GT(tree_time, 0);
    // The tree moves ~2x bytes per rank at large n; never faster here.
    EXPECT_GE(tree_time, ring_time);
}

TEST(Accl, OpsOnOneCommExecuteFifo)
{
    Harness h(2);
    CommId comm = h.lib.createCommunicator(1, h.fullNodes({0, 1}));
    std::vector<CollSeq> order;
    for (int i = 0; i < 4; ++i) {
        h.lib.postCollective(comm, CollOp::AllReduce, mib(16),
                             [&](const CollectiveResult &r) {
                                 order.push_back(r.seq);
                             });
    }
    h.sim.run();
    ASSERT_EQ(order.size(), 4u);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    EXPECT_EQ(h.lib.collectivesCompleted(), 4u);
}

TEST(Accl, StragglerDelayGatesStart)
{
    Harness h(2);
    CommId comm = h.lib.createCommunicator(1, h.fullNodes({0, 1}));
    std::vector<Duration> delays(16, 0);
    delays[5] = seconds(1); // rank 5 is late
    CollectiveResult res;
    h.lib.postCollective(
        comm, CollOp::AllReduce, mib(64),
        [&](const CollectiveResult &r) { res = r; }, delays);
    h.sim.run();
    EXPECT_EQ(res.startTime, seconds(1));
    EXPECT_GE(res.totalDuration(), seconds(1));
    EXPECT_LT(res.commDuration(), seconds(1));
}

TEST(Accl, SendRecvCrossNodeAtPortRate)
{
    Harness h(2);
    CommId comm = h.lib.createCommunicator(1, h.fullNodes({0, 1}));
    Duration dur = 0;
    h.lib.sendRecv(comm, 0, 8, mib(100),
                   [&](const CollectiveResult &r) {
                       dur = r.commDuration();
                   });
    h.sim.run();
    // 100 MiB at 200 Gbps ~= 4.19 ms.
    EXPECT_NEAR(toMilliseconds(dur), 4.19, 0.3);
}

TEST(Accl, SendRecvSameNodeUsesNvlink)
{
    Harness h(1);
    CommId comm = h.lib.createCommunicator(1, h.fullNodes({0}));
    Duration dur = 0;
    h.lib.sendRecv(comm, 0, 1, mib(100),
                   [&](const CollectiveResult &r) {
                       dur = r.commDuration();
                   });
    h.sim.run();
    // 100 MiB at 362 Gbps ~= 2.3 ms.
    EXPECT_NEAR(toMilliseconds(dur), 2.32, 0.2);
}

TEST(Accl, CrashBeforePostMeansOpNeverStarts)
{
    Harness h(2);
    CommId comm = h.lib.createCommunicator(1, h.fullNodes({0, 1}));
    h.lib.crashRank(comm, 3);
    EXPECT_TRUE(h.lib.rankCrashed(comm, 3));

    bool fired = false;
    h.lib.postCollective(comm, CollOp::AllReduce, mib(64),
                         [&](const CollectiveResult &) { fired = true; });
    h.sim.run(minutes(10));
    EXPECT_FALSE(fired);

    const OpProgress *op = h.lib.monitor().currentOp(comm);
    ASSERT_NE(op, nullptr);
    EXPECT_TRUE(op->posted());
    EXPECT_FALSE(op->started());
}

TEST(Accl, CrashMidOperationStallsProgress)
{
    Harness h(2);
    CommId comm = h.lib.createCommunicator(1, h.fullNodes({0, 1}));
    bool fired = false;
    h.lib.postCollective(comm, CollOp::AllReduce, gib(4),
                         [&](const CollectiveResult &) { fired = true; });
    // Let a few rounds complete, then kill rank 0's node mid-flight.
    h.sim.run(milliseconds(50));
    h.lib.crashRank(comm, 0);
    h.sim.run(minutes(10));
    EXPECT_FALSE(fired);

    const OpProgress *op = h.lib.monitor().currentOp(comm);
    ASSERT_NE(op, nullptr);
    EXPECT_TRUE(op->started());
    EXPECT_FALSE(op->finished());
}

TEST(Accl, DestroyCommunicatorAbortsInFlight)
{
    Harness h(2);
    CommId comm = h.lib.createCommunicator(1, h.fullNodes({0, 1}));
    bool fired = false;
    h.lib.postCollective(comm, CollOp::AllReduce, gib(8),
                         [&](const CollectiveResult &) { fired = true; });
    h.sim.run(milliseconds(10));
    h.lib.destroyCommunicator(comm);
    EXPECT_FALSE(h.lib.hasCommunicator(comm));
    h.sim.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(h.fabric.activeFlowCount(), 0u);
}

TEST(Accl, DestroyCommunicatorCancelsPendingExecutorEvents)
{
    Harness h(2);
    CommId comm = h.lib.createCommunicator(1, h.fullNodes({0, 1}));
    std::vector<Duration> delays(16, 0);
    delays[5] = seconds(1); // the start round waits for rank 5
    bool fired = false;
    h.lib.postCollective(
        comm, CollOp::AllReduce, mib(64),
        [&](const CollectiveResult &) { fired = true; }, delays);
    h.sim.run(milliseconds(10));
    ASSERT_GT(h.sim.pendingCount(), 0u);

    h.lib.destroyCommunicator(comm);
    // Every executor event was cancelled with the op: nothing is left
    // to fire, and running to the horizon executes nothing.
    EXPECT_EQ(h.sim.pendingCount(), 0u);
    EXPECT_EQ(h.sim.run(seconds(10)), 0u);
    EXPECT_FALSE(fired);
    EXPECT_EQ(h.lib.monitor().currentOp(comm), nullptr);
}

TEST(Accl, DestroyCommunicatorCancelsPendingNvlinkRounds)
{
    Harness h(1);
    CommId comm = h.lib.createCommunicator(1, h.fullNodes({0}));
    bool fired = false;
    h.lib.postCollective(comm, CollOp::AllReduce, gib(4),
                         [&](const CollectiveResult &) { fired = true; });
    // Mid-collective: the single-node rounds are NVLink completion
    // events on the executor, with no fabric flow in between.
    h.sim.run(milliseconds(5));
    ASSERT_GT(h.sim.pendingCount(), 0u);

    h.lib.destroyCommunicator(comm);
    EXPECT_EQ(h.sim.pendingCount(), 0u);
    EXPECT_EQ(h.sim.run(minutes(1)), 0u);
    EXPECT_FALSE(fired);
}

TEST(Accl, ResultBookkeepingConsistent)
{
    Harness h(2);
    CommId comm = h.lib.createCommunicator(1, h.fullNodes({0, 1}));
    CollectiveResult res;
    h.lib.postCollective(comm, CollOp::AllReduce, mib(128),
                         [&](const CollectiveResult &r) { res = r; });
    h.sim.run();
    EXPECT_EQ(res.comm, comm);
    EXPECT_EQ(res.nranks, 16);
    EXPECT_EQ(res.bytes, mib(128));
    EXPECT_GE(res.startTime, res.postTime);
    EXPECT_GT(res.endTime, res.startTime);
    EXPECT_NEAR(toGbps(res.busBw()),
                toGbps(res.algBw()) * busFactor(CollOp::AllReduce, 16),
                0.01);
}

TEST(Accl, PolicyRebalanceWeightsRespected)
{
    // A policy that puts all weight on QP 0 of a 2-QP connection: QP 1
    // must carry (almost) nothing.
    class LopsidedPolicy : public PathPolicy
    {
      public:
        PathDecision
        decide(const ConnContext &ctx) override
        {
            PathDecision d;
            d.txPlane = net::planeFromIndex(ctx.qpIndex % 2);
            d.rxPlane = net::planeIndex(d.txPlane);
            d.spine = ctx.qpIndex;
            return d;
        }
        bool
        rebalance(const std::vector<ConnContext> &,
                  std::vector<PathDecision> &,
                  std::vector<double> &weights) override
        {
            if (weights.size() == 2) {
                weights[0] = 1.0;
                weights[1] = 0.0;
                return true;
            }
            return false;
        }
    };

    AcclConfig ac;
    ac.qpsPerConnection = 2;
    Harness h(testutil::flatConfig(2), testutil::quietFabricConfig(),
              ac);
    Accl &lib = h.lib;

    LopsidedPolicy policy;
    lib.setPathPolicy(&policy);

    CommId comm = lib.createCommunicator(1, h.fullNodes({0, 1}));

    bool fired = false;
    lib.postCollective(comm, CollOp::AllReduce, mib(64),
                       [&](const CollectiveResult &) { fired = true; });
    h.sim.run();
    EXPECT_TRUE(fired);

    // QP 1 carries traffic only in each connection's first round (the
    // rebalance fires between rounds): 2 boundaries x 2 channels = 4
    // messages; QP 0 carries all 8 simulated rounds.
    int qp0_msgs = 0, qp1_msgs = 0;
    for (const auto &rec : lib.monitor().drainConn()) {
        if (rec.qpIndex == 0)
            ++qp0_msgs;
        else
            ++qp1_msgs;
    }
    EXPECT_EQ(qp1_msgs, 4);
    EXPECT_EQ(qp0_msgs, 2 * 2 * 8);
}

} // namespace
} // namespace c4::accl
