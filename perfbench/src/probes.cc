/**
 * @file
 * GNU ld `--wrap` probes on public entry points of the simulator's
 * layers. The linker redirects every reference to SYMBOL that crosses
 * an object-file boundary to __wrap_SYMBOL; the wrapper here records a
 * span and forwards to __real_SYMBOL. Calls a layer makes to itself
 * inside one object file are not redirected, so the spans time only
 * calls that cross into the layer from another one. No file under
 * src/ changes; CMakeLists.txt lists the same symbols as link options,
 * and a mismatch fails the link.
 *
 * Both drivers wrap the Cluster constructor/destructor and
 * Simulator::run, so counts can be read from clusters that the spec
 * interpreter owns. Only the traced driver wraps the rest.
 */

#include <utility>

#include "accl/accl.h"
#include "c4d/master.h"
#include "counts.h"
#include "net/fabric.h"
#include "spans.h"

using namespace c4;
using perfbench::Site;
using perfbench::Span;

namespace perfbench {

Counts
readCounts(core::Cluster &cl)
{
    Counts c;
    c.simEvents = cl.sim().executedCount();
    const net::Fabric &fabric = cl.fabric();
    c.flowsStarted = fabric.totalFlowsStarted();
    c.flowsCompleted = fabric.totalFlowsCompleted();
    c.recomputes = fabric.reallocationCount();
    c.recomputeOps = fabric.recomputeOpsTotal();
    const accl::Accl &accl = cl.accl();
    c.collectivesPosted = accl.collectivesPosted();
    c.collectivesCompleted = accl.collectivesCompleted();
    c.monitorRecords = accl.monitor().totalConnRecords() +
                       accl.monitor().totalCollRecords();
    c.monitorDropped = accl.monitor().droppedRecords();
    if (const c4p::C4pMaster *c4p = cl.c4pMaster()) {
        c.c4pDecisions = c4p->allocations();
        c.c4pRepins = c4p->repins();
    }
    if (const c4d::C4dMaster *c4d = cl.c4dMaster()) {
        c.c4dEvaluations = c4d->evaluations();
        c.c4dEvents = c4d->eventsEmitted();
    }
    if (const c4d::JobSteeringService *steering = cl.steering()) {
        c.restarts = steering->restartsIssued();
        c.isolations = steering->isolatedNodes().size();
    }
    c.faults = cl.faults().history().size();
    c.brokenNodes = cl.brokenNodeCount();
    c.now = cl.sim().now();
    return c;
}

namespace {
thread_local core::Cluster *tCluster = nullptr;
thread_local Counts tLastRun;
} // namespace

const Counts &
lastRunCounts()
{
    return tLastRun;
}

} // namespace perfbench

// Declares __real_SYM and defines __wrap_SYM(PARAMS) as a span of
// SITE around the forwarded call. PARAMS starts with the object
// pointer the member function receives as its implicit first argument.
#define PERFBENCH_WRAP(site, ret, sym, params, args)                    \
    extern "C" ret __real_##sym params;                                 \
    extern "C" ret __wrap_##sym params                                  \
    {                                                                   \
        Span span(site);                                                \
        return __real_##sym args;                                       \
    }

// core::Cluster::Cluster(ClusterConfig)
extern "C" void
__real__ZN2c44core7ClusterC1ENS0_13ClusterConfigE(core::Cluster *,
                                                  core::ClusterConfig);
extern "C" void
__wrap__ZN2c44core7ClusterC1ENS0_13ClusterConfigE(core::Cluster *self,
                                                  core::ClusterConfig cfg)
{
    {
        Span span(Site::ClusterBuild);
        __real__ZN2c44core7ClusterC1ENS0_13ClusterConfigE(self,
                                                          std::move(cfg));
    }
    perfbench::tCluster = self;
    perfbench::tLastRun = perfbench::Counts{};
}

// core::Cluster::~Cluster()
extern "C" void __real__ZN2c44core7ClusterD1Ev(core::Cluster *);
extern "C" void
__wrap__ZN2c44core7ClusterD1Ev(core::Cluster *self)
{
    if (perfbench::tCluster == self)
        perfbench::tCluster = nullptr;
    __real__ZN2c44core7ClusterD1Ev(self);
}

// Simulator::run(Time)
extern "C" std::uint64_t __real__ZN2c49Simulator3runEl(Simulator *, Time);
extern "C" std::uint64_t
__wrap__ZN2c49Simulator3runEl(Simulator *self, Time until)
{
    std::uint64_t executed = 0;
    {
        Span span(Site::SimRun);
        executed = __real__ZN2c49Simulator3runEl(self, until);
    }
    core::Cluster *cl = perfbench::tCluster;
    if (cl != nullptr && &cl->sim() == self)
        perfbench::tLastRun = perfbench::readCounts(*cl);
    return executed;
}

#ifdef PERFBENCH_TRACED

PERFBENCH_WRAP(Site::NetCall, FlowId,
    _ZN2c43net6Fabric9startFlowERKNS0_11PathRequestElSt8functionIFvRKNS0_7FlowEndEEE,
    (net::Fabric *self, const net::PathRequest &req, Bytes bytes,
     net::FlowCallback done),
    (self, req, bytes, std::move(done)))

PERFBENCH_WRAP(Site::NetCall, FlowId,
    _ZN2c43net6Fabric16startFlowOnRouteENS0_5RouteElSt8functionIFvRKNS0_7FlowEndEEE,
    (net::Fabric *self, net::Route route, Bytes bytes,
     net::FlowCallback done),
    (self, std::move(route), bytes, std::move(done)))

PERFBENCH_WRAP(Site::NetCall, bool, _ZN2c43net6Fabric9abortFlowEl,
    (net::Fabric *self, FlowId id), (self, id))

PERFBENCH_WRAP(Site::NetCall, void, _ZN2c43net6Fabric9setLinkUpEib,
    (net::Fabric *self, LinkId id, bool up), (self, id, up))

PERFBENCH_WRAP(Site::NetCall, void,
    _ZN2c43net6Fabric20setLinkCapacityScaleEid,
    (net::Fabric *self, LinkId id, double scale), (self, id, scale))

PERFBENCH_WRAP(Site::NetCall, Bandwidth, _ZN2c43net6Fabric8flowRateEl,
    (net::Fabric *self, FlowId id), (self, id))

PERFBENCH_WRAP(Site::NetCall, Bandwidth,
    _ZN2c43net6Fabric14linkThroughputEi,
    (net::Fabric *self, LinkId id), (self, id))

PERFBENCH_WRAP(Site::NetCall, double, _ZN2c43net6Fabric10nicCnpRateEii,
    (net::Fabric *self, NodeId node, NicId nic), (self, node, nic))

PERFBENCH_WRAP(Site::AcclCall, CommId,
    _ZN2c44accl4Accl18createCommunicatorEiSt6vectorINS0_10DeviceInfoESaIS3_EEi,
    (accl::Accl *self, JobId job, std::vector<accl::DeviceInfo> devices,
     int channels),
    (self, job, std::move(devices), channels))

PERFBENCH_WRAP(Site::AcclCall, void,
    _ZN2c44accl4Accl19destroyCommunicatorEi,
    (accl::Accl *self, CommId comm), (self, comm))

PERFBENCH_WRAP(Site::AcclCall, accl::CollSeq,
    _ZN2c44accl4Accl14postCollectiveEiNS0_6CollOpElSt8functionIFvRKNS0_16CollectiveResultEEESt6vectorIlSaIlEENS0_8AlgoKindE,
    (accl::Accl *self, CommId comm, accl::CollOp op, Bytes bytesPerRank,
     accl::CollectiveCallback done, std::vector<Duration> rankPostDelays,
     accl::AlgoKind algo),
    (self, comm, op, bytesPerRank, std::move(done),
     std::move(rankPostDelays), algo))

PERFBENCH_WRAP(Site::C4dIngest, void,
    _ZN2c43c4d9C4dMaster6ingestERKSt6vectorINS_4accl10ConnRecordESaIS4_EE,
    (c4d::C4dMaster *self, const std::vector<accl::ConnRecord> &records),
    (self, records))

PERFBENCH_WRAP(Site::C4dIngest, void,
    _ZN2c43c4d9C4dMaster6ingestERKSt6vectorINS_4accl14RankWaitRecordESaIS4_EE,
    (c4d::C4dMaster *self,
     const std::vector<accl::RankWaitRecord> &records),
    (self, records))

#endif // PERFBENCH_TRACED
