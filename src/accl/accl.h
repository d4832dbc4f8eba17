/**
 * @file
 * The simulated collective communication library (ACCL).
 *
 * Collectives are executed as pipelined rounds of point-to-point hops over
 * the communicator's ring (or tree): intra-node hops ride the NVLink plane
 * at the per-GPU NVLink budget, inter-node hops become fabric flows through
 * QPs whose paths come from the pluggable PathPolicy (baseline ECMP or
 * C4P). A round completes when its slowest hop completes — reproducing the
 * paper's observation that "any flow that is throttled can have a ripple
 * effect, hindering the entire communication group".
 *
 * Every layer is instrumented (AcclMonitor), mirroring the paper's
 * communicator/operation/transport telemetry that C4D consumes.
 */

#ifndef C4_ACCL_ACCL_H
#define C4_ACCL_ACCL_H

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "accl/collective.h"
#include "accl/communicator.h"
#include "accl/monitor.h"
#include "accl/path_policy.h"
#include "common/random.h"
#include "common/types.h"
#include "net/fabric.h"
#include "sim/simulator.h"

namespace c4::accl {

/** Library-wide tunables. */
struct AcclConfig
{
    /**
     * Parallel channels per communicator. Channel c's inter-node traffic
     * departs NIC (c mod nics) for node-spanning rings; with the default
     * of 2, a node's boundary traffic exercises one bonded NIC pair —
     * the configuration whose dual-port imbalance Fig. 9 studies.
     */
    int defaultChannels = 2;

    /** QPs per (channel, connection); chunks are split across them. */
    int qpsPerConnection = 1;

    /**
     * Ring rounds simulated per collective. The payload is divided over
     * this many barrier-synchronized rounds; the real round count (2(n-1))
     * is used for bandwidth bookkeeping, so this only sets the temporal
     * resolution at which contention is sampled.
     */
    int maxSimRounds = 8;

    /** Enable the AcclMonitor record streams. */
    bool monitoring = true;

    /** Retained records per monitor stream. */
    std::size_t monitorCapacity = 1u << 20;
};

/** Completion summary delivered to the collective's callback. */
struct CollectiveResult
{
    CommId comm = kInvalidId;
    CollSeq seq = 0;
    CollOp op = CollOp::AllReduce;
    AlgoKind algo = AlgoKind::Ring;
    Bytes bytes = 0;
    int nranks = 0;
    Time postTime = 0;  ///< earliest rank entry
    Time startTime = 0; ///< all ranks ready; data movement begins
    Time endTime = 0;

    /** Data-movement duration (excludes straggler wait). */
    Duration commDuration() const { return endTime - startTime; }

    /** Total duration including the wait for the slowest rank. */
    Duration totalDuration() const { return endTime - postTime; }

    Bandwidth
    algBw() const
    {
        return algBandwidth(bytes, commDuration());
    }

    Bandwidth
    busBw() const
    {
        return busBandwidth(op, nranks, bytes, commDuration());
    }
};

using CollectiveCallback = std::function<void(const CollectiveResult &)>;

/**
 * The library facade: owns communicators, the transport QP cache, and the
 * monitor; executes collectives over a Fabric.
 */
class Accl
{
  public:
    /**
     * @param sim event engine
     * @param fabric network substrate (provides the topology)
     * @param cfg library tunables
     * @param seed RNG stream (baseline policy source ports etc.)
     */
    Accl(Simulator &sim, net::Fabric &fabric, AcclConfig cfg = {},
         std::uint64_t seed = 0xACC1ACC1ull);
    ~Accl();

    Accl(const Accl &) = delete;
    Accl &operator=(const Accl &) = delete;

    /** @name Communicator management @{ */

    /**
     * Create a communicator over @p devices (in ring order).
     * @param channels parallel channels; 0 uses the config default.
     */
    CommId createCommunicator(JobId job, std::vector<DeviceInfo> devices,
                              int channels = 0);

    /** Destroy a communicator, aborting any in-flight collectives. */
    void destroyCommunicator(CommId comm);

    bool hasCommunicator(CommId comm) const;
    const Communicator &communicator(CommId comm) const;
    /** @} */

    /**
     * Install a path policy (non-owning; nullptr restores the built-in
     * ECMP baseline). Existing QPs keep their paths; new QPs consult the
     * new policy.
     */
    void setPathPolicy(PathPolicy *policy);

    /** @name Collectives @{ */

    /**
     * Post a BSP collective: every rank enters at now + rankPostDelays[r]
     * (all zero when empty). Ordered FIFO per communicator.
     *
     * @return the operation's sequence number on this communicator.
     */
    CollSeq postCollective(CommId comm, CollOp op, Bytes bytesPerRank,
                           CollectiveCallback done,
                           std::vector<Duration> rankPostDelays = {},
                           AlgoKind algo = AlgoKind::Ring);

    /** Point-to-point transfer between two ranks of a communicator. */
    CollSeq sendRecv(CommId comm, Rank src, Rank dst, Bytes bytes,
                     CollectiveCallback done);
    /** @} */

    /** @name Fault hooks (used by the fault injector) @{ */

    /**
     * Simulate a fatal worker error on a rank (CUDA/ECC/process death):
     * the rank stops participating, so in-flight collectives on its
     * communicators stall — the paper's "communication hang" syndrome
     * seen by every peer.
     */
    void crashRank(CommId comm, Rank rank);

    bool rankCrashed(CommId comm, Rank rank) const;
    /** @} */

    AcclMonitor &monitor() { return monitor_; }
    const AcclMonitor &monitor() const { return monitor_; }

    Simulator &simulator() { return sim_; }
    net::Fabric &fabric() { return fabric_; }
    const AcclConfig &config() const { return cfg_; }

    std::uint64_t collectivesCompleted() const { return completed_; }
    std::uint64_t collectivesPosted() const { return posted_; }

  private:
    struct Connection;
    struct CommState;
    class Exec;

    Simulator &sim_;
    net::Fabric &fabric_;
    AcclConfig cfg_;
    Rng rng_;

    AcclMonitor monitor_;
    EcmpPathPolicy baselinePolicy_;
    PathPolicy *policy_; // never null; defaults to &baselinePolicy_

    CommId nextCommId_ = 1;
    QpId nextQpId_ = 1;
    std::uint64_t posted_ = 0;
    std::uint64_t completed_ = 0;

    std::unordered_map<CommId, std::unique_ptr<CommState>> comms_;

    CommState &state(CommId comm);
    const CommState &state(CommId comm) const;

    Connection &getConnection(CommState &cs, int channel, Rank src,
                              Rank dst);
    void releaseConnections(CommState &cs);

    void startNext(CommState &cs);
    void finishExec(CommState &cs);
};

} // namespace c4::accl

#endif // C4_ACCL_ACCL_H
