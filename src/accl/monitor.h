/**
 * @file
 * ACCL's runtime monitoring enhancement (paper Fig. 5/6).
 *
 * The paper instruments the bottom three ACCL layers and emits four
 * time-series: communicator stats, collective stats, per-rank stats
 * (receiver wait times), and per-connection/QP stats (message completion
 * times). C4 agents (C4a) periodically drain these records and forward
 * them to the C4D master; the same records can be dumped as the CSV files
 * named in the paper (comm-stats.csv, coll-stats.csv, rank-stats.csv,
 * conn-stats.csv).
 */

#ifndef C4_ACCL_MONITOR_H
#define C4_ACCL_MONITOR_H

#include <cstdint>
#include <deque>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "accl/collective.h"
#include "common/types.h"
#include "net/topology.h"

namespace c4::accl {

/** Communicator-layer record: one per communicator creation/destruction. */
struct CommRecord
{
    Time when = 0;
    CommId comm = kInvalidId;
    JobId job = kInvalidId;
    int nranks = 0;
    int channels = 0;
    bool created = true; ///< false on destruction

    /** Node hosting each rank (the "involved devices" of paper Fig. 6). */
    std::vector<NodeId> rankNodes;
};

/** Operation-layer record: one per (collective, rank). */
struct CollRecord
{
    CommId comm = kInvalidId;
    CollSeq seq = 0;
    CollOp op = CollOp::AllReduce;
    AlgoKind algo = AlgoKind::Ring;
    Rank rank = kInvalidId;
    Bytes bytes = 0;     ///< payload per rank
    Time postTime = 0;   ///< when the rank entered the collective
    Time startTime = 0;  ///< when the group's data movement began
    Time endTime = 0;    ///< completion (kTimeNever while in flight)

    bool finished() const { return endTime != kTimeNever; }
};

/**
 * Rank-layer record: the receiver-driven wait each rank imposed on the
 * group (paper: "by comparing the wait time of receivers, we can pinpoint
 * the ranks that are experiencing non-communication slows").
 */
struct RankWaitRecord
{
    CommId comm = kInvalidId;
    CollSeq seq = 0;
    Rank rank = kInvalidId;
    Duration recvWait = 0; ///< how long this rank waited for the group
};

/** Transport-layer record: one per message (QP flow) completion. */
struct ConnRecord
{
    CommId comm = kInvalidId;
    CollSeq seq = 0;
    int channel = 0;
    int qpIndex = 0;
    QpId qp = kInvalidId;
    Rank srcRank = kInvalidId;
    Rank dstRank = kInvalidId;
    NodeId srcNode = kInvalidId;
    NodeId dstNode = kInvalidId;
    NicId srcNic = kInvalidId;
    net::Plane txPlane = net::Plane::Left;
    std::int32_t spine = kInvalidId;
    std::int32_t rxPlane = kInvalidId;
    Bytes bytes = 0;
    Time startTime = 0;
    Time endTime = 0;

    Duration duration() const { return endTime - startTime; }

    Bandwidth
    achievedRate() const
    {
        const Duration d = duration();
        return d > 0
                   ? static_cast<double>(bytes) * 8.0 / toSeconds(d)
                   : 0.0;
    }
};

/**
 * Progress of one collective operation, tracked from posting through
 * start (all ranks entered) to completion. The paper's C4D relies on
 * exactly this: "we track the startup and completion of specific
 * collective operations and assign each operation a sequence".
 */
struct OpProgress
{
    CommId comm = kInvalidId;
    CollSeq seq = 0;
    CollOp op = CollOp::AllReduce;
    Bytes bytes = 0;
    Time postTime = kTimeNever;
    Time startTime = kTimeNever;
    Time endTime = kTimeNever;

    bool posted() const { return postTime != kTimeNever; }
    bool started() const { return startTime != kTimeNever; }
    bool finished() const { return endTime != kTimeNever; }
};

/**
 * In-memory sink for all four record streams plus per-rank progress
 * heartbeats (used by hang detection). Draining consumes records;
 * capacity is bounded so detached (unmonitored) runs don't accumulate.
 */
class AcclMonitor
{
  public:
    /**
     * @param enabled when false, all record() calls are dropped (keeps
     *        baseline runs cheap)
     * @param capacityPerStream max retained records per stream; oldest
     *        are discarded first
     */
    explicit AcclMonitor(bool enabled = true,
                         std::size_t capacityPerStream = 1u << 20);

    bool enabled() const { return enabled_; }
    void setEnabled(bool enabled) { enabled_ = enabled; }

    /** @name Recording (called by the library) @{ */
    void record(const CommRecord &r);
    void record(const CollRecord &r);
    void record(const RankWaitRecord &r);
    void record(const ConnRecord &r);

    /**
     * The dense heartbeat row of @p comm (one slot per rank, kTimeNever
     * until the rank first makes progress), created and grown to
     * @p nranks slots on demand. The reference stays valid until
     * commClosed(@p comm); the executor caches it for the per-hop path.
     */
    std::vector<Time> &heartbeatRow(CommId comm, int nranks);

    /**
     * Note forward progress of a rank (any message/round completion)
     * in a row from heartbeatRow(); @p rank must be inside the row.
     */
    void
    heartbeat(std::vector<Time> &row, Rank rank, Time when)
    {
        if (enabled_)
            row[static_cast<std::size_t>(rank)] = when;
    }

    /** @name Operation progress tracking @{ */
    void opPosted(CommId comm, CollSeq seq, CollOp op, Bytes bytes,
                  Time when);
    void opStarted(CommId comm, CollSeq seq, Time when);
    void opFinished(CommId comm, CollSeq seq, Time when);
    void commClosed(CommId comm);
    /** @} */
    /** @} */

    /**
     * Progress of the most recent operation on a communicator, or
     * nullptr if none was ever posted (or the comm was closed).
     */
    const OpProgress *currentOp(CommId comm) const;

    /** @name Draining (called by C4 agents); consumes the records @{ */
    std::vector<CommRecord> drainComm();
    std::vector<CollRecord> drainColl();
    std::vector<RankWaitRecord> drainRankWait();
    std::vector<ConnRecord> drainConn();
    /** @} */

    /** Last observed progress time per (comm, rank); kTimeNever if none. */
    Time lastHeartbeat(CommId comm, Rank rank) const;

    /** @name Lifetime counters (not consumed by draining) @{ */
    std::uint64_t totalConnRecords() const { return totalConn_; }
    std::uint64_t totalCollRecords() const { return totalColl_; }
    std::uint64_t droppedRecords() const { return dropped_; }
    /** @} */

    /** @name CSV dumps in the paper's file shapes (Fig. 5) @{ */
    void dumpCommCsv(std::ostream &out) const;
    void dumpCollCsv(std::ostream &out) const;
    void dumpRankCsv(std::ostream &out) const;
    void dumpConnCsv(std::ostream &out) const;
    /** @} */

  private:
    bool enabled_;
    std::size_t capacity_;

    std::deque<CommRecord> comm_;
    std::deque<CollRecord> coll_;
    std::deque<RankWaitRecord> rankWait_;
    std::deque<ConnRecord> conn_;

    // comm -> last progress time per rank (node-based map: rows keep
    // their address while other comms come and go)
    std::unordered_map<CommId, std::vector<Time>> heartbeats_;

    // comm -> progress of its most recent operation
    std::unordered_map<CommId, OpProgress> currentOps_;

    std::uint64_t totalConn_ = 0;
    std::uint64_t totalColl_ = 0;
    std::uint64_t dropped_ = 0;

    template <typename T>
    void
    push(std::deque<T> &q, const T &r)
    {
        if (!enabled_)
            return;
        if (q.size() >= capacity_) {
            q.pop_front();
            ++dropped_;
        }
        q.push_back(r);
    }
};

} // namespace c4::accl

#endif // C4_ACCL_MONITOR_H
