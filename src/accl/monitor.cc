#include "accl/monitor.h"

#include "common/csv.h"

namespace c4::accl {

AcclMonitor::AcclMonitor(bool enabled, std::size_t capacityPerStream)
    : enabled_(enabled), capacity_(capacityPerStream)
{
}

void
AcclMonitor::record(const CommRecord &r)
{
    push(comm_, r);
}

void
AcclMonitor::record(const CollRecord &r)
{
    if (enabled_)
        ++totalColl_;
    push(coll_, r);
}

void
AcclMonitor::record(const RankWaitRecord &r)
{
    push(rankWait_, r);
}

void
AcclMonitor::record(const ConnRecord &r)
{
    if (enabled_)
        ++totalConn_;
    push(conn_, r);
}

std::vector<Time> &
AcclMonitor::heartbeatRow(CommId comm, int nranks)
{
    std::vector<Time> &row = heartbeats_[comm];
    if (row.size() < static_cast<std::size_t>(nranks))
        row.resize(static_cast<std::size_t>(nranks), kTimeNever);
    return row;
}

Time
AcclMonitor::lastHeartbeat(CommId comm, Rank rank) const
{
    auto it = heartbeats_.find(comm);
    if (it == heartbeats_.end() || rank < 0 ||
        static_cast<std::size_t>(rank) >= it->second.size())
        return kTimeNever;
    return it->second[static_cast<std::size_t>(rank)];
}

void
AcclMonitor::opPosted(CommId comm, CollSeq seq, CollOp op, Bytes bytes,
                      Time when)
{
    if (!enabled_)
        return;
    OpProgress p;
    p.comm = comm;
    p.seq = seq;
    p.op = op;
    p.bytes = bytes;
    p.postTime = when;
    currentOps_[comm] = p;
}

void
AcclMonitor::opStarted(CommId comm, CollSeq seq, Time when)
{
    if (!enabled_)
        return;
    auto it = currentOps_.find(comm);
    if (it != currentOps_.end() && it->second.seq == seq)
        it->second.startTime = when;
}

void
AcclMonitor::opFinished(CommId comm, CollSeq seq, Time when)
{
    if (!enabled_)
        return;
    auto it = currentOps_.find(comm);
    if (it != currentOps_.end() && it->second.seq == seq)
        it->second.endTime = when;
}

void
AcclMonitor::commClosed(CommId comm)
{
    currentOps_.erase(comm);
    heartbeats_.erase(comm);
}

const OpProgress *
AcclMonitor::currentOp(CommId comm) const
{
    auto it = currentOps_.find(comm);
    return it == currentOps_.end() ? nullptr : &it->second;
}

namespace {

template <typename T>
std::vector<T>
drainQueue(std::deque<T> &q)
{
    std::vector<T> out(q.begin(), q.end());
    q.clear();
    return out;
}

} // namespace

std::vector<CommRecord>
AcclMonitor::drainComm()
{
    return drainQueue(comm_);
}

std::vector<CollRecord>
AcclMonitor::drainColl()
{
    return drainQueue(coll_);
}

std::vector<RankWaitRecord>
AcclMonitor::drainRankWait()
{
    return drainQueue(rankWait_);
}

std::vector<ConnRecord>
AcclMonitor::drainConn()
{
    return drainQueue(conn_);
}

void
AcclMonitor::dumpCommCsv(std::ostream &out) const
{
    CsvWriter w(out);
    w.header({"time_ns", "comm", "job", "nranks", "channels", "event"});
    for (const auto &r : comm_) {
        w.cell(r.when)
            .cell(r.comm)
            .cell(r.job)
            .cell(r.nranks)
            .cell(r.channels)
            .cell(r.created ? "create" : "destroy");
        w.endRow();
    }
}

void
AcclMonitor::dumpCollCsv(std::ostream &out) const
{
    CsvWriter w(out);
    w.header({"comm", "seq", "op", "algo", "rank", "bytes", "post_ns",
              "start_ns", "end_ns"});
    for (const auto &r : coll_) {
        w.cell(r.comm)
            .cell(static_cast<std::uint64_t>(r.seq))
            .cell(collOpName(r.op))
            .cell(algoKindName(r.algo))
            .cell(r.rank)
            .cell(r.bytes)
            .cell(r.postTime)
            .cell(r.startTime)
            .cell(r.endTime);
        w.endRow();
    }
}

void
AcclMonitor::dumpRankCsv(std::ostream &out) const
{
    CsvWriter w(out);
    w.header({"comm", "seq", "rank", "recv_wait_ns"});
    for (const auto &r : rankWait_) {
        w.cell(r.comm)
            .cell(static_cast<std::uint64_t>(r.seq))
            .cell(r.rank)
            .cell(r.recvWait);
        w.endRow();
    }
}

void
AcclMonitor::dumpConnCsv(std::ostream &out) const
{
    CsvWriter w(out);
    w.header({"comm", "seq", "channel", "qp_index", "qp", "src_rank",
              "dst_rank", "src_node", "dst_node", "src_nic", "tx_plane",
              "spine", "rx_plane", "bytes", "start_ns", "end_ns"});
    for (const auto &r : conn_) {
        w.cell(r.comm)
            .cell(static_cast<std::uint64_t>(r.seq))
            .cell(r.channel)
            .cell(r.qpIndex)
            .cell(static_cast<std::int64_t>(r.qp))
            .cell(r.srcRank)
            .cell(r.dstRank)
            .cell(r.srcNode)
            .cell(r.dstNode)
            .cell(r.srcNic)
            .cell(net::planeName(r.txPlane))
            .cell(r.spine)
            .cell(r.rxPlane)
            .cell(r.bytes)
            .cell(r.startTime)
            .cell(r.endTime);
        w.endRow();
    }
}

} // namespace c4::accl
