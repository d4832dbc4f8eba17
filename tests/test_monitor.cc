/**
 * @file
 * Unit tests for ACCL's monitoring layers (the paper's four telemetry
 * streams, heartbeats, and operation progress).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "accl/monitor.h"
#include "common/csv.h"

namespace c4::accl {
namespace {

ConnRecord
makeConn(CommId comm, Rank src, Rank dst, Bytes bytes, Duration dur)
{
    ConnRecord r;
    r.comm = comm;
    r.srcRank = src;
    r.dstRank = dst;
    r.bytes = bytes;
    r.startTime = seconds(1);
    r.endTime = seconds(1) + dur;
    return r;
}

TEST(Monitor, RecordsAndDrains)
{
    AcclMonitor mon;
    mon.record(makeConn(1, 0, 1, mib(1), milliseconds(1)));
    mon.record(makeConn(1, 1, 2, mib(1), milliseconds(2)));
    EXPECT_EQ(mon.totalConnRecords(), 2u);

    auto drained = mon.drainConn();
    EXPECT_EQ(drained.size(), 2u);
    EXPECT_TRUE(mon.drainConn().empty()); // draining consumes
    EXPECT_EQ(mon.totalConnRecords(), 2u); // lifetime counter persists
}

TEST(Monitor, DisabledDropsEverything)
{
    AcclMonitor mon(false);
    mon.record(makeConn(1, 0, 1, mib(1), milliseconds(1)));
    mon.heartbeat(mon.heartbeatRow(1, 1), 0, seconds(5));
    mon.opPosted(1, 1, CollOp::AllReduce, mib(1), seconds(1));
    EXPECT_TRUE(mon.drainConn().empty());
    EXPECT_EQ(mon.lastHeartbeat(1, 0), kTimeNever);
    EXPECT_EQ(mon.currentOp(1), nullptr);
}

TEST(Monitor, CapacityBoundsRetention)
{
    AcclMonitor mon(true, 4);
    for (int i = 0; i < 10; ++i)
        mon.record(makeConn(1, 0, 1, mib(1), milliseconds(i + 1)));
    EXPECT_EQ(mon.drainConn().size(), 4u);
    EXPECT_EQ(mon.droppedRecords(), 6u);
}

TEST(Monitor, HeartbeatsTrackLatest)
{
    AcclMonitor mon;
    EXPECT_EQ(mon.lastHeartbeat(1, 0), kTimeNever);
    std::vector<Time> &row = mon.heartbeatRow(1, 2);
    mon.heartbeat(row, 0, seconds(1));
    mon.heartbeat(row, 0, seconds(2));
    mon.heartbeat(row, 1, seconds(3));
    EXPECT_EQ(mon.lastHeartbeat(1, 0), seconds(2));
    EXPECT_EQ(mon.lastHeartbeat(1, 1), seconds(3));
    EXPECT_EQ(mon.lastHeartbeat(2, 0), kTimeNever);
}

TEST(Monitor, OpProgressLifecycle)
{
    AcclMonitor mon;
    EXPECT_EQ(mon.currentOp(7), nullptr);

    mon.opPosted(7, 3, CollOp::AllReduce, mib(64), seconds(1));
    const OpProgress *op = mon.currentOp(7);
    ASSERT_NE(op, nullptr);
    EXPECT_TRUE(op->posted());
    EXPECT_FALSE(op->started());
    EXPECT_FALSE(op->finished());
    EXPECT_EQ(op->seq, 3u);

    mon.opStarted(7, 3, seconds(2));
    EXPECT_TRUE(mon.currentOp(7)->started());

    mon.opFinished(7, 3, seconds(3));
    EXPECT_TRUE(mon.currentOp(7)->finished());
}

TEST(Monitor, OpProgressIgnoresStaleSeq)
{
    AcclMonitor mon;
    mon.opPosted(7, 3, CollOp::AllReduce, mib(64), seconds(1));
    mon.opPosted(7, 4, CollOp::AllReduce, mib(64), seconds(2));
    mon.opStarted(7, 3, seconds(3)); // stale seq: ignored
    EXPECT_FALSE(mon.currentOp(7)->started());
    EXPECT_EQ(mon.currentOp(7)->seq, 4u);
}

TEST(Monitor, CommClosedClearsState)
{
    AcclMonitor mon;
    mon.opPosted(7, 1, CollOp::AllReduce, mib(1), seconds(1));
    mon.heartbeat(mon.heartbeatRow(7, 1), 0, seconds(1));
    mon.heartbeat(mon.heartbeatRow(8, 1), 0, seconds(1));
    mon.commClosed(7);
    EXPECT_EQ(mon.currentOp(7), nullptr);
    EXPECT_EQ(mon.lastHeartbeat(7, 0), kTimeNever);
    EXPECT_EQ(mon.lastHeartbeat(8, 0), seconds(1)); // untouched
}

TEST(Monitor, HeartbeatRowsAreDensePerComm)
{
    AcclMonitor mon;
    std::vector<Time> &a = mon.heartbeatRow(3, 4);
    ASSERT_EQ(a.size(), 4u);
    mon.heartbeat(a, 2, seconds(5));
    mon.heartbeat(mon.heartbeatRow(9, 2), 1, seconds(6));

    // Unseen ranks and comms read kTimeNever.
    EXPECT_EQ(mon.lastHeartbeat(3, 2), seconds(5));
    EXPECT_EQ(mon.lastHeartbeat(3, 0), kTimeNever);
    EXPECT_EQ(mon.lastHeartbeat(3, 4), kTimeNever); // past the row
    EXPECT_EQ(mon.lastHeartbeat(3, kInvalidId), kTimeNever);
    EXPECT_EQ(mon.lastHeartbeat(4, 0), kTimeNever);
    EXPECT_EQ(mon.lastHeartbeat(9, 1), seconds(6));
    EXPECT_EQ(mon.lastHeartbeat(9, 0), kTimeNever);

    // Asking again returns the same row and never shrinks it.
    EXPECT_EQ(&mon.heartbeatRow(3, 2), &a);
    EXPECT_EQ(a.size(), 4u);

    // Closing comm 3 leaves comm 9 intact.
    mon.commClosed(3);
    EXPECT_EQ(mon.lastHeartbeat(3, 2), kTimeNever);
    EXPECT_EQ(mon.lastHeartbeat(9, 1), seconds(6));
}

TEST(Monitor, DisabledMonitorRecordsNoHeartbeat)
{
    AcclMonitor mon(false);
    std::vector<Time> &row = mon.heartbeatRow(1, 2);
    mon.heartbeat(row, 0, seconds(1));
    mon.heartbeat(row, 1, seconds(1));
    EXPECT_EQ(mon.lastHeartbeat(1, 0), kTimeNever);
    EXPECT_EQ(mon.lastHeartbeat(1, 1), kTimeNever);

    // The switch is read on every write, so a cached row follows it.
    mon.setEnabled(true);
    mon.heartbeat(row, 0, seconds(2));
    EXPECT_EQ(mon.lastHeartbeat(1, 0), seconds(2));
}

TEST(Monitor, CsvDumpsParse)
{
    AcclMonitor mon;
    CommRecord cr;
    cr.when = seconds(1);
    cr.comm = 1;
    cr.job = 2;
    cr.nranks = 16;
    cr.channels = 2;
    mon.record(cr);

    CollRecord col;
    col.comm = 1;
    col.seq = 5;
    col.rank = 3;
    col.bytes = mib(64);
    col.postTime = seconds(1);
    col.startTime = seconds(2);
    col.endTime = seconds(3);
    mon.record(col);

    RankWaitRecord w;
    w.comm = 1;
    w.seq = 5;
    w.rank = 3;
    w.recvWait = milliseconds(10);
    mon.record(w);

    mon.record(makeConn(1, 0, 1, mib(1), milliseconds(1)));

    std::ostringstream comm_csv, coll_csv, rank_csv, conn_csv;
    mon.dumpCommCsv(comm_csv);
    mon.dumpCollCsv(coll_csv);
    mon.dumpRankCsv(rank_csv);
    mon.dumpConnCsv(conn_csv);

    EXPECT_EQ(parseCsv(comm_csv.str()).size(), 2u);  // header + row
    EXPECT_EQ(parseCsv(coll_csv.str()).size(), 2u);
    EXPECT_EQ(parseCsv(rank_csv.str()).size(), 2u);
    const auto conn_rows = parseCsv(conn_csv.str());
    ASSERT_EQ(conn_rows.size(), 2u);
    EXPECT_EQ(conn_rows[0][0], "comm");
    EXPECT_EQ(conn_rows[1][5], "0"); // src_rank
}

TEST(Monitor, ConnRecordDerivedMetrics)
{
    ConnRecord r = makeConn(1, 0, 1, mib(100), milliseconds(4));
    EXPECT_EQ(r.duration(), milliseconds(4));
    // 100 MiB in 4 ms ~= 209.7 Gbps
    EXPECT_NEAR(toGbps(r.achievedRate()), 209.7, 0.5);
}

} // namespace
} // namespace c4::accl
