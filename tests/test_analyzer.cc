/**
 * @file
 * Unit tests for the C4D analyzer (delay matrix, wait chain, hang
 * classification) on synthetic telemetry, including the three Fig. 7
 * patterns: single hot cell, hot row (Tx), hot column (Rx).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <utility>

#include "c4d/analyzer.h"

namespace c4::c4d {
namespace {

using accl::ConnRecord;
using accl::OpProgress;
using accl::RankWaitRecord;

/** Ring telemetry: rank i -> i+1, `per_byte` seconds per byte. */
std::vector<ConnRecord>
ringRecords(int n, double per_byte,
            const std::function<double(Rank, Rank)> &scale)
{
    std::vector<ConnRecord> records;
    for (int repeat = 0; repeat < 4; ++repeat) {
        for (Rank s = 0; s < n; ++s) {
            const Rank d = static_cast<Rank>((s + 1) % n);
            ConnRecord r;
            r.comm = 1;
            r.srcRank = s;
            r.dstRank = d;
            r.bytes = mib(8);
            r.startTime = seconds(repeat);
            r.endTime =
                r.startTime +
                static_cast<Duration>(per_byte * scale(s, d) *
                                      static_cast<double>(r.bytes) * 1e9);
            records.push_back(r);
        }
    }
    return records;
}

constexpr double kPerByte = 4e-11; // ~200 Gbps in seconds/byte

TEST(DelayMatrix, BuildAndQuery)
{
    const auto records =
        ringRecords(8, kPerByte, [](Rank, Rank) { return 1.0; });
    const DelayMatrix m = DelayMatrix::build(8, records);
    EXPECT_EQ(m.size(), 8);
    EXPECT_NEAR(m.at(0, 1), kPerByte, kPerByte * 0.01);
    EXPECT_LT(m.at(0, 2), 0.0); // no samples off the ring
    EXPECT_EQ(m.samples(0, 1), 4);
    EXPECT_GT(m.medianDelay(), 0.0);
    EXPECT_FALSE(m.str().empty());
}

TEST(DelayMatrix, IgnoresDegenerateRecords)
{
    DelayMatrix m(4);
    m.add(0, 1, 0, seconds(1));   // zero bytes
    m.add(0, 1, mib(1), 0);       // zero duration
    EXPECT_EQ(m.samples(0, 1), 0);
    EXPECT_LT(m.medianDelay(), 0.0);
}

TEST(AnalyzeCommSlow, CleanMatrixIsQuiet)
{
    const auto records =
        ringRecords(8, kPerByte, [](Rank, Rank) { return 1.0; });
    const auto finding =
        analyzeCommSlow(DelayMatrix::build(8, records));
    EXPECT_FALSE(finding.found());
    EXPECT_EQ(finding.kind, CommSlowKind::None);
}

TEST(AnalyzeCommSlow, SingleHotCellIsConnection)
{
    // Paper Fig. 7 left: one congested link between ranks 3 and 4.
    const auto records = ringRecords(8, kPerByte, [](Rank s, Rank d) {
        return (s == 3 && d == 4) ? 5.0 : 1.0;
    });
    const auto finding =
        analyzeCommSlow(DelayMatrix::build(8, records));
    ASSERT_TRUE(finding.found());
    EXPECT_EQ(finding.kind, CommSlowKind::Connection);
    EXPECT_EQ(finding.src, 3);
    EXPECT_EQ(finding.dst, 4);
    EXPECT_NEAR(finding.ratio, 5.0, 0.5);
}

TEST(AnalyzeCommSlow, HotRowIsSourceTx)
{
    // Fig. 7 middle: rank 3's NIC Tx is congested — everything rank 3
    // sends is slow. Give rank 3 two outgoing connections so the row
    // has >= 2 cells (ring + an extra alltoall-ish link).
    auto records = ringRecords(8, kPerByte, [](Rank s, Rank) {
        return s == 3 ? 4.0 : 1.0;
    });
    ConnRecord extra;
    extra.comm = 1;
    extra.srcRank = 3;
    extra.dstRank = 6;
    extra.bytes = mib(8);
    extra.startTime = 0;
    extra.endTime = static_cast<Duration>(
        kPerByte * 4.0 * static_cast<double>(extra.bytes) * 1e9);
    records.push_back(extra);
    records.push_back(extra);

    const auto finding =
        analyzeCommSlow(DelayMatrix::build(8, records));
    ASSERT_TRUE(finding.found());
    EXPECT_EQ(finding.kind, CommSlowKind::SourceTx);
    EXPECT_EQ(finding.src, 3);
}

TEST(AnalyzeCommSlow, HotColumnIsDestRx)
{
    // Fig. 7 right: rank 4's NIC Rx is congested.
    auto records = ringRecords(8, kPerByte, [](Rank, Rank d) {
        return d == 4 ? 4.0 : 1.0;
    });
    ConnRecord extra;
    extra.comm = 1;
    extra.srcRank = 1;
    extra.dstRank = 4;
    extra.bytes = mib(8);
    extra.startTime = 0;
    extra.endTime = static_cast<Duration>(
        kPerByte * 4.0 * static_cast<double>(extra.bytes) * 1e9);
    records.push_back(extra);
    records.push_back(extra);

    const auto finding =
        analyzeCommSlow(DelayMatrix::build(8, records));
    ASSERT_TRUE(finding.found());
    EXPECT_EQ(finding.kind, CommSlowKind::DestRx);
    EXPECT_EQ(finding.dst, 4);
}

TEST(AnalyzeCommSlow, RespectsMinSamples)
{
    AnalyzerConfig cfg;
    cfg.minSamplesPerCell = 10; // our cells only have 4-6 samples
    const auto records = ringRecords(8, kPerByte, [](Rank s, Rank d) {
        return (s == 3 && d == 4) ? 5.0 : 1.0;
    });
    const auto finding =
        analyzeCommSlow(DelayMatrix::build(8, records), cfg);
    EXPECT_FALSE(finding.found());
}

std::vector<RankWaitRecord>
waits(int n, const std::function<Duration(Rank)> &wait_of, int ops = 3)
{
    std::vector<RankWaitRecord> out;
    for (int op = 0; op < ops; ++op) {
        for (Rank r = 0; r < n; ++r) {
            RankWaitRecord w;
            w.comm = 1;
            w.seq = static_cast<accl::CollSeq>(op);
            w.rank = r;
            w.recvWait = wait_of(r);
            out.push_back(w);
        }
    }
    return out;
}

TEST(AnalyzeNonCommSlow, FindsTheStraggler)
{
    // Everybody waits ~800 ms for rank 5; rank 5 waits ~nothing.
    const auto records = waits(8, [](Rank r) {
        return r == 5 ? milliseconds(2) : milliseconds(800);
    });
    const auto finding = analyzeNonCommSlow(8, records);
    ASSERT_TRUE(finding.found);
    EXPECT_EQ(finding.rank, 5);
    EXPECT_GT(finding.medianWait, milliseconds(500));
    EXPECT_LT(finding.stragglerWait, milliseconds(10));
}

TEST(AnalyzeNonCommSlow, QuietWhenWaitsAreSmall)
{
    const auto records = waits(8, [](Rank r) {
        return r == 5 ? microseconds(10) : milliseconds(5);
    });
    // Median 5 ms < minWaitForSlow 100 ms: normal jitter.
    EXPECT_FALSE(analyzeNonCommSlow(8, records).found);
}

TEST(AnalyzeNonCommSlow, QuietWhenNoRankStandsOut)
{
    const auto records =
        waits(8, [](Rank) { return milliseconds(500); });
    EXPECT_FALSE(analyzeNonCommSlow(8, records).found);
}

TEST(AnalyzeNonCommSlow, NeedsFullCoverage)
{
    auto records = waits(8, [](Rank r) {
        return r == 5 ? milliseconds(1) : milliseconds(800);
    });
    // Remove every record of rank 7: cannot judge.
    records.erase(std::remove_if(records.begin(), records.end(),
                                 [](const RankWaitRecord &w) {
                                     return w.rank == 7;
                                 }),
                  records.end());
    EXPECT_FALSE(analyzeNonCommSlow(8, records).found);
}

/** Rank-major copy of an op-major window: every op's records are
 * interleaved with the other ops', in the same order within an op. */
std::vector<RankWaitRecord>
rankMajor(const std::vector<RankWaitRecord> &records)
{
    std::vector<RankWaitRecord> out = records;
    std::stable_sort(out.begin(), out.end(),
                     [](const RankWaitRecord &a, const RankWaitRecord &b) {
                         return a.rank < b.rank;
                     });
    return out;
}

TEST(AnalyzeNonCommSlow, ConsistencyCountsEveryOpOnceInAnyOrder)
{
    // 10 ops, 4 ranks. Rank 1 is the minimum in the first `persistent`
    // ops and waits 200 ms after; rank 2 is the minimum in the rest.
    auto window = [](int persistent) {
        std::vector<RankWaitRecord> out;
        for (int op = 0; op < 10; ++op) {
            for (Rank r = 0; r < 4; ++r) {
                RankWaitRecord w;
                w.comm = 1;
                w.seq = static_cast<accl::CollSeq>(op + 1);
                w.rank = r;
                w.recvWait = milliseconds(800);
                if (r == 1)
                    w.recvWait = milliseconds(op < persistent ? 1 : 200);
                if (r == 2 && op >= persistent)
                    w.recvWait = milliseconds(1);
                out.push_back(w);
            }
        }
        return out;
    };
    // 7/10 >= 0.6 consistency: a straggler; 5/10: rotating skew.
    for (const auto &[persistent, expect] :
         {std::pair{7, true}, std::pair{5, false}}) {
        const auto records = window(persistent);
        const std::deque<RankWaitRecord> deque(records.begin(),
                                               records.end());
        const auto inOrder = analyzeNonCommSlow(4, records);
        EXPECT_EQ(inOrder.found, expect) << persistent;
        EXPECT_EQ(inOrder.rank, expect ? 1 : kInvalidId);
        for (const NonCommSlowFinding &f :
             {analyzeNonCommSlow(4, deque),
              analyzeNonCommSlow(4, rankMajor(records))}) {
            EXPECT_EQ(f.found, inOrder.found) << persistent;
            EXPECT_EQ(f.rank, inOrder.rank);
            EXPECT_EQ(f.medianWait, inOrder.medianWait);
            EXPECT_EQ(f.stragglerWait, inOrder.stragglerWait);
        }
    }
}

TEST(AnalyzeNonCommSlow, TiedMinimumGoesToTheFirstRecordOfTheOp)
{
    // Ranks 1 and 2 tie at 1 ms in every op; rank 1 (the lower mean
    // index, so the candidate) is also each op's first minimum.
    auto records = waits(4, [](Rank r) {
        return r == 1 || r == 2 ? milliseconds(1) : milliseconds(800);
    });
    EXPECT_EQ(analyzeNonCommSlow(4, records).rank, 1);
    EXPECT_EQ(analyzeNonCommSlow(4, rankMajor(records)).rank, 1);

    // Listing rank 2 first in every op hands it each op's minimum:
    // the candidate then never is, and the consistency test fails.
    std::stable_sort(records.begin(), records.end(),
                     [](const RankWaitRecord &a, const RankWaitRecord &b) {
                         return a.seq < b.seq ||
                                (a.seq == b.seq && a.rank == 2 &&
                                 b.rank != 2);
                     });
    EXPECT_FALSE(analyzeNonCommSlow(4, records).found);
}

OpProgress
makeOp(Time posted, Time started, Time finished)
{
    OpProgress op;
    op.comm = 1;
    op.seq = 9;
    op.postTime = posted;
    op.startTime = started;
    op.endTime = finished;
    return op;
}

TEST(AnalyzeHang, FinishedOpIsHealthy)
{
    const auto op = makeOp(seconds(1), seconds(2), seconds(3));
    const auto f =
        analyzeHang(op, {seconds(3), seconds(3)}, minutes(10),
                    seconds(30));
    EXPECT_FALSE(f.found());
}

TEST(AnalyzeHang, PostedNeverStartedIsNonCommHang)
{
    const auto op = makeOp(seconds(1), kTimeNever, kTimeNever);
    // Rank 2 never heartbeat; others did at post time.
    std::vector<Time> hb = {seconds(1), seconds(1), kTimeNever,
                            seconds(1)};
    const auto f = analyzeHang(op, hb, minutes(5), seconds(30));
    ASSERT_TRUE(f.found());
    EXPECT_EQ(f.kind, HangKind::NonCommHang);
    ASSERT_EQ(f.suspects.size(), 1u);
    EXPECT_EQ(f.suspects[0], 2);
}

TEST(AnalyzeHang, StartedThenSilentIsCommHang)
{
    const auto op = makeOp(seconds(1), seconds(2), kTimeNever);
    // Rank 1 stalled first (oldest heartbeat).
    std::vector<Time> hb = {seconds(10), seconds(8), seconds(10),
                            seconds(10)};
    const auto f = analyzeHang(op, hb, minutes(5), seconds(30));
    ASSERT_TRUE(f.found());
    EXPECT_EQ(f.kind, HangKind::CommHang);
    ASSERT_EQ(f.suspects.size(), 1u);
    EXPECT_EQ(f.suspects[0], 1);
}

TEST(AnalyzeHang, RespectsThreshold)
{
    const auto op = makeOp(seconds(1), seconds(2), kTimeNever);
    std::vector<Time> hb = {seconds(10), seconds(10)};
    EXPECT_FALSE(
        analyzeHang(op, hb, seconds(15), seconds(30)).found());
    EXPECT_TRUE(
        analyzeHang(op, hb, seconds(50), seconds(30)).found());
}

TEST(AnalyzeHang, UnpostedOpIsQuiet)
{
    OpProgress op;
    EXPECT_FALSE(
        analyzeHang(op, {seconds(1)}, minutes(10), seconds(30))
            .found());
}

TEST(Names, AllEnumNamesRender)
{
    EXPECT_STREQ(commSlowKindName(CommSlowKind::SourceTx),
                 "source-tx-slow");
    EXPECT_STREQ(hangKindName(HangKind::CommHang), "comm-hang");
    CommSlowFinding f;
    f.kind = CommSlowKind::Connection;
    f.src = 3;
    f.dst = 4;
    EXPECT_NE(f.str().find("connection-slow"), std::string::npos);
    NonCommSlowFinding n;
    n.rank = 5;
    EXPECT_NE(n.str().find("rank=5"), std::string::npos);
}

} // namespace
} // namespace c4::c4d
