/**
 * @file
 * C4D's analysis layer: pure functions from drained ACCL telemetry to
 * findings, implementing Section III-A of the paper.
 *
 * - Communication-slow localization (Fig. 7): message delays between
 *   worker pairs form a matrix; a single hot cell is a slow connection,
 *   a hot row is a slow sender (Tx), a hot column a slow receiver (Rx).
 * - Non-communication-slow localization: the receiver-driven schedule
 *   means everyone waits for the straggler, so the rank with the
 *   *smallest* wait at the synchronization point is the culprit.
 * - Hang detection: an operation that was posted but never started is a
 *   non-communication hang (a rank never showed up); one that started
 *   but stopped making progress is a communication hang.
 */

#ifndef C4_C4D_ANALYZER_H
#define C4_C4D_ANALYZER_H

#include <deque>
#include <string>
#include <vector>

#include "accl/monitor.h"
#include "common/types.h"

namespace c4::c4d {

/**
 * Normalized pairwise delay matrix: mean transfer time per byte between
 * (srcRank, dstRank) pairs that exchanged messages in the window.
 */
class DelayMatrix
{
  public:
    explicit DelayMatrix(int nranks);

    /** Accumulate one message observation. */
    void add(Rank src, Rank dst, Bytes bytes, Duration duration);

    /**
     * Build directly from connection records: any range of ConnRecord,
     * e.g. a drained batch or the master's window, read in place.
     */
    template <typename Records>
    static DelayMatrix
    build(int nranks, const Records &records)
    {
        DelayMatrix m(nranks);
        for (const accl::ConnRecord &r : records) {
            if (r.srcRank >= 0 && r.srcRank < nranks && r.dstRank >= 0 &&
                r.dstRank < nranks) {
                m.add(r.srcRank, r.dstRank, r.bytes, r.duration());
            }
        }
        return m;
    }

    int size() const { return n_; }

    /** Mean seconds-per-byte for the pair; <0 when no samples. */
    double at(Rank src, Rank dst) const;

    /** Number of message samples for the pair. */
    int samples(Rank src, Rank dst) const;

    /** Median of all present cells; <0 when the matrix is empty. */
    double medianDelay() const;

    /** Multi-line rendering (row = source, column = destination). */
    std::string str() const;

  private:
    int n_;
    std::vector<double> sumDelay_; // seconds-per-byte sums
    std::vector<int> count_;

    std::size_t
    idx(Rank src, Rank dst) const
    {
        return static_cast<std::size_t>(src) * n_ +
               static_cast<std::size_t>(dst);
    }
};

/** What a communication-slow analysis concluded. */
enum class CommSlowKind {
    None,       ///< nothing abnormal
    Connection, ///< one src->dst path is slow (congested link)
    SourceTx,   ///< a whole row is slow: sender-side (NIC Tx) issue
    DestRx,     ///< a whole column is slow: receiver-side (NIC Rx) issue
};

const char *commSlowKindName(CommSlowKind kind);

struct CommSlowFinding
{
    CommSlowKind kind = CommSlowKind::None;
    Rank src = kInvalidId; ///< Connection / SourceTx
    Rank dst = kInvalidId; ///< Connection / DestRx
    double ratio = 0.0;    ///< outlier delay / matrix median

    bool found() const { return kind != CommSlowKind::None; }
    std::string str() const;
};

/** Tunables of the slow analyses. */
struct AnalyzerConfig
{
    /** Cell counts as an outlier above ratio x matrix median. */
    double slowRatio = 2.0;

    /** Minimum samples per cell before it is judged. */
    int minSamplesPerCell = 2;

    /**
     * Fraction of a row/column that must be outlying to blame the
     * endpoint rather than a single connection.
     */
    double rowColumnFraction = 0.6;

    /** Ignore wait patterns whose median is below this (normal jitter). */
    Duration minWaitForSlow = milliseconds(100);

    /** Straggler must beat the median wait by this factor. */
    double waitRatio = 4.0;

    /**
     * Fraction of operations in the window where the suspected
     * straggler must be the minimum-wait rank. A *persistent* straggler
     * is the minimum nearly every time; rotating skew (e.g. MoE expert
     * load imbalance, paper Section V) shifts the minimum around, so a
     * consistency floor suppresses those false positives — the paper's
     * planned "incorporate load variation into C4D" refinement.
     */
    double stragglerConsistency = 0.6;
};

/**
 * Localize communication slowness from a delay matrix (paper Fig. 7).
 */
CommSlowFinding analyzeCommSlow(const DelayMatrix &matrix,
                                const AnalyzerConfig &cfg = {});

struct NonCommSlowFinding
{
    bool found = false;
    Rank rank = kInvalidId; ///< the straggler
    Duration medianWait = 0;
    Duration stragglerWait = 0;

    std::string str() const;
};

/**
 * Localize a non-communication straggler from receiver wait times: in a
 * receiver-driven collective, the rank everybody waited for shows a
 * near-zero wait while its peers' waits are large.
 *
 * @param nranks communicator size
 * @param waits wait records over the analysis window (>= 1 op), read in
 *        place: a std::vector or std::deque of RankWaitRecord
 */
template <typename Records>
NonCommSlowFinding analyzeNonCommSlow(int nranks, const Records &waits,
                                      const AnalyzerConfig &cfg = {});

extern template NonCommSlowFinding
analyzeNonCommSlow(int, const std::vector<accl::RankWaitRecord> &,
                   const AnalyzerConfig &);
extern template NonCommSlowFinding
analyzeNonCommSlow(int, const std::deque<accl::RankWaitRecord> &,
                   const AnalyzerConfig &);

/** Hang classification of one communicator's current operation. */
enum class HangKind {
    None,
    NonCommHang, ///< posted, never started: a rank never arrived
    CommHang,    ///< started, progress stopped mid-operation
};

const char *hangKindName(HangKind kind);

struct HangFinding
{
    HangKind kind = HangKind::None;
    accl::CollSeq seq = 0;
    /** Ranks whose progress is stalest (suspected culprits). */
    std::vector<Rank> suspects;

    bool found() const { return kind != HangKind::None; }
};

/**
 * Detect and classify a hang from operation progress plus per-rank
 * heartbeat times.
 *
 * @param op progress of the communicator's current operation
 * @param lastHeartbeat per-rank last progress time (kTimeNever = never)
 * @param now current time
 * @param threshold silence longer than this is a hang
 */
HangFinding analyzeHang(const accl::OpProgress &op,
                        const std::vector<Time> &lastHeartbeat, Time now,
                        Duration threshold);

} // namespace c4::c4d

#endif // C4_C4D_ANALYZER_H
