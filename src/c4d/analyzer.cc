#include "c4d/analyzer.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>

namespace c4::c4d {

DelayMatrix::DelayMatrix(int nranks)
    : n_(nranks),
      sumDelay_(static_cast<std::size_t>(nranks) * nranks, 0.0),
      count_(static_cast<std::size_t>(nranks) * nranks, 0)
{
    assert(nranks >= 1);
}

void
DelayMatrix::add(Rank src, Rank dst, Bytes bytes, Duration duration)
{
    assert(src >= 0 && src < n_ && dst >= 0 && dst < n_);
    if (bytes <= 0 || duration <= 0)
        return;
    sumDelay_[idx(src, dst)] +=
        toSeconds(duration) / static_cast<double>(bytes);
    ++count_[idx(src, dst)];
}

double
DelayMatrix::at(Rank src, Rank dst) const
{
    const std::size_t i = idx(src, dst);
    return count_[i] > 0 ? sumDelay_[i] / count_[i] : -1.0;
}

int
DelayMatrix::samples(Rank src, Rank dst) const
{
    return count_[idx(src, dst)];
}

double
DelayMatrix::medianDelay() const
{
    std::vector<double> cells;
    for (Rank s = 0; s < n_; ++s) {
        for (Rank d = 0; d < n_; ++d) {
            const double v = at(s, d);
            if (v >= 0.0)
                cells.push_back(v);
        }
    }
    if (cells.empty())
        return -1.0;
    std::sort(cells.begin(), cells.end());
    return cells[cells.size() / 2];
}

std::string
DelayMatrix::str() const
{
    std::ostringstream os;
    char buf[32];
    for (Rank s = 0; s < n_; ++s) {
        for (Rank d = 0; d < n_; ++d) {
            const double v = at(s, d);
            if (v < 0.0)
                os << "      .  ";
            else {
                std::snprintf(buf, sizeof(buf), "%8.2e ", v);
                os << buf;
            }
        }
        os << '\n';
    }
    return os.str();
}

const char *
commSlowKindName(CommSlowKind kind)
{
    switch (kind) {
      case CommSlowKind::None:       return "none";
      case CommSlowKind::Connection: return "connection-slow";
      case CommSlowKind::SourceTx:   return "source-tx-slow";
      case CommSlowKind::DestRx:     return "dest-rx-slow";
    }
    return "?";
}

std::string
CommSlowFinding::str() const
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s src=%d dst=%d ratio=%.2f",
                  commSlowKindName(kind), src, dst, ratio);
    return buf;
}

CommSlowFinding
analyzeCommSlow(const DelayMatrix &matrix, const AnalyzerConfig &cfg)
{
    CommSlowFinding finding;
    const double median = matrix.medianDelay();
    if (median <= 0.0)
        return finding;
    const int n = matrix.size();
    const double cutoff = median * cfg.slowRatio;

    // Collect outlier cells.
    struct Cell
    {
        Rank src, dst;
        double ratio;
    };
    std::vector<Cell> outliers;
    std::vector<int> row_present(static_cast<std::size_t>(n), 0);
    std::vector<int> row_out(static_cast<std::size_t>(n), 0);
    std::vector<int> col_present(static_cast<std::size_t>(n), 0);
    std::vector<int> col_out(static_cast<std::size_t>(n), 0);

    for (Rank s = 0; s < n; ++s) {
        for (Rank d = 0; d < n; ++d) {
            if (matrix.samples(s, d) < cfg.minSamplesPerCell)
                continue;
            const double v = matrix.at(s, d);
            ++row_present[static_cast<std::size_t>(s)];
            ++col_present[static_cast<std::size_t>(d)];
            if (v > cutoff) {
                outliers.push_back({s, d, v / median});
                ++row_out[static_cast<std::size_t>(s)];
                ++col_out[static_cast<std::size_t>(d)];
            }
        }
    }
    if (outliers.empty())
        return finding;

    // A mostly-outlying row blames the source; a column the destination.
    for (Rank s = 0; s < n; ++s) {
        const auto si = static_cast<std::size_t>(s);
        if (row_present[si] >= 2 &&
            static_cast<double>(row_out[si]) >=
                cfg.rowColumnFraction * row_present[si]) {
            finding.kind = CommSlowKind::SourceTx;
            finding.src = s;
            double worst = 0.0;
            for (const auto &c : outliers) {
                if (c.src == s)
                    worst = std::max(worst, c.ratio);
            }
            finding.ratio = worst;
            return finding;
        }
    }
    for (Rank d = 0; d < n; ++d) {
        const auto di = static_cast<std::size_t>(d);
        if (col_present[di] >= 2 &&
            static_cast<double>(col_out[di]) >=
                cfg.rowColumnFraction * col_present[di]) {
            finding.kind = CommSlowKind::DestRx;
            finding.dst = d;
            double worst = 0.0;
            for (const auto &c : outliers) {
                if (c.dst == d)
                    worst = std::max(worst, c.ratio);
            }
            finding.ratio = worst;
            return finding;
        }
    }

    const auto worst = std::max_element(
        outliers.begin(), outliers.end(),
        [](const Cell &a, const Cell &b) { return a.ratio < b.ratio; });
    finding.kind = CommSlowKind::Connection;
    finding.src = worst->src;
    finding.dst = worst->dst;
    finding.ratio = worst->ratio;
    return finding;
}

std::string
NonCommSlowFinding::str() const
{
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "straggler rank=%d medianWait=%s stragglerWait=%s",
                  rank, formatDuration(medianWait).c_str(),
                  formatDuration(stragglerWait).c_str());
    return buf;
}

namespace {

struct MinWaitHits
{
    int hits = 0; ///< operations whose minimum-wait rank is the candidate
    int ops = 0;  ///< operations with at least one in-range record
};

/**
 * One pass over wait records grouped by sequence number (equal seqs
 * adjacent): per operation, the first record with the smallest wait
 * names its minimum-wait rank.
 */
template <typename It>
MinWaitHits
countMinWaitHits(It begin, It end, int nranks, Rank candidate)
{
    MinWaitHits out;
    accl::CollSeq seq = 0;
    Rank minRank = kInvalidId;
    Duration minWait = 0;
    for (It it = begin; it != end; ++it) {
        const accl::RankWaitRecord &w = *it;
        if (w.rank < 0 || w.rank >= nranks)
            continue;
        if (out.ops > 0 && w.seq == seq) {
            if (w.recvWait >= minWait)
                continue;
            out.hits -= minRank == candidate ? 1 : 0; // a new minimum
        } else {
            ++out.ops; // the first record of the next operation
            seq = w.seq;
        }
        minRank = w.rank;
        minWait = w.recvWait;
        out.hits += minRank == candidate ? 1 : 0;
    }
    return out;
}

} // namespace

template <typename Records>
NonCommSlowFinding
analyzeNonCommSlow(int nranks, const Records &waits,
                   const AnalyzerConfig &cfg)
{
    NonCommSlowFinding finding;
    if (nranks < 2 || waits.empty())
        return finding;

    std::vector<double> sum(static_cast<std::size_t>(nranks), 0.0);
    std::vector<int> count(static_cast<std::size_t>(nranks), 0);
    for (const accl::RankWaitRecord &w : waits) {
        if (w.rank >= 0 && w.rank < nranks) {
            sum[static_cast<std::size_t>(w.rank)] +=
                static_cast<double>(w.recvWait);
            ++count[static_cast<std::size_t>(w.rank)];
        }
    }

    std::vector<double> means;
    for (int r = 0; r < nranks; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        if (count[ri] == 0)
            return finding; // need full coverage to judge
        means.push_back(sum[ri] / count[ri]);
    }

    std::vector<double> sorted = means;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    if (median < static_cast<double>(cfg.minWaitForSlow))
        return finding; // waits are just noise

    const auto min_it = std::min_element(means.begin(), means.end());
    const double straggler_wait = *min_it;
    if (straggler_wait * cfg.waitRatio > median)
        return finding; // no rank stands out

    // Consistency: a real straggler is the per-op minimum nearly every
    // time; rotating load skew moves the minimum around the group.
    const auto candidate =
        static_cast<Rank>(std::distance(means.begin(), min_it));
    // The monitor emits each operation's records together and in seq
    // order, so the window is read in place; any other order is grouped
    // by a stable sort of a copy (ties keep their first record).
    auto bySeq = [](const accl::RankWaitRecord &a,
                    const accl::RankWaitRecord &b) { return a.seq < b.seq; };
    MinWaitHits mins;
    if (std::is_sorted(waits.begin(), waits.end(), bySeq)) {
        mins = countMinWaitHits(waits.begin(), waits.end(), nranks,
                                candidate);
    } else {
        std::vector<accl::RankWaitRecord> grouped(waits.begin(),
                                                  waits.end());
        std::stable_sort(grouped.begin(), grouped.end(), bySeq);
        mins = countMinWaitHits(grouped.begin(), grouped.end(), nranks,
                                candidate);
    }
    if (mins.ops > 0) {
        const double consistency = static_cast<double>(mins.hits) /
                                   static_cast<double>(mins.ops);
        if (consistency < cfg.stragglerConsistency)
            return finding; // transient imbalance, not a straggler
    }

    finding.found = true;
    finding.rank = candidate;
    finding.medianWait = static_cast<Duration>(median);
    finding.stragglerWait = static_cast<Duration>(straggler_wait);
    return finding;
}

template NonCommSlowFinding
analyzeNonCommSlow(int, const std::vector<accl::RankWaitRecord> &,
                   const AnalyzerConfig &);
template NonCommSlowFinding
analyzeNonCommSlow(int, const std::deque<accl::RankWaitRecord> &,
                   const AnalyzerConfig &);

const char *
hangKindName(HangKind kind)
{
    switch (kind) {
      case HangKind::None:        return "none";
      case HangKind::NonCommHang: return "non-comm-hang";
      case HangKind::CommHang:    return "comm-hang";
    }
    return "?";
}

HangFinding
analyzeHang(const accl::OpProgress &op,
            const std::vector<Time> &lastHeartbeat, Time now,
            Duration threshold)
{
    HangFinding finding;
    finding.seq = op.seq;
    if (!op.posted() || op.finished())
        return finding;

    if (!op.started()) {
        // Someone never showed up at the synchronization point.
        if (now - op.postTime < threshold)
            return finding;
        finding.kind = HangKind::NonCommHang;
    } else {
        // Started: judge by progress silence across the group.
        Time newest = 0;
        for (Time t : lastHeartbeat) {
            if (t != kTimeNever)
                newest = std::max(newest, t);
        }
        if (now - std::max(newest, op.startTime) < threshold)
            return finding;
        finding.kind = HangKind::CommHang;
    }

    // Suspects: the ranks with the stalest progress (never beats any
    // timestamp; ties within a small epsilon are all suspects).
    Time oldest = kTimeNever;
    bool has_never = false;
    for (Time t : lastHeartbeat) {
        if (t == kTimeNever)
            has_never = true;
        else
            oldest = std::min(oldest == kTimeNever ? t : oldest, t);
    }
    const Duration eps = microseconds(1);
    for (std::size_t r = 0; r < lastHeartbeat.size(); ++r) {
        const Time t = lastHeartbeat[r];
        if (has_never ? t == kTimeNever
                      : (oldest != kTimeNever && t <= oldest + eps)) {
            finding.suspects.push_back(static_cast<Rank>(r));
        }
    }
    return finding;
}

} // namespace c4::c4d
