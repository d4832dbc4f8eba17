/**
 * @file
 * Wall-clock performance harness behind `c4bench --perf`.
 *
 * Runs a pinned set of workloads — pooled-vs-legacy event-kernel
 * microbenchmarks plus two scenario-level measurements — with a warmup
 * pass and repeated timed reps, reports median/min wall-clock and
 * items/sec, and (optionally) writes a stable-schema JSON file
 * (`BENCH_7.json`) so perf trajectories accumulate across PRs the way
 * golden CSVs accumulate correctness.
 *
 * This is deliberately separate from the golden gate: golden CSVs pin
 * *metric values* byte-for-byte and must never change by accident;
 * perf numbers are machine-dependent by nature, so the gate here
 * (`ctest -L perf-smoke`) pins only that the harness runs and the JSON
 * schema holds. The recorded numbers are for humans and trend tooling.
 */

#ifndef C4_PERF_PERF_H
#define C4_PERF_PERF_H

#include <cstdint>
#include <string>
#include <vector>

namespace c4::perf {

/** Harness options (`c4bench --perf [flags]`). */
struct PerfOptions
{
    /** Timed repetitions per workload (median/min over these). */
    int reps = 5;

    /** Untimed warmup passes per workload. */
    int warmup = 1;

    /** Shrink every workload's item count (seconds-scale pass; numbers
     * are NOT comparable with full runs). Set by `--smoke`. */
    bool smoke = false;

    /** Run only workloads whose name contains this substring. */
    std::string only;

    /** Write the JSON report here; empty = no file. */
    std::string jsonPath;
};

/**
 * Process-wide allocation counters (see alloc_hooks.cc). Each thread
 * counts into its own slot; a read sums the live slots plus the totals
 * of exited threads, so the result is exact (every operator-new call
 * of every thread, past and present) and monotonic: callers snapshot
 * before and after a region and subtract. With other threads running,
 * the delta includes their allocations too.
 */
struct AllocStats
{
    std::uint64_t count = 0; ///< operator-new calls since start
    std::uint64_t bytes = 0; ///< bytes requested since start
};

/** Current allocation counters for this process. */
AllocStats allocStatsNow();

/** One workload's measurement. */
struct WorkloadResult
{
    std::string name;
    int reps = 0;
    int warmup = 0;
    /** Work items (events, churn ops, recompute toggles) per rep. */
    std::uint64_t itemsPerRep = 0;
    std::uint64_t medianNs = 0;
    std::uint64_t minNs = 0;
    double itemsPerSecMedian = 0.0;
    double itemsPerSecBest = 0.0;
    /** Median per-rep heap traffic across the timed reps. */
    std::uint64_t allocCount = 0;
    std::uint64_t allocBytes = 0;
    /** ru_maxrss after this workload's reps — a process-wide high-
     * water mark, so it is monotone across the workload sequence and
     * only the per-workload increase is attributable. */
    std::uint64_t peakRssKb = 0;
};

/** Pooled-vs-legacy speedup derived from a workload pair. */
struct KernelRatio
{
    std::string name; ///< shared stem, e.g. "kernel_sched_fire"
    double speedupMedian = 0.0; ///< pooled / legacy, median items/sec
    double speedupBest = 0.0;   ///< pooled / legacy, best items/sec
};

/** Everything one harness invocation produced. */
struct PerfReport
{
    std::vector<WorkloadResult> workloads;
    std::vector<KernelRatio> ratios;
};

/** Run the pinned workload set (filtered by @p opt.only). */
PerfReport runPerf(const PerfOptions &opt);

/** Serialize canonically under the `c4perf/2` schema (v2 adds the
 * per-workload alloc_count / alloc_bytes / peak_rss_kb memory
 * columns; trend tooling accepts both versions). */
std::string perfReportJson(const PerfReport &report,
                           const PerfOptions &opt);

/** Human-readable table + ratio lines, as printed by the CLI. */
std::string perfReportText(const PerfReport &report);

/**
 * CLI entry: parses --smoke / --perf-reps / --perf-warmup /
 * --perf-only / --perf-json from @p argv (ignoring the --perf flag
 * itself), runs the harness, prints the text report, writes the JSON
 * file when requested. Returns a process exit code.
 */
int perfMain(int argc, char **argv);

} // namespace c4::perf

#endif // C4_PERF_PERF_H
