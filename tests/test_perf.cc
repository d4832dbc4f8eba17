/**
 * @file
 * Tests for the wall-clock perf harness (`c4bench --perf`): the
 * harness runs end to end, the c4perf/2 JSON schema holds, and the
 * preserved legacy kernel is behaviorally equivalent to the pooled
 * one (same fire order, clock, and live counts through randomized
 * schedule/cancel/run soups — the property the speedup claim rests
 * on; a faster kernel that fires in a different order measures
 * nothing), and the per-thread allocation counters stay exact and
 * monotonic while threads allocate, exit, and are read concurrently,
 * and the ACCL executor's per-collective heap traffic stays in budget.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/json.h"
#include "perf/legacy_kernel.h"
#include "perf/perf.h"
#include "sim/simulator.h"
#include "testutil/testutil.h"

namespace c4::perf {
namespace {

PerfOptions
smokeOptions()
{
    PerfOptions opt;
    opt.smoke = true;
    opt.reps = 1;
    opt.warmup = 0;
    return opt;
}

TEST(PerfHarness, RunsEveryWorkloadOnce)
{
    const PerfReport report = runPerf(smokeOptions());
    ASSERT_EQ(report.workloads.size(), 8u);
    std::map<std::string, int> names;
    for (const WorkloadResult &r : report.workloads) {
        ++names[r.name];
        EXPECT_EQ(r.reps, 1) << r.name;
        EXPECT_GT(r.itemsPerRep, 0u) << r.name;
        EXPECT_GT(r.medianNs, 0u) << r.name;
        EXPECT_EQ(r.medianNs, r.minNs) << r.name; // one rep
        EXPECT_GT(r.itemsPerSecMedian, 0.0) << r.name;
    }
    for (const auto &[name, count] : names)
        EXPECT_EQ(count, 1) << name << " measured twice";
    // One ratio per pooled/legacy pair.
    ASSERT_EQ(report.ratios.size(), 3u);
    for (const KernelRatio &r : report.ratios) {
        EXPECT_GT(r.speedupMedian, 0.0) << r.name;
        EXPECT_GT(r.speedupBest, 0.0) << r.name;
    }
}

TEST(PerfHarness, OnlyFilterSelectsSubset)
{
    PerfOptions opt = smokeOptions();
    opt.only = "kernel_burst_drain";
    const PerfReport report = runPerf(opt);
    ASSERT_EQ(report.workloads.size(), 2u);
    EXPECT_EQ(report.workloads[0].name, "kernel_burst_drain_pooled");
    EXPECT_EQ(report.workloads[1].name, "kernel_burst_drain_legacy");
    ASSERT_EQ(report.ratios.size(), 1u);
    EXPECT_EQ(report.ratios[0].name, "kernel_burst_drain");
}

TEST(PerfHarness, JsonReportMatchesSchema)
{
    PerfOptions opt = smokeOptions();
    opt.only = "kernel_cancel_churn";
    const PerfReport report = runPerf(opt);
    const Json root = parseJson(perfReportJson(report, opt));
    ASSERT_EQ(root.kind, Json::Kind::Object);

    const Json::Member *schema = root.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->value.string, "c4perf/2");
    const Json::Member *mode = root.find("mode");
    ASSERT_NE(mode, nullptr);
    EXPECT_EQ(mode->value.string, "smoke");

    const Json::Member *workloads = root.find("workloads");
    ASSERT_NE(workloads, nullptr);
    ASSERT_EQ(workloads->value.kind, Json::Kind::Array);
    ASSERT_EQ(workloads->value.array.size(), 2u);
    for (const Json &w : workloads->value.array) {
        for (const char *key :
             {"name", "reps", "warmup", "items_per_rep", "median_ns",
              "min_ns", "items_per_sec_median", "items_per_sec_best"})
            EXPECT_NE(w.find(key), nullptr) << key;
    }

    const Json::Member *ratios = root.find("ratios");
    ASSERT_NE(ratios, nullptr);
    ASSERT_EQ(ratios->value.kind, Json::Kind::Array);
    ASSERT_EQ(ratios->value.array.size(), 1u);
    const Json &ratio = ratios->value.array.front();
    EXPECT_EQ(ratio.find("name")->value.string, "kernel_cancel_churn");
    EXPECT_NE(ratio.find("pooled_vs_legacy_median"), nullptr);
    EXPECT_NE(ratio.find("pooled_vs_legacy_best"), nullptr);
}

// Pooled-vs-legacy equivalence: drive both kernels through identical
// randomized soups and require identical observable behavior.
struct Lcg
{
    std::uint64_t s;

    std::uint64_t
    next()
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return s >> 33;
    }
};

void
soup(std::uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Simulator pooled;
    LegacySimulator legacy;
    std::vector<int> pooledFired, legacyFired;
    std::map<int, std::pair<EventId, LegacyEventId>> live;
    Lcg rng{seed};
    int nextTag = 0;

    for (int step = 0; step < 10000; ++step) {
        switch (rng.next() % 8) {
        case 0:
        case 1:
        case 2:
        case 3:
        case 4: { // schedule the same event in both kernels
            const std::uint64_t r = rng.next();
            Duration d;
            if ((r & 3) == 0)
                d = static_cast<Duration>(r % 7); // ties
            else if ((r & 3) == 1)
                d = static_cast<Duration>(r % 100000000); // far
            else
                d = static_cast<Duration>(r % 5000); // near
            const int tag = nextTag++;
            live[tag] = {
                pooled.scheduleAfter(
                    d, [tag, &pooledFired] { pooledFired.push_back(tag); }),
                legacy.scheduleAfter(
                    d,
                    [tag, &legacyFired] { legacyFired.push_back(tag); })};
            break;
        }
        case 5: { // cancel a pseudo-random (possibly fired) tag
            if (live.empty())
                break;
            auto it = live.begin();
            std::advance(it, static_cast<std::ptrdiff_t>(
                                 rng.next() % live.size()));
            EXPECT_EQ(pooled.cancel(it->second.first),
                      legacy.cancel(it->second.second));
            live.erase(it);
            break;
        }
        default: { // identical sliced run
            const Time until = pooled.now() +
                               static_cast<Duration>(rng.next() % 20000);
            pooled.run(until);
            legacy.run(until);
            ASSERT_EQ(pooled.now(), legacy.now());
            ASSERT_EQ(pooled.pendingCount(), legacy.pendingCount());
            break;
        }
        }
    }
    pooled.run();
    legacy.run();
    EXPECT_EQ(pooledFired, legacyFired);
    EXPECT_EQ(pooled.now(), legacy.now());
    EXPECT_EQ(pooled.executedCount(), legacy.executedCount());
    EXPECT_EQ(pooled.pendingCount(), legacy.pendingCount());
}

TEST(PooledLegacyEquivalence, RandomSoupSeed1)
{
    soup(0x2545f4914f6cdd1dull);
}

TEST(PooledLegacyEquivalence, RandomSoupSeed2)
{
    soup(0x853c49e6748fea9bull);
}

TEST(PooledLegacyEquivalence, RandomSoupSeed3)
{
    soup(0xda942042e4dd58b5ull);
}

/** Spin (yielding) until @p flag is set; allocates nothing. */
void
waitFor(const std::atomic<bool> &flag)
{
    while (!flag.load(std::memory_order_acquire))
        std::this_thread::yield();
}

TEST(AllocCounters, ExactAcrossThreadsThatExitBeforeTheRead)
{
    constexpr int kThreads = 4;
    constexpr int kPerThread = 20000;
    auto sizeOf = [](int t, int k) {
        return static_cast<std::size_t>(1 + (t * 7919 + k * 31) % 512);
    };
    std::uint64_t expectBytes = 0;
    for (int t = 0; t < kThreads; ++t)
        for (int k = 0; k < kPerThread; ++k)
            expectBytes += sizeOf(t, k);

    // Threads are created (which allocates) before the first read; the
    // window between the reads holds only the workers' own pairs.
    std::atomic<bool> go{false};
    std::atomic<bool> release{false};
    std::atomic<int> finished{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            waitFor(go);
            for (int k = 0; k < kPerThread; ++k) {
                // Direct operator calls: a new-expression pair may be
                // elided by the optimizer, these may not.
                void *p = ::operator new(sizeOf(t, k));
                ::operator delete(p);
            }
            finished.fetch_add(1, std::memory_order_acq_rel);
            // Odd workers stay alive across the read; even ones exit.
            if (t % 2 == 1)
                waitFor(release);
        });
    }
    const AllocStats before = allocStatsNow();
    go.store(true, std::memory_order_release);

    // Concurrent reads never go backwards.
    AllocStats last = before;
    bool monotonic = true;
    while (finished.load(std::memory_order_acquire) < kThreads) {
        const AllocStats now = allocStatsNow();
        monotonic = monotonic && now.count >= last.count &&
                    now.bytes >= last.bytes;
        last = now;
    }
    for (int t = 0; t < kThreads; t += 2)
        workers[static_cast<std::size_t>(t)].join();
    const AllocStats mid = allocStatsNow();
    release.store(true, std::memory_order_release);
    for (int t = 1; t < kThreads; t += 2)
        workers[static_cast<std::size_t>(t)].join();
    const AllocStats after = allocStatsNow();

    EXPECT_TRUE(monotonic);
    const std::uint64_t expectCount =
        static_cast<std::uint64_t>(kThreads) * kPerThread;
    // Half the workers retired, half still live at the read.
    EXPECT_EQ(mid.count - before.count, expectCount);
    EXPECT_EQ(mid.bytes - before.bytes, expectBytes);
    // Retiring the rest moves their slots, it does not add to them.
    EXPECT_EQ(after.count - before.count, expectCount);
    EXPECT_EQ(after.bytes - before.bytes, expectBytes);
}

/**
 * Heap allocations per warmed-up cross-node ring allreduce (2 nodes x
 * 8 GPUs, 2 channels, 8 simulated rounds: 32 fabric flows and 32 NVLink
 * rounds per collective), measured. About 96 of them are the fabric's
 * own flow bookkeeping (three per flow); the rest are per collective:
 * the executor with its plan, slot and event tables, and the amortized
 * growth of the monitor's record queues. The ACCL hop path allocates
 * nothing, so one allocation per hop or per flow adds 32 or more and
 * fails this.
 */
constexpr std::uint64_t kAllocsPerAllReduceBudget = 128;

TEST(AllocBudget, CrossNodeRingAllReduce)
{
    testutil::AcclHarness h(2);
    const CommId comm = h.fullComm(2);
    int completed = 0;
    auto runOne = [&] {
        h.lib.postCollective(comm, accl::CollOp::AllReduce, mib(64),
                             [&](const accl::CollectiveResult &) {
                                 ++completed;
                             });
        h.sim.run();
    };
    // Warm up: connections, QP decisions and heartbeat rows are made
    // on first use, once per communicator.
    for (int i = 0; i < 4; ++i)
        runOne();

    constexpr int kRuns = 64;
    const AllocStats before = allocStatsNow();
    for (int i = 0; i < kRuns; ++i)
        runOne();
    const AllocStats after = allocStatsNow();

    ASSERT_EQ(completed, 4 + kRuns);
    const std::uint64_t perCollective = (after.count - before.count) / kRuns;
    EXPECT_LE(perCollective, kAllocsPerAllReduceBudget)
        << (after.count - before.count) << " allocations over " << kRuns
        << " allreduces";
}

} // namespace
} // namespace c4::perf
