#include "perf/perf.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>

#include <sys/resource.h>

#include "common/json.h"
#include "net/fabric.h"
#include "perf/legacy_kernel.h"
#include "scenario/registry.h"
#include "scenario/workload.h"
#include "sim/simulator.h"

namespace c4::perf {
namespace {

using Clock = std::chrono::steady_clock;

/** Deterministic splitmix-style stream; the harness must schedule the
 * same event sequence on both kernels and on every machine. */
struct Lcg
{
    std::uint64_t s = 0x853c49e6748fea9bull;

    std::uint64_t
    next()
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return s >> 33;
    }
};

/**
 * Mixed-horizon delay stream: 7/8 short (1–17 us, the flow-completion
 * scale) and 1/8 long (1–17 ms, the timer/checkpoint scale). Matches
 * the timestamp structure real scenarios produce — mostly near-future
 * events with a long-tail pending population of far timers — rather
 * than an artificially tie-heavy uniform range.
 */
Duration
mixedDelay(Lcg &rng)
{
    const std::uint64_t r = rng.next();
    if ((r & 7) != 0)
        return static_cast<Duration>(r % 16000 + 1000);
    return static_cast<Duration>(r % 16000000 + 1000000);
}

/**
 * Self-rescheduling ticker. Trivially copyable and 32 bytes, so the
 * pooled kernel stores it inline while std::function (legacy) must
 * heap-allocate it — exactly the asymmetry real capture lists hit.
 */
template <typename Kernel>
struct Ticker
{
    Kernel *kernel;
    Lcg *rng;
    std::uint64_t *remaining;
    std::uint64_t salt; // pads the capture to a realistic size

    void
    operator()() const
    {
        if (*remaining == 0)
            return;
        --*remaining;
        kernel->scheduleAfter(mixedDelay(*rng), *this);
    }
};

/** Steady-state schedule/fire throughput at a pinned population. */
template <typename Kernel>
std::uint64_t
runSchedFire(std::uint64_t events)
{
    constexpr std::size_t kPopulation = 1024;
    Kernel kernel;
    Lcg rng;
    std::uint64_t remaining = events;
    const Ticker<Kernel> ticker{&kernel, &rng, &remaining, 0x5a5a5a5aull};
    for (std::size_t i = 0; i < kPopulation; ++i)
        kernel.scheduleAt(static_cast<Time>(rng.next() % 1000000),
                          ticker);
    kernel.run();
    return kernel.executedCount();
}

/**
 * Watchdog churn: a ring of far-future timers that are almost always
 * cancelled and rearmed before coming due, with a sliced run() every
 * 64 ops — the hang-watchdog / failure-timeout pattern in train:: and
 * c4d::, and the dominant event-kernel traffic under job churn.
 */
template <typename Kernel>
void
runCancelChurn(std::uint64_t ops)
{
    constexpr std::size_t kRing = 1024;
    Kernel kernel;
    Lcg rng;
    std::vector<decltype(kernel.scheduleAt(0, [] {}))> ring(kRing);
    for (std::size_t i = 0; i < kRing; ++i)
        ring[i] = kernel.scheduleAt(
            static_cast<Time>(5000000 + rng.next() % 5000000), [] {});
    for (std::uint64_t i = 0; i < ops; ++i) {
        kernel.cancel(ring[i % kRing]);
        ring[i % kRing] = kernel.scheduleAt(
            kernel.now() + 5000000 +
                static_cast<Duration>(rng.next() % 5000000),
            [] {});
        if (i % 64 == 0)
            kernel.run(kernel.now() + 20000);
    }
    kernel.run();
}

/** Burst-drain: schedule everything, then drain — the spike shape of
 * collective-round completion storms (and the classic DES stressor). */
template <typename Kernel>
void
runBurstDrain(std::uint64_t events)
{
    Kernel kernel;
    Lcg rng;
    std::uint64_t fired = 0;
    for (std::uint64_t i = 0; i < events; ++i)
        kernel.scheduleAt(static_cast<Time>(rng.next() % 10000000),
                          [&fired] { ++fired; });
    kernel.run();
}

/** Wall clock of the fabric's incremental recompute under repeated
 * trunk-link flaps (the micro_core fabric_realloc shape). */
void
runFabricRecompute(std::uint64_t toggles)
{
    constexpr int kFlows = 256;
    net::TopologyConfig tc;
    tc.numNodes = 64;
    tc.nodesPerSegment = 4;
    net::Topology topo(tc);
    Simulator sim;
    net::FabricConfig fc;
    fc.congestionJitter = false;
    net::Fabric fabric(sim, topo, fc);

    std::uint32_t label = 0;
    for (int i = 0; i < kFlows; ++i) {
        net::PathRequest req;
        req.srcNode = i % 32;
        req.srcNic = i % 8;
        req.dstNode = 32 + (i % 32);
        req.dstNic = i % 8;
        req.flowLabel = ++label;
        fabric.startFlow(req, gib(100), nullptr);
    }
    (void)fabric.flowRate(1); // force one consistent allocation

    for (std::uint64_t r = 0; r < toggles; ++r) {
        fabric.setLinkUp(topo.trunkUplink(0, 0), false);
        (void)fabric.linkThroughput(0);
        fabric.setLinkUp(topo.trunkUplink(0, 0), true);
        (void)fabric.linkThroughput(0);
    }
}

/** One smoke trial of the churn_multijob scenario, end to end. */
void
runChurnMultijobSmoke()
{
    const scenario::Scenario *sc =
        scenario::Registry::instance().find("churn_multijob");
    if (sc == nullptr)
        throw std::runtime_error(
            "churn_multijob scenario not linked into this binary");
    scenario::RunOptions opt;
    opt.smoke = true;
    const auto variants = sc->variants(opt);
    if (variants.empty())
        throw std::runtime_error("churn_multijob produced no variants");
    const scenario::ScenarioSpec &spec = variants.front();
    scenario::TrialContext ctx(opt, sc->seed, 0);
    if (spec.custom)
        spec.custom(ctx);
    else
        scenario::runSpecTrial(spec, ctx);
}

struct Workload
{
    const char *name;
    std::uint64_t itemsFull;
    std::uint64_t itemsSmoke;
    std::function<void(std::uint64_t items)> fn;
};

std::vector<Workload>
workloadSet()
{
    return {
        {"kernel_sched_fire_pooled", 2000000, 100000,
         [](std::uint64_t n) { runSchedFire<Simulator>(n); }},
        {"kernel_sched_fire_legacy", 2000000, 100000,
         [](std::uint64_t n) { runSchedFire<LegacySimulator>(n); }},
        {"kernel_cancel_churn_pooled", 2000000, 100000,
         [](std::uint64_t n) { runCancelChurn<Simulator>(n); }},
        {"kernel_cancel_churn_legacy", 2000000, 100000,
         [](std::uint64_t n) { runCancelChurn<LegacySimulator>(n); }},
        {"kernel_burst_drain_pooled", 500000, 50000,
         [](std::uint64_t n) { runBurstDrain<Simulator>(n); }},
        {"kernel_burst_drain_legacy", 500000, 50000,
         [](std::uint64_t n) { runBurstDrain<LegacySimulator>(n); }},
        {"scenario_fabric_recompute", 200, 10,
         [](std::uint64_t n) { runFabricRecompute(n); }},
        {"scenario_churn_multijob_smoke", 1, 1,
         [](std::uint64_t) { runChurnMultijobSmoke(); }},
    };
}

/** ru_maxrss: the process heap high-water mark, in KiB on Linux. */
std::uint64_t
peakRssKbNow()
{
    struct rusage usage = {};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
    return static_cast<std::uint64_t>(usage.ru_maxrss);
}

/** Lower median: for an even count it keeps the value of an actually
 * observed rep (and an integer statistic integral). */
template <typename T>
T
medianOf(std::vector<T> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n == 0)
        return T{};
    return v[(n - 1) / 2];
}

/** One workload and its per-rep measurements. */
struct Samples
{
    const Workload *w = nullptr;
    std::uint64_t items = 0;
    std::vector<std::uint64_t> ns;
    std::vector<std::uint64_t> allocCounts;
    std::vector<std::uint64_t> allocBytes;

    /** Run one timed rep, recording its wall time and heap traffic. */
    void
    timeRep()
    {
        const AllocStats before = allocStatsNow();
        const auto start = Clock::now();
        w->fn(items);
        const auto elapsed = Clock::now() - start;
        const AllocStats after = allocStatsNow();
        ns.push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()));
        allocCounts.push_back(after.count - before.count);
        allocBytes.push_back(after.bytes - before.bytes);
    }

    WorkloadResult
    summarize(int warmup) const
    {
        WorkloadResult r;
        r.name = w->name;
        r.reps = static_cast<int>(ns.size());
        r.warmup = warmup;
        r.itemsPerRep = items;
        r.medianNs = medianOf(ns);
        r.minNs = *std::min_element(ns.begin(), ns.end());
        r.itemsPerSecMedian = r.medianNs > 0
                                  ? static_cast<double>(items) * 1e9 /
                                        static_cast<double>(r.medianNs)
                                  : 0.0;
        r.itemsPerSecBest = r.minNs > 0
                                ? static_cast<double>(items) * 1e9 /
                                      static_cast<double>(r.minNs)
                                : 0.0;
        // Medians keep a one-off lazy initialization (first use of a
        // static, an arena growth) in an early rep from skewing the
        // reported steady-state heap traffic.
        r.allocCount = medianOf(allocCounts);
        r.allocBytes = medianOf(allocBytes);
        r.peakRssKb = peakRssKbNow();
        return r;
    }
};

/** The shared stem if @p a is "<stem>_pooled" and @p b is
 * "<stem>_legacy", else empty. */
std::string
pairStem(const std::string &a, const std::string &b)
{
    const std::string suffix = "_pooled";
    if (a.size() <= suffix.size() ||
        a.compare(a.size() - suffix.size(), suffix.size(), suffix) != 0)
        return {};
    std::string stem = a.substr(0, a.size() - suffix.size());
    return b == stem + "_legacy" ? stem : std::string();
}

} // namespace

PerfReport
runPerf(const PerfOptions &opt)
{
    std::vector<Workload> selected;
    for (Workload &w : workloadSet()) {
        if (opt.only.empty() ||
            std::string(w.name).find(opt.only) != std::string::npos)
            selected.push_back(std::move(w));
    }

    PerfReport report;
    for (std::size_t i = 0; i < selected.size();) {
        // A *_pooled workload and the *_legacy one listed after it run
        // their reps alternately, so a slow phase of the host slows
        // both halves of a rep alike and the per-rep ratio cancels it.
        const std::string stem =
            i + 1 < selected.size()
                ? pairStem(selected[i].name, selected[i + 1].name)
                : std::string();
        std::vector<Samples> group(stem.empty() ? 1 : 2);
        for (std::size_t k = 0; k < group.size(); ++k) {
            group[k].w = &selected[i + k];
            group[k].items = opt.smoke ? selected[i + k].itemsSmoke
                                       : selected[i + k].itemsFull;
        }
        i += group.size();
        for (int rep = 0; rep < opt.warmup; ++rep) {
            for (const Samples &g : group)
                g.w->fn(g.items);
        }
        for (int rep = 0; rep < std::max(opt.reps, 1); ++rep) {
            for (Samples &g : group)
                g.timeRep();
        }
        for (const Samples &g : group)
            report.workloads.push_back(g.summarize(opt.warmup));
        if (stem.empty())
            continue;

        // Per rep: pooled items/s over legacy items/s.
        auto rate = [](const Samples &g, std::size_t rep) {
            return static_cast<double>(g.items) /
                   static_cast<double>(g.ns[rep]);
        };
        std::vector<double> perRep;
        for (std::size_t r = 0; r < group[0].ns.size(); ++r) {
            if (group[0].ns[r] > 0 && group[1].ns[r] > 0)
                perRep.push_back(rate(group[0], r) / rate(group[1], r));
        }
        const WorkloadResult &pooled = report.workloads.end()[-2];
        const WorkloadResult &legacy = report.workloads.end()[-1];
        KernelRatio ratio;
        ratio.name = stem;
        ratio.speedupMedian = medianOf(std::move(perRep));
        if (legacy.itemsPerSecBest > 0)
            ratio.speedupBest =
                pooled.itemsPerSecBest / legacy.itemsPerSecBest;
        report.ratios.push_back(std::move(ratio));
    }
    return report;
}

std::string
perfReportJson(const PerfReport &report, const PerfOptions &opt)
{
    Json root;
    root.kind = Json::Kind::Object;
    auto member = [](std::string key, Json value) {
        Json::Member m;
        m.key = std::move(key);
        m.value = std::move(value);
        return m;
    };
    auto str = [](std::string v) {
        Json j;
        j.kind = Json::Kind::String;
        j.string = std::move(v);
        return j;
    };
    auto integer = [](std::uint64_t v) {
        Json j;
        j.kind = Json::Kind::Int;
        j.integer = static_cast<std::int64_t>(v);
        return j;
    };
    auto dbl = [](double v) {
        Json j;
        j.kind = Json::Kind::Double;
        j.number = v;
        return j;
    };

    root.object.push_back(member("schema", str("c4perf/2")));
    root.object.push_back(
        member("mode", str(opt.smoke ? "smoke" : "full")));

    Json workloads;
    workloads.kind = Json::Kind::Array;
    for (const WorkloadResult &r : report.workloads) {
        Json w;
        w.kind = Json::Kind::Object;
        w.object.push_back(member("name", str(r.name)));
        w.object.push_back(member("reps", integer(
                                              static_cast<std::uint64_t>(
                                                  r.reps))));
        w.object.push_back(
            member("warmup",
                   integer(static_cast<std::uint64_t>(r.warmup))));
        w.object.push_back(
            member("items_per_rep", integer(r.itemsPerRep)));
        w.object.push_back(member("median_ns", integer(r.medianNs)));
        w.object.push_back(member("min_ns", integer(r.minNs)));
        w.object.push_back(
            member("items_per_sec_median", dbl(r.itemsPerSecMedian)));
        w.object.push_back(
            member("items_per_sec_best", dbl(r.itemsPerSecBest)));
        // c4perf/2 memory columns.
        w.object.push_back(
            member("alloc_count", integer(r.allocCount)));
        w.object.push_back(
            member("alloc_bytes", integer(r.allocBytes)));
        w.object.push_back(
            member("peak_rss_kb", integer(r.peakRssKb)));
        workloads.array.push_back(std::move(w));
    }
    root.object.push_back(member("workloads", std::move(workloads)));

    Json ratios;
    ratios.kind = Json::Kind::Array;
    for (const KernelRatio &r : report.ratios) {
        Json j;
        j.kind = Json::Kind::Object;
        j.object.push_back(member("name", str(r.name)));
        j.object.push_back(
            member("pooled_vs_legacy_median", dbl(r.speedupMedian)));
        j.object.push_back(
            member("pooled_vs_legacy_best", dbl(r.speedupBest)));
        ratios.array.push_back(std::move(j));
    }
    root.object.push_back(member("ratios", std::move(ratios)));
    return writeJson(root) + "\n";
}

std::string
perfReportText(const PerfReport &report)
{
    std::ostringstream out;
    char line[256];
    std::snprintf(line, sizeof line,
                  "%-32s %10s %14s %14s %14s %12s %12s\n", "workload",
                  "items/rep", "median ms", "min ms", "items/s (med)",
                  "allocs/rep", "rss KiB");
    out << line;
    for (const WorkloadResult &r : report.workloads) {
        std::snprintf(
            line, sizeof line,
            "%-32s %10llu %14.3f %14.3f %14.0f %12llu %12llu\n",
            r.name.c_str(),
            static_cast<unsigned long long>(r.itemsPerRep),
            static_cast<double>(r.medianNs) / 1e6,
            static_cast<double>(r.minNs) / 1e6, r.itemsPerSecMedian,
            static_cast<unsigned long long>(r.allocCount),
            static_cast<unsigned long long>(r.peakRssKb));
        out << line;
    }
    for (const KernelRatio &r : report.ratios) {
        std::snprintf(line, sizeof line,
                      "%-32s pooled/legacy speedup: %.2fx median, "
                      "%.2fx best\n",
                      r.name.c_str(), r.speedupMedian, r.speedupBest);
        out << line;
    }
    return out.str();
}

int
perfMain(int argc, char **argv)
{
    PerfOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "c4bench: %s needs a value\n",
                             flag);
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--perf") {
            continue;
        } else if (arg == "--smoke") {
            opt.smoke = true;
        } else if (arg == "--perf-json") {
            const char *v = value("--perf-json");
            if (v == nullptr)
                return 2;
            opt.jsonPath = v;
        } else if (arg == "--perf-reps") {
            const char *v = value("--perf-reps");
            if (v == nullptr)
                return 2;
            opt.reps = std::atoi(v);
            if (opt.reps < 1) {
                std::fprintf(stderr,
                             "c4bench: --perf-reps must be >= 1\n");
                return 2;
            }
        } else if (arg == "--perf-warmup") {
            const char *v = value("--perf-warmup");
            if (v == nullptr)
                return 2;
            opt.warmup = std::atoi(v);
            if (opt.warmup < 0) {
                std::fprintf(stderr,
                             "c4bench: --perf-warmup must be >= 0\n");
                return 2;
            }
        } else if (arg == "--perf-only") {
            const char *v = value("--perf-only");
            if (v == nullptr)
                return 2;
            opt.only = v;
        } else {
            std::fprintf(stderr,
                         "c4bench: unknown --perf flag '%s' "
                         "(flags: --smoke --perf-json FILE --perf-reps "
                         "N --perf-warmup N --perf-only SUBSTR)\n",
                         arg.c_str());
            return 2;
        }
    }

    PerfReport report;
    try {
        report = runPerf(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "c4bench --perf: %s\n", e.what());
        return 1;
    }
    if (report.workloads.empty()) {
        std::fprintf(stderr,
                     "c4bench --perf: no workload matches '%s'\n",
                     opt.only.c_str());
        return 1;
    }
    std::fputs(perfReportText(report).c_str(), stdout);
    if (!opt.jsonPath.empty()) {
        std::ofstream out(opt.jsonPath, std::ios::binary);
        if (!out) {
            std::fprintf(stderr,
                         "c4bench --perf: cannot write '%s'\n",
                         opt.jsonPath.c_str());
            return 1;
        }
        out << perfReportJson(report, opt);
    }
    return 0;
}

} // namespace c4::perf
