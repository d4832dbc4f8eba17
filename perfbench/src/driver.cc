/**
 * @file
 * Benchmark driver: generates one workload's inputs from a seed, drives
 * them through the simulator's public APIs, writes the simulated
 * result rows (deterministic per seed) to files, and prints one JSON
 * summary of host timings, allocation deltas and (traced build only)
 * per-trial span totals. perfbench/run.py turns that into metrics.
 *
 *   perfbench_drv --workload te_failover|churn_c4|fanout --seed N
 *                 --trials K --threads T --out DIR
 *
 * Workloads (see perfbench/README.md for why each exists):
 *   te_failover  Fig. 12 shape as a generated spec file, parsed by
 *                specio and run by scenario::runSpecTrial: 8
 *                cross-segment allreduces, a trunk fails in flight,
 *                static_te and dynamic_lb variants.
 *   churn_c4     seed-generated job arrivals/departures driven through
 *                core::Cluster (addJob/start/removeJob/run) on a
 *                32-node pod under a compressed fault campaign.
 *   fanout       short churn_c4 trials as a custom-executor Scenario
 *                through one scenario::ScenarioRunner::run at T
 *                threads.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "common/random.h"
#include "core/cluster.h"
#include "counts.h"
#include "perf/perf.h"
#include "scenario/runner.h"
#include "scenario/workload.h"
#include "spans.h"
#include "specio/specio.h"

namespace {

using namespace c4;
using perfbench::Counts;
using perfbench::Site;
using perfbench::Span;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
num(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** One deterministic result row, rendered as a JSON object line. */
class Row
{
  public:
    Row &
    field(const char *key, const std::string &rendered)
    {
        text_ += text_.empty() ? "{" : ",";
        text_ += jsonStr(key) + ":" + rendered;
        return *this;
    }
    Row &
    field(const char *key, double v)
    {
        return field(key, num(v));
    }

    Row &
    field(const char *key, std::uint64_t v)
    {
        return field(key, num(v));
    }

    Row &
    field(const char *key, bool v)
    {
        return field(key, std::string(v ? "true" : "false"));
    }

    Row &
    counts(const Counts &c)
    {
        std::string s = "{";
        auto add = [&](const char *k, std::uint64_t v) {
            if (s.size() > 1)
                s += ",";
            s += jsonStr(k) + ":" + num(v);
        };
        add("sim_events", c.simEvents);
        add("flows_started", c.flowsStarted);
        add("flows_completed", c.flowsCompleted);
        add("recomputes", c.recomputes);
        add("recompute_ops", c.recomputeOps);
        add("collectives_posted", c.collectivesPosted);
        add("collectives_completed", c.collectivesCompleted);
        add("monitor_records", c.monitorRecords);
        add("monitor_dropped", c.monitorDropped);
        add("c4p_decisions", c.c4pDecisions);
        add("c4p_repins", c.c4pRepins);
        add("c4d_evaluations", c.c4dEvaluations);
        add("c4d_events", c.c4dEvents);
        add("restarts", c.restarts);
        add("isolations", c.isolations);
        add("faults", c.faults);
        add("broken_nodes", c.brokenNodes);
        return field("counts", s + "}");
    }

    std::string str() const { return text_ + "}"; }

  private:
    std::string text_;
};

/** Host-side measurements of one trial. */
struct TrialTiming
{
    int trial = 0;
    double wallS = 0.0;
    /** Host seconds of the trial's segments, in order; they sum to wallS.
     * The simulation is deterministic, so segment k does the same work
     * in every process that runs the trial. */
    std::vector<double> laps;
    std::uint64_t allocCount = 0;
    std::uint64_t allocBytes = 0;
};

/** One sweep over the trials at --threads. */
struct Pass
{
    int threads = 1;
    double wallS = 0.0;
    std::string rowsPath;
    std::vector<TrialTiming> trials;
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    int trials = 0;
    int threads = 1;
    std::string outDir;
};

/** Rows file: a header naming workload and seed, then one row per line. */
void
writeRows(const std::string &path, const Args &args,
          const std::vector<std::string> &rows)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "{\"schema\":\"perfbench-rows/1\",\"workload\":"
        << jsonStr(args.workload) << ",\"seed\":" << args.seed
        << ",\"trials\":" << args.trials << "}\n";
    for (const std::string &r : rows)
        out << r << "\n";
    out.flush();
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

constexpr int kSetupRepsAtStart = 5;

/**
 * Set-up samples: kSetupRepsAtStart before the first trial, then one
 * before each 1-thread trial, so they spread over the run the way the
 * trials do.
 */
class SetupSampler
{
  public:
    explicit SetupSampler(std::function<void()> setup)
        : setup_(std::move(setup))
    {
    }

    void
    sample()
    {
        perfbench::setTrial(-1);
        const Clock::time_point t0 = Clock::now();
        setup_();
        samples_.push_back(secondsSince(t0));
    }

    const std::vector<double> &samples() const { return samples_; }

  private:
    std::function<void()> setup_;
    std::vector<double> samples_;
};

/** The laps of the trial timed on this thread, and when the last ended. */
thread_local std::vector<double> *tLaps = nullptr;
thread_local Clock::time_point tLapStart;

/** Ends the current segment of the trial timed on this thread. */
void
lap()
{
    const Clock::time_point now = Clock::now();
    tLaps->push_back(std::chrono::duration<double>(now - tLapStart).count());
    tLapStart = now;
}

template <typename F>
TrialTiming
timeTrial(int trial, F body)
{
    perfbench::setTrial(trial);
    TrialTiming t;
    t.laps.reserve(256); // so lap() allocates nothing the trial counts
    const perf::AllocStats a0 = perf::allocStatsNow();
    const Clock::time_point t0 = Clock::now();
    tLaps = &t.laps;
    tLapStart = t0;
    body();
    lap();
    tLaps = nullptr;
    t.trial = trial;
    t.wallS = secondsSince(t0);
    const perf::AllocStats a1 = perf::allocStatsNow();
    t.allocCount = a1.count - a0.count;
    t.allocBytes = a1.bytes - a0.bytes;
    return t;
}

// --- te_failover ------------------------------------------------------

constexpr std::uint64_t kTeSalt = 0x7EFA11;

/** The Fig. 12 shape, shortened so a trunk fails while 150 allreduce
 * iterations are in flight; which trunk and when come from the seed. */
specio::SpecFile
teFailoverFile(std::uint64_t seed)
{
    Rng rng(deriveSeed(seed, kTeSalt));
    scenario::LinkEventSpec fail;
    fail.at = milliseconds(800.0 + static_cast<double>(
                                       rng.uniformInt(0, 400)));
    fail.segment = static_cast<int>(rng.uniformInt(0, 1));
    fail.plane = rng.uniformInt(0, 1) == 0 ? net::Plane::Left
                                           : net::Plane::Right;
    fail.spine = static_cast<int>(rng.uniformInt(0, 7));
    fail.up = false;

    specio::SpecFile file;
    file.name = "te_failover";
    file.seed = seed;
    for (bool dynamicLb : {false, true}) {
        scenario::ScenarioSpec spec;
        spec.variant = dynamicLb ? "dynamic_lb" : "static_te";
        spec.topology.nodesPerSegment = 8;
        spec.topology.nvlinkBusBandwidth = gbps(450);
        spec.features.c4p = true;
        spec.features.dynamicLoadBalance = dynamicLb;
        spec.features.qpsPerConnection = 2;
        scenario::AllreduceGroupSpec g;
        g.tasks = 8;
        g.placement =
            scenario::AllreduceGroupSpec::Placement::CrossSegmentPairs;
        g.bytes = mib(256);
        g.iterations = 150;
        spec.allreduces.push_back(g);
        spec.linkEvents.push_back(fail);
        spec.metrics.splitAt = fail.at;
        spec.metrics.perTask = false;
        spec.horizon = seconds(4);
        file.variants.push_back(spec);
    }
    return file;
}

/** Input generation, spec write + parse + validation, first build. */
std::vector<scenario::ScenarioSpec>
teFailoverSetup(std::uint64_t seed)
{
    const std::string text = specio::writeSpecFile(teFailoverFile(seed));
    std::vector<scenario::ScenarioSpec> variants;
    {
        Span span(Site::SpecParse);
        variants = specio::parseSpecFile(text).variants;
    }
    core::Cluster first(scenario::toClusterConfig(variants.front(), seed));
    return variants;
}

Pass
runTeFailover(const Args &args, SetupSampler &setup)
{
    const std::vector<scenario::ScenarioSpec> variants =
        teFailoverSetup(args.seed);
    scenario::RunOptions opt;
    opt.seed = args.seed;
    opt.seedSet = true;
    Pass pass;
    std::vector<std::string> rows;
    for (int i = 0; i < args.trials; ++i) {
        const std::uint64_t seed = scenario::trialSeed(args.seed, i);
        setup.sample();
        pass.trials.push_back(timeTrial(i, [&] {
            for (const scenario::ScenarioSpec &spec : variants) {
                Row row;
                row.field("trial", static_cast<std::uint64_t>(i))
                    .field("seed", seed)
                    .field("variant", jsonStr(spec.variant));
                scenario::TrialContext ctx(opt, seed, i);
                try {
                    scenario::runSpecTrial(spec, ctx);
                    lap();
                    const Counts &c = perfbench::lastRunCounts();
                    row.field("ok", true)
                        .field("horizon_reached", c.now >= spec.horizon);
                    for (const scenario::Metric &m : ctx.metrics())
                        row.field(m.name.c_str(), m.value);
                    row.counts(c);
                } catch (const std::exception &e) {
                    row.field("ok", false).field("error", jsonStr(e.what()));
                }
                rows.push_back(row.str());
            }
        }));
    }
    pass.rowsPath = args.outDir + "/rows.jsonl";
    writeRows(pass.rowsPath, args, rows);
    return pass;
}

// --- churn_c4 ---------------------------------------------------------

constexpr std::uint64_t kChurnSalt = 0xC4C7;

/** One seed-generated job: TP8 Llama-7B over 1, 2 or 4 nodes. */
struct Arrival
{
    Time at = 0;
    int nodes = 1;
    Duration residency = 0;
    std::uint64_t jobSeed = 0;
};

struct ChurnPlan
{
    Time horizon = 0;
    std::vector<Arrival> arrivals;
};

/** Shape of one churn trial: simulated horizon and job count. */
struct ChurnShape
{
    Duration horizon = 0;
    int jobs = 0;
};

/**
 * A balanced random schedule. Every trial admits the same jobs: sizes
 * 1, 2 and 4 nodes in turn, and within each size residencies spread
 * evenly over 25-50% of the horizon. The seed shuffles their order,
 * so it picks which job arrives in which slot; job k arrives at a
 * uniform time inside slot k of the first 60% of the horizon.
 * Balancing keeps the cost of one seed's trial set close to another's,
 * while each seed still orders the jobs and times their arrivals.
 */
ChurnPlan
churnPlan(std::uint64_t trialSeed, ChurnShape shape)
{
    Rng rng(deriveSeed(trialSeed, kChurnSalt));
    const int perSize = (shape.jobs + 2) / 3;
    std::vector<std::pair<int, double>> jobs; // (nodes, residency share)
    for (int k = 0; k < shape.jobs; ++k) {
        const double share = 0.25 + 0.25 * (k / 3 + 0.5) / perSize;
        jobs.emplace_back(1 << (k % 3), share);
    }
    for (std::size_t k = jobs.size(); k > 1; --k) {
        const auto pick = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(k) - 1));
        std::swap(jobs[k - 1], jobs[pick]);
    }
    const double slot =
        0.6 * static_cast<double>(shape.horizon) / shape.jobs;
    const double horizon = static_cast<double>(shape.horizon);
    ChurnPlan plan;
    plan.horizon = shape.horizon;
    for (int k = 0; k < shape.jobs; ++k) {
        const auto &[nodes, share] = jobs[static_cast<std::size_t>(k)];
        Arrival a;
        a.at = static_cast<Time>((k + rng.uniform()) * slot);
        a.nodes = nodes;
        a.residency = static_cast<Duration>(share * horizon);
        a.jobSeed = rng();
        plan.arrivals.push_back(a);
    }
    return plan;
}

core::ClusterConfig
churnConfig(std::uint64_t seed)
{
    core::ClusterConfig cc;
    cc.topology = core::productionPod(32);
    cc.enableC4d = true;
    cc.enableC4p = true;
    cc.c4d.evaluatePeriod = seconds(5);
    cc.c4d.hangThreshold = seconds(30);
    cc.steering.isolationDelay = minutes(1);
    cc.seed = seed;
    return cc;
}

/** Cluster build plus the C4 runtime: what precedes the first event. */
void
churnBringUp(core::Cluster &cluster)
{
    cluster.provisionBackupNodes(4);
    cluster.startRuntime();
}

struct ChurnResult
{
    bool horizonReached = false;
    std::uint64_t arrivals = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t departed = 0;
    std::uint64_t iterations = 0;
    std::uint64_t startFailures = 0;
    Counts counts;
};

ChurnResult
runChurnTrial(const ChurnPlan &plan, std::uint64_t seed)
{
    core::Cluster cluster(churnConfig(seed));
    churnBringUp(cluster);
    std::vector<NodeId> population;
    for (NodeId n = 0; n < cluster.topology().numNodes(); ++n)
        population.push_back(n);
    const net::Topology &topo = cluster.topology();
    cluster.faults().startCampaign(
        fault::FaultRates::paperJune2023().scaled(20000.0), population,
        topo.config().nicsPerNode, topo.gpusPerNode(),
        topo.numLeaves() * topo.numSpines(), plan.horizon);

    ChurnResult res;
    res.arrivals = plan.arrivals.size();
    auto settle = [&](train::TrainingJob &job) {
        res.iterations += job.iterationsCompleted();
        res.startFailures += job.startFailures();
    };
    // Departures are (time, job id); ties leave before anyone arrives.
    using Departure = std::pair<Time, JobId>;
    std::priority_queue<Departure, std::vector<Departure>,
                        std::greater<Departure>>
        departures;
    std::size_t next = 0;
    for (;;) {
        const Time arriveAt = next < plan.arrivals.size()
                                  ? plan.arrivals[next].at
                                  : kTimeNever;
        const Time departAt =
            departures.empty() ? kTimeNever : departures.top().first;
        const Time at = std::min(arriveAt, departAt);
        if (at >= plan.horizon)
            break;
        cluster.run(at);
        lap();
        if (departAt <= arriveAt) {
            const JobId id = departures.top().second;
            departures.pop();
            Span span(Site::Depart);
            if (train::TrainingJob *job = cluster.job(id)) {
                settle(*job);
                cluster.removeJob(id);
                ++res.departed;
            }
            continue;
        }
        const Arrival &a = plan.arrivals[next];
        const JobId id = static_cast<JobId>(++next);
        Span span(Site::Admit);
        // freeNodes() also counts broken nodes, which allocateNodes()
        // masks out, so only the allocation itself can refuse a job.
        train::JobConfig jc;
        try {
            jc.nodes = cluster.allocateNodes(a.nodes);
        } catch (const std::runtime_error &) {
            ++res.rejected;
            continue;
        }
        jc.id = id;
        jc.name = "churn" + std::to_string(id);
        jc.model = train::llama7b();
        jc.model.microbatchCompute = milliseconds(400);
        jc.parallel = {.tp = 8, .pp = 1, .dp = a.nodes};
        jc.microBatch = 4;
        jc.initTime = seconds(20);
        jc.dpGroupsSimulated = 1;
        jc.seed = a.jobSeed;
        cluster.addJob(jc).start();
        ++res.admitted;
        departures.push({a.at + a.residency, id});
    }
    cluster.run(plan.horizon);
    for (std::size_t n = 1; n <= next; ++n) {
        if (train::TrainingJob *job = cluster.job(static_cast<JobId>(n)))
            settle(*job);
    }
    res.counts = perfbench::readCounts(cluster);
    res.horizonReached = cluster.sim().now() == plan.horizon;
    return res;
}

Row
churnRow(int trial, std::uint64_t seed, const ChurnResult &r)
{
    Row row;
    row.field("trial", static_cast<std::uint64_t>(trial))
        .field("seed", seed)
        .field("ok", true)
        .field("horizon_reached", r.horizonReached)
        .field("arrivals", r.arrivals)
        .field("admitted", r.admitted)
        .field("rejected", r.rejected)
        .field("departed", r.departed)
        .field("iterations", r.iterations)
        .field("start_failures", r.startFailures)
        .counts(r.counts);
    return row;
}

Row
failedRow(int trial, std::uint64_t seed, const std::string &what)
{
    Row row;
    row.field("trial", static_cast<std::uint64_t>(trial))
        .field("seed", seed)
        .field("ok", false)
        .field("error", jsonStr(what));
    return row;
}

constexpr ChurnShape kChurnShape{minutes(6), 9};
constexpr ChurnShape kFanoutShape{minutes(3), 6};

/** Input generation, then the first cluster build with its runtime. */
void
churnSetup(std::uint64_t seed, ChurnShape shape)
{
    [[maybe_unused]] const ChurnPlan plan =
        churnPlan(scenario::trialSeed(seed, 0), shape);
    core::Cluster cluster(churnConfig(scenario::trialSeed(seed, 0)));
    churnBringUp(cluster);
}

Pass
runChurnC4(const Args &args, SetupSampler &setup)
{
    Pass pass;
    std::vector<std::string> rows;
    for (int i = 0; i < args.trials; ++i) {
        const std::uint64_t seed = scenario::trialSeed(args.seed, i);
        const ChurnPlan plan = churnPlan(seed, kChurnShape);
        setup.sample();
        pass.trials.push_back(timeTrial(i, [&] {
            try {
                rows.push_back(
                    churnRow(i, seed, runChurnTrial(plan, seed)).str());
            } catch (const std::exception &e) {
                rows.push_back(failedRow(i, seed, e.what()).str());
            }
        }));
    }
    pass.rowsPath = args.outDir + "/rows.jsonl";
    writeRows(pass.rowsPath, args, rows);
    return pass;
}

// --- fanout -----------------------------------------------------------

/** Collects the runner's ordered trial stream as rows. */
class RowSink : public scenario::ResultSink
{
  public:
    void
    trial(const scenario::TrialResult &r) override
    {
        auto it = rendered_.find(r.trial);
        rows_.push_back(it != rendered_.end()
                            ? it->second
                            : failedRow(r.trial, r.seed, "no row").str());
    }

    /** Called from trial workers. */
    void
    put(int trial, std::string row)
    {
        std::lock_guard<std::mutex> lock(mu_);
        rendered_[trial] = std::move(row);
    }

    const std::vector<std::string> &rows() const { return rows_; }

  private:
    std::mutex mu_;
    std::map<int, std::string> rendered_; // guarded by mu_
    std::vector<std::string> rows_;
};

/** Run every trial through one ScenarioRunner::run at --threads. */
Pass
runFanout(const Args &args, SetupSampler &setup)
{
    const int threads = args.threads;
    Pass pass;
    pass.threads = threads;
    RowSink sink;
    pass.trials.resize(static_cast<std::size_t>(args.trials));
    scenario::Scenario sc;
    sc.name = "fanout";
    sc.variants = [&](const scenario::RunOptions &) {
        scenario::ScenarioSpec spec;
        spec.variant = "pod32";
        spec.custom = [&](scenario::TrialContext &ctx) {
            const ChurnPlan plan = churnPlan(ctx.seed, kFanoutShape);
            if (threads == 1)
                setup.sample();
            pass.trials[static_cast<std::size_t>(ctx.trial)] =
                timeTrial(ctx.trial, [&] {
                    try {
                        sink.put(ctx.trial,
                                 churnRow(ctx.trial, ctx.seed,
                                          runChurnTrial(plan, ctx.seed))
                                     .str());
                    } catch (const std::exception &e) {
                        sink.put(ctx.trial,
                                 failedRow(ctx.trial, ctx.seed, e.what())
                                     .str());
                    }
                });
        };
        return std::vector<scenario::ScenarioSpec>{spec};
    };
    scenario::RunOptions opt;
    opt.trials = args.trials;
    opt.threads = threads;
    opt.seed = args.seed;
    opt.seedSet = true;
    scenario::ScenarioRunner runner(opt);
    runner.addSink(sink);
    const Clock::time_point t0 = Clock::now();
    const int rc = runner.run(sc);
    pass.wallS = secondsSince(t0);
    if (rc != 0)
        throw std::runtime_error("fanout: scenario runner failed");
    pass.rowsPath = args.outDir + "/rows-" + std::to_string(threads) +
                    "t.jsonl";
    writeRows(pass.rowsPath, args, sink.rows());
    return pass;
}

// --- driver -----------------------------------------------------------

std::uint64_t
peakRssKb()
{
    struct rusage usage = {};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
    return static_cast<std::uint64_t>(usage.ru_maxrss);
}

std::string
lapsJson(const TrialTiming &t)
{
    std::string s;
    for (std::size_t i = 0; i < t.laps.size(); ++i) {
        if (i > 0)
            s += ',';
        s += num(t.laps[i]);
    }
    return s;
}

std::string
passJson(const Pass &p)
{
    std::string s = "{\"threads\":" + std::to_string(p.threads) +
                    ",\"wall_s\":" + num(p.wallS) +
                    ",\"rows\":" + jsonStr(p.rowsPath) + ",\"trials\":[";
    for (std::size_t i = 0; i < p.trials.size(); ++i) {
        const TrialTiming &t = p.trials[i];
        s += (i ? "," : "");
        s += "{\"trial\":" + std::to_string(t.trial) +
             ",\"wall_s\":" + num(t.wallS) + ",\"laps\":[" + lapsJson(t) +
             "]" +
             ",\"alloc_count\":" + num(t.allocCount) +
             ",\"alloc_bytes\":" + num(t.allocBytes) + "}";
    }
    return s + "]}";
}

std::string
sitesJson()
{
    std::string s = "{";
    bool firstTrial = true;
    for (const auto &[trial, totals] : perfbench::totalsByTrial()) {
        s += (firstTrial ? "" : ",");
        firstTrial = false;
        s += jsonStr(std::to_string(trial)) + ":{";
        bool firstSite = true;
        for (std::size_t i = 0; i < perfbench::kSiteCount; ++i) {
            const perfbench::SiteTotals &t = totals[i];
            if (t.calls == 0)
                continue;
            s += (firstSite ? "" : ",");
            firstSite = false;
            s += jsonStr(perfbench::siteName(static_cast<Site>(i))) +
                 ":[" + num(t.calls) + "," +
                 num(static_cast<double>(t.totalNs) * 1e-9) + "," +
                 num(static_cast<double>(t.selfNs) * 1e-9) + "]";
        }
        s += "}";
    }
    return s + "}";
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_drv: %s\nusage: perfbench_drv --workload "
                 "te_failover|churn_c4|fanout --seed N --trials K "
                 "--threads T --out DIR\n",
                 msg);
    return 2;
}

bool
parseInt(const char *text, long long lo, long long hi, long long &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtoll(text, &end, 10);
    return errno == 0 && end != text && *end == '\0' && out >= lo &&
           out <= hi;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        long long v = 0;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--out") {
            args.outDir = value;
        } else if (flag == "--seed") {
            char *end = nullptr;
            errno = 0;
            args.seed = std::strtoull(value, &end, 0);
            if (errno != 0 || end == value || *end != '\0')
                return usage("bad --seed");
        } else if (flag == "--trials" && parseInt(value, 1, 100000, v)) {
            args.trials = static_cast<int>(v);
        } else if (flag == "--threads" && parseInt(value, 1, 64, v)) {
            args.threads = static_cast<int>(v);
        } else {
            return usage(("bad flag or value: " + flag).c_str());
        }
    }
    if (args.trials == 0 || args.outDir.empty())
        return usage("--trials and --out are required");
    const bool te = args.workload == "te_failover";
    const bool churn = args.workload == "churn_c4";
    const bool fanout = args.workload == "fanout";
    if (!te && !churn && !fanout)
        return usage("unknown workload");

    try {
        std::filesystem::create_directories(args.outDir);

        SetupSampler setup([&] {
            if (te)
                teFailoverSetup(args.seed);
            else
                churnSetup(args.seed, churn ? kChurnShape : kFanoutShape);
        });
        for (int r = 0; r < kSetupRepsAtStart; ++r)
            setup.sample();

        Pass pass = te      ? runTeFailover(args, setup)
                    : churn ? runChurnC4(args, setup)
                            : runFanout(args, setup);
        if (pass.wallS == 0.0) {
            for (const TrialTiming &t : pass.trials)
                pass.wallS += t.wallS;
        }

        std::string out =
            "{\"schema\":\"perfbench-driver/1\",\"workload\":" +
            jsonStr(args.workload) + ",\"seed\":" + num(args.seed) +
            ",\"traced\":" + (perfbench::kTraced ? "true" : "false") +
            ",\"setup_s\":[";
        for (std::size_t i = 0; i < setup.samples().size(); ++i)
            out += (i ? "," : "") + num(setup.samples()[i]);
        out += "],\"peak_rss_kb\":" + num(peakRssKb()) +
               ",\"passes\":[" + passJson(pass) + "]";
        if (perfbench::kTraced) {
            const std::string spans = args.outDir + "/spans.txt";
            if (!perfbench::writeSpans(spans, 0))
                throw std::runtime_error("cannot write " + spans);
            out += ",\"spans\":" + jsonStr(spans) +
                   ",\"sites\":" + sitesJson();
        }
        std::printf("%s}\n", out.c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_drv: %s\n", e.what());
        return 1;
    }
    return 0;
}
