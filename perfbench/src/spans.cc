#include "spans.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

namespace perfbench {

const char *
siteName(Site site)
{
    switch (site) {
      case Site::SpecParse: return "specio.parse";
      case Site::ClusterBuild: return "core.build";
      case Site::Admit: return "core.admit";
      case Site::Depart: return "core.depart";
      case Site::SimRun: return "sim.run";
      case Site::NetCall: return "net.call";
      case Site::AcclCall: return "accl.call";
      case Site::C4dIngest: return "c4d.ingest";
    }
    return "?";
}

namespace {

struct Record
{
    std::int64_t start = 0;
    std::int64_t end = -1; ///< -1 while the span is open
    std::int32_t parent = -1;
    std::int32_t trial = -1;
    Site site = Site::SimRun;
};

constexpr std::size_t kChunk = std::size_t{1} << 16;
constexpr std::size_t kMaxChunks = std::size_t{1} << 14;
constexpr int kMaxDepth = 64;
constexpr int kMaxThreads = 64;

/**
 * One thread's spans. Chunks and the log itself come from malloc and
 * live until exit, so recording never goes through operator new and
 * leaves the driver's allocation counts untouched.
 */
struct Log
{
    Record **chunks = nullptr;
    std::size_t size = 0;
    std::int32_t stack[kMaxDepth] = {};
    int depth = 0;
    std::int32_t trial = -1;

    Record &at(std::size_t i) { return chunks[i / kChunk][i % kChunk]; }
};

std::mutex gLogsMu;
Log *gLogs[kMaxThreads] = {}; // guarded by gLogsMu
int gLogCount = 0;            // guarded by gLogsMu

thread_local Log *tLog = nullptr;

[[noreturn]] void
die(const char *what)
{
    std::fprintf(stderr, "perfbench spans: %s\n", what);
    std::abort();
}

Log &
threadLog()
{
    if (tLog != nullptr)
        return *tLog;
    auto *log = static_cast<Log *>(std::calloc(1, sizeof(Log)));
    if (log == nullptr)
        die("out of memory");
    log->chunks =
        static_cast<Record **>(std::calloc(kMaxChunks, sizeof(Record *)));
    if (log->chunks == nullptr)
        die("out of memory");
    log->trial = -1;
    std::lock_guard<std::mutex> lock(gLogsMu);
    if (gLogCount == kMaxThreads)
        die("too many threads");
    gLogs[gLogCount++] = log;
    tLog = log;
    return *log;
}

[[maybe_unused]] std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

template <typename F>
void
forEachLog(F f)
{
    std::lock_guard<std::mutex> lock(gLogsMu);
    for (int i = 0; i < gLogCount; ++i)
        f(*gLogs[i]);
}

} // namespace

#ifdef PERFBENCH_TRACED
void
beginSpan(Site site)
{
    Log &log = threadLog();
    if (log.depth == kMaxDepth)
        die("span nesting too deep");
    const std::size_t idx = log.size;
    if (idx / kChunk >= kMaxChunks)
        die("span log full");
    if (log.chunks[idx / kChunk] == nullptr) {
        log.chunks[idx / kChunk] =
            static_cast<Record *>(std::malloc(kChunk * sizeof(Record)));
        if (log.chunks[idx / kChunk] == nullptr)
            die("out of memory");
    }
    ++log.size;
    Record &r = log.at(idx);
    r.site = site;
    r.trial = log.trial;
    r.parent = log.depth > 0 ? log.stack[log.depth - 1] : -1;
    r.end = -1;
    log.stack[log.depth++] = static_cast<std::int32_t>(idx);
    r.start = nowNs();
}

void
endSpan()
{
    const std::int64_t end = nowNs();
    Log &log = threadLog();
    if (log.depth == 0)
        die("span closed twice");
    log.at(static_cast<std::size_t>(log.stack[--log.depth])).end = end;
}
#endif

void
setTrial(int trial)
{
    if (kTraced)
        threadLog().trial = trial;
}

std::map<int, TrialTotals>
totalsByTrial()
{
    std::map<int, TrialTotals> out;
    forEachLog([&](Log &log) {
        std::vector<std::int64_t> childNs(log.size, 0);
        for (std::size_t i = 0; i < log.size; ++i) {
            const Record &r = log.at(i);
            if (r.end >= 0 && r.parent >= 0)
                childNs[static_cast<std::size_t>(r.parent)] +=
                    r.end - r.start;
        }
        for (std::size_t i = 0; i < log.size; ++i) {
            const Record &r = log.at(i);
            if (r.end < 0)
                continue;
            SiteTotals &t =
                out[r.trial][static_cast<std::size_t>(r.site)];
            ++t.calls;
            t.totalNs += r.end - r.start;
            t.selfNs += r.end - r.start - childNs[i];
        }
    });
    return out;
}

bool
writeSpans(const std::string &path, int lastTrial)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "# perfbench-spans/1: index trial site start_ns end_ns "
                    "parent (indexes count within one thread's block)\n");
    int thread = 0;
    forEachLog([&](Log &log) {
        std::fprintf(f, "thread %d\n", thread++);
        for (std::size_t i = 0; i < log.size; ++i) {
            const Record &r = log.at(i);
            if (r.trial > lastTrial)
                continue;
            std::fprintf(f, "%zu %d %s %lld %lld %d\n", i, r.trial,
                         siteName(r.site),
                         static_cast<long long>(r.start),
                         static_cast<long long>(r.end), r.parent);
        }
    });
    const bool ok = std::ferror(f) == 0;
    return std::fclose(f) == 0 && ok;
}

} // namespace perfbench
