#include "trace/analyze.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/stats.h"
#include "trace/export.h"

namespace c4::trace {

namespace {

namespace fs = std::filesystem;

std::string
readFile(const std::string &path)
{
    // An ifstream on a directory opens fine but reads zero bytes,
    // which would make `diff <dir> <dir>` report "identical: 0 event
    // line(s)" instead of failing.
    if (!fs::is_regular_file(path))
        throw std::runtime_error("'" + path + "' is not a trace file");
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        const std::size_t nl = text.find('\n', start);
        const std::size_t end =
            nl == std::string::npos ? text.size() : nl;
        lines.push_back(text.substr(start, end - start));
        if (nl == std::string::npos)
            break;
        start = nl + 1;
    }
    return lines;
}

std::string
formatTime(Time when)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9f",
                  static_cast<double>(when) / 1e9);
    return buf;
}

/** Short tag for interleaved timelines: the file name sans .jsonl. */
std::string
fileTag(const std::string &path)
{
    std::string name = fs::path(path).filename().string();
    const std::string suffix = ".jsonl";
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(),
                     suffix) == 0) {
        name.resize(name.size() - suffix.size());
    }
    return name;
}

void
describeEvent(const Event &ev, std::ostream &out)
{
    out << eventKindName(ev.kind);
    if (ev.job != kInvalidId)
        out << " job=" << ev.job;
    if (ev.node != kInvalidId)
        out << " node=" << ev.node;
    if (ev.a != 0)
        out << " a=" << ev.a;
    if (ev.b != 0)
        out << " b=" << ev.b;
    if (ev.value != 0.0)
        out << " v=" << formatJsonDouble(ev.value);
    if (!ev.detail.empty())
        out << " [" << ev.detail << "]";
}

} // namespace

std::vector<std::string>
collectTraceFiles(const std::string &path)
{
    std::vector<std::string> files;
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
        for (const auto &entry :
             fs::recursive_directory_iterator(path)) {
            if (entry.is_regular_file() &&
                entry.path().extension() == ".jsonl") {
                files.push_back(entry.path().string());
            }
        }
        std::sort(files.begin(), files.end());
        if (files.empty()) {
            throw std::runtime_error("no *.jsonl trace files under '" +
                                     path + "'");
        }
    } else if (fs::is_regular_file(path, ec)) {
        files.push_back(path);
    } else {
        throw std::runtime_error("no trace file or directory at '" +
                                 path + "'");
    }
    return files;
}

TraceFile
loadTraceFile(const std::string &path)
{
    TraceFile tf;
    tf.path = path;
    try {
        tf.events = parseJsonl(readFile(path));
    } catch (const SpecError &e) {
        throw std::runtime_error(path + ": " + e.what());
    }
    return tf;
}

void
printSummary(const std::vector<TraceFile> &traces, std::ostream &out)
{
    std::uint64_t counts[kNumEventKinds] = {};
    Summary values[kNumEventKinds];
    std::size_t total = 0;

    // (cost, when, file) triples of recompute_end events.
    struct Cost
    {
        double ops;
        Time when;
        const std::string *path;
    };
    std::vector<Cost> recomputes;

    for (const TraceFile &tf : traces) {
        total += tf.events.size();
        for (const Event &ev : tf.events) {
            const int k = static_cast<int>(ev.kind);
            ++counts[k];
            values[k].add(ev.value);
            if (ev.kind == EventKind::RecomputeEnd)
                recomputes.push_back({ev.value, ev.when, &tf.path});
        }
    }

    out << traces.size() << " trace file(s), " << total
        << " event(s)\n\n";
    out << "  kind                    count     v_mean      v_max\n";
    for (int k = 0; k < kNumEventKinds; ++k) {
        if (counts[k] == 0)
            continue;
        char line[128];
        std::snprintf(line, sizeof(line),
                      "  %-20s %8llu %10.4g %10.4g\n",
                      eventKindName(static_cast<EventKind>(k)),
                      static_cast<unsigned long long>(counts[k]),
                      values[k].mean(), values[k].max());
        out << line;
    }

    // Per-kind value distribution for the measurement-carrying kinds.
    for (int k = 0; k < kNumEventKinds; ++k) {
        const Summary &s = values[k];
        if (counts[k] < 8 || s.min() == s.max())
            continue;
        // Buckets cover [lo, hi): nudge hi up so max-valued samples
        // land in the last bucket instead of the overflow bin.
        Histogram h(s.min(),
                    std::nextafter(s.max(),
                                   std::numeric_limits<double>::max()),
                    8);
        for (double v : s.samples())
            h.add(v);
        out << "\n  " << eventKindName(static_cast<EventKind>(k))
            << " value distribution (p50="
            << formatJsonDouble(s.median())
            << ", p95=" << formatJsonDouble(s.percentile(95))
            << "):\n";
        std::istringstream bars(h.str(30));
        std::string barLine;
        while (std::getline(bars, barLine))
            out << "    " << barLine << "\n";
    }

    if (!recomputes.empty()) {
        std::stable_sort(recomputes.begin(), recomputes.end(),
                         [](const Cost &x, const Cost &y) {
                             return x.ops > y.ops;
                         });
        out << "\n  costliest fabric recomputes (filling ops):\n";
        const std::size_t n =
            std::min<std::size_t>(5, recomputes.size());
        for (std::size_t i = 0; i < n; ++i) {
            out << "    t=" << formatTime(recomputes[i].when)
                << "s ops=" << formatJsonDouble(recomputes[i].ops)
                << "  (" << fileTag(*recomputes[i].path) << ")\n";
        }
    }
}

void
printTimeline(const std::vector<TraceFile> &traces, std::ostream &out)
{
    // K-way stable merge by (simulated time, file order): events
    // inside one trace are already in emission order.
    std::vector<std::size_t> cursor(traces.size(), 0);
    const bool tagged = traces.size() > 1;
    for (;;) {
        std::size_t best = traces.size();
        for (std::size_t f = 0; f < traces.size(); ++f) {
            if (cursor[f] >= traces[f].events.size())
                continue;
            if (best == traces.size() ||
                traces[f].events[cursor[f]].when <
                    traces[best].events[cursor[best]].when) {
                best = f;
            }
        }
        if (best == traces.size())
            break;
        const Event &ev = traces[best].events[cursor[best]++];
        out << "t=" << formatTime(ev.when) << "s  ";
        if (tagged)
            out << "[" << fileTag(traces[best].path) << "] ";
        describeEvent(ev, out);
        out << "\n";
    }
}

int
diffTraces(const std::string &pathA, const std::string &pathB,
           std::ostream &out, int context)
{
    const std::vector<std::string> a = splitLines(readFile(pathA));
    const std::vector<std::string> b = splitLines(readFile(pathB));
    const std::size_t n = std::min(a.size(), b.size());
    std::size_t div = n;
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i] != b[i]) {
            div = i;
            break;
        }
    }
    if (div == n && a.size() == b.size()) {
        out << "identical: " << a.size() << " event line(s)\n";
        return 0;
    }

    out << "traces diverge at line " << div + 1 << "\n";
    const std::size_t from =
        div > static_cast<std::size_t>(context)
            ? div - static_cast<std::size_t>(context)
            : 0;
    for (std::size_t i = from; i < div; ++i)
        out << "  " << i + 1 << "   " << a[i] << "\n";
    if (div < a.size())
        out << "< " << div + 1 << "   " << a[div] << "\n";
    else
        out << "< " << div + 1 << "   <end of " << pathA << ">\n";
    if (div < b.size())
        out << "> " << div + 1 << "   " << b[div] << "\n";
    else
        out << "> " << div + 1 << "   <end of " << pathB << ">\n";
    return 1;
}

} // namespace c4::trace
