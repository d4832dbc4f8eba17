/**
 * @file
 * Layer-boundary spans for the traced benchmark driver.
 *
 * A span is one call across a layer boundary: site, start, end, the
 * enclosing span on the same thread, and the trial it belongs to.
 * Spans stay in memory (malloc-backed chunks, so the counting
 * operator new sees none of them) and are written out at exit. A
 * site's self time is its span time minus the time of its child spans.
 *
 * The untraced driver is built from the same sources without
 * PERFBENCH_TRACED: every Span is then an empty object and records
 * nothing.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <array>
#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/** The layer boundaries the traced driver times. */
enum class Site : std::uint8_t {
    SpecParse,    ///< specio::parseSpecFile (driver)
    ClusterBuild, ///< core::Cluster constructor (wrapped)
    Admit,        ///< Cluster::addJob + TrainingJob::start (driver)
    Depart,       ///< Cluster::removeJob (driver)
    SimRun,       ///< Simulator::run (wrapped)
    NetCall,      ///< net::Fabric entry points (wrapped)
    AcclCall,     ///< accl::Accl entry points (wrapped)
    C4dIngest,    ///< c4d::C4dMaster::ingest (wrapped)
};
constexpr std::size_t kSiteCount = 8;

const char *siteName(Site site);

#ifdef PERFBENCH_TRACED
constexpr bool kTraced = true;
void beginSpan(Site site);
void endSpan();
#else
constexpr bool kTraced = false;
inline void beginSpan(Site) {}
inline void endSpan() {}
#endif

/** Records one span over its own lifetime. */
class Span
{
  public:
    explicit Span(Site site) { beginSpan(site); }
    ~Span() { endSpan(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
};

/** Stamp spans this thread opens from now on with @p trial (-1 = setup). */
void setTrial(int trial);

struct SiteTotals
{
    std::uint64_t calls = 0;
    std::int64_t totalNs = 0;
    std::int64_t selfNs = 0;
};

using TrialTotals = std::array<SiteTotals, kSiteCount>;

/** Per-trial, per-site totals over every closed span of every thread. */
std::map<int, TrialTotals> totalsByTrial();

/**
 * Write the spans of set-up (trial -1) through trial @p lastTrial as
 * "index trial site start_ns end_ns parent" lines; later trials hold the
 * same kinds of span and would only make the file larger.
 * @return false when the file cannot be written.
 */
bool writeSpans(const std::string &path, int lastTrial);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
