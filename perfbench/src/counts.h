/**
 * @file
 * The deterministic counters the layers expose through public getters,
 * read from outside the program at the end of a simulation run.
 */

#ifndef PERFBENCH_COUNTS_H
#define PERFBENCH_COUNTS_H

#include <cstdint>

#include "core/cluster.h"

namespace perfbench {

struct Counts
{
    std::uint64_t simEvents = 0;
    std::uint64_t flowsStarted = 0;
    std::uint64_t flowsCompleted = 0;
    std::uint64_t recomputes = 0;
    std::uint64_t recomputeOps = 0;
    std::uint64_t collectivesPosted = 0;
    std::uint64_t collectivesCompleted = 0;
    std::uint64_t monitorRecords = 0;
    std::uint64_t monitorDropped = 0;
    std::uint64_t c4pDecisions = 0;
    std::uint64_t c4pRepins = 0;
    std::uint64_t c4dEvaluations = 0;
    std::uint64_t c4dEvents = 0;
    std::uint64_t restarts = 0;
    std::uint64_t isolations = 0;
    std::uint64_t faults = 0;
    std::uint64_t brokenNodes = 0;
    c4::Time now = 0; ///< simulated time when read
};

Counts readCounts(c4::core::Cluster &cluster);

/**
 * Counts of the live Cluster whose Simulator::run last returned on
 * this thread (all zero before the first run). Filled by the linker
 * wraps in probes.cc, so it also sees clusters the spec interpreter
 * builds and destroys inside scenario::runSpecTrial.
 */
const Counts &lastRunCounts();

} // namespace perfbench

#endif // PERFBENCH_COUNTS_H
