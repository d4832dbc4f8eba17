/**
 * @file
 * Flow-level (fluid) fabric simulator.
 *
 * Flows are (route, bytes) pairs. At any instant, active flow rates are
 * the max-min fair allocation over directed link capacities (progressive
 * filling). The engine is event driven: each running flow owns one
 * kernel event for its finish time; starting/aborting a flow, failing a
 * link, or scaling a link's capacity triggers re-allocation.
 *
 * This granularity is exactly what C4 observes in production: message
 * completion times, per-port throughput, and CNP (Congestion Notification
 * Packet) rates. A DCQCN-style congestion model overlays the fair-share
 * allocation: flows crossing saturated links receive CNPs and exhibit a
 * small sender-side rate fluctuation (paper Fig. 11's 12.5-17.5 kp/s band
 * and Fig. 10b's residual spread).
 *
 * Re-allocation is *incremental* and costs O(dirty component): the
 * fabric tracks dirty links (link up/down, capacity scaling, membership
 * changes from flow start/end/abort/stall) and re-runs progressive
 * filling only over the connected component of flows reachable from
 * dirty links through shared-link membership. Progressive filling
 * couples flows only through shared links, so components fill
 * independently and the component-scoped result is exactly the global
 * one; flows outside the component are not visited at all.
 *
 * Everything else a flow carries is local to it as well:
 * - progress is lazy: (remaining, rate, bankedAt) is banked only when
 *   the flow's rate changes, and flowRemaining() extrapolates;
 * - the finish-time event is rescheduled only when the rate changes
 *   and fires at the ceiling nanosecond, so it always completes the
 *   flow;
 * - the DCQCN overlay draws its CNP noise and jitter from a
 *   counter-based stream keyed by (fabric seed, flow id, draw index),
 *   and the draw index advances only when the flow's fill result
 *   (fair share, bottleneck overload, congested flag) changes.
 *
 * The last point makes the overlay a pure function of each flow's own
 * fill history, so FabricConfig::incrementalRecompute = false (every
 * recompute re-fills every flow: the shadow reference for the
 * equivalence tests) produces exactly the same state with jitter on.
 */

#ifndef C4_NET_FABRIC_H
#define C4_NET_FABRIC_H

#include <functional>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "net/routing.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace c4::net {

/** Tunables of the congestion / CNP overlay. */
struct FabricConfig
{
    /**
     * Enable DCQCN-style sender rate fluctuation on congested paths.
     * Off, the allocation is the pure max-min fair share.
     */
    bool congestionJitter = true;

    /** Max fractional rate reduction due to congestion control. */
    double jitterMax = 0.06;

    /**
     * CNPs per second delivered to a flow per unit of overload
     * (demand/capacity - 1) on its bottleneck link. A bonded port
     * carries one flow per plane, so 7500 per flow puts the Fig. 10b/11
     * setup at ~15 kp/s per port (the paper's 12.5-17.5 band).
     */
    double cnpRatePerOverload = 7500.0;

    /** Multiplicative noise on CNP rates, redrawn whenever a flow's
     * fill result changes. */
    double cnpNoise = 0.15;

    /**
     * Scope progressive filling to the dirty-link connected component
     * (see the file header). Off, every recompute rebuilds all flows —
     * the historical behaviour, kept as the equivalence-test shadow.
     * Both modes produce identical allocations.
     */
    bool incrementalRecompute = true;

    /**
     * Coalesce window for link events (up/down, capacity scaling):
     * instead of re-allocating at the same instant, the recompute is
     * deferred by this much so a storm of link events inside the
     * window costs a single re-fill. 0 (the default) re-allocates
     * immediately, exactly as before. Flow events (start/completion/
     * abort/stall) always recompute immediately; a query (flush)
     * forces consistency regardless. With a nonzero window, flows keep
     * progressing at their pre-event rates until the deferred
     * recompute fires — an explicit modelling tradeoff for fault
     * storms, not a default.
     */
    Duration coalesceWindow = 0;
};

/** Completion notice passed to a flow's callback. */
struct FlowEnd
{
    FlowId id = kInvalidId;
    Time startTime = 0;
    Time endTime = 0;
    Bytes bytes = 0;

    Duration duration() const { return endTime - startTime; }

    /** Achieved goodput in bits/s. */
    Bandwidth
    achievedRate() const
    {
        const Duration d = duration();
        return d > 0 ? static_cast<double>(bytes) * 8.0 /
                           toSeconds(d)
                     : 0.0;
    }
};

using FlowCallback = std::function<void(const FlowEnd &)>;

/**
 * The fluid flow engine. Owns no topology; mutates only link state via
 * the Topology reference (on behalf of callers) and its own flow table.
 */
class Fabric
{
  public:
    /**
     * @param sim event engine (must outlive the fabric)
     * @param topo wiring; the fabric registers no callbacks, callers must
     *        route link failures through Fabric::setLinkUp so flows reroute
     * @param cfg congestion model tunables
     * @param seed key of the counter-based jitter/CNP noise draws
     */
    Fabric(Simulator &sim, Topology &topo, FabricConfig cfg = {},
           std::uint64_t seed = 0xC4C4C4C4ull);

    Fabric(const Fabric &) = delete;
    Fabric &operator=(const Fabric &) = delete;

    /**
     * Start a flow described by a routing request. The route is resolved
     * immediately; if no healthy path exists the flow is admitted in a
     * stalled state (rate 0) and will be re-resolved when link state
     * changes — mirroring an RDMA QP retrying on a black-holed path.
     *
     * @return the flow id (always valid).
     */
    FlowId startFlow(const PathRequest &req, Bytes bytes,
                     FlowCallback done);

    /** Start a flow on an explicit route (used by the C4P path prober). */
    FlowId startFlowOnRoute(Route route, Bytes bytes, FlowCallback done);

    /**
     * Abort a flow; its callback is not invoked.
     * @return true if the flow existed.
     */
    bool abortFlow(FlowId id);

    /** Force a flow's rate to zero (fault injection: ACK timeout). */
    void stallFlow(FlowId id);

    /** Undo stallFlow. */
    void resumeFlow(FlowId id);

    /**
     * Bring a link up/down. Downing reroutes affected flows via ECMP
     * rehash among survivors (or stalls them when no path remains);
     * restoring re-resolves all request-backed flows, so flows that
     * were rehashed onto survivors during the outage rebalance back
     * once the link heals (the paper's Fig. 12/13 recovery).
     */
    void setLinkUp(LinkId id, bool up);

    /** Degrade (or restore) a link's capacity; flows keep their routes. */
    void setLinkCapacityScale(LinkId id, double scale);

    /** @name Introspection (forces a consistent allocation first) @{ */
    std::size_t activeFlowCount() const;
    bool flowActive(FlowId id) const;
    Bandwidth flowRate(FlowId id);
    const Route *flowRoute(FlowId id) const;
    Bytes flowRemaining(FlowId id);

    /** Instantaneous allocated rate through a link (0 if @p id is
     * out of range). */
    Bandwidth linkThroughput(LinkId id);

    /** True if the link is allocated to (nearly) full capacity
     * (false if @p id is out of range). */
    bool linkCongested(LinkId id);

    /** Sum of flows' unconstrained demands divided by capacity
     * (0 if @p id is out of range). */
    double linkDemandRatio(LinkId id);

    /**
     * CNPs per second currently delivered to the sender-side bonded port
     * (NIC) — the paper's Fig. 11 metric. Aggregates both planes by
     * summing the request-backed flows on the NIC's two host uplinks
     * (O(uplink degree); 0 for an out-of-range node or NIC).
     */
    double nicCnpRate(NodeId node, NicId nic);

    std::uint64_t totalFlowsCompleted() const { return completed_; }
    std::uint64_t totalFlowsStarted() const { return started_; }
    std::uint64_t reallocationCount() const { return reallocations_; }

    /**
     * Deterministic cost model of recompute(): progressive-filling
     * work units (link scans + per-flow route updates) accumulated
     * over all re-allocations. Seed-stable — unlike wall clock — so
     * it can gate regressions and feed trace events. With incremental
     * recompute the counter only accrues component-scoped work, which
     * is exactly the asymptotic win the fabric_recompute_ops golden
     * CSV locks in.
     */
    std::uint64_t recomputeOpsTotal() const { return recomputeOps_; }

    /** Work units of the most recent recompute() alone. */
    std::uint64_t recomputeOpsLast() const { return lastRecomputeOps_; }
    /** @} */

    const Topology &topology() const { return topo_; }
    Simulator &simulator() { return sim_; }

  private:
    struct FlowState
    {
        FlowId id = kInvalidId;
        PathRequest req;
        bool hasReq = false;
        Route route;
        Bytes total = 0;
        Time startTime = 0;
        // Lazy progress: bytes left at bankedAt, draining at `rate`.
        double remaining = 0.0;
        Time bankedAt = 0;
        // Fill result of the last recompute that reached this flow.
        double baseRate = 0.0; // pure fair share, bits/s
        double overload = 0.0; // bottleneck demand ratio - 1
        bool congested = false;
        double rate = 0.0; // post-jitter sending rate, bits/s
        double cnpRate = 0.0;
        std::uint64_t draws = 0; // overlay draw index
        bool stalled = false;
        // Progressive-filling scratch: -1 until fixed.
        double fill = 0.0;
        // Component-closure visit stamp; flows whose stamp matches the
        // fabric's current recompute epoch are being re-filled.
        std::uint64_t visitEpoch = 0;
        EventId completion = kInvalidEvent; // finish-time event
        FlowCallback done;
    };

    Simulator &sim_;
    Topology &topo_;
    PathSelector selector_;
    FabricConfig cfg_;
    std::uint64_t seed_;

    std::unordered_map<FlowId, FlowState> flows_;
    FlowId nextFlowId_ = 1;

    bool dirty_ = false;
    Time recomputeDue_ = 0; // when the pending deferred recompute fires
    EventId recomputeEvent_ = kInvalidEvent;

    // Persistent allocation state: with incremental recompute these
    // survive across re-allocations and only the links of the dirty
    // component are rewritten.
    std::vector<double> linkAlloc_;  // bits/s currently allocated
    std::vector<double> linkDemand_; // demand ratio
    std::vector<bool> linkCongested_;

    // Persistent link -> flow-id membership mirror of every admitted
    // flow's current route; the edge set of the component search.
    LinkMembershipIndex membership_;

    // Dirty-link accumulator between recomputes.
    std::vector<LinkId> dirtyLinks_;
    std::vector<char> linkDirtyFlag_;

    // Component-closure stamps (flows carry theirs in FlowState).
    std::uint64_t epoch_ = 0;
    std::vector<std::uint64_t> linkEpoch_;
    std::vector<LinkId> componentLinks_;
    std::vector<FlowState *> componentFlows_;

    // Reused allocation scratch (recompute runs on every flow event;
    // per-call vector-of-vectors allocation dominated profiles).
    std::vector<std::vector<FlowState *>> scratchMembers_;
    std::vector<double> scratchCap_;
    std::vector<int> scratchUnfixed_;
    std::vector<int> scratchActiveLinks_;
    std::vector<FlowState *> scratchRunnable_;
    std::vector<FlowId> scratchIds_;

    std::uint64_t completed_ = 0;
    std::uint64_t started_ = 0;
    std::uint64_t reallocations_ = 0;
    std::uint64_t recomputeOps_ = 0;
    std::uint64_t lastRecomputeOps_ = 0;

    FlowId admit(FlowState state);

    /** Bytes @p flow still has to send at the current instant. */
    double remainingNow(const FlowState &flow) const;

    /**
     * Change @p flow's sending rate: bank its progress at the old rate
     * and reschedule its finish-time event. A no-op for an equal rate.
     */
    void setRate(FlowState &flow, double rate);

    /** (Re)schedule @p flow's finish-time event for its current rate. */
    void scheduleCompletion(FlowState &flow);

    /**
     * Record @p flow's fill result; when it differs from the last one,
     * advance the flow's draw index and redraw its DCQCN overlay.
     */
    void applyFill(FlowState &flow, double baseRate, double overload,
                   bool congested);

    /**
     * Mark allocation stale and schedule a recompute @p delay from
     * now (0 = end of the current instant). A pending later recompute
     * is pulled forward; an earlier one is kept.
     */
    void markDirty(Duration delay = 0);

    /** Flag one link as needing re-fill at the next recompute. */
    void markLinkDirty(LinkId id);

    /** Point @p flow at @p route, maintaining membership + dirt. */
    void setFlowRoute(FlowState &flow, Route route);

    /** Unregister a departing flow's route links, dirtying them. */
    void dropFlowLinks(FlowState &flow);

    /** Re-fill the dirty component and update its flows' rates. */
    void recompute();

    /** Ensure rates are consistent before a query. */
    void flush();

    /** Finish-time event of flow @p id: complete it. */
    void onFlowDone(FlowId id);

    /** @return the number of flows whose routes were touched. */
    std::size_t rerouteFlowsTouching(LinkId id);
    std::size_t reresolveRequestFlows();
};

} // namespace c4::net

#endif // C4_NET_FABRIC_H
