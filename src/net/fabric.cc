#include "net/fabric.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/log.h"
#include "common/random.h"

namespace c4::net {

namespace {

/** Flows with fewer remaining bytes than this are complete. */
constexpr double kByteEpsilon = 0.5;

/** A link allocated beyond this fraction of capacity is congested. */
constexpr double kCongestedFraction = 0.999;

/** Uniform double in [0, 1) from the top 53 bits of @p key. */
double
unitInterval(std::uint64_t key)
{
    return static_cast<double>(key >> 11) * 0x1.0p-53;
}

} // namespace

Fabric::Fabric(Simulator &sim, Topology &topo, FabricConfig cfg,
               std::uint64_t seed)
    : sim_(sim), topo_(topo), selector_(topo), cfg_(cfg), seed_(seed),
      linkAlloc_(topo.numLinks(), 0.0),
      linkDemand_(topo.numLinks(), 0.0),
      linkCongested_(topo.numLinks(), false),
      membership_(topo.numLinks()),
      linkDirtyFlag_(topo.numLinks(), 0),
      linkEpoch_(topo.numLinks(), 0),
      scratchMembers_(topo.numLinks()),
      scratchCap_(topo.numLinks(), 0.0),
      scratchUnfixed_(topo.numLinks(), 0)
{
}

FlowId
Fabric::admit(FlowState state)
{
    state.id = nextFlowId_++;
    state.startTime = sim_.now();
    state.bankedAt = state.startTime;
    const FlowId id = state.id;
    auto [it, inserted] = flows_.emplace(id, std::move(state));
    assert(inserted);
    for (LinkId l : it->second.route.links) {
        membership_.add(l, id);
        markLinkDirty(l);
    }
    ++started_;
    markDirty();
    return id;
}

FlowId
Fabric::startFlow(const PathRequest &req, Bytes bytes, FlowCallback done)
{
    assert(bytes > 0);
    FlowState st;
    st.req = req;
    st.hasReq = true;
    st.route = selector_.select(req);
    st.remaining = static_cast<double>(bytes);
    st.total = bytes;
    st.done = std::move(done);
    if (!st.route.valid()) {
        logDebug("fabric", "flow admitted stalled (no healthy path) "
                 "src=n%d dst=n%d", req.srcNode, req.dstNode);
    }
    return admit(std::move(st));
}

FlowId
Fabric::startFlowOnRoute(Route route, Bytes bytes, FlowCallback done)
{
    assert(bytes > 0);
    FlowState st;
    st.route = std::move(route);
    st.remaining = static_cast<double>(bytes);
    st.total = bytes;
    st.done = std::move(done);
    return admit(std::move(st));
}

bool
Fabric::abortFlow(FlowId id)
{
    flush();
    auto it = flows_.find(id);
    if (it == flows_.end())
        return false;
    sim_.cancel(it->second.completion);
    dropFlowLinks(it->second);
    flows_.erase(it);
    markDirty();
    return true;
}

void
Fabric::stallFlow(FlowId id)
{
    flush();
    auto it = flows_.find(id);
    if (it == flows_.end())
        return;
    it->second.stalled = true;
    for (LinkId l : it->second.route.links)
        markLinkDirty(l);
    markDirty();
}

void
Fabric::resumeFlow(FlowId id)
{
    flush();
    auto it = flows_.find(id);
    if (it == flows_.end())
        return;
    it->second.stalled = false;
    for (LinkId l : it->second.route.links)
        markLinkDirty(l);
    markDirty();
}

void
Fabric::setLinkUp(LinkId id, bool up)
{
    // With a coalesce window, link events batch into one deferred
    // recompute; forcing consistency here would defeat that.
    if (cfg_.coalesceWindow == 0)
        flush();
    if (topo_.link(id).up == up)
        return;
    topo_.setLinkUp(id, up);
    markLinkDirty(id);
    const std::size_t touched =
        up ? reresolveRequestFlows() : rerouteFlowsTouching(id);
    trace::TraceScope &tr = sim_.tracer();
    if (tr.wants(trace::EventKind::PathRealloc)) {
        trace::Event tev;
        tev.when = sim_.now();
        tev.kind = trace::EventKind::PathRealloc;
        tev.a = id;
        tev.b = up ? 1 : 0;
        tev.value = static_cast<double>(touched);
        tev.detail = up ? "link_up" : "link_down";
        tr.record(std::move(tev));
    }
    obs::MetricsScope &mx = sim_.metrics();
    if (mx.attached()) {
        mx.count(up ? "fabric.link_up_events"
                    : "fabric.link_down_events");
        mx.count("fabric.flows_rerouted",
                 static_cast<std::int64_t>(touched));
    }
    markDirty(cfg_.coalesceWindow);
}

void
Fabric::setLinkCapacityScale(LinkId id, double scale)
{
    if (cfg_.coalesceWindow == 0)
        flush();
    topo_.setLinkCapacityScale(id, scale);
    markLinkDirty(id);
    trace::TraceScope &tr = sim_.tracer();
    if (tr.wants(trace::EventKind::PathRealloc)) {
        trace::Event tev;
        tev.when = sim_.now();
        tev.kind = trace::EventKind::PathRealloc;
        tev.a = id;
        tev.b = static_cast<std::int64_t>(membership_.memberCount(id));
        tev.value = scale;
        tev.detail = "link_scale";
        tr.record(std::move(tev));
    }
    markDirty(cfg_.coalesceWindow);
}

void
Fabric::setFlowRoute(FlowState &flow, Route route)
{
    for (LinkId l : flow.route.links) {
        membership_.remove(l, flow.id);
        markLinkDirty(l);
    }
    flow.route = std::move(route);
    for (LinkId l : flow.route.links) {
        membership_.add(l, flow.id);
        markLinkDirty(l);
    }
    if (!flow.route.valid()) {
        // A routeless flow has no link membership, so no component
        // search can reach it: silence it here (setRate banks the
        // bytes it sent at the old rate).
        flow.baseRate = 0.0;
        flow.overload = 0.0;
        flow.congested = false;
        flow.cnpRate = 0.0;
        setRate(flow, 0.0);
    }
}

void
Fabric::dropFlowLinks(FlowState &flow)
{
    for (LinkId l : flow.route.links) {
        membership_.remove(l, flow.id);
        markLinkDirty(l);
    }
}

std::size_t
Fabric::rerouteFlowsTouching(LinkId id)
{
    // A copy: rerouting edits this link's membership while we walk it.
    const auto &members = membership_.members(id);
    scratchIds_.assign(members.begin(), members.end());
    for (FlowId fid : scratchIds_) {
        FlowState &flow = flows_.find(fid)->second;
        if (flow.hasReq) {
            // ECMP rehash among the surviving next hops: deterministic
            // per flow, so rerouted flows can concentrate (Fig. 13a).
            setFlowRoute(flow, selector_.select(flow.req));
        } else {
            setFlowRoute(flow, Route{}); // explicit route died with it
        }
    }
    return scratchIds_.size();
}

std::size_t
Fabric::reresolveRequestFlows()
{
    // Re-resolve every request-backed flow, not just the stalled ones:
    // a restored link re-enters the ECMP hash, so flows rehashed onto
    // survivors during the outage rebalance back to their pre-fault
    // paths (selection is deterministic per request).
    std::size_t touched = 0;
    for (auto &[fid, flow] : flows_) {
        if (!flow.hasReq)
            continue;
        Route fresh = selector_.select(flow.req);
        if (fresh.links == flow.route.links)
            continue;
        ++touched;
        setFlowRoute(flow, std::move(fresh));
    }
    return touched;
}

double
Fabric::remainingNow(const FlowState &flow) const
{
    if (flow.rate <= 0.0)
        return flow.remaining;
    return std::max(0.0, flow.remaining -
                             flow.rate *
                                 toSeconds(sim_.now() - flow.bankedAt) /
                                 8.0);
}

void
Fabric::setRate(FlowState &flow, double rate)
{
    if (rate == flow.rate)
        return;
    flow.remaining = remainingNow(flow);
    flow.bankedAt = sim_.now();
    flow.rate = rate;
    scheduleCompletion(flow);
}

void
Fabric::scheduleCompletion(FlowState &flow)
{
    sim_.cancel(flow.completion);
    flow.completion = kInvalidEvent;
    const Time now = sim_.now();
    Duration delay = 0; // a flow already within epsilon completes now
    if (flow.remaining > kByteEpsilon) {
        if (flow.rate <= 0.0)
            return;
        // Round up: a finish time between two nanoseconds fires at the
        // later one, so the event always finds the flow done.
        const double delay_ns =
            std::ceil(flow.remaining * 8.0 / flow.rate * 1e9);
        // A flow squeezed to a near-zero fair share finishes beyond
        // the representable horizon; casting that to Duration would
        // overflow int64 (UB). It is effectively stalled: schedule
        // nothing and let its next rate change revisit it.
        if (!(delay_ns < 0x1.0p63) ||
            static_cast<Duration>(delay_ns) > kTimeNever - now)
            return;
        delay = static_cast<Duration>(delay_ns); // >= 1: remaining > 0
    }
    const FlowId id = flow.id;
    flow.completion =
        sim_.scheduleAt(now + delay, [this, id] { onFlowDone(id); });
}

void
Fabric::applyFill(FlowState &flow, double baseRate, double overload,
                  bool congested)
{
    if (baseRate == flow.baseRate && overload == flow.overload &&
        congested == flow.congested)
        return;
    flow.baseRate = baseRate;
    flow.overload = overload;
    flow.congested = congested;
    ++flow.draws;
    double rate = baseRate;
    flow.cnpRate = 0.0;
    if (congested) {
        // Counter-based draws keyed by (seed, flow, draw index): a
        // flow's overlay depends only on its own fill history, never
        // on which other flows a recompute happened to visit.
        const std::uint64_t key = deriveSeed(
            deriveSeed(seed_, static_cast<std::uint64_t>(flow.id)),
            flow.draws);
        flow.cnpRate =
            cfg_.cnpRatePerOverload * std::max(0.0, overload) *
            (1.0 + cfg_.cnpNoise * (2.0 * unitInterval(key) - 1.0));
        if (cfg_.congestionJitter) {
            // DCQCN rate reduction has a per-QP persistent bias
            // (each sender's CNP cadence differs) plus temporal
            // noise; the bias is what spreads task averages apart
            // in the paper's Fig. 10b. Explicit-route flows (C4P
            // probers) have no request, so their bias derives
            // from the flow id — a shared flowLabel of 0 would
            // give every prober the identical persistent bias.
            const std::uint32_t ident =
                flow.hasReq
                    ? flow.req.flowLabel
                    : static_cast<std::uint32_t>(
                          static_cast<std::uint64_t>(flow.id) *
                              0x9E3779B97F4A7C15ull >>
                          32);
            std::uint32_t h = ident * 0x9E3779B9u + 0x7F;
            h ^= h >> 15;
            h *= 0x85EBCA6Bu;
            h ^= h >> 13;
            const double stable = static_cast<double>(h % 1024u) / 1023.0;
            const double u =
                0.5 * stable + 0.5 * unitInterval(mixSeed(key));
            rate = baseRate * (1.0 - cfg_.jitterMax * u);
        }
    }
    setRate(flow, rate);
}

void
Fabric::markLinkDirty(LinkId id)
{
    auto li = static_cast<std::size_t>(id);
    if (linkDirtyFlag_[li])
        return;
    linkDirtyFlag_[li] = 1;
    dirtyLinks_.push_back(id);
}

void
Fabric::markDirty(Duration delay)
{
    const Time due = sim_.now() + delay;
    if (dirty_) {
        if (due >= recomputeDue_)
            return; // an equal-or-earlier recompute is already pending
        sim_.cancel(recomputeEvent_);
    }
    dirty_ = true;
    recomputeDue_ = due;
    // Defer at least to the end of the current instant so a batch of
    // flow starts (one collective round) costs a single re-allocation.
    recomputeEvent_ = sim_.scheduleAfter(delay, [this] {
        if (dirty_)
            recompute();
    });
}

void
Fabric::flush()
{
    if (dirty_)
        recompute();
}

void
Fabric::recompute()
{
    dirty_ = false;
    if (recomputeEvent_ != kInvalidEvent) {
        sim_.cancel(recomputeEvent_);
        recomputeEvent_ = kInvalidEvent;
    }
    ++reallocations_;

    // --- component discovery -----------------------------------------
    // The refill set is the connected component of flows reachable
    // from dirty links through shared-link membership. Progressive
    // filling couples flows only through shared links, so components
    // fill independently: re-filling the closure reproduces exactly
    // what a global rebuild would assign, while flows outside it are
    // never visited.
    ++epoch_;
    componentLinks_.clear();
    componentFlows_.clear();
    const std::size_t dirtySeeds = dirtyLinks_.size();
    auto visitLink = [this](LinkId l) {
        auto li = static_cast<std::size_t>(l);
        if (linkEpoch_[li] != epoch_) {
            linkEpoch_[li] = epoch_;
            componentLinks_.push_back(l);
        }
    };
    auto visitFlow = [&](FlowState &flow) {
        if (flow.visitEpoch == epoch_)
            return;
        flow.visitEpoch = epoch_;
        componentFlows_.push_back(&flow);
        for (LinkId l : flow.route.links)
            visitLink(l);
    };
    for (LinkId l : dirtyLinks_) {
        visitLink(l);
        linkDirtyFlag_[static_cast<std::size_t>(l)] = 0;
    }
    dirtyLinks_.clear();
    if (cfg_.incrementalRecompute) {
        // BFS over the bipartite link <-> flow sharing graph;
        // componentLinks_ doubles as the queue.
        for (std::size_t head = 0; head < componentLinks_.size();
             ++head) {
            for (FlowId fid :
                 membership_.members(componentLinks_[head])) {
                auto it = flows_.find(fid);
                assert(it != flows_.end()); // membership is eager
                visitFlow(it->second);
            }
        }
    } else {
        for (auto &[id, flow] : flows_)
            visitFlow(flow);
    }
    // Fill in flow-id order in both modes: a component then sees the
    // same floating-point accumulation and filling tie-breaks whether
    // it is filled alone or as part of a full rebuild.
    std::sort(componentFlows_.begin(), componentFlows_.end(),
              [](const FlowState *a, const FlowState *b) {
                  return a->id < b->id;
              });

    trace::TraceScope &tr = sim_.tracer();
    if (tr.wants(trace::EventKind::RecomputeBegin)) {
        trace::Event tev;
        tev.when = sim_.now();
        tev.kind = trace::EventKind::RecomputeBegin;
        tev.a = static_cast<std::int64_t>(flows_.size());
        tev.b = static_cast<std::int64_t>(dirtySeeds);
        tr.record(std::move(tev));
    }
    // Deterministic work counter: every link scanned by the filling
    // loop and every per-flow route update counts one unit.
    std::uint64_t work = 0;

    // Clear only the scratch the previous filling touched.
    for (int l : scratchActiveLinks_) {
        const auto li = static_cast<std::size_t>(l);
        scratchMembers_[li].clear();
        scratchCap_[li] = 0.0;
        scratchUnfixed_[li] = 0;
    }
    scratchActiveLinks_.clear();
    scratchRunnable_.clear();

    // Reset the persistent allocation state of the component's links;
    // links outside it keep alloc/demand/congestion as-is.
    for (LinkId l : componentLinks_) {
        const auto li = static_cast<std::size_t>(l);
        linkAlloc_[li] = 0.0;
        linkDemand_[li] = 0.0;
        linkCongested_[li] = false;
    }

    std::vector<FlowState *> &runnable = scratchRunnable_;
    for (FlowState *f : componentFlows_) {
        if (f->stalled || !f->route.valid())
            continue;
        f->fill = -1.0; // sentinel: not yet fixed by filling
        runnable.push_back(f);
    }

    std::vector<std::vector<FlowState *>> &members = scratchMembers_;
    std::vector<double> &cap = scratchCap_;
    std::vector<int> &unfixed = scratchUnfixed_;
    std::vector<int> &activeLinks = scratchActiveLinks_;

    for (FlowState *f : runnable) {
        // Unconstrained demand: what the sender would inject absent
        // congestion control — its NIC port rate (DCQCN senders start
        // at line rate). Downstream links may then be oversubscribed,
        // which is what the CNP model keys off.
        const double desired =
            topo_.link(f->route.links.front()).effectiveCapacity();
        for (LinkId l : f->route.links) {
            auto li = static_cast<std::size_t>(l);
            if (members[li].empty()) {
                activeLinks.push_back(l);
                cap[li] = topo_.link(l).effectiveCapacity();
            }
            members[li].push_back(f);
            ++unfixed[li];
            linkDemand_[li] += desired;
        }
    }
    for (int l : activeLinks) {
        auto li = static_cast<std::size_t>(l);
        const double c = topo_.link(l).effectiveCapacity();
        linkDemand_[li] = c > 0.0 ? linkDemand_[li] / c : 0.0;
    }

    // Progressive filling: repeatedly saturate the most constrained
    // link — but only over the component, never the whole fabric.
    std::size_t fixed_count = 0;
    while (fixed_count < runnable.size()) {
        double best_fair = std::numeric_limits<double>::infinity();
        int best_link = kInvalidId;
        work += activeLinks.size();
        for (int l : activeLinks) {
            auto li = static_cast<std::size_t>(l);
            if (unfixed[li] <= 0)
                continue;
            const double fair =
                std::max(0.0, cap[li]) / static_cast<double>(unfixed[li]);
            if (fair < best_fair) {
                best_fair = fair;
                best_link = l;
            }
        }
        if (best_link == kInvalidId) {
            // Remaining flows saw no constraining link; treat as idle.
            for (FlowState *f : runnable) {
                if (f->fill < 0.0) {
                    f->fill = 0.0;
                    ++fixed_count;
                }
            }
            break;
        }

        for (FlowState *f : members[static_cast<std::size_t>(best_link)]) {
            if (f->fill >= 0.0)
                continue; // already fixed
            ++fixed_count;
            f->fill = best_fair;
            work += f->route.links.size();
            for (LinkId l : f->route.links) {
                auto li = static_cast<std::size_t>(l);
                cap[li] -= best_fair;
                --unfixed[li];
            }
        }
    }
    lastRecomputeOps_ = work;
    recomputeOps_ += work;

    // Component post-pass: link allocation totals + congestion flags.
    for (FlowState *f : runnable) {
        for (LinkId l : f->route.links)
            linkAlloc_[static_cast<std::size_t>(l)] += f->fill;
    }
    for (int l : activeLinks) {
        auto li = static_cast<std::size_t>(l);
        const double c = topo_.link(l).effectiveCapacity();
        linkCongested_[li] =
            c > 0.0 && linkAlloc_[li] >= kCongestedFraction * c;
    }

    // DCQCN overlay (CNP rates and sender-side jitter), component-local
    // like the fill: a flow redraws only when its fill result changed.
    for (FlowState *f : componentFlows_) {
        if (f->stalled || !f->route.valid()) {
            applyFill(*f, 0.0, 0.0, false);
            continue;
        }
        double overload = 0.0;
        bool congested = false;
        for (LinkId l : f->route.links) {
            auto li = static_cast<std::size_t>(l);
            if (linkCongested_[li]) {
                congested = true;
                overload = std::max(overload, linkDemand_[li] - 1.0);
            }
        }
        applyFill(*f, f->fill, overload, congested);
    }

    if (tr.wants(trace::EventKind::RecomputeEnd)) {
        trace::Event tev;
        tev.when = sim_.now();
        tev.kind = trace::EventKind::RecomputeEnd;
        tev.a = static_cast<std::int64_t>(runnable.size());
        tev.b = static_cast<std::int64_t>(activeLinks.size());
        tev.value = static_cast<double>(work);
        tr.record(std::move(tev));
    }

    obs::MetricsScope &mx = sim_.metrics();
    if (mx.attached()) {
        mx.count("fabric.recomputes");
        mx.count("fabric.recompute_ops",
                 static_cast<std::int64_t>(work));
        // Dirty-component size: flows the incremental recompute had
        // to touch this pass.
        mx.observe("fabric.component_flows",
                   static_cast<double>(runnable.size()));
        mx.observe("fabric.component_links",
                   static_cast<double>(activeLinks.size()));
    }
}

void
Fabric::onFlowDone(FlowId id)
{
    auto it = flows_.find(id);
    assert(it != flows_.end()); // abort cancels the event
    FlowState &flow = it->second;
    assert(remainingNow(flow) <= kByteEpsilon); // ceiling-rounded
    FlowEnd end;
    end.id = id;
    end.startTime = flow.startTime;
    end.endTime = sim_.now();
    end.bytes = flow.total;
    FlowCallback done = std::move(flow.done);
    dropFlowLinks(flow);
    flows_.erase(it);
    ++completed_;

    markDirty();

    // Invoke the callback last: it commonly starts the next round's
    // flows, which fold into the already-scheduled deferred recompute.
    if (done)
        done(end);
}

std::size_t
Fabric::activeFlowCount() const
{
    return flows_.size();
}

bool
Fabric::flowActive(FlowId id) const
{
    return flows_.count(id) > 0;
}

Bandwidth
Fabric::flowRate(FlowId id)
{
    flush();
    auto it = flows_.find(id);
    return it == flows_.end() ? 0.0 : it->second.rate;
}

const Route *
Fabric::flowRoute(FlowId id) const
{
    auto it = flows_.find(id);
    return it == flows_.end() ? nullptr : &it->second.route;
}

Bytes
Fabric::flowRemaining(FlowId id)
{
    flush();
    auto it = flows_.find(id);
    return it == flows_.end()
               ? 0
               : static_cast<Bytes>(std::ceil(remainingNow(it->second)));
}

Bandwidth
Fabric::linkThroughput(LinkId id)
{
    if (id < 0 || static_cast<std::size_t>(id) >= topo_.numLinks())
        return 0.0;
    flush();
    return linkAlloc_[static_cast<std::size_t>(id)];
}

bool
Fabric::linkCongested(LinkId id)
{
    if (id < 0 || static_cast<std::size_t>(id) >= topo_.numLinks())
        return false;
    flush();
    return linkCongested_[static_cast<std::size_t>(id)];
}

double
Fabric::linkDemandRatio(LinkId id)
{
    if (id < 0 || static_cast<std::size_t>(id) >= topo_.numLinks())
        return 0.0;
    flush();
    return linkDemand_[static_cast<std::size_t>(id)];
}

double
Fabric::nicCnpRate(NodeId node, NicId nic)
{
    if (node < 0 || node >= topo_.numNodes() || nic < 0 ||
        nic >= topo_.nicsPerNode())
        return 0.0;
    flush();
    // Every request-backed flow from this NIC leaves through one of
    // its two host uplinks, and only those flows do.
    double sum = 0.0;
    for (Plane plane : {Plane::Left, Plane::Right}) {
        for (FlowId fid :
             membership_.members(topo_.hostUplink(node, nic, plane))) {
            const FlowState &flow = flows_.find(fid)->second;
            if (flow.hasReq)
                sum += flow.cnpRate;
        }
    }
    return sum;
}

} // namespace c4::net
