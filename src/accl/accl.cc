#include "accl/accl.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <stdexcept>

#include "common/log.h"

namespace c4::accl {

namespace {

/** Connection cache key: (channel, srcRank, dstRank). */
std::uint64_t
connKey(int channel, Rank src, Rank dst)
{
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(channel))
            << 40) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 20) |
           static_cast<std::uint32_t>(dst);
}

} // namespace

/** One transport connection: a QP group between two ranks on a channel. */
struct Accl::Connection
{
    std::vector<ConnContext> ctxs;
    std::vector<PathDecision> decisions;
    std::vector<double> weights;
    std::vector<QpId> qpIds;
};

struct PendingOp
{
    CollSeq seq = 0;
    CollOp op = CollOp::AllReduce;
    AlgoKind algo = AlgoKind::Ring;
    Bytes bytes = 0;
    std::vector<Duration> delays;
    CollectiveCallback done;
    Time postedAt = 0;
    Rank p2pSrc = kInvalidId;
    Rank p2pDst = kInvalidId;
};

struct Accl::CommState
{
    std::unique_ptr<Communicator> comm;
    std::unordered_set<Rank> crashed;
    std::unordered_map<std::uint64_t, Connection> conns;
    CollSeq nextSeq = 1;
    std::deque<PendingOp> queue;
    std::unique_ptr<Exec> active;
};

/**
 * Execution state machine for one collective. Channels progress through
 * barrier-synchronized rounds independently; the operation completes when
 * every channel has drained every stage.
 */
class Accl::Exec
{
  public:
    Exec(Accl &lib, CommState &cs, PendingOp op)
        : lib_(lib), cs_(cs), op_(std::move(op)),
          alive_(std::make_shared<bool>(true))
    {
    }

    ~Exec()
    {
        *alive_ = false;
        for (FlowId f : activeFlows_)
            lib_.fabric_.abortFlow(f);
        for (EventId e : scheduledEvents_)
            lib_.sim_.cancel(e);
    }

    void
    begin()
    {
        const Communicator &comm = *cs_.comm;
        const int n = comm.size();

        lib_.monitor_.opPosted(comm.id(), op_.seq, op_.op, op_.bytes,
                               op_.postedAt);

        postTimes_.resize(static_cast<std::size_t>(n));
        Time t0 = lib_.sim_.now();
        Time min_post = kTimeNever;
        for (Rank r = 0; r < n; ++r) {
            Duration d = 0;
            if (static_cast<std::size_t>(r) < op_.delays.size())
                d = op_.delays[static_cast<std::size_t>(r)];
            const Time p = op_.postedAt + d;
            postTimes_[static_cast<std::size_t>(r)] = p;
            if (!cs_.crashed.count(r)) {
                t0 = std::max(t0, p);
                min_post = std::min(min_post, p);
            }
        }
        minPost_ = min_post;
        startTime_ = t0;

        buildPlan();

        if (anyCrash()) {
            // A dead rank never enters the collective: the survivors
            // block forever — the paper's non-communication hang. Record
            // that the living ranks did show up, then stall.
            schedule(t0, [this] {
                const Communicator &c = *cs_.comm;
                for (Rank r = 0; r < c.size(); ++r) {
                    if (!cs_.crashed.count(r))
                        lib_.monitor_.heartbeat(c.id(), r,
                                                lib_.sim_.now());
                }
            });
            return;
        }

        schedule(t0, [this] { onAllRanksReady(); });
    }

  private:
    struct Stage
    {
        /** Inter-node hops (rank pairs) active each round. */
        std::vector<Communicator::Boundary> hops;
        /** Nodes with intra-node (NVLink) hops each round. */
        std::vector<NodeId> nvlinkNodes;
        Bytes bytesPerHopPerRound = 0;
        int rounds = 0;
    };

    struct ChannelCursor
    {
        int stage = 0;
        int round = 0;
        int pending = 0;
        bool finished = false;
        std::vector<std::uint64_t> connsUsed; // for post-round rebalance
    };

    Accl &lib_;
    CommState &cs_;
    PendingOp op_;
    std::shared_ptr<bool> alive_;

    std::vector<Time> postTimes_;
    Time minPost_ = 0;
    Time startTime_ = 0;

    std::vector<Stage> stages_;
    int activeChannels_ = 1;
    std::vector<ChannelCursor> cursors_;
    int channelsFinished_ = 0;

    std::unordered_set<FlowId> activeFlows_;
    std::vector<EventId> scheduledEvents_;

    /** Schedule an executor callback; ~Exec cancels whatever of it is
     * still pending (cancelling a fired id is a generation-checked
     * no-op), so @p fn may capture `this` bare. */
    template <typename F>
    void
    schedule(Time when, F fn)
    {
        scheduledEvents_.push_back(
            lib_.sim_.scheduleAt(when, std::move(fn)));
    }

    template <typename F>
    void
    scheduleAfter(Duration d, F fn)
    {
        schedule(lib_.sim_.now() + d, std::move(fn));
    }

    /** Derive the hop structure for the requested op/algo. */
    void
    buildPlan()
    {
        const Communicator &comm = *cs_.comm;
        const int n = comm.size();

        if (op_.op == CollOp::SendRecv) {
            activeChannels_ = 1;
            Stage st;
            st.rounds = 1;
            st.bytesPerHopPerRound = std::max<Bytes>(1, op_.bytes);
            const auto &sd = comm.device(op_.p2pSrc);
            const auto &dd = comm.device(op_.p2pDst);
            if (sd.node == dd.node)
                st.nvlinkNodes.push_back(sd.node);
            else
                st.hops.push_back({op_.p2pSrc, op_.p2pDst});
            stages_.push_back(std::move(st));
            cursors_.resize(1);
            return;
        }

        activeChannels_ = comm.channels();
        const double factor = busFactor(op_.op, n);
        if (factor <= 0.0) {
            cursors_.clear(); // degenerate single-rank op
            return;
        }

        const int real_rounds = ringRounds(op_.op, n);
        const int k =
            std::max(1, std::min(real_rounds, lib_.cfg_.maxSimRounds));
        const auto per_round = static_cast<Bytes>(std::max(
            1.0, static_cast<double>(op_.bytes) * factor /
                     (static_cast<double>(k) * activeChannels_)));

        if (op_.op == CollOp::AllToAll && n > 1) {
            buildAllToAllPlan();
        } else if (op_.algo == AlgoKind::Tree &&
                   op_.op == CollOp::AllReduce && n > 1) {
            buildTreePlan(per_round, k);
        } else if (op_.algo == AlgoKind::HalvingDoubling &&
                   op_.op == CollOp::AllReduce && n > 1 &&
                   (n & (n - 1)) == 0) {
            buildHalvingDoublingPlan();
        } else {
            Stage st;
            st.rounds = k;
            st.bytesPerHopPerRound = per_round;
            st.hops = comm.boundaries();
            // Every participating node forwards each round's chunk
            // through its GPUs' HBM/NVLink plane; this is the resource
            // that caps bus bandwidth at ~362 Gbps on the paper's H800
            // nodes, whether or not the ring has co-located ranks.
            st.nvlinkNodes = comm.nodes();
            stages_.push_back(std::move(st));
        }
        cursors_.resize(static_cast<std::size_t>(activeChannels_));
    }

    /**
     * Shifted-exchange alltoall: in stage s (1..n-1) every rank i sends
     * its block for rank (i+s) mod n. This is the MoE dispatch/combine
     * traffic pattern of expert parallelism (paper Section V).
     */
    void
    buildAllToAllPlan()
    {
        const Communicator &comm = *cs_.comm;
        const int n = comm.size();
        const auto per_hop = static_cast<Bytes>(std::max(
            1.0, static_cast<double>(op_.bytes) /
                     (static_cast<double>(n) * activeChannels_)));

        for (int shift = 1; shift < n; ++shift) {
            Stage st;
            st.rounds = 1;
            st.bytesPerHopPerRound = per_hop;
            for (Rank i = 0; i < n; ++i) {
                const Rank j = static_cast<Rank>((i + shift) % n);
                if (comm.device(i).node != comm.device(j).node)
                    st.hops.push_back({i, j});
            }
            st.nvlinkNodes = comm.nodes();
            stages_.push_back(std::move(st));
        }
    }

    /**
     * Recursive halving (reduce-scatter) then doubling (allgather):
     * log2(n) pairwise-exchange stages each way, with the payload
     * halving per step. Power-of-2 rank counts only.
     */
    void
    buildHalvingDoublingPlan()
    {
        const Communicator &comm = *cs_.comm;
        const int n = comm.size();

        auto make_stage = [&](int mask, Bytes bytes_per_hop) {
            Stage st;
            st.rounds = 1;
            st.bytesPerHopPerRound = std::max<Bytes>(1, bytes_per_hop);
            for (Rank i = 0; i < n; ++i) {
                const Rank j = static_cast<Rank>(i ^ mask);
                if (comm.device(i).node != comm.device(j).node)
                    st.hops.push_back({i, j});
            }
            st.nvlinkNodes = comm.nodes();
            return st;
        };

        // Halving: exchanged payload shrinks by half each step.
        Bytes step_bytes = static_cast<Bytes>(
            static_cast<double>(op_.bytes) / (2.0 * activeChannels_));
        std::vector<Bytes> sizes;
        for (int mask = 1; mask < n; mask <<= 1) {
            sizes.push_back(step_bytes);
            stages_.push_back(make_stage(mask, step_bytes));
            step_bytes = std::max<Bytes>(1, step_bytes / 2);
        }
        // Doubling: mirror order, payload growing back.
        int idx = static_cast<int>(sizes.size()) - 1;
        for (int mask = n >> 1; mask >= 1; mask >>= 1, --idx)
            stages_.push_back(make_stage(mask, sizes[
                static_cast<std::size_t>(idx)]));
    }

    /** Reduce-then-broadcast binary tree (two pipelined stages). */
    void
    buildTreePlan(Bytes per_round, int k)
    {
        const Communicator &comm = *cs_.comm;
        const int n = comm.size();

        // The tree moves the full payload on each edge per direction,
        // i.e. 2x bytes per rank vs the ring's 2(n-1)/n; rescale per-hop
        // bytes so total traffic matches the tree's cost model.
        const double ring_factor = busFactor(CollOp::AllReduce, n);
        const auto tree_per_round = static_cast<Bytes>(std::max(
            1.0, static_cast<double>(per_round) * 1.0 / ring_factor));

        Stage up;
        up.rounds = k;
        up.bytesPerHopPerRound = tree_per_round;
        Stage down = up;

        for (Rank r = 1; r < n; ++r) {
            const Rank parent = (r - 1) / 2;
            const auto &cd = comm.device(r);
            const auto &pd = comm.device(parent);
            if (cd.node != pd.node) {
                up.hops.push_back({r, parent});
                down.hops.push_back({parent, r});
            }
        }
        // As with the ring, every node's HBM/NVLink plane is in the path.
        up.nvlinkNodes = comm.nodes();
        down.nvlinkNodes = comm.nodes();
        stages_.push_back(std::move(up));
        stages_.push_back(std::move(down));
    }

    void
    onAllRanksReady()
    {
        const Communicator &comm = *cs_.comm;
        AcclMonitor &mon = lib_.monitor_;

        mon.opStarted(comm.id(), op_.seq, startTime_);

        for (Rank r = 0; r < comm.size(); ++r) {
            RankWaitRecord w;
            w.comm = comm.id();
            w.seq = op_.seq;
            w.rank = r;
            w.recvWait =
                startTime_ - postTimes_[static_cast<std::size_t>(r)];
            mon.record(w);
            mon.heartbeat(comm.id(), r, startTime_);
        }

        if (cursors_.empty() || stages_.empty()) {
            finish(); // degenerate op (single rank)
            return;
        }
        for (int c = 0; c < activeChannels_; ++c)
            startRound(c);
    }

    void
    startRound(int channel)
    {
        ChannelCursor &cur = cursors_[static_cast<std::size_t>(channel)];
        const Stage &st = stages_[static_cast<std::size_t>(cur.stage)];

        cur.connsUsed.clear();
        cur.pending = 0;

        // NVLink stages: each forwarding GPU moves this round's chunk at
        // its per-channel share of the node's NVLink bus budget.
        const Bandwidth nvl =
            lib_.fabric_.topology().config().nvlinkBusBandwidth /
            static_cast<double>(activeChannels_);
        for (NodeId node : st.nvlinkNodes) {
            ++cur.pending;
            if (nodeCrashed(node))
                continue; // dead workers: this stage never completes
            const Duration d =
                transferTime(st.bytesPerHopPerRound, nvl);
            scheduleAfter(d, [this, channel, node] {
                onNvlinkDone(channel, node);
            });
        }

        for (const auto &hop : st.hops) {
            if (cs_.crashed.count(hop.src) ||
                cs_.crashed.count(hop.dst)) {
                // RDMA sends to/from a dead worker never get an ACK:
                // the hop stays pending forever while healthy peers
                // keep making (one round of) progress — the exact
                // differential the C4D delay/heartbeat analysis uses
                // to localize the culprit.
                ++cur.pending;
                continue;
            }
            launchHop(channel, hop, st.bytesPerHopPerRound);
        }

        if (cur.pending == 0 && !anyCrash()) {
            // Nothing to move on this channel (e.g. empty stage).
            advance(channel);
        }
    }

    bool
    nodeCrashed(NodeId node) const
    {
        for (Rank r : cs_.comm->ranksOnNode(node)) {
            if (cs_.crashed.count(r))
                return true;
        }
        return false;
    }

    bool
    anyCrash() const
    {
        return !cs_.crashed.empty();
    }

    void
    launchHop(int channel, const Communicator::Boundary &hop, Bytes bytes)
    {
        ChannelCursor &cur = cursors_[static_cast<std::size_t>(channel)];

        Connection &conn =
            lib_.getConnection(cs_, channel, hop.src, hop.dst);
        cur.connsUsed.push_back(connKey(channel, hop.src, hop.dst));

        double wsum = 0.0;
        for (double w : conn.weights)
            wsum += std::max(0.0, w);
        if (wsum <= 0.0)
            wsum = 1.0;

        for (std::size_t q = 0; q < conn.ctxs.size(); ++q) {
            const double share = std::max(0.0, conn.weights[q]) / wsum;
            const auto qbytes =
                static_cast<Bytes>(static_cast<double>(bytes) * share);
            if (qbytes <= 0)
                continue;
            ++cur.pending;

            const ConnContext &ctx = conn.ctxs[q];
            // Per-message routing policies (packet spraying) re-roll
            // the path for every chunk; everyone else keeps the QP's
            // long-lived decision.
            if (lib_.policy_->perMessageRouting())
                conn.decisions[q] = lib_.policy_->decide(ctx);
            const PathDecision &dec = conn.decisions[q];
            net::PathRequest req;
            req.srcNode = ctx.srcNode;
            req.srcNic = ctx.srcNic;
            req.dstNode = ctx.dstNode;
            req.dstNic = ctx.dstNic;
            req.txPlane = dec.txPlane;
            req.spine = dec.spine;
            req.rxPlane = dec.rxPlane;
            req.flowLabel = dec.flowLabel;

            auto weak = std::weak_ptr<bool>(alive_);
            const std::size_t qi = q;
            const auto key = connKey(channel, hop.src, hop.dst);
            FlowId fid = lib_.fabric_.startFlow(
                req, qbytes,
                [this, weak, channel, hop, key, qi](
                    const net::FlowEnd &end) {
                    if (auto p = weak.lock(); p && *p)
                        onFlowDone(channel, hop, key, qi, end);
                });
            activeFlows_.insert(fid);

            // Capture the realized path for the telemetry record.
            FlowMeta meta;
            meta.channel = channel;
            meta.hop = hop;
            meta.qp = qi;
            meta.txPlane = dec.txPlane;
            if (const net::Route *route = lib_.fabric_.flowRoute(fid)) {
                meta.spine = route->spine;
                meta.rxPlane = net::planeIndex(route->rxPlane);
            }
            pendingFlowMeta_[fid] = meta;
        }
    }

    struct FlowMeta
    {
        int channel = 0;
        Communicator::Boundary hop;
        std::size_t qp = 0;
        net::Plane txPlane = net::Plane::Left;
        std::int32_t spine = kInvalidId;
        std::int32_t rxPlane = kInvalidId;
    };
    std::unordered_map<FlowId, FlowMeta> pendingFlowMeta_;

    void
    onFlowDone(int channel, const Communicator::Boundary &hop,
               std::uint64_t key, std::size_t qp, const net::FlowEnd &end)
    {
        const Communicator &comm = *cs_.comm;
        activeFlows_.erase(end.id);

        FlowMeta meta;
        if (auto it = pendingFlowMeta_.find(end.id);
            it != pendingFlowMeta_.end()) {
            meta = it->second;
            pendingFlowMeta_.erase(it);
        }

        Connection &conn = cs_.conns.at(key);
        const ConnContext &ctx = conn.ctxs[qp];
        const PathDecision &dec = conn.decisions[qp];

        ConnRecord rec;
        rec.comm = comm.id();
        rec.seq = op_.seq;
        rec.channel = channel;
        rec.qpIndex = static_cast<int>(qp);
        rec.qp = conn.qpIds[qp];
        rec.srcRank = hop.src;
        rec.dstRank = hop.dst;
        rec.srcNode = ctx.srcNode;
        rec.dstNode = ctx.dstNode;
        rec.srcNic = ctx.srcNic;
        rec.txPlane = meta.txPlane;
        rec.spine = meta.spine;
        rec.rxPlane = meta.rxPlane;
        rec.bytes = end.bytes;
        rec.startTime = end.startTime;
        rec.endTime = end.endTime;
        lib_.monitor_.record(rec);
        lib_.monitor_.heartbeat(comm.id(), hop.src, end.endTime);
        lib_.monitor_.heartbeat(comm.id(), hop.dst, end.endTime);

        PathFeedback fb;
        fb.bytes = end.bytes;
        fb.duration = end.duration();
        fb.achievedRate = end.achievedRate();
        lib_.policy_->feedback(ctx, dec, fb);

        hopDone(channel);
    }

    void
    onNvlinkDone(int channel, NodeId node)
    {
        const Communicator &comm = *cs_.comm;
        for (Rank r : comm.ranksOnNode(node))
            lib_.monitor_.heartbeat(comm.id(), r, lib_.sim_.now());
        hopDone(channel);
    }

    void
    hopDone(int channel)
    {
        ChannelCursor &cur = cursors_[static_cast<std::size_t>(channel)];
        assert(cur.pending > 0);
        if (--cur.pending == 0)
            advance(channel);
    }

    void
    advance(int channel)
    {
        ChannelCursor &cur = cursors_[static_cast<std::size_t>(channel)];

        // Give the policy a chance to rebalance the QP groups this round
        // used (C4P's dynamic load balance hook).
        for (std::uint64_t key : cur.connsUsed) {
            Connection &conn = cs_.conns.at(key);
            lib_.policy_->rebalance(conn.ctxs, conn.decisions,
                                    conn.weights);
        }

        ++cur.round;
        if (cur.round >=
            stages_[static_cast<std::size_t>(cur.stage)].rounds) {
            cur.round = 0;
            ++cur.stage;
        }
        if (cur.stage >= static_cast<int>(stages_.size())) {
            cur.finished = true;
            if (++channelsFinished_ ==
                static_cast<int>(cursors_.size())) {
                finish();
            }
            return;
        }
        startRound(channel);
    }

    void
    finish()
    {
        const Communicator &comm = *cs_.comm;
        AcclMonitor &mon = lib_.monitor_;
        const Time end = lib_.sim_.now();

        for (Rank r = 0; r < comm.size(); ++r) {
            CollRecord rec;
            rec.comm = comm.id();
            rec.seq = op_.seq;
            rec.op = op_.op;
            rec.algo = op_.algo;
            rec.rank = r;
            rec.bytes = op_.bytes;
            rec.postTime = postTimes_[static_cast<std::size_t>(r)];
            rec.startTime = startTime_;
            rec.endTime = end;
            mon.record(rec);
            mon.heartbeat(comm.id(), r, end);
        }
        mon.opFinished(comm.id(), op_.seq, end);

        CollectiveResult res;
        res.comm = comm.id();
        res.seq = op_.seq;
        res.op = op_.op;
        res.algo = op_.algo;
        res.bytes = op_.bytes;
        res.nranks = comm.size();
        res.postTime = minPost_;
        res.startTime = startTime_;
        res.endTime = end;

        CollectiveCallback done = std::move(op_.done);
        lib_.finishExec(cs_); // destroys *this; run callback after
        if (done)
            done(res);
    }
};

Accl::Accl(Simulator &sim, net::Fabric &fabric, AcclConfig cfg,
           std::uint64_t seed)
    : sim_(sim), fabric_(fabric), cfg_(cfg), rng_(seed),
      monitor_(cfg.monitoring, cfg.monitorCapacity),
      baselinePolicy_(rng_()), policy_(&baselinePolicy_)
{
    if (cfg_.defaultChannels < 1 || cfg_.qpsPerConnection < 1 ||
        cfg_.maxSimRounds < 1) {
        throw std::invalid_argument("AcclConfig fields must be >= 1");
    }
}

Accl::~Accl() = default;

CommId
Accl::createCommunicator(JobId job, std::vector<DeviceInfo> devices,
                         int channels)
{
    const int ch = channels > 0 ? channels : cfg_.defaultChannels;
    const CommId id = nextCommId_++;
    auto cs = std::make_unique<CommState>();
    cs->comm = std::make_unique<Communicator>(id, job, std::move(devices),
                                              ch);

    CommRecord rec;
    rec.when = sim_.now();
    rec.comm = id;
    rec.job = job;
    rec.nranks = cs->comm->size();
    rec.channels = ch;
    rec.created = true;
    for (const auto &d : cs->comm->devices())
        rec.rankNodes.push_back(d.node);
    monitor_.record(rec);

    comms_.emplace(id, std::move(cs));
    return id;
}

void
Accl::destroyCommunicator(CommId comm)
{
    auto it = comms_.find(comm);
    if (it == comms_.end())
        return;
    CommState &cs = *it->second;

    CommRecord rec;
    rec.when = sim_.now();
    rec.comm = comm;
    rec.job = cs.comm->job();
    rec.nranks = cs.comm->size();
    rec.channels = cs.comm->channels();
    rec.created = false;
    monitor_.record(rec);

    releaseConnections(cs);
    monitor_.commClosed(comm);
    comms_.erase(it); // Exec destructor aborts in-flight flows
}

bool
Accl::hasCommunicator(CommId comm) const
{
    return comms_.count(comm) > 0;
}

const Communicator &
Accl::communicator(CommId comm) const
{
    return *state(comm).comm;
}

void
Accl::setPathPolicy(PathPolicy *policy)
{
    policy_ = policy != nullptr ? policy : &baselinePolicy_;
}

Accl::CommState &
Accl::state(CommId comm)
{
    auto it = comms_.find(comm);
    if (it == comms_.end())
        throw std::out_of_range("unknown communicator");
    return *it->second;
}

const Accl::CommState &
Accl::state(CommId comm) const
{
    auto it = comms_.find(comm);
    if (it == comms_.end())
        throw std::out_of_range("unknown communicator");
    return *it->second;
}

Accl::Connection &
Accl::getConnection(CommState &cs, int channel, Rank src, Rank dst)
{
    const std::uint64_t key = connKey(channel, src, dst);
    auto it = cs.conns.find(key);
    if (it != cs.conns.end())
        return it->second;

    const Communicator &comm = *cs.comm;
    const DeviceInfo &sd = comm.device(src);
    const DeviceInfo &dd = comm.device(dst);

    // Rail selection: a boundary's traffic departs the boundary GPU's
    // rail-affine NIC and lands on the receiving GPU's NIC. All channels
    // share that bonded NIC pair (one plane each by default), which is
    // the dual-port arrangement whose RX imbalance Fig. 9 studies.
    const NicId src_nic = sd.nic;
    const NicId dst_nic = dd.nic;

    Connection conn;
    for (int q = 0; q < cfg_.qpsPerConnection; ++q) {
        ConnContext ctx;
        ctx.job = comm.job();
        ctx.comm = comm.id();
        ctx.channel = channel;
        ctx.qpIndex = q;
        ctx.srcNode = sd.node;
        ctx.srcNic = src_nic;
        ctx.dstNode = dd.node;
        ctx.dstNic = dst_nic;
        conn.ctxs.push_back(ctx);
        conn.decisions.push_back(policy_->decide(ctx));
        conn.weights.push_back(1.0);
        conn.qpIds.push_back(nextQpId_++);
    }
    return cs.conns.emplace(key, std::move(conn)).first->second;
}

void
Accl::releaseConnections(CommState &cs)
{
    for (auto &[key, conn] : cs.conns) {
        for (std::size_t q = 0; q < conn.ctxs.size(); ++q)
            policy_->release(conn.ctxs[q], conn.decisions[q]);
    }
    cs.conns.clear();
}

CollSeq
Accl::postCollective(CommId comm, CollOp op, Bytes bytesPerRank,
                     CollectiveCallback done,
                     std::vector<Duration> rankPostDelays, AlgoKind algo)
{
    assert(bytesPerRank > 0);
    assert(op != CollOp::SendRecv && "use sendRecv()");
    CommState &cs = state(comm);

    PendingOp p;
    p.seq = cs.nextSeq++;
    p.op = op;
    p.algo = algo;
    p.bytes = bytesPerRank;
    p.delays = std::move(rankPostDelays);
    p.done = std::move(done);
    p.postedAt = sim_.now();
    const CollSeq seq = p.seq;
    cs.queue.push_back(std::move(p));
    ++posted_;

    startNext(cs);
    return seq;
}

CollSeq
Accl::sendRecv(CommId comm, Rank src, Rank dst, Bytes bytes,
               CollectiveCallback done)
{
    assert(bytes > 0);
    CommState &cs = state(comm);
    assert(src >= 0 && src < cs.comm->size());
    assert(dst >= 0 && dst < cs.comm->size());

    PendingOp p;
    p.seq = cs.nextSeq++;
    p.op = CollOp::SendRecv;
    p.bytes = bytes;
    p.done = std::move(done);
    p.postedAt = sim_.now();
    p.p2pSrc = src;
    p.p2pDst = dst;
    const CollSeq seq = p.seq;
    cs.queue.push_back(std::move(p));
    ++posted_;

    startNext(cs);
    return seq;
}

void
Accl::crashRank(CommId comm, Rank rank)
{
    CommState &cs = state(comm);
    assert(rank >= 0 && rank < cs.comm->size());
    cs.crashed.insert(rank);
}

bool
Accl::rankCrashed(CommId comm, Rank rank) const
{
    return state(comm).crashed.count(rank) > 0;
}

void
Accl::startNext(CommState &cs)
{
    if (cs.active || cs.queue.empty())
        return;
    PendingOp op = std::move(cs.queue.front());
    cs.queue.pop_front();
    cs.active = std::make_unique<Exec>(*this, cs, std::move(op));
    cs.active->begin();
}

void
Accl::finishExec(CommState &cs)
{
    ++completed_;
    cs.active.reset();
    startNext(cs);
}

} // namespace c4::accl
