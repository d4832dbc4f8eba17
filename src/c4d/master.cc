#include "c4d/master.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/log.h"

namespace c4::c4d {

const char *
c4dEventKindName(C4dEventKind kind)
{
    switch (kind) {
      case C4dEventKind::CommHang:    return "comm-hang";
      case C4dEventKind::NonCommHang: return "non-comm-hang";
      case C4dEventKind::CommSlow:    return "comm-slow";
      case C4dEventKind::NonCommSlow: return "non-comm-slow";
    }
    return "?";
}

bool
c4dEventIsFatal(C4dEventKind kind)
{
    return kind == C4dEventKind::CommHang ||
           kind == C4dEventKind::NonCommHang;
}

std::string
C4dEvent::str() const
{
    std::ostringstream os;
    os << c4dEventKindName(kind) << " job=" << job << " comm=" << comm
       << " nodes=[";
    for (std::size_t i = 0; i < suspectNodes.size(); ++i)
        os << (i ? "," : "") << suspectNodes[i];
    os << "] " << detail;
    return os.str();
}

C4dMaster::C4dMaster(Simulator &sim, C4dConfig cfg)
    : sim_(sim), cfg_(cfg),
      ticker_(sim, cfg.evaluatePeriod, [this] { evaluate(); })
{
}

void
C4dMaster::registerComm(const accl::CommRecord &rec)
{
    CommHealth health;
    health.job = rec.job;
    health.nranks = rec.nranks;
    health.rankNodes = rec.rankNodes;
    health.heartbeats.assign(static_cast<std::size_t>(rec.nranks),
                             kTimeNever);
    comms_[rec.comm] = std::move(health);
}

void
C4dMaster::deregisterComm(CommId comm)
{
    comms_.erase(comm);
}

void
C4dMaster::ingest(const std::vector<accl::ConnRecord> &records)
{
    for (const auto &r : records) {
        auto it = comms_.find(r.comm);
        if (it == comms_.end())
            continue;
        auto &q = it->second.conns;
        if (q.size() >= cfg_.connWindow)
            q.pop_front();
        q.push_back(r);
    }
}

void
C4dMaster::ingest(const std::vector<accl::RankWaitRecord> &records)
{
    for (const auto &r : records) {
        auto it = comms_.find(r.comm);
        if (it == comms_.end())
            continue;
        auto &q = it->second.waits;
        if (q.size() >= cfg_.waitWindow)
            q.pop_front();
        q.push_back(r);
    }
}

void
C4dMaster::updateProgress(CommId comm, const accl::OpProgress &op,
                          std::vector<Time> heartbeats)
{
    auto it = comms_.find(comm);
    if (it == comms_.end())
        return;
    it->second.progress = op;
    it->second.heartbeats = std::move(heartbeats);
}

void
C4dMaster::start()
{
    ticker_.start();
}

void
C4dMaster::stop()
{
    ticker_.stop();
}

void
C4dMaster::evaluate()
{
    ++evaluations_;
    for (auto &[comm, health] : comms_)
        evaluateComm(comm, health);
}

std::vector<NodeId>
C4dMaster::nodesOf(const CommHealth &health,
                   const std::vector<Rank> &ranks) const
{
    std::vector<NodeId> nodes;
    for (Rank r : ranks) {
        if (r >= 0 &&
            static_cast<std::size_t>(r) < health.rankNodes.size()) {
            const NodeId n = health.rankNodes[static_cast<std::size_t>(r)];
            if (std::find(nodes.begin(), nodes.end(), n) == nodes.end())
                nodes.push_back(n);
        }
    }
    return nodes;
}

bool
C4dMaster::cooldownOk(CommHealth &health, C4dEventKind kind)
{
    auto it = health.lastFinding.find(static_cast<int>(kind));
    if (it != health.lastFinding.end() &&
        sim_.now() - it->second < cfg_.findingCooldown) {
        return false;
    }
    health.lastFinding[static_cast<int>(kind)] = sim_.now();
    return true;
}

void
C4dMaster::emit(C4dEvent event, CommHealth &health)
{
    event.when = sim_.now();
    if (c4dEventIsFatal(event.kind))
        health.flaggedFatal = true;
    ++emitted_;
    logInfo("c4d", "event: %s", event.str().c_str());
    eventLog_.push_back(event);
    for (const auto &cb : callbacks_)
        cb(event);
}

void
C4dMaster::evaluateComm(CommId comm, CommHealth &health)
{
    if (health.flaggedFatal)
        return; // already escalated; steering will tear this job down

    // 1. Hang detection (fatal).
    const HangFinding hang = analyzeHang(
        health.progress, health.heartbeats, sim_.now(),
        cfg_.hangThreshold);
    if (hang.found()) {
        C4dEvent ev;
        ev.kind = hang.kind == HangKind::NonCommHang
                      ? C4dEventKind::NonCommHang
                      : C4dEventKind::CommHang;
        ev.job = health.job;
        ev.comm = comm;
        ev.suspectRanks = hang.suspects;
        ev.suspectNodes = nodesOf(health, hang.suspects);
        char buf[64];
        std::snprintf(buf, sizeof(buf), "seq=%llu",
                      static_cast<unsigned long long>(hang.seq));
        ev.detail = buf;
        emit(std::move(ev), health);
        return;
    }

    // 2. Communication slow (delay-matrix localization, Fig. 7).
    if (!health.conns.empty()) {
        const DelayMatrix matrix =
            DelayMatrix::build(health.nranks, health.conns);
        const CommSlowFinding slow =
            analyzeCommSlow(matrix, cfg_.analyzer);
        if (slow.found() && cooldownOk(health, C4dEventKind::CommSlow)) {
            C4dEvent ev;
            ev.kind = C4dEventKind::CommSlow;
            ev.job = health.job;
            ev.comm = comm;
            switch (slow.kind) {
              case CommSlowKind::SourceTx:
                ev.suspectRanks = {slow.src};
                break;
              case CommSlowKind::DestRx:
                ev.suspectRanks = {slow.dst};
                break;
              default:
                ev.suspectRanks = {slow.src, slow.dst};
            }
            ev.suspectNodes = nodesOf(health, ev.suspectRanks);
            ev.detail = slow.str();
            emit(std::move(ev), health);
        }
    }

    // 3. Non-communication slow (receiver wait chain).
    if (!health.waits.empty()) {
        const NonCommSlowFinding straggler =
            analyzeNonCommSlow(health.nranks, health.waits, cfg_.analyzer);
        if (straggler.found &&
            cooldownOk(health, C4dEventKind::NonCommSlow)) {
            C4dEvent ev;
            ev.kind = C4dEventKind::NonCommSlow;
            ev.job = health.job;
            ev.comm = comm;
            ev.suspectRanks = {straggler.rank};
            ev.suspectNodes = nodesOf(health, ev.suspectRanks);
            ev.detail = straggler.str();
            emit(std::move(ev), health);
        }
    }
}

} // namespace c4::c4d
