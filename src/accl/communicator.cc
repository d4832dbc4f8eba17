#include "accl/communicator.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

namespace c4::accl {

Communicator::Communicator(CommId id, JobId job,
                           std::vector<DeviceInfo> devices, int channels)
    : id_(id), job_(job), devices_(std::move(devices)), channels_(channels)
{
    if (devices_.empty())
        throw std::invalid_argument("Communicator needs >= 1 device");
    if (channels_ < 1)
        throw std::invalid_argument("Communicator needs >= 1 channel");

    for (Rank r = 0; r < size(); ++r) {
        const NodeId node = devices_[static_cast<std::size_t>(r)].node;
        if (node < 0)
            throw std::invalid_argument("Communicator device has no node");
        const auto ni = static_cast<std::size_t>(node);
        if (ni >= nodeSlot_.size())
            nodeSlot_.resize(ni + 1, -1);
        if (nodeSlot_[ni] < 0) {
            nodeSlot_[ni] = static_cast<int>(nodes_.size());
            nodes_.push_back(node);
            nodeRanks_.emplace_back();
        }
        nodeRanks_[static_cast<std::size_t>(nodeSlot_[ni])].push_back(r);
    }
    singleNode_ = nodes_.size() == 1;
    for (const auto &ranks : nodeRanks_)
        maxRanksPerNode_ =
            std::max(maxRanksPerNode_, static_cast<int>(ranks.size()));

    if (!singleNode_) {
        for (Rank r = 0; r < size(); ++r) {
            const Rank nr = nextRank(r);
            if (devices_[static_cast<std::size_t>(r)].node !=
                devices_[static_cast<std::size_t>(nr)].node) {
                boundaries_.push_back(Boundary{r, nr});
            }
        }
    }
}

const DeviceInfo &
Communicator::device(Rank r) const
{
    assert(r >= 0 && r < size());
    return devices_[static_cast<std::size_t>(r)];
}

const std::vector<Rank> &
Communicator::ranksOnNode(NodeId node) const
{
    static const std::vector<Rank> kNone;
    if (node < 0 || static_cast<std::size_t>(node) >= nodeSlot_.size())
        return kNone;
    const int slot = nodeSlot_[static_cast<std::size_t>(node)];
    return slot < 0 ? kNone : nodeRanks_[static_cast<std::size_t>(slot)];
}

std::string
Communicator::str() const
{
    std::ostringstream os;
    os << "comm" << id_ << "[job=" << job_ << " ranks=" << size()
       << " nodes=" << nodes_.size() << " channels=" << channels_
       << " boundaries=" << boundaries_.size() << "]";
    return os.str();
}

} // namespace c4::accl
