/**
 * @file
 * Communicators: the groups of devices a collective runs over, mirroring
 * ACCL's communicator layer (paper Fig. 6: communicator IDs, involved
 * devices, device ranks).
 */

#ifndef C4_ACCL_COMMUNICATOR_H
#define C4_ACCL_COMMUNICATOR_H

#include <string>
#include <vector>

#include "common/types.h"

namespace c4::accl {

/** Physical placement of one rank. */
struct DeviceInfo
{
    NodeId node = kInvalidId;
    GpuId gpu = kInvalidId; ///< local GPU index on the node
    NicId nic = kInvalidId; ///< rail-affine NIC (usually == gpu)
};

/**
 * An ordered set of devices participating in collectives together.
 * Rank order defines the ring order; callers are expected to pass
 * topology-sorted device lists (consecutive ranks co-located), exactly
 * as the framework's topology-aware scheduler would (paper III-B).
 */
class Communicator
{
  public:
    /**
     * @param id unique communicator id
     * @param job owning training job (kInvalidId for benchmarks)
     * @param devices placement of each rank, in ring order
     * @param channels parallel channel count (QP groups per connection)
     */
    Communicator(CommId id, JobId job, std::vector<DeviceInfo> devices,
                 int channels);

    CommId id() const { return id_; }
    JobId job() const { return job_; }
    int size() const { return static_cast<int>(devices_.size()); }
    int channels() const { return channels_; }

    const DeviceInfo &device(Rank r) const;
    const std::vector<DeviceInfo> &devices() const { return devices_; }

    Rank
    nextRank(Rank r) const
    {
        return static_cast<Rank>((r + 1) % size());
    }

    Rank
    prevRank(Rank r) const
    {
        return static_cast<Rank>((r + size() - 1) % size());
    }

    /** True if the whole communicator lives on a single node. */
    bool singleNode() const { return singleNode_; }

    /**
     * Ranks hosted on @p node, in rank order; empty for a node the
     * communicator does not use. The lists are built once, so this is
     * a table lookup.
     */
    const std::vector<Rank> &ranksOnNode(NodeId node) const;

    /** Distinct nodes hosting at least one rank, in first-rank order. */
    const std::vector<NodeId> &nodes() const { return nodes_; }

    /** Max number of co-located consecutive ranks on any node. */
    int maxRanksPerNode() const { return maxRanksPerNode_; }

    /**
     * Ring boundaries: (rank, nextRank) pairs whose devices live on
     * different nodes. These are the connections that generate fabric
     * traffic; everything else rides NVLink.
     */
    struct Boundary
    {
        Rank src = kInvalidId;
        Rank dst = kInvalidId;
    };
    const std::vector<Boundary> &boundaries() const { return boundaries_; }

    std::string str() const;

  private:
    CommId id_;
    JobId job_;
    std::vector<DeviceInfo> devices_;
    int channels_;
    bool singleNode_ = true;
    int maxRanksPerNode_ = 0;
    std::vector<NodeId> nodes_;
    std::vector<Boundary> boundaries_;
    // Dense by NodeId (up to the largest node used): index into
    // nodeRanks_, or -1 for a node hosting no rank.
    std::vector<int> nodeSlot_;
    std::vector<std::vector<Rank>> nodeRanks_; // parallel to nodes_
};

} // namespace c4::accl

#endif // C4_ACCL_COMMUNICATOR_H
