/**
 * @file
 * Dual-plane fat-tree cluster topology, modelled after the paper's testbed:
 * nodes with 8 GPUs and 8 dual-port RDMA NICs; each NIC's two 200 Gbps
 * ports ("left"/"right" planes) connect to a pair of leaf switches; leaves
 * connect to a shared spine layer in a Clos fat-tree with a configurable
 * oversubscription ratio (Section II-D / IV-A of the paper).
 *
 * Nodes are grouped into "segments": all NICs of the nodes in a segment
 * attach to that segment's leaf pair. Traffic between segments must cross
 * a spine; traffic within a segment and plane turns around at the leaf.
 *
 * Every physical cable is represented as two directed Links so that Tx and
 * Rx congestion are independent — this is what lets C4D's delay matrix
 * distinguish "rank 3 Tx slow" from "rank 3 Rx slow" (paper Fig. 7).
 */

#ifndef C4_NET_TOPOLOGY_H
#define C4_NET_TOPOLOGY_H

#include <string>
#include <vector>

#include "common/types.h"

namespace c4::net {

/** Which of a NIC's two bonded physical ports a flow departs/arrives on. */
enum class Plane : std::int8_t { Left = 0, Right = 1 };

constexpr int kNumPlanes = 2;

inline int
planeIndex(Plane p)
{
    return static_cast<int>(p);
}

inline Plane
planeFromIndex(int i)
{
    return i == 0 ? Plane::Left : Plane::Right;
}

const char *planeName(Plane p);

/** Classification of a directed link within the fabric. */
enum class LinkKind : std::int8_t {
    HostUp,   ///< NIC port -> leaf switch
    HostDown, ///< leaf switch -> NIC port
    TrunkUp,  ///< leaf -> spine
    TrunkDown ///< spine -> leaf
};

const char *linkKindName(LinkKind kind);

/**
 * A directed, capacity-limited edge of the fabric. Capacity can be scaled
 * (NIC/PCIe degradation faults) and the link can be administratively or
 * fault downed.
 */
struct Link
{
    LinkId id = kInvalidId;
    LinkKind kind = LinkKind::HostUp;
    std::string name;

    /** Nominal capacity in bits per second. */
    Bandwidth capacity = 0.0;

    /** Degradation multiplier in (0, 1]; applied to capacity. */
    double capacityScale = 1.0;

    bool up = true;

    /** @name Endpoint coordinates (meaning depends on kind) @{ */
    NodeId node = kInvalidId;   ///< Host* kinds: the node
    NicId nic = kInvalidId;     ///< Host* kinds: the NIC
    Plane plane = Plane::Left;  ///< Host* kinds: the port plane
    std::int32_t leaf = kInvalidId;  ///< all kinds: leaf switch index
    std::int32_t spine = kInvalidId; ///< Trunk* kinds: spine index
    /** @} */

    /** Effective capacity accounting for scaling and up/down state. */
    Bandwidth
    effectiveCapacity() const
    {
        return up ? capacity * capacityScale : 0.0;
    }
};

/** Build-time parameters of the cluster fabric. */
struct TopologyConfig
{
    int numNodes = 16;
    int gpusPerNode = 8;
    int nicsPerNode = 8;          ///< one NIC per GPU, as in the testbed
    int nodesPerSegment = 4;      ///< nodes sharing one leaf pair
    int numSpines = 8;
    Bandwidth portBandwidth = gbps(200); ///< per physical NIC port

    /**
     * Downlink:uplink capacity ratio. 1.0 reproduces the testbed's 1:1
     * fat-tree; 2.0 the deliberately congested 2:1 network of Fig. 10b.
     */
    double oversubscription = 1.0;

    /**
     * Bus-bandwidth ceiling imposed by the intra-node NVLink fabric
     * (the paper measures 362 Gbps on H800 nodes).
     */
    Bandwidth nvlinkBusBandwidth = gbps(362);

    /** Validate invariants; returns an error message or empty string. */
    std::string validate() const;
};

/**
 * Persistent link -> member index over a fixed link population.
 *
 * Maps every LinkId to the set of member ids (in practice: the flow
 * ids of the flows routed over the link) so that "who shares this
 * link" is an O(degree) lookup instead of an O(all members) scan.
 * The Fabric maintains one of these alongside its flow table and uses
 * it to scope incremental re-allocation to the connected component of
 * flows reachable from a dirty link.
 *
 * Membership order is deterministic (a function of the add/remove
 * sequence) but not meaningful: removal swap-pops, so callers that
 * need a canonical order must impose their own (the fabric sorts a
 * component's flows by id before filling).
 */
class LinkMembershipIndex
{
  public:
    explicit LinkMembershipIndex(std::size_t numLinks)
        : members_(numLinks)
    {
    }

    /** Register @p member on @p link. Must not already be present. */
    void add(LinkId link, std::int64_t member);

    /**
     * Unregister @p member from @p link (O(link degree)).
     * A harmless no-op when the pair was never registered.
     */
    void remove(LinkId link, std::int64_t member);

    /** Members currently registered on @p link (unordered). */
    const std::vector<std::int64_t> &
    members(LinkId link) const
    {
        return members_[static_cast<std::size_t>(link)];
    }

    std::size_t
    memberCount(LinkId link) const
    {
        return members_[static_cast<std::size_t>(link)].size();
    }

    std::size_t numLinks() const { return members_.size(); }

  private:
    std::vector<std::vector<std::int64_t>> members_;
};

/**
 * Immutable wiring of the cluster plus mutable per-link state.
 *
 * Construction lays out all links; the only mutations afterwards are link
 * up/down and capacity scaling (driven by the fault injector and by
 * benches that kill uplinks mid-run).
 */
class Topology
{
  public:
    explicit Topology(const TopologyConfig &config);

    const TopologyConfig &config() const { return config_; }

    /** @name Dimensions @{ */
    int numNodes() const { return config_.numNodes; }
    int numGpus() const { return config_.numNodes * config_.gpusPerNode; }
    int gpusPerNode() const { return config_.gpusPerNode; }
    int nicsPerNode() const { return config_.nicsPerNode; }
    int numSegments() const { return numSegments_; }
    int numLeaves() const { return numSegments_ * kNumPlanes; }
    int numSpines() const { return config_.numSpines; }
    std::size_t numLinks() const { return links_.size(); }
    /** @} */

    /** Segment (leaf-pair group) that a node belongs to. */
    int segmentOf(NodeId node) const;

    /** Flat leaf index for (segment, plane). */
    int leafIndex(int segment, Plane plane) const;

    /** Segment of a flat leaf index. */
    int leafSegment(int leaf) const;

    /** Plane of a flat leaf index. */
    Plane leafPlane(int leaf) const;

    /** @name Link lookup @{ */
    LinkId hostUplink(NodeId node, NicId nic, Plane plane) const;
    LinkId hostDownlink(NodeId node, NicId nic, Plane plane) const;
    LinkId trunkUplink(int leaf, int spine) const;
    LinkId trunkDownlink(int spine, int leaf) const;
    /** @} */

    const Link &link(LinkId id) const;
    Link &link(LinkId id);
    const std::vector<Link> &links() const { return links_; }

    /** @name Fault / maintenance operations @{ */
    void setLinkUp(LinkId id, bool up);
    void setLinkCapacityScale(LinkId id, double scale);
    /** @} */

    /**
     * Spines reachable from @p leaf over healthy uplinks.
     * A spine counts as healthy for a (txLeaf, rxLeaf) pair only if both
     * the uplink and the downlink trunks are up.
     */
    std::vector<int> healthySpines(int txLeaf, int rxLeaf) const;

    /** True if the two GPUs' ranks live on the same node. */
    bool
    sameNode(NodeId a, NodeId b) const
    {
        return a == b;
    }

    /** Human-readable one-line summary ("16 nodes, 8 leaves, 8 spines"). */
    std::string summary() const;

  private:
    TopologyConfig config_;
    int numSegments_ = 0;

    std::vector<Link> links_;

    // Lookup tables, indexed as documented in the getters.
    std::vector<LinkId> hostUp_;    // [node][nic][plane]
    std::vector<LinkId> hostDown_;  // [node][nic][plane]
    std::vector<LinkId> trunkUp_;   // [leaf][spine]
    std::vector<LinkId> trunkDown_; // [spine][leaf]

    std::size_t hostLinkIndex(NodeId node, NicId nic, Plane plane) const;

    LinkId addLink(Link link);
    void buildHostLinks();
    void buildTrunkLinks();
};

} // namespace c4::net

#endif // C4_NET_TOPOLOGY_H
