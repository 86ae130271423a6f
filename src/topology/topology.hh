/**
 * @file
 * Abstract interconnect topology with bidirectional half-duplex links.
 *
 * The paper evaluates generalized hypercubes and tori; both derive
 * from this base, which owns the node/link tables and provides
 * generic breadth-first helpers. Links are *undirected* resources: a
 * link carries one message at a time regardless of direction, exactly
 * as in the paper's half-duplex channel model.
 */

#ifndef SRSIM_TOPOLOGY_TOPOLOGY_HH_
#define SRSIM_TOPOLOGY_TOPOLOGY_HH_

#include <cstddef>
#include <string>
#include <vector>

#include "topology/path.hh"

namespace srsim {

/** One undirected half-duplex channel between adjacent nodes. */
struct Link
{
    LinkId id = kInvalidLink;
    NodeId a = kInvalidNode;
    NodeId b = kInvalidNode;

    /** @return the endpoint that is not `n`. */
    NodeId
    other(NodeId n) const
    {
        return n == a ? b : a;
    }
};

/**
 * Base class for interconnection networks.
 *
 * Construction protocol for subclasses: call setNumNodes(), addLink()
 * for every channel, then finalize(). Duplicate links between the
 * same unordered node pair are coalesced (relevant for radix-2 tori,
 * where +1 and -1 neighbours coincide).
 */
class Topology
{
  public:
    virtual ~Topology() = default;

    /** @return short human-readable name, e.g. "GHC(4,4,4)". */
    virtual std::string name() const = 0;

    int numNodes() const { return static_cast<int>(adjacency_.size()); }
    int numLinks() const { return static_cast<int>(links_.size()); }

    const Link &link(LinkId id) const;

    /** All links incident to node n. */
    const std::vector<LinkId> &linksAt(NodeId n) const;

    /** Neighbour nodes of n (one per incident link). */
    std::vector<NodeId> neighborsOf(NodeId n) const;

    /** @return link id between a and b, or kInvalidLink. */
    LinkId linkBetween(NodeId a, NodeId b) const;

    bool
    adjacent(NodeId a, NodeId b) const
    {
        return linkBetween(a, b) != kInvalidLink;
    }

    int degree(NodeId n) const
    {
        return static_cast<int>(linksAt(n).size());
    }

    /**
     * Hop distance between two nodes over the *surviving* fabric.
     * On a healthy topology this dispatches to the subclass's
     * analytic distance; on a degraded one it runs a masked BFS.
     * Panics when src and dst are disconnected (same contract in
     * both modes).
     */
    int distance(NodeId src, NodeId dst) const;

    /**
     * Enumerate minimal (shortest) paths from src to dst over the
     * surviving fabric. Healthy topologies use the subclass's
     * analytic enumeration; degraded ones enumerate shortest paths
     * by masked BFS, skipping failed links and nodes. Returns an
     * empty vector when the pair is disconnected by faults.
     * @param maxPaths cap on the number of paths returned (0 = no cap)
     */
    std::vector<Path>
    minimalPaths(NodeId src, NodeId dst, std::size_t maxPaths = 0)
        const;

    /**
     * The deterministic routing-function path, correcting the address
     * from least-significant dimension to most-significant (the
     * "LSD-to-MSD" route of Sec. 5.1; e-cube / dimension-order).
     * On a degraded topology, falls back to the first masked minimal
     * path when the analytic route crosses a failed resource, and
     * returns an empty Path when disconnected.
     */
    Path routeLsdToMsd(NodeId src, NodeId dst) const;

    /**
     * Build a Path from a node sequence, resolving link ids.
     * Purely structural (ignores the fault mask). Panics if
     * consecutive nodes are not adjacent.
     */
    Path makePath(const std::vector<NodeId> &nodes) const;

    /**
     * @return true if p is a contiguous route with valid link ids.
     * Purely structural; use pathAlive() for fault-mask liveness.
     */
    bool validPath(const Path &p) const;

    // ---- fault mask -------------------------------------------------
    //
    // Links and nodes can be failed (removed from the surviving
    // fabric) or links derated (capacity reduced to a duty-cycle
    // fraction f in (0,1]). The structural tables are never mutated;
    // the mask only changes what the routing queries above return and
    // what pathAlive()/linkCapacity() report.

    /** @return true once any fault has been applied. */
    bool degraded() const { return degraded_; }

    /** @return true if link l has not been failed. */
    bool linkUp(LinkId l) const;

    /** @return true if node n has not been failed. */
    bool nodeUp(NodeId n) const;

    /**
     * Duty-cycle capacity of link l: 1 when healthy, f in (0,1) when
     * derated, 0 when failed.
     */
    double linkCapacity(LinkId l) const;

    /** Number of links still up. */
    int numLiveLinks() const;

    /** Remove link l from the surviving fabric. */
    void failLink(LinkId l);

    /** Remove node n and all its incident links. */
    void failNode(NodeId n);

    /** Derate link l to duty-cycle fraction f in (0,1]. */
    void derateLink(LinkId l, double f);

    /** Restore the healthy fabric (all links/nodes up, capacity 1). */
    void clearFaults();

    /** A saved fault mask (see faultMask() / setFaultMask()). */
    struct FaultMask
    {
        std::vector<char> linkUp, nodeUp;
        std::vector<double> linkCap;
        bool degraded = false;
    };

    /** @return the current fault mask, to put back later. */
    FaultMask faultMask() const;

    /** Put back a mask saved by faultMask() on this fabric. */
    void setFaultMask(FaultMask m);

    /**
     * @return true if every node and link of p survives the fault
     * mask (p must also be structurally valid).
     */
    bool pathAlive(const Path &p) const;

    /** @return true if p crosses a link below full capacity. */
    bool crossesDerated(const Path &p) const;

  protected:
    void setNumNodes(int n);
    void addLink(NodeId a, NodeId b);
    void checkNode(NodeId n) const;

    /** Analytic hop distance on the *healthy* fabric. Default: BFS. */
    virtual int distanceImpl(NodeId src, NodeId dst) const;

    /** Analytic minimal-path enumeration on the healthy fabric. */
    virtual std::vector<Path>
    minimalPathsImpl(NodeId src, NodeId dst,
                     std::size_t maxPaths) const = 0;

    /** Analytic LSD-to-MSD route on the healthy fabric. */
    virtual Path routeLsdToMsdImpl(NodeId src, NodeId dst) const = 0;

  private:
    /** Lazily allocate the mask arrays on the first fault. */
    void ensureMask();

    /** BFS levels over the surviving fabric; -1 = unreachable. */
    std::vector<int> maskedLevels(NodeId src) const;

    std::vector<Path>
    maskedMinimalPaths(NodeId src, NodeId dst,
                       std::size_t maxPaths) const;

    std::vector<Link> links_;
    std::vector<std::vector<LinkId>> adjacency_;
    std::vector<char> linkUp_;
    std::vector<char> nodeUp_;
    std::vector<double> linkCap_;
    bool degraded_ = false;
};

} // namespace srsim

#endif // SRSIM_TOPOLOGY_TOPOLOGY_HH_
