#include "topology/topology.hh"

#include <deque>
#include <functional>

#include "util/logging.hh"

namespace srsim {

const Link &
Topology::link(LinkId id) const
{
    SRSIM_ASSERT(id >= 0 && id < numLinks(), "bad link id ", id);
    return links_[static_cast<std::size_t>(id)];
}

const std::vector<LinkId> &
Topology::linksAt(NodeId n) const
{
    checkNode(n);
    return adjacency_[static_cast<std::size_t>(n)];
}

std::vector<NodeId>
Topology::neighborsOf(NodeId n) const
{
    std::vector<NodeId> out;
    for (LinkId l : linksAt(n))
        out.push_back(link(l).other(n));
    return out;
}

LinkId
Topology::linkBetween(NodeId a, NodeId b) const
{
    checkNode(a);
    checkNode(b);
    for (LinkId l : adjacency_[static_cast<std::size_t>(a)]) {
        const Link &lk = link(l);
        if ((lk.a == a && lk.b == b) || (lk.a == b && lk.b == a))
            return l;
    }
    return kInvalidLink;
}

int
Topology::distanceImpl(NodeId src, NodeId dst) const
{
    checkNode(src);
    checkNode(dst);
    if (src == dst)
        return 0;
    std::vector<int> dist(static_cast<std::size_t>(numNodes()), -1);
    std::deque<NodeId> queue{src};
    dist[static_cast<std::size_t>(src)] = 0;
    while (!queue.empty()) {
        NodeId u = queue.front();
        queue.pop_front();
        for (NodeId v : neighborsOf(u)) {
            auto &d = dist[static_cast<std::size_t>(v)];
            if (d < 0) {
                d = dist[static_cast<std::size_t>(u)] + 1;
                if (v == dst)
                    return d;
                queue.push_back(v);
            }
        }
    }
    panic("topology ", name(), " is disconnected between ", src,
          " and ", dst);
}

int
Topology::distance(NodeId src, NodeId dst) const
{
    if (!degraded_)
        return distanceImpl(src, dst);
    checkNode(src);
    checkNode(dst);
    const std::vector<int> lvl = maskedLevels(src);
    const int d = lvl[static_cast<std::size_t>(dst)];
    if (d < 0)
        panic("degraded topology ", name(),
              " is disconnected between ", src, " and ", dst);
    return d;
}

std::vector<Path>
Topology::minimalPaths(NodeId src, NodeId dst,
                       std::size_t maxPaths) const
{
    if (!degraded_)
        return minimalPathsImpl(src, dst, maxPaths);
    return maskedMinimalPaths(src, dst, maxPaths);
}

Path
Topology::routeLsdToMsd(NodeId src, NodeId dst) const
{
    if (!degraded_)
        return routeLsdToMsdImpl(src, dst);
    const Path analytic = routeLsdToMsdImpl(src, dst);
    if (pathAlive(analytic))
        return analytic;
    std::vector<Path> masked = maskedMinimalPaths(src, dst, 1);
    if (masked.empty())
        return Path{}; // disconnected by faults
    return masked.front();
}

std::vector<int>
Topology::maskedLevels(NodeId src) const
{
    std::vector<int> dist(static_cast<std::size_t>(numNodes()), -1);
    if (!nodeUp(src))
        return dist;
    std::deque<NodeId> queue{src};
    dist[static_cast<std::size_t>(src)] = 0;
    while (!queue.empty()) {
        NodeId u = queue.front();
        queue.pop_front();
        for (LinkId l : linksAt(u)) {
            if (!linkUp(l))
                continue;
            const NodeId v = link(l).other(u);
            if (!nodeUp(v))
                continue;
            auto &d = dist[static_cast<std::size_t>(v)];
            if (d < 0) {
                d = dist[static_cast<std::size_t>(u)] + 1;
                queue.push_back(v);
            }
        }
    }
    return dist;
}

std::vector<Path>
Topology::maskedMinimalPaths(NodeId src, NodeId dst,
                             std::size_t maxPaths) const
{
    checkNode(src);
    checkNode(dst);
    std::vector<Path> out;
    if (!nodeUp(src) || !nodeUp(dst))
        return out;
    if (src == dst) {
        Path p;
        p.nodes.push_back(src);
        out.push_back(std::move(p));
        return out;
    }
    const std::vector<int> lvl = maskedLevels(src);
    if (lvl[static_cast<std::size_t>(dst)] < 0)
        return out;

    // Depth-first enumeration along strictly level-increasing live
    // links, in adjacency order: deterministic regardless of which
    // faults produced the mask.
    std::vector<NodeId> nodes{src};
    std::function<void(NodeId)> walk = [&](NodeId u) {
        if (maxPaths != 0 && out.size() >= maxPaths)
            return;
        if (u == dst) {
            out.push_back(makePath(nodes));
            return;
        }
        for (LinkId l : linksAt(u)) {
            if (!linkUp(l))
                continue;
            const NodeId v = link(l).other(u);
            if (!nodeUp(v))
                continue;
            if (lvl[static_cast<std::size_t>(v)] !=
                lvl[static_cast<std::size_t>(u)] + 1)
                continue;
            nodes.push_back(v);
            walk(v);
            nodes.pop_back();
            if (maxPaths != 0 && out.size() >= maxPaths)
                return;
        }
    };
    walk(src);
    return out;
}

bool
Topology::linkUp(LinkId l) const
{
    SRSIM_ASSERT(l >= 0 && l < numLinks(), "bad link id ", l);
    return !degraded_ || linkUp_[static_cast<std::size_t>(l)] != 0;
}

bool
Topology::nodeUp(NodeId n) const
{
    checkNode(n);
    return !degraded_ || nodeUp_[static_cast<std::size_t>(n)] != 0;
}

double
Topology::linkCapacity(LinkId l) const
{
    SRSIM_ASSERT(l >= 0 && l < numLinks(), "bad link id ", l);
    if (!degraded_)
        return 1.0;
    if (linkUp_[static_cast<std::size_t>(l)] == 0)
        return 0.0;
    return linkCap_[static_cast<std::size_t>(l)];
}

int
Topology::numLiveLinks() const
{
    if (!degraded_)
        return numLinks();
    int n = 0;
    for (LinkId l = 0; l < numLinks(); ++l)
        if (linkUp_[static_cast<std::size_t>(l)] != 0)
            ++n;
    return n;
}

void
Topology::failLink(LinkId l)
{
    SRSIM_ASSERT(l >= 0 && l < numLinks(), "bad link id ", l);
    ensureMask();
    linkUp_[static_cast<std::size_t>(l)] = 0;
}

void
Topology::failNode(NodeId n)
{
    checkNode(n);
    ensureMask();
    nodeUp_[static_cast<std::size_t>(n)] = 0;
    for (LinkId l : linksAt(n))
        linkUp_[static_cast<std::size_t>(l)] = 0;
}

void
Topology::derateLink(LinkId l, double f)
{
    SRSIM_ASSERT(l >= 0 && l < numLinks(), "bad link id ", l);
    SRSIM_ASSERT(f > 0.0 && f <= 1.0, "derate factor ", f,
                 " outside (0,1]");
    ensureMask();
    linkCap_[static_cast<std::size_t>(l)] = f;
}

void
Topology::clearFaults()
{
    degraded_ = false;
    linkUp_.clear();
    nodeUp_.clear();
    linkCap_.clear();
}

Topology::FaultMask
Topology::faultMask() const
{
    return {linkUp_, nodeUp_, linkCap_, degraded_};
}

void
Topology::setFaultMask(FaultMask m)
{
    degraded_ = m.degraded;
    linkUp_ = std::move(m.linkUp);
    nodeUp_ = std::move(m.nodeUp);
    linkCap_ = std::move(m.linkCap);
}

void
Topology::ensureMask()
{
    if (degraded_)
        return;
    degraded_ = true;
    linkUp_.assign(static_cast<std::size_t>(numLinks()), 1);
    nodeUp_.assign(static_cast<std::size_t>(numNodes()), 1);
    linkCap_.assign(static_cast<std::size_t>(numLinks()), 1.0);
}

bool
Topology::pathAlive(const Path &p) const
{
    if (!validPath(p))
        return false;
    if (!degraded_)
        return true;
    for (NodeId n : p.nodes)
        if (!nodeUp(n))
            return false;
    for (LinkId l : p.links)
        if (!linkUp(l))
            return false;
    return true;
}

bool
Topology::crossesDerated(const Path &p) const
{
    for (LinkId l : p.links)
        if (linkCapacity(l) < 1.0)
            return true;
    return false;
}

Path
Topology::makePath(const std::vector<NodeId> &nodes) const
{
    Path p;
    p.nodes = nodes;
    for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
        LinkId l = linkBetween(nodes[i], nodes[i + 1]);
        SRSIM_ASSERT(l != kInvalidLink, "nodes ", nodes[i], " and ",
                     nodes[i + 1], " are not adjacent in ", name());
        p.links.push_back(l);
    }
    return p;
}

bool
Topology::validPath(const Path &p) const
{
    if (p.nodes.empty())
        return false;
    if (p.links.size() + 1 != p.nodes.size())
        return false;
    for (std::size_t i = 0; i < p.links.size(); ++i) {
        if (p.links[i] < 0 || p.links[i] >= numLinks())
            return false;
        const Link &lk = link(p.links[i]);
        const NodeId u = p.nodes[i];
        const NodeId v = p.nodes[i + 1];
        if (!((lk.a == u && lk.b == v) || (lk.a == v && lk.b == u)))
            return false;
    }
    return true;
}

void
Topology::setNumNodes(int n)
{
    SRSIM_ASSERT(n > 0, "topology must have at least one node");
    adjacency_.assign(static_cast<std::size_t>(n), {});
}

void
Topology::addLink(NodeId a, NodeId b)
{
    checkNode(a);
    checkNode(b);
    SRSIM_ASSERT(a != b, "self-link at node ", a);
    if (linkBetween(a, b) != kInvalidLink)
        return; // coalesce duplicates (radix-2 wraparound)
    const LinkId id = static_cast<LinkId>(links_.size());
    links_.push_back(Link{id, a, b});
    adjacency_[static_cast<std::size_t>(a)].push_back(id);
    adjacency_[static_cast<std::size_t>(b)].push_back(id);
}

void
Topology::checkNode(NodeId n) const
{
    SRSIM_ASSERT(n >= 0 && n < numNodes(), "bad node id ", n);
}

} // namespace srsim
