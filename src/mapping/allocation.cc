#include "mapping/allocation.hh"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>

#include "util/logging.hh"

namespace srsim {

TaskAllocation::TaskAllocation(int numTasks, int numNodes)
    : nodes_(static_cast<std::size_t>(numTasks), kInvalidNode),
      numNodes_(numNodes)
{
    SRSIM_ASSERT(numTasks > 0 && numNodes > 0,
                 "allocation needs tasks and nodes");
}

void
TaskAllocation::assign(TaskId t, NodeId n)
{
    SRSIM_ASSERT(t >= 0 && t < numTasks(), "bad task id ", t);
    SRSIM_ASSERT(n >= 0 && n < numNodes_, "bad node id ", n);
    nodes_[static_cast<std::size_t>(t)] = n;
}

NodeId
TaskAllocation::nodeOf(TaskId t) const
{
    SRSIM_ASSERT(t >= 0 && t < numTasks(), "bad task id ", t);
    const NodeId n = nodes_[static_cast<std::size_t>(t)];
    if (n == kInvalidNode)
        fatal("task ", t, " has no node assigned");
    return n;
}

bool
TaskAllocation::complete() const
{
    return std::none_of(nodes_.begin(), nodes_.end(),
                        [](NodeId n) { return n == kInvalidNode; });
}

std::vector<TaskId>
TaskAllocation::tasksAt(NodeId n) const
{
    std::vector<TaskId> out;
    for (std::size_t t = 0; t < nodes_.size(); ++t)
        if (nodes_[t] == n)
            out.push_back(static_cast<TaskId>(t));
    return out;
}

bool
TaskAllocation::coLocated(const TaskFlowGraph &g, MessageId m) const
{
    const Message &msg = g.message(m);
    return nodeOf(msg.src) == nodeOf(msg.dst);
}

std::vector<MessageId>
TaskAllocation::networkMessages(const TaskFlowGraph &g) const
{
    std::vector<MessageId> out;
    for (const Message &m : g.messages())
        if (!coLocated(g, m.id))
            out.push_back(m.id);
    return out;
}

namespace alloc {

TaskAllocation
roundRobin(const TaskFlowGraph &g, const Topology &topo, int stride)
{
    SRSIM_ASSERT(stride >= 1, "stride must be positive");
    TaskAllocation a(g.numTasks(), topo.numNodes());
    const int n = topo.numNodes();
    for (TaskId t = 0; t < g.numTasks(); ++t)
        a.assign(t, static_cast<NodeId>(
                        static_cast<std::int64_t>(t) * stride % n));
    return a;
}

TaskAllocation
random(const TaskFlowGraph &g, const Topology &topo, Rng &rng)
{
    TaskAllocation a(g.numTasks(), topo.numNodes());
    std::vector<NodeId> pool(
        static_cast<std::size_t>(topo.numNodes()));
    std::iota(pool.begin(), pool.end(), 0);
    rng.shuffle(pool);
    for (TaskId t = 0; t < g.numTasks(); ++t) {
        a.assign(t, pool[static_cast<std::size_t>(t) % pool.size()]);
    }
    return a;
}

TaskAllocation
greedy(const TaskFlowGraph &g, const Topology &topo)
{
    TaskAllocation a(g.numTasks(), topo.numNodes());
    std::vector<bool> used(static_cast<std::size_t>(topo.numNodes()),
                           false);
    const bool exclusive = g.numTasks() <= topo.numNodes();
    std::vector<NodeId> placed(static_cast<std::size_t>(g.numTasks()),
                               kInvalidNode);

    for (TaskId t : g.topologicalOrder()) {
        NodeId best = kInvalidNode;
        double best_cost = std::numeric_limits<double>::infinity();
        for (NodeId n = 0; n < topo.numNodes(); ++n) {
            if (exclusive && used[static_cast<std::size_t>(n)])
                continue;
            double cost = 0.0;
            for (MessageId m : g.incoming(t)) {
                const Message &msg = g.message(m);
                const NodeId s =
                    placed[static_cast<std::size_t>(msg.src)];
                if (s != kInvalidNode)
                    cost += msg.bytes * topo.distance(s, n);
            }
            // Deterministic tie-break on the lowest node id.
            if (cost < best_cost) {
                best_cost = cost;
                best = n;
            }
        }
        SRSIM_ASSERT(best != kInvalidNode, "no node available");
        a.assign(t, best);
        used[static_cast<std::size_t>(best)] = true;
        placed[static_cast<std::size_t>(t)] = best;
    }
    return a;
}

std::optional<Spec>
parseSpec(const std::string &text, std::string *err)
{
    if (text == "greedy" || text == "random")
        return Spec{text == "greedy" ? Spec::Kind::Greedy
                                     : Spec::Kind::Random};
    if (text.rfind("rr:", 0) != 0) {
        *err = "unknown alloc kind '" + text +
               "' (greedy | random | rr:<stride>)";
        return std::nullopt;
    }
    // Digits only, saturating just past INT_MAX so that no stride,
    // however long, overflows the accumulator.
    const long long cap = std::numeric_limits<int>::max();
    long long stride = text.size() > 3 ? 0 : -1;
    for (std::size_t i = 3; i < text.size() && stride >= 0; ++i)
        stride = text[i] >= '0' && text[i] <= '9'
                     ? std::min(stride * 10 + (text[i] - '0'), cap + 1)
                     : -1;
    if (stride < 1 || stride > cap) {
        *err = "round-robin stride must be an integer from 1 to " +
               std::to_string(cap) + ", got '" + text.substr(3) + "'";
        return std::nullopt;
    }
    return Spec{Spec::Kind::RoundRobin, static_cast<int>(stride)};
}

TaskAllocation
fromSpec(const std::string &text, const TaskFlowGraph &g,
         const Topology &topo, std::uint64_t seed)
{
    std::string err;
    const std::optional<Spec> spec = parseSpec(text, &err);
    if (!spec)
        fatal(err);
    if (spec->kind == Spec::Kind::RoundRobin)
        return roundRobin(g, topo, spec->stride);
    if (spec->kind == Spec::Kind::Greedy)
        return greedy(g, topo);
    Rng rng(seed);
    return random(g, topo, rng);
}

} // namespace alloc

} // namespace srsim
