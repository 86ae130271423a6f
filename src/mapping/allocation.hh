/**
 * @file
 * Task allocation: the mapping-step that fixes each task to a
 * multicomputer node and thereby fixes every message's source and
 * destination node (Sec. 1 of the paper).
 *
 * The paper takes the allocation as given; srsim provides several
 * allocators (round-robin, random, and a communication-aware greedy
 * heuristic) so that experiments can control this degree of freedom.
 */

#ifndef SRSIM_MAPPING_ALLOCATION_HH_
#define SRSIM_MAPPING_ALLOCATION_HH_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tfg/tfg.hh"
#include "topology/topology.hh"
#include "util/rng.hh"

namespace srsim {

/** Assignment of every TFG task to a topology node. */
class TaskAllocation
{
  public:
    /**
     * @param numTasks number of tasks to place
     * @param numNodes number of nodes available
     */
    TaskAllocation(int numTasks, int numNodes);

    /** Place task t on node n. */
    void assign(TaskId t, NodeId n);

    /** @return node hosting task t (fatal if unassigned). */
    NodeId nodeOf(TaskId t) const;

    /** @return true if every task has a node. */
    bool complete() const;

    /** Tasks placed on node n. */
    std::vector<TaskId> tasksAt(NodeId n) const;

    /** @return true if message m's endpoints share a node. */
    bool coLocated(const TaskFlowGraph &g, MessageId m) const;

    /** Messages that actually traverse the network. */
    std::vector<MessageId>
    networkMessages(const TaskFlowGraph &g) const;

    int numTasks() const { return static_cast<int>(nodes_.size()); }
    int numNodes() const { return numNodes_; }

  private:
    std::vector<NodeId> nodes_;
    int numNodes_;
};

namespace alloc {

/** Task i on node (i * stride) mod N; stride spreads the pipeline. */
TaskAllocation
roundRobin(const TaskFlowGraph &g, const Topology &topo,
           int stride = 1);

/** Uniform random placement on distinct nodes (if capacity allows). */
TaskAllocation
random(const TaskFlowGraph &g, const Topology &topo, Rng &rng);

/**
 * Communication-aware greedy placement: tasks are placed in
 * topological order, each on the free node that minimizes the sum of
 * bytes x hop-distance to its already-placed neighbours.
 */
TaskAllocation greedy(const TaskFlowGraph &g, const Topology &topo);

/** A parsed allocator spec: `greedy`, `random` or `rr:<stride>`. */
struct Spec
{
    enum class Kind { Greedy, Random, RoundRobin };
    Kind kind = Kind::Greedy;
    /** Round-robin stride, from 1 to INT_MAX. */
    int stride = 1;
};

/**
 * Parse an allocator spec; the stride is decimal digits only. On
 * anything else (an unknown kind, a stride of 0 or one that does
 * not fit an int) returns nullopt and sets `*err`.
 */
std::optional<Spec> parseSpec(const std::string &text,
                              std::string *err);

/**
 * The allocation the spec `text` names (`seed` seeds `random`).
 * FatalError when `text` does not parse.
 */
TaskAllocation fromSpec(const std::string &text,
                        const TaskFlowGraph &g, const Topology &topo,
                        std::uint64_t seed);

} // namespace alloc

} // namespace srsim

#endif // SRSIM_MAPPING_ALLOCATION_HH_
