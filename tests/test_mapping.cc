/**
 * @file
 * Tests for task allocation and the allocator heuristics.
 */

#include <cstdint>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "mapping/allocation.hh"
#include "tfg/dvb.hh"
#include "topology/generalized_hypercube.hh"
#include "topology/torus.hh"
#include "util/rng.hh"

namespace srsim {
namespace {

TaskFlowGraph
chain3()
{
    TaskFlowGraph g;
    const TaskId a = g.addTask("a", 10.0);
    const TaskId b = g.addTask("b", 10.0);
    const TaskId c = g.addTask("c", 10.0);
    g.addMessage("ab", a, b, 100.0);
    g.addMessage("bc", b, c, 100.0);
    return g;
}

TEST(AllocationTest, AssignAndQuery)
{
    TaskAllocation a(3, 8);
    EXPECT_FALSE(a.complete());
    a.assign(0, 5);
    a.assign(1, 5);
    a.assign(2, 2);
    EXPECT_TRUE(a.complete());
    EXPECT_EQ(a.nodeOf(0), 5);
    EXPECT_EQ(a.tasksAt(5), (std::vector<TaskId>{0, 1}));
    EXPECT_TRUE(a.tasksAt(3).empty());
}

TEST(AllocationTest, UnassignedTaskIsFatal)
{
    TaskAllocation a(2, 4);
    a.assign(0, 1);
    EXPECT_THROW(a.nodeOf(1), FatalError);
}

TEST(AllocationTest, CoLocationAndNetworkMessages)
{
    const TaskFlowGraph g = chain3();
    TaskAllocation a(3, 4);
    a.assign(0, 0);
    a.assign(1, 0); // a,b co-located
    a.assign(2, 3);
    EXPECT_TRUE(a.coLocated(g, 0));
    EXPECT_FALSE(a.coLocated(g, 1));
    EXPECT_EQ(a.networkMessages(g), std::vector<MessageId>{1});
}

TEST(AllocatorTest, RoundRobinStride)
{
    const TaskFlowGraph g = chain3();
    const auto c = GeneralizedHypercube::binaryCube(3);
    const TaskAllocation a = alloc::roundRobin(g, c, 3);
    EXPECT_EQ(a.nodeOf(0), 0);
    EXPECT_EQ(a.nodeOf(1), 3);
    EXPECT_EQ(a.nodeOf(2), 6);
}

TEST(AllocatorTest, RoundRobinWrapsModNodes)
{
    TaskFlowGraph g;
    for (int i = 0; i < 10; ++i)
        g.addTask("t" + std::to_string(i), 1.0);
    const auto c = GeneralizedHypercube::binaryCube(3);
    const TaskAllocation a = alloc::roundRobin(g, c, 1);
    EXPECT_EQ(a.nodeOf(9), 1); // 9 mod 8
    EXPECT_TRUE(a.complete());
}

TEST(AllocatorTest, RoundRobinLargestStrideDoesNotOverflow)
{
    const TaskFlowGraph g = chain3();
    const auto c = GeneralizedHypercube::binaryCube(3);
    const int stride = std::numeric_limits<int>::max();
    const TaskAllocation a = alloc::roundRobin(g, c, stride);
    for (TaskId t = 0; t < 3; ++t)
        EXPECT_EQ(a.nodeOf(t), static_cast<NodeId>(
                                   std::int64_t{t} * stride % 8));
}

TEST(AllocatorSpec, ParsesEveryKind)
{
    std::string err;
    EXPECT_EQ(alloc::parseSpec("greedy", &err)->kind,
              alloc::Spec::Kind::Greedy);
    EXPECT_EQ(alloc::parseSpec("random", &err)->kind,
              alloc::Spec::Kind::Random);
    const auto rr = alloc::parseSpec("rr:13", &err);
    ASSERT_TRUE(rr);
    EXPECT_EQ(rr->kind, alloc::Spec::Kind::RoundRobin);
    EXPECT_EQ(rr->stride, 13);
    EXPECT_EQ(alloc::parseSpec("rr:0002147483647", &err)->stride,
              std::numeric_limits<int>::max());
}

TEST(AllocatorSpec, RejectsBadStridesAndKinds)
{
    for (const char *bad :
         {"rr:0", "rr:000", "rr:", "rr:-1", "rr:+3", "rr:1x",
          "rr:2147483648", "rr:99999999999",
          "rr:99999999999999999999999999", "roundrobin", ""}) {
        std::string err;
        EXPECT_FALSE(alloc::parseSpec(bad, &err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
    const TaskFlowGraph g = chain3();
    const auto c = GeneralizedHypercube::binaryCube(3);
    EXPECT_THROW(alloc::fromSpec("rr:0", g, c, 1), FatalError);
    EXPECT_EQ(alloc::fromSpec("rr:3", g, c, 1).nodeOf(2), 6);
}

TEST(AllocatorTest, RandomUsesDistinctNodesWhenPossible)
{
    const TaskFlowGraph g = buildDvbTfg({});
    const auto c = GeneralizedHypercube::binaryCube(6);
    Rng rng(5);
    const TaskAllocation a = alloc::random(g, c, rng);
    EXPECT_TRUE(a.complete());
    std::set<NodeId> used;
    for (TaskId t = 0; t < g.numTasks(); ++t)
        used.insert(a.nodeOf(t));
    EXPECT_EQ(used.size(), static_cast<std::size_t>(g.numTasks()));
}

TEST(AllocatorTest, GreedyPlacesCommunicatingTasksClose)
{
    const TaskFlowGraph g = chain3();
    const auto c = GeneralizedHypercube::binaryCube(4);
    const TaskAllocation a = alloc::greedy(g, c);
    EXPECT_TRUE(a.complete());
    // Exclusive placement: all three tasks on distinct nodes...
    EXPECT_NE(a.nodeOf(0), a.nodeOf(1));
    EXPECT_NE(a.nodeOf(1), a.nodeOf(2));
    // ...and chain neighbours adjacent (plenty of free neighbours).
    EXPECT_EQ(c.distance(a.nodeOf(0), a.nodeOf(1)), 1);
    EXPECT_EQ(c.distance(a.nodeOf(1), a.nodeOf(2)), 1);
}

TEST(AllocatorTest, GreedySharesNodesWhenTasksExceedNodes)
{
    TaskFlowGraph g;
    const TaskId a = g.addTask("a", 1.0);
    for (int i = 0; i < 9; ++i) {
        const TaskId t = g.addTask("t" + std::to_string(i), 1.0);
        g.addMessage("m" + std::to_string(i), a, t, 10.0);
    }
    const Torus small({2, 2}); // 4 nodes, 10 tasks
    const TaskAllocation al = alloc::greedy(g, small);
    EXPECT_TRUE(al.complete());
}

class AllocatorProperty : public ::testing::TestWithParam<int>
{};

TEST_P(AllocatorProperty, AllAllocatorsProduceCompleteInRangeMaps)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    DvbParams dp;
    dp.numModels = rng.uniformInt(2, 16);
    const TaskFlowGraph g = buildDvbTfg(dp);
    const Torus topo({4, 4, 4});

    const TaskAllocation rr =
        alloc::roundRobin(g, topo, rng.uniformInt(1, 20));
    const TaskAllocation rd = alloc::random(g, topo, rng);
    const TaskAllocation gr = alloc::greedy(g, topo);
    for (const TaskAllocation *a : {&rr, &rd, &gr}) {
        EXPECT_TRUE(a->complete());
        for (TaskId t = 0; t < g.numTasks(); ++t) {
            EXPECT_GE(a->nodeOf(t), 0);
            EXPECT_LT(a->nodeOf(t), topo.numNodes());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorProperty,
                         ::testing::Range(1, 13));

} // namespace
} // namespace srsim
