#include "fuzz/generator.hh"

#include <algorithm>
#include <string>

#include <vector>
#include "tfg/random_tfg.hh"
#include "topology/factory.hh"
#include "util/rng.hh"

namespace srsim {
namespace fuzz {

namespace {

/** Random fabric spec with at most 64 nodes. */
std::string
randomTopoSpec(Rng &rng)
{
    switch (rng.uniformInt(0, 3)) {
      case 0: // binary cube, 4..64 nodes
        return "cube:" + std::to_string(rng.uniformInt(2, 6));
      case 1: { // GHC, 2-3 dims, radix 2..4
        const int dims = rng.uniformInt(2, 3);
        std::string spec = "ghc:";
        int nodes = 1;
        for (int d = 0; d < dims; ++d) {
            int r = rng.uniformInt(2, 4);
            while (nodes * r > 64)
                --r;
            r = std::max(r, 2);
            nodes *= r;
            spec += (d ? "," : "") + std::to_string(r);
        }
        return spec;
      }
      case 2: { // torus, 1-3 dims, radix 2..8
        const int dims = rng.uniformInt(1, 3);
        std::string spec = "torus:";
        int nodes = 1;
        for (int d = 0; d < dims; ++d) {
            int r = rng.uniformInt(2, 8);
            while (nodes * r > 64)
                --r;
            r = std::max(r, 2);
            nodes *= r;
            spec += (d ? "," : "") + std::to_string(r);
        }
        return spec;
      }
      default: { // mesh, 2 dims, radix 2..6
        const int a = rng.uniformInt(2, 6);
        const int b = rng.uniformInt(2, 6);
        return "mesh:" + std::to_string(a) + "," +
               std::to_string(b);
      }
    }
}

} // namespace

FuzzCase
generateCase(std::uint64_t seed)
{
    Rng rng(deriveSeed(0x5EEDF00Dull, seed));
    FuzzCase c;
    c.seed = seed;

    RandomTfgParams p;
    p.layers = rng.uniformInt(2, 6);
    p.minWidth = 1;
    p.maxWidth = rng.uniformInt(1, 4);
    p.edgeProbability = rng.uniformReal(0.3, 0.95);
    p.skipProbability = rng.uniformReal(0.0, 0.3);
    p.minOps = 50.0;
    p.maxOps = 2000.0;
    p.minBytes = 32.0;
    p.maxBytes = 4096.0;
    c.g = buildRandomTfg(p, rng);

    // The fabric must have a node per task (see Placement below).
    // Re-draw a few times, then fall back to a cube that fits; the
    // random TFG has at most 24 tasks and cube:5 has 32 nodes.
    for (int attempt = 0;; ++attempt) {
        c.topoSpec = randomTopoSpec(rng);
        if (makeTopology(c.topoSpec)->numNodes() >= c.g.numTasks())
            break;
        if (attempt >= 15) {
            c.topoSpec = "cube:5";
            break;
        }
    }
    const auto topo = makeTopology(c.topoSpec);

    // Pick bandwidth, then derive an AP speed from the drawn graph:
    //   apSpeed = f * maxOps * bandwidth / maxBytes
    // gives tau_m <= tau_c exactly when f <= 1 (see
    // tests/test_property_compile.cc for the algebra). With small
    // probability pick f > 1 on purpose: the compiler must reject
    // tau_m > tau_c as structured InvalidInput, not crash.
    const double bws[] = {32.0, 64.0, 128.0};
    c.tm.bandwidth = bws[rng.index(3)];
    const double f = rng.chance(0.05)
                         ? rng.uniformReal(1.05, 1.5)
                         : rng.uniformReal(0.3, 1.0);
    c.tm.apSpeed = f * c.g.maxOperations() * c.tm.bandwidth /
                   c.g.maxBytes();

    // Packet quantization: off most of the time; when on, message
    // times round themselves to the packet grid inside TimingModel.
    if (rng.chance(0.25))
        c.tm.packetBytes = rng.chance(0.5) ? 16.0 : 32.0;

    // Placement: injective, at most one task per node. The three
    // oracles only agree under the paper's dedicated-AP premise:
    // cpsim serializes co-located tasks through the node's single
    // AP, while the analytic executor refuses to model that and
    // flags the overlap as a premise violation instead.
    std::vector<NodeId> nodes(
        static_cast<std::size_t>(topo->numNodes()));
    for (NodeId n = 0; n < topo->numNodes(); ++n)
        nodes[static_cast<std::size_t>(n)] = n;
    rng.shuffle(nodes);
    c.taskNode.assign(nodes.begin(),
                      nodes.begin() + c.g.numTasks());

    // Load point: mostly legal (>= tau_c), occasionally below it to
    // exercise the InvalidInput path.
    c.inputPeriod =
        rng.uniformReal(0.95, 3.0) * c.tm.tauC(c.g);

    // Guard time: small fraction of tau_c, off most of the time.
    if (rng.chance(0.2))
        c.guardTime = rng.uniformReal(0.001, 0.02) * c.tm.tauC(c.g);

    c.allocMethod = rng.chance(0.8) ? AllocationMethod::Lp
                                    : AllocationMethod::Greedy;
    c.schedMethod = rng.chance(0.85)
                        ? SchedulingMethod::LpFeasibleSets
                        : SchedulingMethod::ListScheduling;
    c.exactPacketMip = c.tm.packetBytes > 0.0 && rng.chance(0.25);
    c.useAssignPaths = rng.chance(0.85);
    c.assignSeed = deriveSeed(seed, 1);
    c.maxRestarts = rng.uniformInt(0, 3);
    c.feedbackRounds = rng.uniformInt(0, 2);

    // Fault dimension, drawn last so every healthy draw above is
    // identical to the pre-fault generator for the same seed. Most
    // cases stay healthy; faulted ones fail 1-2 links (and
    // occasionally derate a third) so the compiler must either
    // route around the damage or report a structured Fault/
    // Infeasible result -- never crash.
    if (rng.chance(0.3)) {
        const int nlinks = topo->numLinks();
        const int nfail = rng.uniformInt(1, 2);
        std::string spec;
        for (int i = 0; i < nfail; ++i) {
            if (i)
                spec += ";";
            spec += "link:#" +
                    std::to_string(rng.uniformInt(0, nlinks - 1));
        }
        if (rng.chance(0.2)) {
            spec += ";derate:#" +
                    std::to_string(
                        rng.uniformInt(0, nlinks - 1)) +
                    (rng.chance(0.5) ? "=0.5" : "=0.75");
        }
        c.faultSpec = spec;
    }

    // Churn dimension, drawn after faults so every pre-churn draw
    // above is identical to the earlier generator for the same
    // seed. A churny case replays admit/remove requests (and at most
    // one link failure) through the online service (see
    // fuzz/churn.hh) instead of the batch three-oracle run; the
    // drawn admits and removes are always *well-formed* (existing
    // tasks, forward edges, no duplicate names) so every rejection
    // is a schedulability claim the from-scratch oracle can
    // cross-examine.
    if (rng.chance(0.35)) {
        const int nops = rng.uniformInt(1, 5);
        std::vector<std::string> live;
        for (MessageId m = 0; m < c.g.numMessages(); ++m)
            live.push_back(c.g.message(m).name);
        int next = 0;
        for (int i = 0; i < nops; ++i) {
            if (!live.empty() && rng.chance(0.35)) {
                const std::size_t k = rng.index(live.size());
                c.churnOps.push_back("remove " + live[k]);
                live.erase(live.begin() +
                           static_cast<std::ptrdiff_t>(k));
                continue;
            }
            // Task ids are in topological order (the random TFG
            // adds tasks layer by layer), so src < dst keeps the
            // admitted graph acyclic.
            const int a =
                rng.uniformInt(0, c.g.numTasks() - 2);
            const int b = rng.uniformInt(a + 1,
                                         c.g.numTasks() - 1);
            const std::string name =
                "zc" + std::to_string(next++);
            c.churnOps.push_back(
                "admit " + name + " " +
                c.g.task(static_cast<TaskId>(a)).name + " " +
                c.g.task(static_cast<TaskId>(b)).name + " " +
                std::to_string(rng.uniformInt(32, 4096)));
            live.push_back(name);
        }
        // At most one link failure among the ops, drawn after every
        // draw above so those stay identical for the same seed.
        if (rng.chance(0.3)) {
            const std::size_t at = rng.index(c.churnOps.size() + 1);
            c.churnOps.insert(
                c.churnOps.begin() + static_cast<std::ptrdiff_t>(at),
                "fault link:#" + std::to_string(rng.uniformInt(
                                     0, topo->numLinks() - 1)));
        }
    }
    return c;
}

FuzzCase
generateMultiCase(std::uint64_t seed)
{
    FuzzCase c = generateCase(seed);
    // The daemon lines run on the healthy fabric, replace the
    // single-service churn dimension, and use a timing model
    // without the packet grid (SessionConfig has no packet knob).
    c.faultSpec.clear();
    c.churnOps.clear();
    c.tm.packetBytes = 0.0;

    // Salted stream: the multi draws must not correlate with the
    // base case's draws for the same seed.
    Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    c.numSessions = rng.uniformInt(2, 4);

    // Ops mirror the churn dimension's well-formedness rules per
    // session: existing tasks, forward edges (task ids are in
    // topological order), names unique within their session.
    std::vector<std::vector<std::string>> live(
        static_cast<std::size_t>(c.numSessions));
    for (auto &names : live)
        for (MessageId m = 0; m < c.g.numMessages(); ++m)
            names.push_back(c.g.message(m).name);
    const int nops = rng.uniformInt(2, 8);
    int next = 0;
    for (int i = 0; i < nops; ++i) {
        const int k = rng.uniformInt(0, c.numSessions - 1);
        auto &names = live[static_cast<std::size_t>(k)];
        if (!names.empty() && rng.chance(0.35)) {
            const std::size_t j = rng.index(names.size());
            c.multiOps.emplace_back(k, "remove " + names[j]);
            names.erase(names.begin() +
                        static_cast<std::ptrdiff_t>(j));
            continue;
        }
        const int a = rng.uniformInt(0, c.g.numTasks() - 2);
        const int b =
            rng.uniformInt(a + 1, c.g.numTasks() - 1);
        const std::string name = "zm" + std::to_string(next++);
        c.multiOps.emplace_back(
            k, "admit " + name + " " +
                   c.g.task(static_cast<TaskId>(a)).name + " " +
                   c.g.task(static_cast<TaskId>(b)).name + " " +
                   std::to_string(rng.uniformInt(32, 4096)));
        names.push_back(name);
    }
    return c;
}

} // namespace fuzz
} // namespace srsim
