#include "fuzz/fuzz_case.hh"

#include <iomanip>
#include <limits>
#include <sstream>

#include "tfg/tfg_io.hh"
#include "util/logging.hh"

namespace srsim {
namespace fuzz {

TaskAllocation
FuzzCase::makeAllocation(const Topology &topo) const
{
    TaskAllocation alloc(g.numTasks(), topo.numNodes());
    for (TaskId t = 0;
         t < static_cast<TaskId>(taskNode.size()) &&
         t < g.numTasks();
         ++t)
        alloc.assign(t, taskNode[static_cast<std::size_t>(t)]);
    return alloc;
}

SrCompilerConfig
FuzzCase::makeConfig() const
{
    SrCompilerConfig cfg;
    cfg.inputPeriod = inputPeriod;
    cfg.useAssignPaths = useAssignPaths;
    cfg.assign.seed = assignSeed;
    cfg.assign.maxRestarts = maxRestarts;
    cfg.allocMethod = allocMethod;
    cfg.scheduling.method = schedMethod;
    cfg.scheduling.guardTime = guardTime;
    cfg.scheduling.exactPacketMip = exactPacketMip;
    cfg.feedbackRounds = feedbackRounds;
    // The harness re-verifies independently; the compiler's own
    // gate must not vouch for it.
    cfg.verify = false;
    return cfg;
}

void
writeFuzzCase(std::ostream &os, const FuzzCase &c)
{
    os << std::setprecision(
        std::numeric_limits<double>::max_digits10);
    os << "srsim-fuzz v1\n";
    os << "seed " << c.seed << "\n";
    os << "topo " << c.topoSpec << "\n";
    os << "ap-speed " << c.tm.apSpeed << "\n";
    os << "bandwidth " << c.tm.bandwidth << "\n";
    os << "packet-bytes " << c.tm.packetBytes << "\n";
    os << "period " << c.inputPeriod << "\n";
    os << "guard " << c.guardTime << "\n";
    os << "alloc-method "
       << (c.allocMethod == AllocationMethod::Lp ? "lp" : "greedy")
       << "\n";
    os << "sched-method "
       << (c.schedMethod == SchedulingMethod::LpFeasibleSets
               ? "lp"
               : "list")
       << "\n";
    os << "exact-packet-mip " << (c.exactPacketMip ? 1 : 0) << "\n";
    os << "use-assign-paths " << (c.useAssignPaths ? 1 : 0) << "\n";
    os << "assign-seed " << c.assignSeed << "\n";
    os << "max-restarts " << c.maxRestarts << "\n";
    os << "feedback-rounds " << c.feedbackRounds << "\n";
    if (!c.faultSpec.empty())
        os << "faults " << c.faultSpec << "\n";
    for (const std::string &op : c.churnOps)
        os << "churn " << op << "\n";
    if (c.numSessions > 0)
        os << "sessions " << c.numSessions << "\n";
    for (const auto &[k, op] : c.multiOps)
        os << "mchurn " << k << " " << op << "\n";
    os << "tfg\n";
    writeTfg(os, c.g);
    for (TaskId t = 0; t < c.g.numTasks(); ++t) {
        os << "map " << c.g.task(t).name << " "
           << c.taskNode[static_cast<std::size_t>(t)] << "\n";
    }
    os << "end\n";
}

FuzzCase
readFuzzCase(std::istream &is)
{
    // Skip leading comment and blank lines (failure dumps carry
    // the failure report as a '#' header above the document).
    std::string line;
    while (std::getline(is, line))
        if (!line.empty() && line[0] != '#')
            break;
    if (line != "srsim-fuzz v1")
        fatal("not an srsim-fuzz v1 file");

    FuzzCase c;
    bool have_tfg = false, ended = false;
    std::vector<std::pair<std::string, NodeId>> maps;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        if (key == "end") {
            ended = true;
            break;
        }
        if (key == "tfg") {
            c.g = readTfg(is);
            have_tfg = true;
            continue;
        }
        if (key == "seed") ls >> c.seed;
        else if (key == "topo") ls >> c.topoSpec;
        else if (key == "ap-speed") ls >> c.tm.apSpeed;
        else if (key == "bandwidth") ls >> c.tm.bandwidth;
        else if (key == "packet-bytes") ls >> c.tm.packetBytes;
        else if (key == "period") ls >> c.inputPeriod;
        else if (key == "guard") ls >> c.guardTime;
        else if (key == "alloc-method") {
            std::string v;
            ls >> v;
            if (v == "lp")
                c.allocMethod = AllocationMethod::Lp;
            else if (v == "greedy")
                c.allocMethod = AllocationMethod::Greedy;
            else
                fatal("unknown alloc-method '", v, "'");
        } else if (key == "sched-method") {
            std::string v;
            ls >> v;
            if (v == "lp")
                c.schedMethod = SchedulingMethod::LpFeasibleSets;
            else if (v == "list")
                c.schedMethod = SchedulingMethod::ListScheduling;
            else
                fatal("unknown sched-method '", v, "'");
        } else if (key == "exact-packet-mip") {
            int v = 0;
            ls >> v;
            c.exactPacketMip = v != 0;
        } else if (key == "use-assign-paths") {
            int v = 0;
            ls >> v;
            c.useAssignPaths = v != 0;
        } else if (key == "assign-seed") ls >> c.assignSeed;
        else if (key == "max-restarts") {
            ls >> c.maxRestarts;
            if (!ls.fail() && c.maxRestarts < 0)
                fatal("max-restarts must not be negative");
        } else if (key == "feedback-rounds") {
            ls >> c.feedbackRounds;
            if (!ls.fail() && c.feedbackRounds < 0)
                fatal("feedback-rounds must not be negative");
        }
        else if (key == "faults") {
            ls >> c.faultSpec;
            if (c.faultSpec.empty())
                fatal("empty faults line in srsim-fuzz file");
        }
        else if (key == "churn") {
            std::string op;
            std::getline(ls, op);
            const std::size_t b = op.find_first_not_of(" \t");
            if (b == std::string::npos)
                fatal("empty churn line in srsim-fuzz file");
            c.churnOps.push_back(op.substr(b));
        }
        else if (key == "sessions") {
            ls >> c.numSessions;
            if (!ls.fail() && c.numSessions <= 0)
                fatal("sessions count must be positive");
        }
        else if (key == "mchurn") {
            int k = -1;
            ls >> k;
            std::string op;
            std::getline(ls, op);
            const std::size_t b = op.find_first_not_of(" \t");
            if (ls.fail() || k < 0 || b == std::string::npos)
                fatal("malformed mchurn line in srsim-fuzz file");
            c.multiOps.emplace_back(k, op.substr(b));
        }
        else if (key == "map") {
            std::string name;
            NodeId node = 0;
            ls >> name >> node;
            maps.emplace_back(name, node);
        } else {
            fatal("unknown srsim-fuzz key '", key, "'");
        }
        if (ls.fail())
            fatal("malformed srsim-fuzz line '", line, "'");
    }
    if (!ended)
        fatal("srsim-fuzz file missing 'end'");
    if (!have_tfg)
        fatal("srsim-fuzz file missing embedded TFG");

    c.taskNode.assign(static_cast<std::size_t>(c.g.numTasks()), 0);
    std::vector<bool> mapped(c.taskNode.size(), false);
    for (const auto &[name, node] : maps) {
        TaskId t = kInvalidTask;
        for (TaskId i = 0; i < c.g.numTasks(); ++i)
            if (c.g.task(i).name == name) {
                t = i;
                break;
            }
        if (t == kInvalidTask)
            fatal("map references unknown task '", name, "'");
        c.taskNode[static_cast<std::size_t>(t)] = node;
        mapped[static_cast<std::size_t>(t)] = true;
    }
    for (std::size_t i = 0; i < mapped.size(); ++i)
        if (!mapped[i])
            fatal("task '", c.g.task(static_cast<TaskId>(i)).name,
                  "' has no map line");
    return c;
}

} // namespace fuzz
} // namespace srsim
