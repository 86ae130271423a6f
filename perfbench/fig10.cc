#include "fig10.hh"

#include "tfg/dvb.hh"
#include "topology/factory.hh"

namespace srbench {

using namespace srsim;

namespace {

/** Seed of the fixed episode catalogue (not the workload seed). */
constexpr std::uint64_t kCatalogueSeed = 0x5eed10;
/**
 * Oversized admits: tau_m = tau_c messages whose greedy route busts the
 * utilization ceiling from the base workload, so the service falls back
 * to a full recompile (which accepts them).
 */
constexpr double kOversizedBytes = 6400.0;
const std::pair<const char *, const char *> kOversizedEdges[] = {
    {"match", "extend"}, {"verify", "score"}};
constexpr double kStretchedPeriodFactor = 1.25;

/** Admit/remove rounds of a revisit episode. */
constexpr int kRevisitRounds = 4;

const char *const kChain[] = {"match",  "hough",  "probe", "extend",
                              "verify", "filter", "score", "result"};

} // namespace

Fig10::Fig10()
    : g(buildDvbTfg(DvbParams{})), topo(makeTopology(kFig10Topo)),
      alloc(alloc::roundRobin(g, *topo, 13))
{
    tm.apSpeed = DvbParams{}.matchedApSpeed();
    tm.bandwidth = 128.0;
    period = 2.4 * tm.tauC(g);
}

ChurnStream::ChurnStream(std::uint64_t seed, Time basePeriod,
                         const EpisodeMix &mix, std::string namePrefix)
    : gen_(seed), basePeriod_(basePeriod), prefix_(std::move(namePrefix))
{
    Gen cat(kCatalogueSeed);
    // A forward edge skipping at least one chain stage keeps the graph
    // acyclic.
    const auto edge = [&](double bytes) {
        const std::size_t from = cat.below(6);
        online::AdmitSpec s;
        s.src = kChain[from];
        s.dst = kChain[from + 2 + cat.below(6 - from)];
        s.bytes = bytes;
        return s;
    };
    const auto add = [&](EpisodeKind kind, int count) {
        for (int i = 0; i < count; ++i) {
            Episode e;
            e.kind = kind;
            e.a = edge(64.0 * static_cast<double>(1 + cat.below(8)));
            e.b = edge(64.0 * static_cast<double>(1 + cat.below(8)));
            catalogue_.push_back(e);
        }
    };
    add(EpisodeKind::Touch, mix.touch);
    add(EpisodeKind::Revisit, mix.revisit);
    add(EpisodeKind::Pair, mix.pair);
    add(EpisodeKind::Invalid, mix.invalid);
    add(EpisodeKind::Period, mix.period);
    if (mix.oversized) {
        for (const auto &[src, dst] : kOversizedEdges) {
            Episode e;
            e.kind = EpisodeKind::Oversized;
            e.a.src = src;
            e.a.dst = dst;
            e.a.bytes = kOversizedBytes;
            catalogue_.push_back(e);
        }
    }
    startCycle();
    cycleLength_ = cycle_.size();
}

void
ChurnStream::startCycle()
{
    std::vector<std::size_t> order(catalogue_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    gen_.shuffle(order);

    cycle_.clear();
    pos_ = 0;
    const std::string cyc = prefix_ + "c" + std::to_string(cycles_++) + "e";
    for (std::size_t e : order) {
        const Episode &ep = catalogue_[e];
        online::AdmitSpec a = ep.a, b = ep.b;
        a.name = cyc + std::to_string(e) + "a";
        b.name = cyc + std::to_string(e) + "b";
        const auto admit = [&](Kind kind, const online::AdmitSpec &s,
                               bool ok = true) {
            StreamRequest r;
            r.kind = kind;
            r.req.kind = online::RequestKind::AdmitMessage;
            r.req.admits = {s};
            r.expectAccepted = ok;
            cycle_.push_back(r);
        };
        const auto remove = [&](const online::AdmitSpec &s) {
            StreamRequest r;
            r.kind = Kind::Remove;
            r.req.kind = online::RequestKind::RemoveMessage;
            r.req.name = s.name;
            cycle_.push_back(r);
        };
        const auto period = [&](Time p) {
            StreamRequest r;
            r.kind = Kind::Period;
            r.req.kind = online::RequestKind::UpdatePeriod;
            r.req.period = p;
            cycle_.push_back(r);
        };
        switch (ep.kind) {
          case EpisodeKind::Touch:
            admit(Kind::Admit, a);
            remove(a);
            break;
          case EpisodeKind::Revisit:
            admit(Kind::Admit, a);
            remove(a);
            for (int r = 1; r < kRevisitRounds; ++r) {
                admit(Kind::Readmit, a);
                remove(a);
            }
            break;
          case EpisodeKind::Pair:
            admit(Kind::Admit, a);
            admit(Kind::Admit, b);
            remove(a);
            admit(Kind::Readmit, a);
            remove(b);
            remove(a);
            break;
          case EpisodeKind::Invalid:
            admit(Kind::Admit, a);
            admit(Kind::Invalid, a, false);
            remove(a);
            break;
          case EpisodeKind::Period:
            admit(Kind::Admit, a);
            period(basePeriod_ * kStretchedPeriodFactor);
            remove(a);
            period(basePeriod_);
            break;
          case EpisodeKind::Oversized:
            admit(Kind::Oversized, a);
            remove(a);
            break;
        }
    }
}

StreamRequest
ChurnStream::next()
{
    if (pos_ == cycle_.size())
        startCycle();
    return cycle_[pos_++];
}

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Admit: return "admit";
      case Kind::Readmit: return "readmit";
      case Kind::Remove: return "remove";
      case Kind::Oversized: return "oversized";
      case Kind::Period: return "period";
      case Kind::Invalid: return "invalid";
    }
    return "?";
}

} // namespace srbench
