/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A minimal calendar: events are (time, sequence, callback) triples
 * executed in time order with FIFO tie-breaking, which is exactly the
 * arbitration order the wormhole simulator needs for its
 * first-come-first-served link queues.
 */

#ifndef SRSIM_SIM_EVENT_QUEUE_HH_
#define SRSIM_SIM_EVENT_QUEUE_HH_

#include <cstdint>
#include <functional>
#include <vector>

#include "util/time.hh"

namespace srsim {

/** Time-ordered event calendar with deterministic tie-breaking. */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Schedule fn at absolute time t (>= now). */
    void schedule(Time t, Callback fn);

    /** Schedule fn `delay` after now. */
    void scheduleAfter(Time delay, Callback fn)
    {
        schedule(now_ + delay, std::move(fn));
    }

    /** @return current simulation time. */
    Time now() const { return now_; }

    bool empty() const { return events_.empty(); }
    std::size_t pending() const { return events_.size(); }

    /**
     * Execute the earliest event.
     * @return false if the queue was empty.
     */
    bool runNext();

    /**
     * Run until the queue drains or `limit` events have executed.
     * @return number of events executed
     */
    std::uint64_t run(std::uint64_t limit = UINT64_MAX);

    /** Run events with time <= until (events they spawn included). */
    std::uint64_t runUntil(Time until);

  private:
    struct Event
    {
        Time time;
        std::uint64_t seq;
        Callback fn;
    };
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.time != b.time)
                return a.time > b.time;
            return a.seq > b.seq;
        }
    };

    /** A binary heap under Later: the earliest event at front(). */
    std::vector<Event> events_;
    Time now_ = 0.0;
    std::uint64_t seq_ = 0;
};

} // namespace srsim

#endif // SRSIM_SIM_EVENT_QUEUE_HH_
