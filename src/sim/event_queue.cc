#include "sim/event_queue.hh"

#include <algorithm>

#include "util/logging.hh"

namespace srsim {

void
EventQueue::schedule(Time t, Callback fn)
{
    SRSIM_ASSERT(timeGe(t, now_), "scheduling into the past: ", t,
                 " < ", now_);
    events_.push_back(Event{t, seq_++, std::move(fn)});
    std::push_heap(events_.begin(), events_.end(), Later{});
}

bool
EventQueue::runNext()
{
    if (events_.empty())
        return false;
    // The same pop as std::priority_queue, but the event is moved
    // out instead of copied (top() is const).
    std::pop_heap(events_.begin(), events_.end(), Later{});
    Event ev = std::move(events_.back());
    events_.pop_back();
    now_ = ev.time;
    ev.fn();
    return true;
}

std::uint64_t
EventQueue::run(std::uint64_t limit)
{
    std::uint64_t n = 0;
    while (n < limit && runNext())
        ++n;
    return n;
}

std::uint64_t
EventQueue::runUntil(Time until)
{
    std::uint64_t n = 0;
    while (!events_.empty() && timeLe(events_.front().time, until)) {
        runNext();
        ++n;
    }
    return n;
}

} // namespace srsim
