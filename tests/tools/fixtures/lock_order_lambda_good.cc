// Fixture: no deadlock. rotate() takes _log, then _queue through
// record(). record() holds _queue across an unrelated
// _pending.push_back(), and the only call of flush() (which takes
// _log) sits in a lambda passed to _tasks.push_back(). A call graph
// that names that lambda after push_back invents a _queue -> _log
// edge and a cycle.
#include "lock_order_lambda.hh"

namespace hypertee
{

void
Journal::schedule()
{
    _tasks.push_back([this] { flush(); });
}

void
Journal::flush()
{
    std::lock_guard<std::mutex> log(_log);
    ++_flushes;
}

void
Journal::record(int value)
{
    std::lock_guard<std::mutex> queue(_queue);
    _pending.push_back(value);
}

void
Journal::rotate()
{
    std::lock_guard<std::mutex> log(_log);
    record(0);
}

} // namespace hypertee
