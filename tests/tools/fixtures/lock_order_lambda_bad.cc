// Fixture: a real deadlock beside the lambda of the good fixture.
// record() now calls flush() itself while it holds _queue, and
// rotate() takes _log before _queue, so the two orders conflict.
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
    flush();
}

void
Journal::rotate()
{
    std::lock_guard<std::mutex> log(_log);
    record(0);
}

} // namespace hypertee
