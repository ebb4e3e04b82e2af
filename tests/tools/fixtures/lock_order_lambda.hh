// Fixture: a journal that queues its flush as a lambda. The paired
// .cc fixtures check that a lambda written inside a call's argument
// list is part of the function that writes it, not a function named
// after the call (push_back), which would give every push_back in the
// program an edge to flush().
#ifndef HTLINT_FIXTURE_LOCK_ORDER_LAMBDA_HH
#define HTLINT_FIXTURE_LOCK_ORDER_LAMBDA_HH

#include <functional>
#include <mutex>
#include <vector>

namespace hypertee
{

class Journal
{
  public:
    void schedule();
    void record(int value);
    void rotate();

  private:
    void flush();

    std::mutex _queue;
    std::mutex _log;
    std::vector<std::function<void()>> _tasks;
    std::vector<int> _pending;
    int _flushes = 0;
};

} // namespace hypertee

#endif // HTLINT_FIXTURE_LOCK_ORDER_LAMBDA_HH
