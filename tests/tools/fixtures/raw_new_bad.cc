// Fixture: raw owning new in a free function; make_unique beside it
// is not flagged.
#include <memory>

namespace hypertee
{

int *
makeCounter()
{
    return new int(0); // BAD: ownership is untracked
}

std::unique_ptr<int>
makeOwnedCounter()
{
    return std::make_unique<int>(0); // OK: make_unique
}

} // namespace hypertee
