// Fixture: secret_flow_mailbox_bad.cc with the response moved into
// the mailbox, as every real pushResponse call does. The move hands
// the same tainted payload to the sink.
#include <utility>

#include "ems/key_manager.hh"
#include "fabric/mailbox.hh"

namespace hypertee
{

void
answerKeyRequest(const KeyManager &km, Mailbox &mbox, EnclaveId sender,
                 ShmId shm)
{
    EmCallResponse resp;
    resp.payload = km.sharedMemoryKey(sender, shm);
    mbox.pushResponse(std::move(resp)); // BAD
}

} // namespace hypertee
