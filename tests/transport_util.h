// Test helper for the transport seam: a blocking roundtrip over the
// asynchronous, multiplexed Transport::Send.

#ifndef DBSA_TESTS_TRANSPORT_UTIL_H_
#define DBSA_TESTS_TRANSPORT_UTIL_H_

#include <memory>
#include <string>
#include <utility>

#include "service/transport.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace dbsa::testing {

/// Sends `request` to `shard` and waits for its completion. Throws
/// StatusException (a runtime_error carrying the typed Status) on
/// transport failure.
inline std::string Roundtrip(service::Transport& transport, size_t shard,
                             std::string request) {
  // The callback may fire on a transport-owned thread after this frame
  // would have unwound on an exception path, so the wait state is shared,
  // not stack-owned.
  struct WaitState {
    dbsa::Mutex mu;
    dbsa::CondVar cv;
    bool ready DBSA_GUARDED_BY(mu) = false;
    Status status DBSA_GUARDED_BY(mu) = Status::OK();
    std::string frame DBSA_GUARDED_BY(mu);
  };
  auto state = std::make_shared<WaitState>();
  transport.Send(shard, std::move(request), [state](StatusOr<std::string> result) {
    {
      dbsa::MutexLock lock(state->mu);
      if (result.ok()) {
        state->frame = std::move(result).value();
      } else {
        state->status = result.status();
      }
      state->ready = true;
    }
    state->cv.NotifyOne();
  });
  dbsa::MutexLock lock(state->mu);
  while (!state->ready) state->cv.Wait(lock);
  if (!state->status.ok()) throw StatusException(state->status);
  return std::move(state->frame);
}

}  // namespace dbsa::testing

#endif  // DBSA_TESTS_TRANSPORT_UTIL_H_
