// Admission control (ROADMAP "self-instrumentation + admission
// control"): refuse work at the door instead of letting queues grow
// without bound. The FrontEnd consults an AdmissionController before
// accepting each submission, watching one signal the introspect
// registry exports: its own pending-reply table depth
// (frontend.pending). A refused request gets a typed kOverloaded status
// carrying a retry-after hint the client-side TokenBucket honors, so
// overload degrades to explicit sheds with bounded latency, never to
// collapse (bench_overload is the proof).
//
// Backpressure state machine (see DESIGN.md for the diagram):
//   ACCEPT --[pending >= max_pending]--> SHED
//   SHED   --[pending back under max_pending]--> ACCEPT
// SHED is stateless-per-request: every admission decision re-reads the
// live depth, so draining by one request is enough to let one in.
#ifndef RAILGUN_ENGINE_ADMISSION_H_
#define RAILGUN_ENGINE_ADMISSION_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"

namespace railgun::engine {

struct AdmissionOptions {
  // Ceiling on the FrontEnd pending-reply table depth; 0 (the default)
  // disables admission control.
  size_t max_pending = 0;
  // Hint embedded in the kOverloaded message for client retry pacing.
  Micros retry_after = 50 * kMicrosPerMilli;
};

class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionOptions& options)
      : options_(options) {}

  // OK to admit (always, with max_pending 0), or kOverloaded naming the
  // depth and limit with a "retry_after_us=<n>" suffix. The caller
  // samples the depth.
  Status Admit(size_t pending);

  uint64_t shed_count() const {
    return sheds_.load(std::memory_order_relaxed);
  }

 private:
  AdmissionOptions options_;
  std::atomic<uint64_t> sheds_{0};
};

// Extracts the "retry_after_us=<n>" hint from a kOverloaded status
// message; 0 when absent or not kOverloaded.
Micros RetryAfterMicros(const Status& status);

// Client-side pacing for SubmitNoReply floods: a token bucket that
// fails fast with kOverloaded when tokens run out, and Penalize()
// freezes refill for a server-provided retry-after interval so a
// shedding server isn't hammered. Thread-safe; rate <= 0 means
// unlimited (every Acquire succeeds).
class TokenBucket {
 public:
  TokenBucket(double tokens_per_sec, double burst, Clock* clock);

  // Takes one token, or returns kOverloaded with a retry hint.
  Status Acquire();
  // Applies a server shed hint: no refill until now + retry_after.
  void Penalize(Micros retry_after);

  uint64_t rejected_count() const {
    return rejected_.load(std::memory_order_relaxed);
  }

 private:
  const double rate_;   // Tokens per microsecond.
  const double burst_;  // Max accumulated tokens.
  Clock* clock_;
  Mutex mu_{kRankEngineAdmission};
  double tokens_ GUARDED_BY(mu_);
  Micros last_refill_ GUARDED_BY(mu_);
  Micros frozen_until_ GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> rejected_{0};
};

}  // namespace railgun::engine

#endif  // RAILGUN_ENGINE_ADMISSION_H_
