// api::Subscription — the client-side handle of one live `SUBSCRIBE`
// tail (see src/ops/subscription.h for the server side). Obtained from
// Client::Subscribe; Next() long-polls for new records, acknowledging
// the previous batch in the same call, so a record handed to the caller
// is never redelivered — not even across a dropped connection — while
// records fetched but lost in flight are.
//
// Failure semantics: a hub restart invalidates every subscription id;
// Next() then returns NotFound, the typed signal to call
// Client::Subscribe again (the fresh tail attaches at the stream's
// head, so acked history cannot be replayed). Transport failures stay
// Unavailable and retrying Next() rides the remote bus's reconnect
// backoff.
#ifndef RAILGUN_API_SUBSCRIPTION_H_
#define RAILGUN_API_SUBSCRIPTION_H_

#include <string>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "ops/sub_wire.h"

namespace railgun::msg::remote {
class RemoteBus;
}  // namespace railgun::msg::remote

namespace railgun::ops {
class SubscriptionHub;
}  // namespace railgun::ops

namespace railgun::api {

class Client;

class Subscription {
 public:
  ~Subscription();  // Best-effort Cancel.

  Subscription(const Subscription&) = delete;
  Subscription& operator=(const Subscription&) = delete;

  // Fetches the next batch of records, blocking up to max_wait when the
  // tail is empty (the server caps the long-poll; an empty vector with
  // OK just means "nothing yet, poll again"). Records returned by the
  // *previous* Next are acknowledged by this call.
  Status Next(std::vector<ops::SubRecord>* records, Micros max_wait);

  // Cancels server-side. Idempotent; the destructor calls it too.
  Status Cancel();

  uint64_t id() const { return id_; }
  // Records evicted server-side because this subscriber was too slow
  // (cumulative), and the queue depth left behind by the last Next.
  uint64_t dropped_total() const;
  uint64_t lag() const;

 private:
  friend class Client;
  // Local tail: served directly by the in-process hub.
  Subscription(ops::SubscriptionHub* hub, uint64_t id);
  // Remote tail: kSubFetch long-polls park on a connection of their
  // own (so they never stall the client's produces), dropped on Cancel.
  Subscription(msg::remote::RemoteBus* bus, uint64_t id);

  const uint64_t id_;
  ops::SubscriptionHub* const hub_ = nullptr;
  msg::remote::RemoteBus* const bus_ = nullptr;
  const std::string conn_key_;  // Remote: the fetch connection's key.

  // Held across the fetch (hub call or RPC): Next/Cancel are
  // serialized, which the ack-on-next-fetch contract requires anyway.
  mutable Mutex mu_{kRankApiSubscription};
  uint64_t acked_seq_ GUARDED_BY(mu_) = 0;
  uint64_t dropped_total_ GUARDED_BY(mu_) = 0;
  uint64_t lag_ GUARDED_BY(mu_) = 0;
  bool cancelled_ GUARDED_BY(mu_) = false;
};

}  // namespace railgun::api

#endif  // RAILGUN_API_SUBSCRIPTION_H_
