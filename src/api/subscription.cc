#include "api/subscription.h"

#include "msg/remote/remote_bus.h"
#include "msg/remote/wire.h"
#include "ops/subscription.h"

namespace railgun::api {

Subscription::Subscription(ops::SubscriptionHub* hub, uint64_t id)
    : id_(id), hub_(hub) {}

Subscription::Subscription(msg::remote::RemoteBus* bus, uint64_t id)
    : id_(id), bus_(bus), conn_key_("sub/" + std::to_string(id)) {}

Subscription::~Subscription() { (void)Cancel(); }

Status Subscription::Next(std::vector<ops::SubRecord>* records,
                          Micros max_wait) {
  records->clear();
  MutexLock lock(&mu_);
  if (cancelled_) {
    return Status::Unavailable("subscription cancelled");
  }
  ops::SubFetchReply reply;
  Status fetched;
  if (hub_ != nullptr) {
    fetched = hub_->Fetch(id_, acked_seq_, /*max_records=*/0, max_wait,
                          &reply);
  } else {
    ops::SubFetchRequest request;
    request.sub_id = id_;
    request.acked_seq = acked_seq_;
    request.max_records = 0;
    request.max_wait_us = max_wait;
    std::string payload, result;
    EncodeSubFetchRequest(request, &payload);
    fetched = bus_->CallOpcode(
        conn_key_, static_cast<uint8_t>(msg::remote::OpCode::kSubFetch),
        payload, &result);
    if (fetched.ok()) {
      fetched = DecodeSubFetchReply(Slice(result), &reply);
    }
  }
  RAILGUN_RETURN_IF_ERROR(fetched);
  if (!reply.records.empty()) {
    // Handed to the caller = delivered: the next fetch acks through
    // here, so these records can never come back.
    acked_seq_ = reply.records.back().seq;
  }
  dropped_total_ = reply.dropped_total;
  lag_ = reply.lag;
  *records = std::move(reply.records);
  return Status::OK();
}

Status Subscription::Cancel() {
  MutexLock lock(&mu_);
  if (cancelled_) return Status::OK();
  cancelled_ = true;
  if (hub_ != nullptr) {
    const Status s = hub_->Cancel(id_);
    // Already gone (hub stopped or restarted) is a successful cancel.
    return s.IsNotFound() ? Status::OK() : s;
  }
  ops::SubCancelRequest request;
  request.sub_id = id_;
  std::string payload, result;
  EncodeSubCancelRequest(request, &payload);
  const Status s = bus_->CallOpcode(
      "", static_cast<uint8_t>(msg::remote::OpCode::kSubCancel), payload,
      &result);
  bus_->DropConnection(conn_key_);
  return s.IsNotFound() ? Status::OK() : s;
}

uint64_t Subscription::dropped_total() const {
  MutexLock lock(&mu_);
  return dropped_total_;
}

uint64_t Subscription::lag() const {
  MutexLock lock(&mu_);
  return lag_;
}

}  // namespace railgun::api
