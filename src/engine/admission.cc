#include "engine/admission.h"

#include <algorithm>
#include <cstdlib>

namespace railgun::engine {

namespace {

constexpr char kRetryAfterTag[] = "retry_after_us=";

}  // namespace

Status AdmissionController::Admit(size_t pending) {
  if (options_.max_pending == 0 || pending < options_.max_pending) {
    return Status::OK();
  }
  sheds_.fetch_add(1, std::memory_order_relaxed);
  return Status::Overloaded("pending depth " + std::to_string(pending) +
                            " >= limit " +
                            std::to_string(options_.max_pending) + "; " +
                            kRetryAfterTag +
                            std::to_string(options_.retry_after));
}

Micros RetryAfterMicros(const Status& status) {
  if (!status.IsOverloaded()) return 0;
  const std::string& msg = status.message();
  size_t pos = msg.find(kRetryAfterTag);
  if (pos == std::string::npos) return 0;
  return static_cast<Micros>(
      strtoll(msg.c_str() + pos + sizeof(kRetryAfterTag) - 1, nullptr, 10));
}

TokenBucket::TokenBucket(double tokens_per_sec, double burst, Clock* clock)
    : rate_(tokens_per_sec / static_cast<double>(kMicrosPerSecond)),
      burst_(std::max(burst, 1.0)),
      clock_(clock),
      tokens_(std::max(burst, 1.0)),
      last_refill_(clock->NowMicros()) {}

Status TokenBucket::Acquire() {
  if (rate_ <= 0) return Status::OK();
  MutexLock lock(&mu_);
  const Micros now = clock_->NowMicros();
  if (now >= frozen_until_) {
    // Refill accrues only outside the penalty window; time spent frozen
    // is forfeited so a shed hint really pauses the flood.
    const Micros since = std::max<Micros>(
        0, now - std::max(last_refill_, frozen_until_));
    tokens_ = std::min(burst_, tokens_ + static_cast<double>(since) * rate_);
  }
  last_refill_ = now;
  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    return Status::OK();
  }
  rejected_.fetch_add(1, std::memory_order_relaxed);
  const Micros wait = std::max<Micros>(
      frozen_until_ > now ? frozen_until_ - now : 0,
      static_cast<Micros>((1.0 - tokens_) / std::max(rate_, 1e-12)));
  return Status::Overloaded("client token bucket empty; retry_after_us=" +
                            std::to_string(wait));
}

void TokenBucket::Penalize(Micros retry_after) {
  if (retry_after <= 0) return;
  MutexLock lock(&mu_);
  frozen_until_ =
      std::max(frozen_until_, clock_->NowMicros() + retry_after);
  tokens_ = 0;
}

}  // namespace railgun::engine
