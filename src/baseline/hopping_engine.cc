#include "baseline/hopping_engine.h"

#include <cstdio>

#include "common/coding.h"

namespace railgun::baseline {

namespace {

Status ParseSumCount(const std::string& state, double* sum, int64_t* count) {
  *sum = 0;
  *count = 0;
  if (state.empty()) return Status::OK();
  Slice in(state);
  if (!GetDouble(&in, sum) || !GetVarsint64(&in, count)) {
    return Status::Corruption("bad baseline state");
  }
  return Status::OK();
}

void StoreSumCount(std::string* state, double sum, int64_t count) {
  state->clear();
  PutDouble(state, sum);
  PutVarsint64(state, count);
}

}  // namespace

HoppingEngine::HoppingEngine(const HoppingOptions& options, storage::DB* db)
    : options_(options),
      db_(db),
      states_per_event_(options.window_size / options.hop) {}

std::string HoppingEngine::name() const {
  char buf[64];
  snprintf(buf, sizeof(buf), "flink-hopping(h=%llds)",
           static_cast<long long>(options_.hop / kMicrosPerSecond));
  return buf;
}

std::string HoppingEngine::StateKey(const std::string& key,
                                    Micros window_start) const {
  char buf[32];
  snprintf(buf, sizeof(buf), "|%020lld", static_cast<long long>(window_start));
  return "h|" + key + buf;
}

Status HoppingEngine::ProcessEvent(const std::string& key, Micros timestamp,
                                   double amount, BaselineResult* result) {
  // The event belongs to every window instance [start, start + ws) with
  // start in (timestamp - ws, timestamp], start on hop boundaries.
  const Micros h = options_.hop;
  const Micros newest_start = (timestamp / h) * h;
  const Micros oldest_start = newest_start - options_.window_size + h;

  double oldest_sum = 0;
  int64_t oldest_count = 0;
  for (Micros start = oldest_start; start <= newest_start; start += h) {
    const std::string state_key = StateKey(key, start);
    std::string state;
    Status s = db_->Get(storage::kDefaultColumnFamily, state_key, &state);
    if (!s.ok() && !s.IsNotFound()) return s;
    double sum;
    int64_t count;
    RAILGUN_RETURN_IF_ERROR(ParseSumCount(state, &sum, &count));
    sum += amount;
    count += 1;
    StoreSumCount(&state, sum, count);
    RAILGUN_RETURN_IF_ERROR(
        db_->Put(storage::kDefaultColumnFamily, state_key, state));
    if (start == oldest_start) {
      oldest_sum = sum;
      oldest_count = count;
    }
  }

  // Expire the instance that fell out of range (fixed per-event work,
  // mirroring "the oldest two variables, expired" in §2.2).
  RAILGUN_RETURN_IF_ERROR(db_->Delete(storage::kDefaultColumnFamily,
                                      StateKey(key, oldest_start - h)));

  // The best available approximation of the trailing window is the
  // oldest live instance (covers the most history).
  result->sum = oldest_sum;
  result->count = oldest_count;
  return Status::OK();
}

}  // namespace railgun::baseline
