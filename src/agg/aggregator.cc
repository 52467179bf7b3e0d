#include "agg/aggregator.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <deque>

#include "common/coding.h"

namespace railgun::agg {

using reservoir::Event;
using reservoir::FieldValue;

StatusOr<AggKind> ParseAggKind(const std::string& name) {
  std::string lower;
  for (char c : name) lower.push_back(static_cast<char>(tolower(c)));
  if (lower == "count") return AggKind::kCount;
  if (lower == "sum") return AggKind::kSum;
  if (lower == "avg") return AggKind::kAvg;
  if (lower == "stddev") return AggKind::kStdDev;
  if (lower == "max") return AggKind::kMax;
  if (lower == "min") return AggKind::kMin;
  if (lower == "last") return AggKind::kLast;
  if (lower == "prev") return AggKind::kPrev;
  if (lower == "countdistinct") return AggKind::kCountDistinct;
  return Status::InvalidArgument("unknown aggregation: " + name);
}

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCount: return "count";
    case AggKind::kSum: return "sum";
    case AggKind::kAvg: return "avg";
    case AggKind::kStdDev: return "stdDev";
    case AggKind::kMax: return "max";
    case AggKind::kMin: return "min";
    case AggKind::kLast: return "last";
    case AggKind::kPrev: return "prev";
    case AggKind::kCountDistinct: return "countDistinct";
  }
  return "?";
}

namespace {

// The number one event contributes; count(*) (field -1) counts 1.
double NumberAt(const Event* event, int field) {
  return field >= 0 ? event->values[field].ToNumber() : 1.0;
}

double RunSum(const Event* const* events, size_t n, int field) {
  double sum = 0;
  for (size_t i = 0; i < n; ++i) sum += NumberAt(events[i], field);
  return sum;
}

// -------------------------------------------------------- count
class CountAggregator : public Aggregator {
 public:
  Status Enter(const Event* const*, size_t n, int, std::string* state,
               AggContext*) override {
    return Bump(state, static_cast<int64_t>(n));
  }
  Status Expire(const Event* const*, size_t n, int, std::string* state,
                AggContext*) override {
    return Bump(state, -static_cast<int64_t>(n));
  }
  StatusOr<FieldValue> Result(const std::string& state) const override {
    int64_t n = 0;
    if (!state.empty()) {
      Slice in(state);
      if (!GetVarsint64(&in, &n)) return Status::Corruption("count state");
    }
    return FieldValue(n);
  }

 private:
  static Status Bump(std::string* state, int64_t delta) {
    int64_t n = 0;
    if (!state->empty()) {
      Slice in(*state);
      if (!GetVarsint64(&in, &n)) return Status::Corruption("count state");
    }
    state->clear();
    PutVarsint64(state, n + delta);
    return Status::OK();
  }
};

// -------------------------------------------------------- sum
class SumAggregator : public Aggregator {
 public:
  Status Enter(const Event* const* events, size_t n, int field,
               std::string* state, AggContext*) override {
    return Bump(state, RunSum(events, n, field));
  }
  Status Expire(const Event* const* events, size_t n, int field,
                std::string* state, AggContext*) override {
    return Bump(state, -RunSum(events, n, field));
  }
  StatusOr<FieldValue> Result(const std::string& state) const override {
    double sum = 0;
    if (!state.empty()) {
      Slice in(state);
      if (!GetDouble(&in, &sum)) return Status::Corruption("sum state");
    }
    return FieldValue(sum);
  }

 private:
  static Status Bump(std::string* state, double delta) {
    double sum = 0;
    if (!state->empty()) {
      Slice in(*state);
      if (!GetDouble(&in, &sum)) return Status::Corruption("sum state");
    }
    state->clear();
    PutDouble(state, sum + delta);
    return Status::OK();
  }
};

// -------------------------------------------------------- avg
class AvgAggregator : public Aggregator {
 public:
  Status Enter(const Event* const* events, size_t n, int field,
               std::string* state, AggContext*) override {
    return Bump(state, RunSum(events, n, field), static_cast<int64_t>(n));
  }
  Status Expire(const Event* const* events, size_t n, int field,
                std::string* state, AggContext*) override {
    return Bump(state, -RunSum(events, n, field), -static_cast<int64_t>(n));
  }
  StatusOr<FieldValue> Result(const std::string& state) const override {
    double sum = 0;
    int64_t n = 0;
    RAILGUN_RETURN_IF_ERROR(Parse(state, &sum, &n));
    return FieldValue(n == 0 ? 0.0 : sum / static_cast<double>(n));
  }

 private:
  static Status Parse(const std::string& state, double* sum, int64_t* n) {
    if (state.empty()) {
      *sum = 0;
      *n = 0;
      return Status::OK();
    }
    Slice in(state);
    if (!GetDouble(&in, sum) || !GetVarsint64(&in, n)) {
      return Status::Corruption("avg state");
    }
    return Status::OK();
  }
  static Status Bump(std::string* state, double dsum, int64_t dn) {
    double sum;
    int64_t n;
    RAILGUN_RETURN_IF_ERROR(Parse(*state, &sum, &n));
    state->clear();
    PutDouble(state, sum + dsum);
    PutVarsint64(state, n + dn);
    return Status::OK();
  }
};

// -------------------------------------------------------- stdDev
// Welford's online algorithm (paper cites [50]); expiry uses the inverse
// update, which is numerically acceptable for the window sizes involved.
class StdDevAggregator : public Aggregator {
 public:
  // Welford updates run entirely in registers; the state round-trips
  // through the blob once per run.
  Status Enter(const Event* const* events, size_t count, int field,
               std::string* state, AggContext*) override {
    int64_t n;
    double mean, m2;
    RAILGUN_RETURN_IF_ERROR(Parse(*state, &n, &mean, &m2));
    for (size_t i = 0; i < count; ++i) {
      const double x = NumberAt(events[i], field);
      ++n;
      const double delta = x - mean;
      mean += delta / static_cast<double>(n);
      m2 += delta * (x - mean);
    }
    Store(state, n, mean, m2);
    return Status::OK();
  }
  // Inverse Welford steps.
  Status Expire(const Event* const* events, size_t count, int field,
                std::string* state, AggContext*) override {
    int64_t n;
    double mean, m2;
    RAILGUN_RETURN_IF_ERROR(Parse(*state, &n, &mean, &m2));
    for (size_t i = 0; i < count; ++i) {
      const double x = NumberAt(events[i], field);
      if (n <= 1) {
        n = 0;
        mean = 0;
        m2 = 0;
        continue;
      }
      const double mean_prev =
          (static_cast<double>(n) * mean - x) / static_cast<double>(n - 1);
      m2 -= (x - mean) * (x - mean_prev);
      if (m2 < 0) m2 = 0;  // Guard against rounding drift.
      mean = mean_prev;
      --n;
    }
    Store(state, n, mean, m2);
    return Status::OK();
  }
  StatusOr<FieldValue> Result(const std::string& state) const override {
    int64_t n;
    double mean, m2;
    RAILGUN_RETURN_IF_ERROR(Parse(state, &n, &mean, &m2));
    if (n < 2) return FieldValue(0.0);
    return FieldValue(std::sqrt(m2 / static_cast<double>(n - 1)));
  }

 private:
  static Status Parse(const std::string& state, int64_t* n, double* mean,
                      double* m2) {
    if (state.empty()) {
      *n = 0;
      *mean = 0;
      *m2 = 0;
      return Status::OK();
    }
    Slice in(state);
    if (!GetVarsint64(&in, n) || !GetDouble(&in, mean) ||
        !GetDouble(&in, m2)) {
      return Status::Corruption("stddev state");
    }
    return Status::OK();
  }
  static void Store(std::string* state, int64_t n, double mean, double m2) {
    state->clear();
    PutVarsint64(state, n);
    PutDouble(state, mean);
    PutDouble(state, m2);
  }
};

// -------------------------------------------------------- max / min
// Monotonic deque of (value, event offset): O(1) amortized enter/expire,
// exact under expiry (paper stores "a deque structure [30]").
class ExtremumAggregator : public Aggregator {
 public:
  explicit ExtremumAggregator(bool is_max) : is_max_(is_max) {}

  // Parse the deque once, run every push/pop against it in memory,
  // serialize once.
  Status Enter(const Event* const* events, size_t n, int field,
               std::string* state, AggContext*) override {
    std::deque<Entry> dq;
    RAILGUN_RETURN_IF_ERROR(Parse(*state, &dq));
    for (size_t i = 0; i < n; ++i) {
      const double x = NumberAt(events[i], field);
      while (!dq.empty() && Dominates(x, dq.back().value)) dq.pop_back();
      dq.push_back({x, events[i]->offset});
    }
    Store(state, dq);
    return Status::OK();
  }
  Status Expire(const Event* const* events, size_t n, int,
                std::string* state, AggContext*) override {
    std::deque<Entry> dq;
    RAILGUN_RETURN_IF_ERROR(Parse(*state, &dq));
    for (size_t i = 0; i < n; ++i) {
      if (!dq.empty() && dq.front().offset == events[i]->offset) {
        dq.pop_front();
      }
    }
    Store(state, dq);
    return Status::OK();
  }
  StatusOr<FieldValue> Result(const std::string& state) const override {
    std::deque<Entry> dq;
    RAILGUN_RETURN_IF_ERROR(Parse(state, &dq));
    if (dq.empty()) return FieldValue(0.0);
    return FieldValue(dq.front().value);
  }

 private:
  struct Entry {
    double value;
    uint64_t offset;
  };
  bool Dominates(double incoming, double resident) const {
    return is_max_ ? incoming >= resident : incoming <= resident;
  }
  static Status Parse(const std::string& state, std::deque<Entry>* dq) {
    dq->clear();
    if (state.empty()) return Status::OK();
    Slice in(state);
    uint32_t n;
    if (!GetVarint32(&in, &n)) return Status::Corruption("deque state");
    for (uint32_t i = 0; i < n; ++i) {
      Entry e;
      uint64_t off;
      if (!GetDouble(&in, &e.value) || !GetVarint64(&in, &off)) {
        return Status::Corruption("deque state");
      }
      e.offset = off;
      dq->push_back(e);
    }
    return Status::OK();
  }
  static void Store(std::string* state, const std::deque<Entry>& dq) {
    state->clear();
    PutVarint32(state, static_cast<uint32_t>(dq.size()));
    for (const auto& e : dq) {
      PutDouble(state, e.value);
      PutVarint64(state, e.offset);
    }
  }
  const bool is_max_;
};

// -------------------------------------------------------- last / prev
class LastPrevAggregator : public Aggregator {
 public:
  explicit LastPrevAggregator(bool prev) : prev_(prev) {}

  Status Enter(const Event* const* events, size_t count, int field,
               std::string* state, AggContext*) override {
    double last = 0, prev = 0;
    uint32_t n = 0;
    RAILGUN_RETURN_IF_ERROR(Parse(*state, &n, &last, &prev));
    for (size_t i = 0; i < count; ++i) {
      prev = last;
      last = NumberAt(events[i], field);
      n = std::min<uint32_t>(n + 1, 2);
    }
    state->clear();
    PutVarint32(state, n);
    PutDouble(state, last);
    PutDouble(state, prev);
    return Status::OK();
  }
  // `last`/`prev` track arrival recency, not window membership.
  Status Expire(const Event* const*, size_t, int, std::string*,
                AggContext*) override {
    return Status::OK();
  }
  StatusOr<FieldValue> Result(const std::string& state) const override {
    double last = 0, prev = 0;
    uint32_t n = 0;
    RAILGUN_RETURN_IF_ERROR(Parse(state, &n, &last, &prev));
    if (prev_) return FieldValue(n >= 2 ? prev : 0.0);
    return FieldValue(n >= 1 ? last : 0.0);
  }

 private:
  static Status Parse(const std::string& state, uint32_t* n, double* last,
                      double* prev) {
    if (state.empty()) {
      *n = 0;
      *last = *prev = 0;
      return Status::OK();
    }
    Slice in(state);
    if (!GetVarint32(&in, n) || !GetDouble(&in, last) ||
        !GetDouble(&in, prev)) {
      return Status::Corruption("last/prev state");
    }
    return Status::OK();
  }
  const bool prev_;
};

// -------------------------------------------------------- countDistinct
// Distinct count with per-value reference counts beside the state (the
// paper keeps them in an auxiliary RocksDB column family; here they share
// the store's one keyspace). A count's key is kCountKeyTag, the
// length-prefixed state key, then the value's string form. No state key
// ("m...") or checkpoint key ("__ckpt_...") starts with the tag, and the
// length prefix keeps (state key, value) pairs apart whatever bytes
// either holds.
class CountDistinctAggregator : public Aggregator {
 public:
  Status Enter(const Event* const* events, size_t n, int field,
               std::string* state, AggContext* ctx) override {
    RAILGUN_RETURN_IF_ERROR(CheckArgs(field, ctx));
    const size_t prefix = StartCountKey(ctx->state_key);
    int64_t distinct_delta = 0;
    for (size_t i = 0; i < n; ++i) {
      SetCountValue(prefix, events[i]->values[field]);
      int64_t refs = 0;
      Status s = ctx->db->Get(storage::kDefaultColumnFamily, key_, &stored_);
      if (s.ok()) {
        Slice in(stored_);
        if (!GetVarsint64(&in, &refs)) return Status::Corruption("aux state");
      } else if (!s.IsNotFound()) {
        return s;
      }
      ++refs;
      stored_.clear();
      PutVarsint64(&stored_, refs);
      RAILGUN_RETURN_IF_ERROR(
          ctx->db->Put(storage::kDefaultColumnFamily, key_, stored_));
      if (refs == 1) ++distinct_delta;
    }
    return distinct_delta == 0 ? Status::OK()
                               : BumpDistinct(state, distinct_delta);
  }
  Status Expire(const Event* const* events, size_t n, int field,
                std::string* state, AggContext* ctx) override {
    RAILGUN_RETURN_IF_ERROR(CheckArgs(field, ctx));
    const size_t prefix = StartCountKey(ctx->state_key);
    int64_t distinct_delta = 0;
    for (size_t i = 0; i < n; ++i) {
      SetCountValue(prefix, events[i]->values[field]);
      Status s = ctx->db->Get(storage::kDefaultColumnFamily, key_, &stored_);
      if (s.IsNotFound()) continue;  // Never entered (reset?).
      RAILGUN_RETURN_IF_ERROR(s);
      int64_t refs = 0;
      Slice in(stored_);
      if (!GetVarsint64(&in, &refs)) return Status::Corruption("aux state");
      --refs;
      if (refs <= 0) {
        RAILGUN_RETURN_IF_ERROR(
            ctx->db->Delete(storage::kDefaultColumnFamily, key_));
        --distinct_delta;
        continue;
      }
      stored_.clear();
      PutVarsint64(&stored_, refs);
      RAILGUN_RETURN_IF_ERROR(
          ctx->db->Put(storage::kDefaultColumnFamily, key_, stored_));
    }
    return distinct_delta == 0 ? Status::OK()
                               : BumpDistinct(state, distinct_delta);
  }
  StatusOr<FieldValue> Result(const std::string& state) const override {
    int64_t n = 0;
    if (!state.empty()) {
      Slice in(state);
      if (!GetVarsint64(&in, &n)) {
        return Status::Corruption("countDistinct state");
      }
    }
    return FieldValue(n);
  }

 private:
  static constexpr char kCountKeyTag = 'd';

  // Distinct values are identified by their string form, so the value
  // must come from a field (never count(*)'s implicit 1).
  static Status CheckArgs(int field, const AggContext* ctx) {
    if (ctx == nullptr || ctx->db == nullptr) {
      return Status::InvalidArgument("countDistinct needs an AggContext");
    }
    if (field < 0) {
      return Status::InvalidArgument("countDistinct needs a field");
    }
    return Status::OK();
  }
  // Writes the count keys' shared prefix into key_; returns its length.
  size_t StartCountKey(const Slice& state_key) {
    key_.assign(1, kCountKeyTag);
    PutLengthPrefixedSlice(&key_, state_key);
    return key_.size();
  }
  void SetCountValue(size_t prefix, const FieldValue& value) {
    key_.resize(prefix);
    key_ += value.ToString();
  }
  static Status BumpDistinct(std::string* state, int64_t delta) {
    int64_t n = 0;
    if (!state->empty()) {
      Slice in(*state);
      if (!GetVarsint64(&in, &n)) {
        return Status::Corruption("countDistinct state");
      }
    }
    state->clear();
    PutVarsint64(state, n + delta);
    return Status::OK();
  }

  // Scratch reused across calls: the count key being built and the
  // count read back.
  std::string key_;
  std::string stored_;
};

}  // namespace

std::unique_ptr<Aggregator> Aggregator::Create(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return std::make_unique<CountAggregator>();
    case AggKind::kSum:
      return std::make_unique<SumAggregator>();
    case AggKind::kAvg:
      return std::make_unique<AvgAggregator>();
    case AggKind::kStdDev:
      return std::make_unique<StdDevAggregator>();
    case AggKind::kMax:
      return std::make_unique<ExtremumAggregator>(/*is_max=*/true);
    case AggKind::kMin:
      return std::make_unique<ExtremumAggregator>(/*is_max=*/false);
    case AggKind::kLast:
      return std::make_unique<LastPrevAggregator>(/*prev=*/false);
    case AggKind::kPrev:
      return std::make_unique<LastPrevAggregator>(/*prev=*/true);
    case AggKind::kCountDistinct:
      return std::make_unique<CountDistinctAggregator>();
  }
  return nullptr;
}

}  // namespace railgun::agg
