// Streaming aggregators (paper Fig. 4 / §4.1.3). Each aggregator updates
// a serialized state blob on event entry and expiry, exactly mirroring
// the paper's state layouts: sum/count keep a single value, avg a
// (sum, count) pair, stdDev the Welford triple, max/min a monotonic
// deque, and countDistinct per-value counts under keys of their own in
// the state store.
#ifndef RAILGUN_AGG_AGGREGATOR_H_
#define RAILGUN_AGG_AGGREGATOR_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "reservoir/event.h"
#include "storage/db.h"

namespace railgun::agg {

enum class AggKind : uint8_t {
  kCount = 0,
  kSum = 1,
  kAvg = 2,
  kStdDev = 3,
  kMax = 4,
  kMin = 5,
  kLast = 6,
  kPrev = 7,
  kCountDistinct = 8,
};

// Parses "count", "sum", ... (case-insensitive).
StatusOr<AggKind> ParseAggKind(const std::string& name);
const char* AggKindName(AggKind kind);

// The state store and the key of the state being updated, for
// aggregators that keep records beside their state blob. countDistinct
// keeps one per-value count per (state key, value), under a key it
// derives from both (aggregator.cc).
struct AggContext {
  storage::DB* db = nullptr;
  // The state's key; the caller keeps its bytes alive across the call.
  Slice state_key;
};

class Aggregator {
 public:
  virtual ~Aggregator() = default;

  static std::unique_ptr<Aggregator> Create(AggKind kind);

  // Applies a run of `n` entering events, in arrival order, to one
  // state blob. `field` selects the aggregated value (-1 = count(*));
  // `events[i]->offset` supplies the ordering metadata deque-based
  // aggregators need. The state is parsed once per run and stored once,
  // so a run of one is an ordinary single-event update.
  virtual Status Enter(const reservoir::Event* const* events, size_t n,
                       int field, std::string* state, AggContext* ctx) = 0;

  // Applies a run of `n` expiring events, oldest first.
  virtual Status Expire(const reservoir::Event* const* events, size_t n,
                        int field, std::string* state, AggContext* ctx) = 0;

  // Produces the current aggregation result from the state.
  virtual StatusOr<reservoir::FieldValue> Result(
      const std::string& state) const = 0;
};

}  // namespace railgun::agg

#endif  // RAILGUN_AGG_AGGREGATOR_H_
