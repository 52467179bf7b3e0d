// Hopping-window baseline: the structural model of how Flink & friends
// approximate sliding windows (paper §2.2). A window of size ws with hop
// h keeps exactly ws/h live window states per key; every arriving event
// updates all of them and is then discarded (no event storage, no event
// expiry — the optimization that makes hopping windows popular, and the
// per-event cost that blows up as the hop shrinks).
//
// States live in the embedded LSM store, mirroring Flink-on-RocksDB.
#ifndef RAILGUN_BASELINE_HOPPING_ENGINE_H_
#define RAILGUN_BASELINE_HOPPING_ENGINE_H_

#include <string>

#include "common/clock.h"
#include "common/status.h"
#include "storage/db.h"

namespace railgun::baseline {

struct BaselineResult {
  double sum = 0;
  int64_t count = 0;
};

struct HoppingOptions {
  Micros window_size = 60 * kMicrosPerMinute;
  Micros hop = 5 * kMicrosPerMinute;
};

class HoppingEngine {
 public:
  // Borrows the store; keeps its records under the "h|" key prefix of
  // the store's one keyspace.
  HoppingEngine(const HoppingOptions& options, storage::DB* db);

  // Processes one (key, timestamp, amount) event and reports the best
  // available sum/count for the key's trailing window.
  Status ProcessEvent(const std::string& key, Micros timestamp,
                      double amount, BaselineResult* result);
  std::string name() const;

  // Number of live window states an event touches (= windowSize/hop).
  int64_t states_per_event() const { return states_per_event_; }

 private:
  std::string StateKey(const std::string& key, Micros window_start) const;

  HoppingOptions options_;
  storage::DB* db_;
  int64_t states_per_event_;
};

}  // namespace railgun::baseline

#endif  // RAILGUN_BASELINE_HOPPING_ENGINE_H_
