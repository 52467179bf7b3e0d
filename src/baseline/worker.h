// BaselineWorker: drives a HoppingEngine over the message bus with the
// same end-to-end path as a Railgun node (consume event topic -> compute
// -> produce reply), so Figure 8 compares engines, not plumbing.
#ifndef RAILGUN_BASELINE_WORKER_H_
#define RAILGUN_BASELINE_WORKER_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baseline/hopping_engine.h"
#include "engine/stream_def.h"
#include "msg/broker.h"

namespace railgun::baseline {

class BaselineWorker {
 public:
  // Borrows the bus and engine. Consumes every partition of `topic`,
  // keying by the stream's "cardId" field and summing its "amount".
  BaselineWorker(msg::Bus* bus, HoppingEngine* engine,
                 engine::StreamDef stream, std::string topic, Clock* clock);
  ~BaselineWorker();

  Status Start();
  void Stop();

  uint64_t processed() const { return processed_.load(); }

 private:
  void Run();

  msg::Bus* bus_;
  HoppingEngine* engine_;
  engine::StreamDef stream_;
  std::string topic_;
  Clock* clock_;
  int key_index_ = -1;
  int amount_index_ = -1;

  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> processed_{0};
  std::map<msg::TopicPartition, uint64_t> positions_;
};

}  // namespace railgun::baseline

#endif  // RAILGUN_BASELINE_WORKER_H_
