#include "baseline/worker.h"

namespace railgun::baseline {

namespace {

// Max messages taken per partition fetch.
constexpr size_t kPollMax = 256;
// Pause after a pass that fetched nothing.
constexpr Micros kIdleSleep = 200;
constexpr char kKeyField[] = "cardId";
constexpr char kAmountField[] = "amount";

}  // namespace

BaselineWorker::BaselineWorker(msg::Bus* bus, HoppingEngine* engine,
                               engine::StreamDef stream, std::string topic,
                               Clock* clock)
    : bus_(bus),
      engine_(engine),
      stream_(std::move(stream)),
      topic_(std::move(topic)),
      clock_(clock) {}

BaselineWorker::~BaselineWorker() { Stop(); }

Status BaselineWorker::Start() {
  const reservoir::Schema schema(0, stream_.fields);
  key_index_ = schema.FieldIndex(kKeyField);
  amount_index_ = schema.FieldIndex(kAmountField);
  if (key_index_ < 0 || amount_index_ < 0) {
    return Status::InvalidArgument("worker fields not in schema");
  }
  for (const auto& tp : bus_->PartitionsOf(topic_)) {
    positions_[tp] = 0;
  }
  running_ = true;
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void BaselineWorker::Stop() {
  running_ = false;
  if (thread_.joinable()) thread_.join();
}

void BaselineWorker::Run() {
  const reservoir::Schema schema(0, stream_.fields);
  std::vector<msg::Message> batch;
  while (running_) {
    bool any = false;
    for (auto& [tp, pos] : positions_) {
      batch.clear();
      if (!bus_->Fetch(tp, pos, kPollMax, &batch).ok()) continue;
      pos += batch.size();
      for (const auto& message : batch) {
        any = true;
        engine::EventEnvelope envelope;
        if (!engine::DecodeEventEnvelope(Slice(message.payload), schema,
                                         &envelope)
                 .ok()) {
          continue;
        }
        BaselineResult result;
        const std::string key =
            envelope.event.values[static_cast<size_t>(key_index_)].ToString();
        const double amount =
            envelope.event.values[static_cast<size_t>(amount_index_)]
                .ToNumber();
        if (!engine_
                 ->ProcessEvent(key, envelope.event.timestamp, amount,
                                &result)
                 .ok()) {
          continue;
        }
        ++processed_;
        if (!envelope.reply_topic.empty()) {
          engine::ReplyEnvelope reply;
          reply.request_id = envelope.request_id;
          reply.results.push_back(
              {"sum(amount)", key, reservoir::FieldValue(result.sum)});
          reply.results.push_back(
              {"count(*)", key,
               reservoir::FieldValue(static_cast<int64_t>(result.count))});
          std::vector<msg::ProduceRecord> records(1);
          records[0].key = message.key;
          EncodeReplyEnvelope(reply, &records[0].payload);
          // Baseline comparison harness: one publish per reply; a dropped
          // reply shows up as a client timeout, which is the behavior
          // being measured.
          (void)bus_->ProduceBatch(envelope.reply_topic, std::move(records));
        }
      }
    }
    if (!any) clock_->SleepMicros(kIdleSleep);
  }
}

}  // namespace railgun::baseline
