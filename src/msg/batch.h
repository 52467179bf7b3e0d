// Zero-copy poll results. A MessageView is a msg::Message whose string
// fields are Slices into storage owned by the enclosing MessageBatch —
// either a pooled wire receive buffer (remote zero-copy path) or a
// vector of owned Messages adopted from the in-process broker. Views stay
// valid until the batch is Clear()ed, refilled or destroyed.
#ifndef RAILGUN_MSG_BATCH_H_
#define RAILGUN_MSG_BATCH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/slice.h"
#include "msg/buffer_pool.h"
#include "msg/message.h"

namespace railgun::msg {

struct MessageView {
  Slice topic;
  int partition = 0;
  uint64_t offset = 0;
  Slice key;
  Slice payload;

  TopicPartition topic_partition() const {
    return TopicPartition{topic.ToString(), partition};
  }
  Message ToMessage() const {
    Message message;
    message.topic = topic.ToString();
    message.partition = partition;
    message.offset = offset;
    message.key = key.ToString();
    message.payload = payload.ToString();
    return message;
  }
};

class MessageBatch {
 public:
  MessageBatch() = default;
  MessageBatch(const MessageBatch&) = delete;
  MessageBatch& operator=(const MessageBatch&) = delete;

  void Clear() {
    views_.clear();
    owned_.clear();
    buffer_.reset();
  }

  bool empty() const { return views_.empty(); }
  size_t size() const { return views_.size(); }
  const MessageView& operator[](size_t i) const { return views_[i]; }
  const std::vector<MessageView>& views() const { return views_; }

  // Owned path (InProcessBus::PollBatch, replica fetches): take the
  // messages and build views over them. Replaces current contents.
  void Adopt(std::vector<Message> messages) {
    Clear();
    owned_ = std::move(messages);
    views_.reserve(owned_.size());
    for (const Message& message : owned_) {
      MessageView view;
      view.topic = Slice(message.topic);
      view.partition = message.partition;
      view.offset = message.offset;
      view.key = Slice(message.key);
      view.payload = Slice(message.payload);
      views_.push_back(view);
    }
  }

  // Zero-copy path: decoders append views pointing into `buffer`, and
  // the batch keeps the pooled buffer alive until Clear().
  void BorrowBuffer(BufferRef buffer) { buffer_ = std::move(buffer); }
  std::vector<MessageView>* mutable_views() { return &views_; }
  bool zero_copy() const { return buffer_ != nullptr; }

 private:
  std::vector<MessageView> views_;
  std::vector<Message> owned_;
  BufferRef buffer_;
};

}  // namespace railgun::msg

#endif  // RAILGUN_MSG_BATCH_H_
