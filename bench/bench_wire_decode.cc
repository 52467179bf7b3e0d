// bench_wire_decode: decode throughput of the bus->unit poll hot path.
//
// The same columnar poll payload (the kPoll message list) is decoded
// two ways:
//   copy:      GetColumnarMessageList, then MessageView::ToMessage into
//              owned Messages (one topic/key/payload string allocation
//              per message — what a caller that needs owned copies
//              pays, and the reference the zero-copy contract is
//              measured against)
//   columnar:  GetColumnarMessageList into Slice-backed MessageViews,
//              lengths validated column-wise, no per-message allocation
// plus a pooled end-to-end loop (acquire buffer -> copy wire bytes ->
// decode columnar) that demonstrates zero steady-state allocations via
// the BufferPool hit/miss counters.
//
//   RAILGUN_BENCH_MESSAGES  messages per batch     (default 256)
//   RAILGUN_BENCH_ITERS     decode iterations      (default 2000)
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "common/clock.h"
#include "msg/batch.h"
#include "msg/buffer_pool.h"
#include "msg/message.h"
#include "msg/remote/wire.h"

using namespace railgun;
using msg::BufferPool;
using msg::BufferRef;
using msg::Message;
using msg::MessageBatch;

namespace {

std::vector<Message> BuildBatch(int64_t count) {
  std::vector<Message> messages;
  messages.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    Message m;
    m.topic = "payments.cardId";
    m.partition = 0;
    m.offset = static_cast<uint64_t>(i);
    m.key = "card" + std::to_string(i % 64);
    // Envelope-sized payload: what a TaskProcessor poll really carries.
    m.payload = std::string(120 + (i % 5) * 16, 'e');
    messages.push_back(std::move(m));
  }
  return messages;
}

double EventsPerSec(int64_t events, Micros elapsed) {
  if (elapsed <= 0) return 0;
  return static_cast<double>(events) * kMicrosPerSecond /
         static_cast<double>(elapsed);
}

}  // namespace

int main() {
  const int64_t batch_messages = bench::EnvInt("RAILGUN_BENCH_MESSAGES", 256);
  const int64_t iters = bench::EnvInt("RAILGUN_BENCH_ITERS", 2000);
  const int64_t total = batch_messages * iters;
  Clock* clock = MonotonicClock::Default();

  const std::vector<Message> messages = BuildBatch(batch_messages);
  std::string columnar_encoded;
  msg::remote::PutColumnarMessageList(&columnar_encoded, messages);
  printf("bench_wire_decode: %lld msgs/batch x %lld iters\n",
         static_cast<long long>(batch_messages),
         static_cast<long long>(iters));
  printf("  encoded bytes: columnar %zu\n", columnar_encoded.size());

  uint64_t sink = 0;  // Defeats dead-code elimination.

  // (a) Columnar decode, then owned copies of every message.
  MessageBatch batch;
  const Micros copy_start = clock->NowMicros();
  for (int64_t it = 0; it < iters; ++it) {
    Slice in(columnar_encoded);
    batch.Clear();
    if (!msg::remote::GetColumnarMessageList(&in, &batch)) return 1;
    std::vector<Message> decoded;
    decoded.reserve(batch.size());
    for (const msg::MessageView& view : batch.views()) {
      decoded.push_back(view.ToMessage());
    }
    sink += decoded.back().offset + decoded.front().payload.size();
  }
  const double copy_eps =
      EventsPerSec(total, clock->NowMicros() - copy_start);

  // (b) Columnar decode, zero-copy views.
  const Micros col_start = clock->NowMicros();
  for (int64_t it = 0; it < iters; ++it) {
    Slice in(columnar_encoded);
    batch.Clear();
    if (!msg::remote::GetColumnarMessageList(&in, &batch)) return 1;
    sink += batch[batch.size() - 1].offset + batch[0].payload.size();
  }
  const double col_eps = EventsPerSec(total, clock->NowMicros() - col_start);

  // (c) Pooled end-to-end: lease a buffer, land the wire bytes in it,
  // decode columnar out of it — the shape of ReadFramePooled + poll.
  BufferPool pool(4);
  uint64_t steady_misses = 0;
  const Micros pooled_start = clock->NowMicros();
  for (int64_t it = 0; it < iters; ++it) {
    // Release the previous iteration's buffer first, as a real consumer
    // does when it finishes a batch — otherwise nothing ever recycles.
    batch.Clear();
    BufferRef buffer = pool.Acquire(columnar_encoded.size());
    std::memcpy(buffer->data(), columnar_encoded.data(),
                columnar_encoded.size());
    Slice in(buffer->data(), columnar_encoded.size());
    if (!msg::remote::GetColumnarMessageList(&in, &batch)) return 1;
    batch.BorrowBuffer(buffer);
    sink += batch[batch.size() - 1].offset;
    if (it == iters / 2) steady_misses = pool.misses();
  }
  const double pooled_eps =
      EventsPerSec(total, clock->NowMicros() - pooled_start);
  batch.Clear();  // Returns the last buffer before the pool dies.
  const uint64_t late_misses = pool.misses() - steady_misses;

  const double ns_per_event = [](double eps) {
    return eps > 0 ? 1e9 / eps : 0;
  }(col_eps);
  printf("  copy      %12.0f ev/s\n", copy_eps);
  printf("  columnar  %12.0f ev/s   (%.2fx copy, %.1f ns/event)\n", col_eps,
         col_eps / copy_eps, ns_per_event);
  printf("  pooled    %12.0f ev/s   (%.2fx copy, %llu second-half misses)\n",
         pooled_eps, pooled_eps / copy_eps,
         static_cast<unsigned long long>(late_misses));
  printf("  sink %llu\n", static_cast<unsigned long long>(sink));

  bench::JsonResult json("bench_wire_decode");
  json.Add("batch_messages", batch_messages)
      .Add("iters", iters)
      .Add("columnar_bytes", static_cast<uint64_t>(columnar_encoded.size()))
      .Add("copy_events_per_sec", copy_eps)
      .Add("columnar_events_per_sec", col_eps)
      .Add("pooled_events_per_sec", pooled_eps)
      .Add("speedup_columnar_vs_copy", col_eps / copy_eps)
      .Add("pool_hits", pool.hits())
      .Add("pool_misses", pool.misses())
      .Add("pool_steady_state_misses", late_misses);
  json.Write();

  // The zero-copy contract: view decode at >= 2x the owned-copy decode
  // of the same bytes and no steady-state pool misses. Fail loudly so CI
  // smoke catches decay.
  if (col_eps < 2.0 * copy_eps) {
    fprintf(stderr, "FAIL: columnar decode %.2fx owned copies (< 2x)\n",
            col_eps / copy_eps);
    return 1;
  }
  if (late_misses != 0) {
    fprintf(stderr, "FAIL: %llu pool misses after warmup\n",
            static_cast<unsigned long long>(late_misses));
    return 1;
  }
  return 0;
}
