// Sampling distributed tracer (the observability substrate of
// DESIGN.md "Tracing & logging"). One Tracer serves a process; every
// instrumented hop calls Record() with the context it received and the
// wall-clock interval it spent, and gets back the context to forward
// (same trace, the new span as parent).
//
// Hot-path contract: when tracing is disabled, every entry point is one
// relaxed atomic load. When enabled, Record() feeds the per-stage
// latency histogram (always — histograms want the full population) and
// pushes a Span into the calling thread's lock-free SPSC ring only when
// the context is head-sampled or force-sampled. A full ring drops the
// span and counts it; it never blocks and never allocates.
//
// The collector side (Drain / ExportChromeJson) swings through the
// registered rings under a leaf-rank mutex and serializes collected
// spans as Chrome-trace-event JSON ("traceEvents" array of "X" phase
// events, timestamps in microseconds) that chrome://tracing and
// Perfetto load directly.
//
// Sampling: the head sampler marks 1-in-sample_every roots as sampled;
// the always-on slow-request path force-records a root that exceeded
// slow_threshold_us even when the sampler said no, and logs it.
#ifndef RAILGUN_TRACE_TRACER_H_
#define RAILGUN_TRACE_TRACER_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "introspect/registry.h"
#include "trace/trace_context.h"

namespace railgun::trace {

// One span per instrumented hop. Names double as histogram keys
// (trace.stage.<name>_us) and Chrome event names.
enum class Stage : uint8_t {
  kClientSubmit = 0,  // client.submit: Submit* to ResultFuture complete.
  kFrontendEnqueue,   // frontend.enqueue: encode + queue (caller thread).
  kFrontendProduce,   // frontend.produce: one ProduceBatch fan-out.
  kBrokerAppend,      // broker.append: partition-log append.
  kBrokerPoll,        // broker.poll: park-to-delivery inside Poll.
  kUnitPoll,          // unit.poll: blocking PollBatch on the unit loop.
  kUnitDecode,        // unit.decode: envelope decode pass.
  kUnitProcess,       // unit.process: one TaskProcessor::ProcessBatch.
  kUnitWindowApply,   // unit.window_apply: plan ProcessEvent (per event).
  kUnitPipeline,      // unit.pipeline: operator-chain run (per event).
  kReplyPublish,      // reply.publish: reply-topic ProduceBatch.
  kFrontendComplete,  // frontend.complete: reply decode to callback.
  kSubscribePush,     // subscribe.push: hub decode to queue handoff.
  kCount,
};

const char* StageName(Stage stage);

struct Span {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  Micros start_us = 0;
  Micros duration_us = 0;
  Stage stage = Stage::kClientSubmit;
  uint8_t forced = 0;  // 1 when recorded by slow-request force sampling.
};

struct TracerOptions {
  // Head sampling: 1 in sample_every minted roots is sampled (1 = all).
  uint64_t sample_every = 1024;
  // Roots slower than this are force-recorded and logged even when
  // unsampled; 0 disables the slow path.
  Micros slow_threshold_us = 50 * kMicrosPerMilli;
  // Timestamp source for NowMicros(); tests inject a simulated clock.
  Clock* clock = nullptr;
};

class Tracer {
 public:
  // Spans a thread can buffer between collector drains. Power of two.
  static constexpr size_t kRingCapacity = 2048;

  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // The process-wide tracer every instrumented layer records into.
  static Tracer* Global();
  // Enables Global() from RAILGUN_TRACE / RAILGUN_TRACE_SAMPLE /
  // RAILGUN_TRACE_SLOW_US once per process (no-op when RAILGUN_TRACE is
  // unset/0 or on repeat calls).
  static void InitFromEnvOnce();

  void Enable(const TracerOptions& options);
  void Disable();
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Current time on the tracer's clock (0 when disabled, so callers can
  // use `t0 == 0` as "not measuring").
  Micros NowMicros() const;

  // Mints a root context: fresh 128-bit trace id, the root span's own
  // id, and the head sampler's verdict. Invalid when disabled.
  TraceContext Mint();

  // Records one hop: duration always lands in the stage histogram; a
  // Span enters the thread ring when ctx is sampled (or force is set).
  // Returns the context to forward — same trace, parented under the
  // just-recorded span. Invalid ctx: histogram only, returned as-is.
  TraceContext Record(Stage stage, const TraceContext& ctx, Micros start_us,
                      Micros end_us, bool force = false);

  // Records the root span itself (span id = ctx.span_id, no parent).
  // The slow-request path passes force=true for unsampled roots.
  void RecordRoot(Stage stage, const TraceContext& ctx, Micros start_us,
                  Micros end_us, bool force = false);

  // True when a completed root of `elapsed` must be force-sampled.
  bool SlowExceeded(Micros elapsed) const;
  Micros slow_threshold_us() const;

  // Moves every ring's pending spans into the collected buffer.
  // Returns the number of spans moved.
  size_t Drain();

  // Drain + serialize everything collected so far as Chrome-trace-event
  // JSON. Does not clear (call Clear() to start a fresh capture).
  std::string ExportChromeJson();
  Status ExportToFile(const std::string& path);
  void Clear();

  // Copy of everything collected so far (call Drain() first to include
  // spans still sitting in thread rings).
  std::vector<Span> CollectedSpans() const;

  // Registers per-stage histograms and trace.* probes. The registry
  // must outlive recording, or DetachRegistry must be called first.
  void AttachRegistry(introspect::Registry* registry);
  void DetachRegistry(introspect::Registry* registry);

  uint64_t spans_recorded() const {
    return spans_recorded_.load(std::memory_order_relaxed);
  }
  uint64_t spans_dropped() const {
    return spans_dropped_.load(std::memory_order_relaxed);
  }
  uint64_t slow_requests() const {
    return slow_requests_.load(std::memory_order_relaxed);
  }
  size_t collected_size() const;

  // Test hook: drops every registered ring and collected span, detaches
  // any registry, and disables.
  void ResetForTest();

  // Opaque here; defined in tracer.cc (public so the thread-local ring
  // cache at namespace scope can hold one).
  struct ThreadRing;

 private:
  uint64_t NewId();
  ThreadRing* RingForThisThread();
  void Push(const Span& span);
  void FeedHistogram(Stage stage, Micros duration_us);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> sample_every_{1024};
  std::atomic<Micros> slow_threshold_us_{0};
  std::atomic<Clock*> clock_{nullptr};
  std::atomic<uint64_t> sample_counter_{0};
  std::atomic<uint64_t> spans_recorded_{0};
  std::atomic<uint64_t> spans_dropped_{0};
  std::atomic<uint64_t> slow_requests_{0};
  // Bumped by ResetForTest so thread-local ring caches re-register.
  std::atomic<uint64_t> epoch_{1};

  // Stage histogram handles are owned by the attached registry; atomics
  // because Record() reads them wherever it runs.
  std::atomic<introspect::Histogram*> stage_hist_[
      static_cast<size_t>(Stage::kCount)] = {};
  std::atomic<introspect::Registry*> registry_{nullptr};

  mutable Mutex mu_{kRankTraceCollector};
  std::vector<std::shared_ptr<ThreadRing>> rings_ GUARDED_BY(mu_);
  std::vector<Span> collected_ GUARDED_BY(mu_);
};

}  // namespace railgun::trace

#endif  // RAILGUN_TRACE_TRACER_H_
