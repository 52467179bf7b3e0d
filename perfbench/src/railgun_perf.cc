// railgun_perf: the repository benchmark's measuring program.
//
// Runs one fraud-scoring workload through the public api::Client,
// checks every sampled result against a brute-force reference, and
// prints the metrics as one JSON object on the last line of stdout:
//
//   railgun_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                --data-dir <dir> --out-dir <dir>
//
// One invocation is one set-up plus a measured phase of --seconds
// (fractions allowed); run.py repeats it and reports medians. --trace 0
// reports the end-to-end metrics with the tracer forced off; --trace 1
// reports the per-layer metrics of a traced run and writes a
// Perfetto-loadable trace into --out-dir.
//
// perfbench/README.md describes the workloads and the metrics.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/client.h"
#include "common/logging.h"
#include "fraud_stream.h"
#include "layers.h"
#include "reference.h"
#include "trace/tracer.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using railgun::Micros;
using railgun::api::Client;
using railgun::api::EventResult;
using railgun::api::ResultFuture;
using railgun::api::Row;

constexpr Micros kRequestTimeout = 5 * railgun::kMicrosPerSecond;
// Pre-fill shape: the closed loop that loads the history.
constexpr size_t kPrefillBatch = 256;
constexpr size_t kPrefillInflight = 4096;
// Every 16th card (by Zipf rank, so the hottest card is included) is
// checked against the reference model.
constexpr uint64_t kSampleEvery = 16;

// ---------------------------------------------------------------- workloads

struct WorkloadSpec {
  const char* name;
  double rate;                 // Open loop: offered events/s; 0 = closed.
  size_t batch;                // Closed loop: rows per SubmitBatch.
  size_t inflight;             // Closed loop: events kept in flight.
  uint64_t events_per_second;  // Measured events per --seconds.
  uint64_t warmup_events;      // Completed before measuring starts.
  uint64_t history_events;     // Pre-fill; spans one 60-minute window.
  size_t cache_capacity;       // Chunk-cache capacity per task; 0 = default.
};

// perfbench/README.md explains each choice.
constexpr WorkloadSpec kWorkloads[] = {
    {"fraud_open_inproc", 1000, 0, 0, 1000, 1000, 20000, 0},
    {"expiry_batch_inproc", 0, 256, 2048, 5000, 8192, 24000, 16},
};

// ---------------------------------------------------------------- inputs

// One submitted event: its future, when its latency clock started, and
// the reference answer when its card is in the verified sample.
struct PendingEvent {
  ResultFuture future;
  int64_t start_ns = 0;  // Due time (open loop) or batch hand-off.
  bool measured = false;
  bool sampled = false;
  std::string card;
  WindowAggregates expected;
};

// Generates the workload's events one at a time (never materialising a
// run's inputs) and keeps the brute-force window of every sampled card.
class EventSource {
 public:
  EventSource(uint64_t seed, uint64_t history_events)
      : generator_(Config(seed)),
        step_us_(kCardWindow / static_cast<Micros>(history_events)) {}

  const std::vector<railgun::reservoir::SchemaField>& fields() const {
    return generator_.schema_fields();
  }
  int64_t step_us() const { return step_us_; }

  void Next(Row* row, PendingEvent* pending) {
    const Micros t = kTimeBase + static_cast<Micros>(index_++) * step_us_;
    const railgun::reservoir::Event event = generator_.Next(t);
    row->At(t);
    const auto& fields = generator_.schema_fields();
    for (size_t i = 0; i < fields.size(); ++i) {
      row->Set(fields[i].name, event.values[i]);
    }
    const std::string& card = event.values[0].as_string();
    if (std::strtoull(card.c_str() + 4, nullptr, 10) % kSampleEvery != 0) {
      return;
    }
    BruteForceWindow& window =
        windows_.try_emplace(card, kCardWindow).first->second;
    window.Add(t, event.values[2].as_double());
    pending->sampled = true;
    pending->card = card;
    pending->expected = window.Evaluate(t);
  }

 private:
  static railgun::workload::FraudStreamConfig Config(uint64_t seed) {
    railgun::workload::FraudStreamConfig config;
    config.seed = seed;
    return config;
  }

  railgun::workload::FraudStreamGenerator generator_;
  int64_t step_us_;
  uint64_t index_ = 0;
  std::unordered_map<std::string, BruteForceWindow> windows_;
};

// ---------------------------------------------------------------- outcomes

// Counts over every event a run submits (pre-fill included).
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // Failed, timed out or shed.
  uint64_t verified = 0;
  uint64_t mismatches = 0;
};

// What one measured phase observed.
struct PhaseResult {
  uint64_t events = 0;
  double seconds = 0;
  double cpu_us = 0;
  std::vector<double> latency_ms;
  std::vector<double> api_call_us;
  std::vector<double> late_ms;  // Open loop: submit time minus due time.
  uint64_t out_of_order = 0;
};

// Empty when the result matches the reference; otherwise why not.
std::string Mismatch(const EventResult& result, const PendingEvent& p) {
  if (result.metrics.size() != kMetricsPerEvent) {
    return "expected " + std::to_string(kMetricsPerEvent) + " metrics, got " +
           std::to_string(result.metrics.size());
  }
  if (!p.sampled) return "";
  const auto* count = result.Find("count(*)", p.card);
  const auto* sum = result.Find("sum(amount)", p.card);
  const auto* avg = result.Find("avg(amount)", p.card);
  const auto* max = result.Find("max(amount)", p.card);
  if (count == nullptr || sum == nullptr || avg == nullptr || max == nullptr) {
    return "missing card metric for " + p.card;
  }
  char why[256];
  const WindowAggregates& e = p.expected;
  if (std::llround(count->value.ToNumber()) != e.count ||
      !NearlyEqual(sum->value.ToNumber(), e.sum) ||
      !NearlyEqual(avg->value.ToNumber(), e.avg) ||
      !NearlyEqual(max->value.ToNumber(), e.max)) {
    snprintf(why, sizeof(why),
             "%s: got count=%.17g sum=%.17g avg=%.17g max=%.17g, want "
             "count=%lld sum=%.17g avg=%.17g max=%.17g",
             p.card.c_str(), count->value.ToNumber(), sum->value.ToNumber(),
             avg->value.ToNumber(), max->value.ToNumber(),
             static_cast<long long>(e.count), e.sum, e.avg, e.max);
    return why;
  }
  return "";
}

// Settles one ready event: counts it, checks it, and (when measured)
// records its latency. A failed event counts as a miss at the request
// timeout, so failures cannot flatter the tail.
void Settle(const PendingEvent& p, int64_t done_ns, Tally* tally,
            PhaseResult* phase) {
  ++tally->attempted;
  const EventResult result = p.future.Get();
  double latency_ms = static_cast<double>(done_ns - p.start_ns) / 1e6;
  if (!result.ok()) {
    if (tally->failed++ < 5) {
      fprintf(stderr, "event failed: %s\n", result.status.ToString().c_str());
    }
    latency_ms = static_cast<double>(kRequestTimeout) / 1e3;
  } else {
    const std::string why = Mismatch(result, p);
    if (!why.empty()) {
      if (tally->mismatches++ < 5) fprintf(stderr, "MISMATCH %s\n", why.c_str());
    } else if (p.sampled) {
      ++tally->verified;
    }
  }
  if (p.measured) phase->latency_ms.push_back(latency_ms);
}

// ---------------------------------------------------------------- process stats

double CpuMicrosOfSelf() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto micros = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return micros(usage.ru_utime) + micros(usage.ru_stime);
}

// VmHWM (peak resident set) of this process, in MB.
double PeakRssMb() {
  FILE* f = fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (fgets(line, sizeof(line), f) != nullptr) {
    if (strncmp(line, "VmHWM:", 6) == 0) kb = atof(line + 6);
  }
  fclose(f);
  return kb / 1024.0;
}

// ---------------------------------------------------------------- system

// The system under test: an in-process cluster owned by the client,
// with the stream and its metrics declared.
class System {
 public:
  System(const WorkloadSpec& spec, const std::string& dir,
         const std::vector<railgun::reservoir::SchemaField>& fields) {
    railgun::api::ClientOptions options;
    options.base_dir = dir;
    options.request_timeout = kRequestTimeout;
    options.num_nodes = 1;
    options.processor_units_per_node = 2;
    options.engine.bus.delivery_delay = 0;
    if (spec.cache_capacity > 0) {
      options.engine.node.unit.task.reservoir.cache_capacity =
          spec.cache_capacity;
    }
    client_ = std::make_unique<Client>(options);
    RAILGUN_CHECK_OK(client_->Start());
    // End-to-end runs measure with tracing off, whatever RAILGUN_TRACE
    // says; the traced run turns it on for its second phase only.
    railgun::trace::Tracer::Global()->Disable();
    RAILGUN_CHECK_OK(client_->Execute(CreateStreamDdl(fields)));
    RAILGUN_CHECK_OK(client_->Execute(CardMetricSql()));
    RAILGUN_CHECK_OK(client_->Execute(MerchantMetricSql()));
  }

  ~System() {
    railgun::trace::Tracer::Global()->Disable();
    sampler_.reset();
    client_->Stop();
  }

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  Client* client() { return client_.get(); }

  // Cumulative layer counters and stage histograms of the cluster.
  LayerSnapshot Layers() {
    LayerSnapshot snapshot = SnapshotCluster(client_->cluster());
    if (sampler_ != nullptr) {
      snapshot["perfbench.backlog_max"] = sampler_->backlog_max();
    }
    return snapshot;
  }

  void StartTracing() {
    railgun::trace::TracerOptions options;
    options.sample_every = 1;
    options.slow_threshold_us = 0;  // Every root is sampled already.
    railgun::trace::Tracer* tracer = railgun::trace::Tracer::Global();
    tracer->Enable(options);
    tracer->Drain();
    tracer->Clear();
    sampler_ = std::make_unique<LayerSampler>(client_->cluster()->registry());
  }

  // Stops tracing and writes the trace as Chrome-trace JSON.
  void StopTracing(const std::string& path) {
    railgun::trace::Tracer* tracer = railgun::trace::Tracer::Global();
    tracer->Disable();
    RAILGUN_CHECK_OK(tracer->ExportToFile(path));
  }

 private:
  std::unique_ptr<Client> client_;
  std::unique_ptr<LayerSampler> sampler_;
};

// ---------------------------------------------------------------- loops

void SleepUntil(int64_t due_ns) {
  const timespec ts{static_cast<time_t>(due_ns / 1000000000),
                    static_cast<long>(due_ns % 1000000000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

// Open loop: one generator thread submits event i at start + i / rate
// with per-event Submit (each row generated in the gap before it is
// due); this thread collects the futures in submission order. Latency
// runs from the due time, so a stall also charges the events queued
// behind it.
PhaseResult RunOpenLoop(System* system, EventSource* source, double rate,
                        uint64_t warmup, uint64_t measured, Tally* tally,
                        const std::function<void()>& on_start) {
  PhaseResult phase;
  phase.events = measured;
  const uint64_t total = warmup + measured;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<PendingEvent> queue;
  bool finished = false;
  int64_t measure_start_ns = 0;

  std::thread generator([&] {
    const int64_t start_ns = NowNanos() + 1000000;
    for (uint64_t i = 0; i < total; ++i) {
      PendingEvent pending;
      Row row;
      source->Next(&row, &pending);
      pending.measured = i >= warmup;
      pending.start_ns =
          start_ns + static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate);
      if (i == warmup) {
        on_start();
        measure_start_ns = pending.start_ns;
      }
      SleepUntil(pending.start_ns);
      const int64_t submit_ns = NowNanos();
      pending.future = system->client()->Submit(kStream, row);
      if (pending.measured) {
        phase.late_ms.push_back(
            static_cast<double>(submit_ns - pending.start_ns) / 1e6);
        phase.api_call_us.push_back(
            static_cast<double>(NowNanos() - submit_ns) / 1e3);
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back(std::move(pending));
      }
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      finished = true;
    }
    cv.notify_one();
  });

  // Completion is stamped when the future becomes ready. Collecting in
  // FIFO order overstates events that finished behind a stalled one:
  // those are the events found already complete right after a wait of
  // more than 1 ms, and are counted as out of order.
  bool after_stall = false;
  int64_t last_done_ns = 0;
  for (;;) {
    PendingEvent pending;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !queue.empty() || finished; });
      if (queue.empty()) break;
      pending = std::move(queue.front());
      queue.pop_front();
    }
    if (pending.future.ready()) {
      if (after_stall && pending.measured) ++phase.out_of_order;
    } else {
      const int64_t wait_start_ns = NowNanos();
      pending.future.Wait();
      after_stall = NowNanos() - wait_start_ns > 1000000;
    }
    const int64_t done_ns = NowNanos();
    Settle(pending, done_ns, tally, &phase);
    if (pending.measured) last_done_ns = done_ns;
  }
  generator.join();
  phase.seconds = static_cast<double>(last_done_ns - measure_start_ns) / 1e9;
  return phase;
}

// Closed loop: this thread keeps `inflight` events outstanding with
// SubmitBatch of `batch` rows, retiring the oldest batch whenever the
// window is full. Latency runs from the batch hand-off.
PhaseResult RunClosedLoop(System* system, EventSource* source, size_t batch,
                          size_t inflight, uint64_t warmup, uint64_t measured,
                          Tally* tally,
                          const std::function<void()>& on_start) {
  PhaseResult phase;
  phase.events = measured;
  const uint64_t total = warmup + measured;
  std::deque<std::vector<PendingEvent>> window;
  size_t outstanding = 0;
  int64_t measure_start_ns = 0;
  int64_t last_done_ns = 0;
  const auto retire_oldest = [&] {
    for (const PendingEvent& pending : window.front()) {
      pending.future.Wait();
      const int64_t done_ns = NowNanos();
      Settle(pending, done_ns, tally, &phase);
      if (pending.measured) last_done_ns = done_ns;
    }
    outstanding -= window.front().size();
    window.pop_front();
  };

  bool started = false;
  std::vector<Row> rows;
  for (uint64_t sent = 0; sent < total;) {
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(batch, total - sent));
    if (!started && measured > 0 && sent >= warmup) {
      started = true;
      on_start();
      measure_start_ns = NowNanos();
    }
    rows.assign(n, Row());
    std::vector<PendingEvent> events(n);
    for (size_t i = 0; i < n; ++i) {
      source->Next(&rows[i], &events[i]);
      events[i].measured = sent + i >= warmup;
    }
    const int64_t handoff_ns = NowNanos();
    std::vector<ResultFuture> futures =
        system->client()->SubmitBatch(kStream, rows);
    if (started) {
      phase.api_call_us.push_back(
          static_cast<double>(NowNanos() - handoff_ns) / 1e3);
    }
    RAILGUN_CHECK(futures.size() == n);
    for (size_t i = 0; i < n; ++i) {
      events[i].future = std::move(futures[i]);
      events[i].start_ns = handoff_ns;
    }
    window.push_back(std::move(events));
    outstanding += n;
    sent += n;
    while (outstanding >= inflight) retire_oldest();
  }
  while (!window.empty()) retire_oldest();
  phase.seconds = static_cast<double>(last_done_ns - measure_start_ns) / 1e9;
  return phase;
}

// Raises the calling thread (and the threads it starts later) to nice
// -10, ahead of the engine's threads, which started earlier and keep
// nice 0: the load generator must keep its schedule when the system
// under test slows. At nice 0 it was preempted by the engine often
// enough that its own lateness set the open-loop p99.9.
void RaiseLoadPriority() {
  if (setpriority(PRIO_PROCESS, 0, -10) != 0) {
    fprintf(stderr, "warning: cannot raise the load generator's priority\n");
  }
}

PhaseResult RunPhase(const WorkloadSpec& spec, System* system,
                     EventSource* source, uint64_t warmup, uint64_t measured,
                     Tally* tally, const std::function<void()>& on_start) {
  RaiseLoadPriority();
  double cpu_start = 0;
  const auto start = [&] {
    on_start();
    cpu_start = CpuMicrosOfSelf();
  };
  PhaseResult phase =
      spec.rate > 0
          ? RunOpenLoop(system, source, spec.rate, warmup, measured, tally,
                        start)
          : RunClosedLoop(system, source, spec.batch, spec.inflight, warmup,
                          measured, tally, start);
  phase.cpu_us = CpuMicrosOfSelf() - cpu_start;
  return phase;
}

// Cluster start, DDL, and the pre-fill loaded to completion.
std::unique_ptr<System> SetUp(const WorkloadSpec& spec, const std::string& dir,
                              EventSource* source, Tally* tally) {
  auto system = std::make_unique<System>(spec, dir, source->fields());
  RunClosedLoop(system.get(), source, kPrefillBatch, kPrefillInflight,
                spec.history_events, 0, tally, [] {});
  return system;
}

// ---------------------------------------------------------------- report

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

void PrintResult(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    fprintf(stderr, "  %-32s %14.6g %s\n", m.name.c_str(), m.value,
            m.unit.c_str());
  }
  fprintf(stderr,
          "attempted %llu, failed %llu, verified %llu, mismatches %llu\n",
          static_cast<unsigned long long>(tally.attempted),
          static_cast<unsigned long long>(tally.failed),
          static_cast<unsigned long long>(tally.verified),
          static_cast<unsigned long long>(tally.mismatches));
  const bool correct = tally.mismatches == 0 && tally.verified > 0;
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": {",
         correct ? "true" : "false",
         static_cast<unsigned long long>(tally.attempted),
         static_cast<unsigned long long>(tally.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
           i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
           metrics[i].unit.c_str());
  }
  printf("}}\n");
  fflush(stdout);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  // Measured time; fractions allowed.
  bool trace = false;
  std::string data_dir;
  std::string out_dir;
};

// Events in a measured phase of `seconds`.
uint64_t MeasuredEvents(const WorkloadSpec& spec, double seconds) {
  return static_cast<uint64_t>(
      std::llround(static_cast<double>(spec.events_per_second) * seconds));
}

// End-to-end metrics of one repetition, tracer off: one set-up, then
// one measured phase. run.py repeats this in fresh processes and
// reports the medians.
int RunEndToEnd(const WorkloadSpec& spec, const Args& args) {
  Tally tally;
  EventSource source(args.seed, spec.history_events);
  const int64_t setup_start_ns = NowNanos();
  std::unique_ptr<System> system =
      SetUp(spec, args.data_dir + "/setup", &source, &tally);
  const double setup_s =
      static_cast<double>(NowNanos() - setup_start_ns) / 1e9;
  PhaseResult phase =
      RunPhase(spec, system.get(), &source, spec.warmup_events,
               MeasuredEvents(spec, args.seconds), &tally, [] {});
  const double peak_rss_mb = PeakRssMb();
  system.reset();
  fprintf(stderr, "setup %.3f s; measured %llu events in %.3f s, late "
          "p99.9 %.3f ms, out-of-order completions %llu\n",
          setup_s, static_cast<unsigned long long>(phase.events),
          phase.seconds, Percentile(&phase.late_ms, 99.9),
          static_cast<unsigned long long>(phase.out_of_order));
  const double events = static_cast<double>(phase.events);
  PrintResult(tally,
              {{"latency_p50_ms", "ms", Percentile(&phase.latency_ms, 50)},
               {"throughput_eps", "1/s", events / phase.seconds},
               {"cpu_us_per_event", "us", phase.cpu_us / events},
               {"peak_rss_mb", "MB", peak_rss_mb},
               {"setup_s", "s", setup_s}});
  return 0;
}

// Per-layer metrics: one set-up, an untraced phase of --seconds, then a
// traced phase (sample_every=1) of the same length whose layer counters
// are read before and after; then the standalone layer drives.
int RunTraced(const WorkloadSpec& spec, const Args& args) {
  Tally tally;
  EventSource source(args.seed, spec.history_events);
  std::unique_ptr<System> system =
      SetUp(spec, args.data_dir + "/setup", &source, &tally);
  const uint64_t events_per_phase = MeasuredEvents(spec, args.seconds);
  PhaseResult untraced =
      RunPhase(spec, system.get(), &source, spec.warmup_events,
               events_per_phase, &tally, [] {});
  system->StartTracing();
  LayerSnapshot before;
  PhaseResult traced =
      RunPhase(spec, system.get(), &source, 0, events_per_phase, &tally,
               [&] { before = system->Layers(); });
  const LayerSnapshot after = system->Layers();
  const std::string trace_path =
      args.out_dir + "/" + spec.name + ".trace.json";
  std::filesystem::create_directories(args.out_dir);
  system->StopTracing(trace_path);
  system.reset();

  const StorageDriveResult storage =
      DriveStorage(args.data_dir + "/storage", args.seed, 100000);
  const TaskDriveResult task = DriveTask(args.data_dir + "/task", args.seed,
                                         source.step_us(), 40, 10);
  const WireDriveResult wire = DriveWire(args.seed, source.step_us(), 20000);

  const double events = static_cast<double>(traced.events);
  const auto delta = [&](const std::string& name) {
    return Get(after, name) - Get(before, name);
  };
  const auto ratio = [](double hits, double misses) {
    return hits + misses > 0 ? hits / (hits + misses) : 1.0;
  };
  const auto stage = [&](const std::string& name, const std::string& stat) {
    return Get(after, "trace.stage." + name + "_us." + stat);
  };
  const double batches = delta("unit.batch_size.count");
  const double batch_mean =
      batches > 0 ? (Get(after, "unit.batch_size.mean") *
                         Get(after, "unit.batch_size.count") -
                     Get(before, "unit.batch_size.mean") *
                         Get(before, "unit.batch_size.count")) /
                        batches
                  : 0;
  const double untraced_cpu = untraced.cpu_us / static_cast<double>(untraced.events);
  const double traced_cpu = traced.cpu_us / events;
  std::vector<Metric> metrics = {
      // The SLO percentile, from the untraced phase. Per-layer rather
      // than end-to-end: on a shared 4-vCPU VM its spread over ten runs
      // (IQR/median 0.3-0.4) exceeded any allowed bound (README.md).
      {"latency_p999_ms", "ms", Percentile(&untraced.latency_ms, 99.9)},
      {"api.submit_call_us.p50", "us", Percentile(&untraced.api_call_us, 50)},
      {"api.submit_call_us.p99", "us", Percentile(&untraced.api_call_us, 99)},
  };
  for (const char* name : {"frontend.enqueue", "frontend.produce",
                           "frontend.complete", "broker.append"}) {
    for (const char* stat : {"p50", "p99"}) {
      metrics.push_back({std::string(name) + "_us." + stat, "us",
                         stage(name, stat)});
    }
  }
  metrics.push_back({"broker.poll_us.p50", "us", stage("broker.poll", "p50")});
  metrics.push_back({"bus.wakes_per_event", "count/event",
                     delta("bus.poll_wakes") / events});
  metrics.push_back({"bus.parks_per_event", "count/event",
                     delta("bus.poll_parks") / events});
  metrics.push_back(
      {"bus.backlog.max", "count", Get(after, "perfbench.backlog_max")});
  metrics.push_back({"unit.batch_size.mean", "count", batch_mean});
  for (const char* name : {"unit.decode", "unit.process", "reply.publish"}) {
    for (const char* stat : {"p50", "p99"}) {
      metrics.push_back({std::string(name) + "_us." + stat, "us",
                         stage(name, stat)});
    }
  }
  for (const char* stat : {"p50", "p99", "max"}) {
    metrics.push_back({std::string("unit.window_apply_us.") + stat, "us",
                       stage("unit.window_apply", stat)});
  }
  for (const char* name : {"appends", "chunks_written", "sync_chunk_loads",
                           "prefetches_issued"}) {
    metrics.push_back({std::string("reservoir.") + name, "count",
                       delta(std::string("reservoir.") + name)});
  }
  metrics.push_back({"reservoir.cache_hit_ratio", "ratio",
                     ratio(delta("reservoir.cache_hits"),
                           delta("reservoir.cache_misses"))});
  metrics.push_back({"storage.l0_files", "count", Get(after, "storage.l0_files")});
  metrics.push_back(
      {"storage.sst_files", "count", Get(after, "storage.sst_files")});
  metrics.push_back({"storage.put_us.p50", "us", storage.put_p50_us});
  metrics.push_back({"storage.put_us.p99", "us", storage.put_p99_us});
  metrics.push_back({"storage.put_us.max", "us", storage.put_max_us});
  metrics.push_back({"storage.get_us.p50", "us", storage.get_p50_us});
  metrics.push_back({"storage.get_us.p99", "us", storage.get_p99_us});
  metrics.push_back(
      {"task.process_batch_us.p50", "us", task.process_batch_p50_us});
  metrics.push_back({"task.checkpoint_us.max", "us", task.checkpoint_max_us});
  metrics.push_back({"task.checkpoint_bytes", "bytes", task.checkpoint_bytes});
  metrics.push_back(
      {"wire.decode.bytes_per_event", "bytes/event", wire.bytes_per_event});
  metrics.push_back(
      {"wire.decode.pool_hit_ratio", "ratio", wire.pool_hit_ratio});
  metrics.push_back(
      {"gen.late_p999_ms", "ms", Percentile(&untraced.late_ms, 99.9)});
  metrics.push_back({"gen.out_of_order_completions", "count",
                     static_cast<double>(untraced.out_of_order)});
  metrics.push_back({"trace_overhead_pct", "%",
                     (traced_cpu - untraced_cpu) / untraced_cpu * 100.0});
  metrics.push_back({"verified_events", "count",
                     static_cast<double>(tally.verified)});
  fprintf(stderr, "trace written to %s\n", trace_path.c_str());
  PrintResult(tally, metrics);
  return 0;
}

int Usage() {
  fprintf(stderr,
          "usage: railgun_perf --workload <name> --seed <n> --seconds <s> "
          "--trace <0|1> --data-dir <dir> --out-dir <dir>\n");
  return 2;
}

int Main(int argc, char** argv) {
  // Every process of a run dies with the one that started it.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  railgun::SetMinLogLevel(railgun::LogLevel::kWarn);
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (!(args.seconds > 0) || args.data_dir.empty() || args.out_dir.empty()) {
    return Usage();
  }
  for (const WorkloadSpec& spec : kWorkloads) {
    if (args.workload == spec.name) {
      return args.trace ? RunTraced(spec, args) : RunEndToEnd(spec, args);
    }
  }
  fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
