#include "common/mutex.h"

#ifdef RAILGUN_LOCK_RANK_CHECKS
#include <execinfo.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

// Safe here: the logging layer is lock-free (atomics only), so these
// fatal reports cannot re-enter the mutex being diagnosed.
#include "common/logging.h"
#endif

namespace railgun {

#ifdef RAILGUN_LOCK_RANK_CHECKS

namespace {

constexpr int kMaxHeld = 32;
constexpr int kMaxFrames = 24;

// Per-thread stack of held locks with the stack trace of each
// acquisition, so an inversion report can show *both* sides.
struct HeldLock {
  const Mutex* mu;
  int rank;
  void* frames[kMaxFrames];
  int num_frames;
};

struct HeldStack {
  HeldLock entries[kMaxHeld];
  int depth = 0;
};

HeldStack& Held() {
  thread_local HeldStack held;
  return held;
}

const char* RankName(int rank) {
  switch (rank) {
    case kRankTraceCollector: return "TraceCollector";
    case kRankHistogram: return "Histogram";
    case kRankIntrospectRegistry: return "IntrospectRegistry";
    case kRankIntrospectPublisher: return "IntrospectPublisher";
    case kRankStorageChunkCache: return "StorageChunkCache";
    case kRankStorageReservoir: return "StorageReservoir";
    case kRankStorageDb: return "StorageDb";
    case kRankMsgBufferPool: return "MsgBufferPool";
    case kRankMsgWake: return "MsgWake";
    case kRankMsgServerRebalance: return "MsgServerRebalance";
    case kRankEngineStrategy: return "EngineStrategy";
    case kRankMsgRemoteConn: return "MsgRemoteConn";
    case kRankMsgRemoteBus: return "MsgRemoteBus";
    case kRankMsgPartition: return "MsgPartition";
    case kRankMsgTopics: return "MsgTopics";
    case kRankMsgGroup: return "MsgGroup";
    case kRankMsgServer: return "MsgServer";
    case kRankEngineAdmission: return "EngineAdmission";
    case kRankEngineUnit: return "EngineUnit";
    case kRankEngineFrontEndPending: return "EngineFrontEndPending";
    case kRankEngineFrontEnd: return "EngineFrontEnd";
    case kRankEngineCluster: return "EngineCluster";
    case kRankMetaWorkerHeartbeat: return "MetaWorkerHeartbeat";
    case kRankMetaWorkerSync: return "MetaWorkerSync";
    case kRankMetaService: return "MetaService";
    case kRankApiResult: return "ApiResult";
    case kRankApiClient: return "ApiClient";
    case kRankWorkloadInjector: return "WorkloadInjector";
    case kRankMetaDdlSerializer: return "MetaDdlSerializer";
    case kRankTestOuter: return "TestOuter";
    case kRankTestInner: return "TestInner";
    default: return "?";
  }
}

[[noreturn]] void ReportInversion(const Mutex* mu, const HeldLock& held) {
  RAILGUN_LOG(kError, "mutex",
              "lock-rank inversion: acquiring %s (rank %d) while holding "
              "%s (rank %d); locks must be acquired in strictly "
              "decreasing rank order (backtraces on stderr)",
              RankName(mu->rank()), mu->rank(), RankName(held.rank),
              held.rank);
  // Backtraces bypass the sink: backtrace_symbols_fd is async-signal-
  // safe and needs a raw fd.
  std::fprintf(stderr, "--- acquisition attempted at:\n");
  std::fflush(stderr);
  void* frames[kMaxFrames];
  int n = ::backtrace(frames, kMaxFrames);
  ::backtrace_symbols_fd(frames, n, STDERR_FILENO);
  std::fprintf(stderr, "--- conflicting lock %s (rank %d) acquired at:\n",
               RankName(held.rank), held.rank);
  std::fflush(stderr);
  ::backtrace_symbols_fd(const_cast<void* const*>(held.frames),
                         held.num_frames, STDERR_FILENO);
  std::abort();
}

void RecordAcquire(const Mutex* mu, bool check_order) {
  HeldStack& held = Held();
  if (check_order) {
    for (int i = 0; i < held.depth; ++i) {
      if (mu->rank() >= held.entries[i].rank) {
        ReportInversion(mu, held.entries[i]);
      }
    }
  }
  if (held.depth >= kMaxHeld) {
    RAILGUN_LOG(kError, "mutex",
                "lock-rank checker: more than %d locks held by one "
                "thread (acquiring rank %d)",
                kMaxHeld, mu->rank());
    std::abort();
  }
  HeldLock& entry = held.entries[held.depth++];
  entry.mu = mu;
  entry.rank = mu->rank();
  entry.num_frames = ::backtrace(entry.frames, kMaxFrames);
}

void RecordRelease(const Mutex* mu) {
  HeldStack& held = Held();
  // Usually the top entry; scan for robustness with out-of-order
  // releases (e.g. std::scoped-style interleavings).
  for (int i = held.depth - 1; i >= 0; --i) {
    if (held.entries[i].mu != mu) continue;
    for (int j = i; j < held.depth - 1; ++j) {
      held.entries[j] = held.entries[j + 1];
    }
    --held.depth;
    return;
  }
  RAILGUN_LOG(kError, "mutex",
              "lock-rank checker: releasing rank %d (%s) not held by "
              "this thread",
              mu->rank(), RankName(mu->rank()));
  std::abort();
}

bool IsHeld(const Mutex* mu) {
  HeldStack& held = Held();
  for (int i = 0; i < held.depth; ++i) {
    if (held.entries[i].mu == mu) return true;
  }
  return false;
}

}  // namespace

void Mutex::Lock() {
  RecordAcquire(this, /*check_order=*/true);
  native_.lock();
}

void Mutex::Unlock() {
  RecordRelease(this);
  native_.unlock();
}

bool Mutex::TryLock() {
  if (!native_.try_lock()) return false;
  // A try-lock cannot block, so it is exempt from the ordering rule,
  // but it still joins the held set so later acquisitions are checked
  // against it.
  RecordAcquire(this, /*check_order=*/false);
  return true;
}

void Mutex::AssertHeld() {
  if (IsHeld(this)) return;
  RAILGUN_LOG(kError, "mutex",
              "lock-rank checker: AssertHeld on rank %d (%s) not held "
              "by this thread",
              rank_, RankName(rank_));
  std::abort();
}

void CondVar::Wait(Mutex* mu) {
  // The wait releases the mutex, so pop its held record for the
  // duration; the re-push re-runs the order check against whatever
  // the thread still holds (identical to the original acquisition).
  RecordRelease(mu);
  std::unique_lock<std::mutex> lock(mu->native_, std::adopt_lock);
  cv_.wait(lock);
  lock.release();
  RecordAcquire(mu, /*check_order=*/true);
}

bool CondVar::WaitFor(Mutex* mu, Micros timeout) {
  RecordRelease(mu);
  std::unique_lock<std::mutex> lock(mu->native_, std::adopt_lock);
  std::cv_status status =
      cv_.wait_for(lock, std::chrono::microseconds(timeout));
  lock.release();
  RecordAcquire(mu, /*check_order=*/true);
  return status == std::cv_status::no_timeout;
}

#else  // !RAILGUN_LOCK_RANK_CHECKS

void Mutex::Lock() { native_.lock(); }

void Mutex::Unlock() { native_.unlock(); }

bool Mutex::TryLock() { return native_.try_lock(); }

void Mutex::AssertHeld() {}

void CondVar::Wait(Mutex* mu) {
  std::unique_lock<std::mutex> lock(mu->native_, std::adopt_lock);
  cv_.wait(lock);
  lock.release();
}

bool CondVar::WaitFor(Mutex* mu, Micros timeout) {
  std::unique_lock<std::mutex> lock(mu->native_, std::adopt_lock);
  std::cv_status status =
      cv_.wait_for(lock, std::chrono::microseconds(timeout));
  lock.release();
  return status == std::cv_status::no_timeout;
}

#endif  // RAILGUN_LOCK_RANK_CHECKS

}  // namespace railgun
