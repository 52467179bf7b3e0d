// Annotated mutex / condition-variable wrappers.
//
// `railgun::Mutex` carries the clang CAPABILITY attribute so
// `-Wthread-safety` can check GUARDED_BY / REQUIRES discipline, and —
// when RAILGUN_LOCK_RANK_CHECKS is defined (all sanitizer jobs and
// Debug builds) — a runtime lock-rank checker: every Mutex is
// constructed with a rank from the hierarchy below, a thread may only
// acquire a mutex whose rank is strictly *lower* than every rank it
// already holds, and a violation aborts immediately with the stacks of
// both acquisitions. That turns any potential lock-order deadlock into
// a deterministic failure on the first inverted acquisition — no
// schedule luck needed.
//
// Rank hierarchy (higher = outermost; a full table with the rationale
// for each exception lives in DESIGN.md "Locking hierarchy &
// thread-safety model"):
//
//   7xx  cross-layer serializers (meta DDL, workload drivers)
//   6xx  api      (client facade, remote DDL, result futures)
//   5xx  meta     (metadata service, worker sync/heartbeat)
//   4xx  engine   (cluster > frontend > units > admission)
//   3xx  msg      (server > groups > topics > partitions > wire)
//   2xx  storage  (db > reservoir > chunk cache)
//   1xx  common   (histograms, introspection leaves)
//
// Documented exceptions to straight subsystem banding:
//   - kEngineStrategy (Coordinator::mu_) ranks inside the msg band:
//     assignment strategies execute under the broker's group lock.
//   - kMetaDdlSerializer ranks above the api band: the metadata
//     service holds it while driving api::Client::Execute.
//   - kRankApiResult ranks in the leaf band: future completions run
//     as callbacks under engine locks, and wrap no lock themselves.
#ifndef RAILGUN_COMMON_MUTEX_H_
#define RAILGUN_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/clock.h"
#include "common/thread_annotations.h"

namespace railgun {

// Every Mutex names its place in the acquisition order. Gaps between
// values are deliberate: new locks slot in without renumbering.
enum LockRank : int {
  // --- common / leaves (1xx) ---------------------------------------
  // api::ResultFuture::State::mu. Exception: lives in the leaf band,
  // not the api band — completions run under engine locks (e.g.
  // Cluster::Stop failing pending futures through FrontEnd callbacks)
  // and the state mutex never wraps another lock.
  kRankApiResult = 105,
  kRankHistogram = 110,          // introspect::Histogram::mu_
  kRankTraceCollector = 120,     // trace::Tracer ring registry + export
                                 // (above kRankHistogram: the drain
                                 // feeds stage histograms while held)
  kRankIntrospectRegistry = 130, // introspect::Registry::mu_ (leaf:
                                 // probes run outside the lock)
  kRankIntrospectPublisher = 150,// introspect::Publisher cadence park
  kRankOpsSubQueue = 160,        // ops::SubscriptionHub per-subscription
                                 // record queue (leaf-ish: only trace /
                                 // histogram leaves nest inside)

  // --- storage (2xx) -----------------------------------------------
  kRankStorageChunkCache = 220,  // reservoir::ChunkCache::mu_
  kRankStorageReservoir = 250,   // reservoir::Reservoir::mu_ (inserts
                                 // into the chunk cache while held)
  kRankStorageDb = 260,          // storage::DB coarse mutex

  // --- msg (3xx) ----------------------------------------------------
  kRankMsgBufferPool = 305,      // msg::BufferPool free-list
  kRankMsgWake = 310,            // broker per-consumer wake slot
  kRankMsgServerRebalance = 315, // BusServer per-conn rebalance buffer
  // engine::Coordinator::mu_. Exception: ranks inside the msg band
  // because assignment strategies run under the broker group lock.
  kRankEngineStrategy = 320,
  kRankMsgRemoteConn = 330,      // RemoteBus per-connection state
  kRankMsgRemoteBus = 335,       // RemoteBus connection map
  kRankMsgPartition = 340,       // broker PartitionLog::mu (innermost
                                 // of the broker's documented order)
  kRankMsgTopics = 350,          // broker topic map
  kRankMsgGroup = 360,           // broker consumer-group state
  kRankMsgServer = 390,          // remote::BusServer connection table

  // --- engine (4xx) -------------------------------------------------
  kRankEngineAdmission = 405,    // engine::TokenBucket::mu_
  kRankEngineUnit = 430,         // engine::ProcessorUnit::mu_
  kRankEngineFrontEndPending = 440,  // FrontEnd pending-reply shards
  kRankEngineFrontEnd = 450,     // FrontEnd routes/streams
  kRankOpsSubscriptionHub = 460, // ops::SubscriptionHub table (held
                                 // across bus Subscribe/Leave calls)
  kRankEngineCluster = 480,      // Cluster node table (held across
                                 // RegisterStream into frontend/bus)

  // --- meta (5xx) ----------------------------------------------------
  kRankMetaWorkerHeartbeat = 540,// WorkerNode heartbeat park
  kRankMetaWorkerSync = 550,     // WorkerNode stream sync (held across
                                 // meta RPCs and node RegisterStream)
  kRankMetaService = 560,        // MetadataService membership/schemas

  // --- api (6xx) ------------------------------------------------------
  kRankApiSubscription = 605,    // api::Subscription stub (held across
                                 // RemoteBus subscription RPCs)
  kRankApiClient = 620,          // api::Client registration state

  // --- cross-layer serializers (7xx) ---------------------------------
  kRankWorkloadInjector = 710,   // workload completion accounting
  // MetadataService::ddl_mu_. Exception: ranks above the api band
  // because DDL execution drives an api::Client while held.
  kRankMetaDdlSerializer = 720,

  // Test-only ranks live above everything real.
  kRankTestOuter = 900,
  kRankTestInner = 890,
};

// Standard-layout mutex carrying a rank and the clang capability
// attribute. Satisfies BasicLockable so std:: scoped helpers still
// work where needed, but prefer railgun::MutexLock.
class CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank) : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE();
  void Unlock() RELEASE();
  bool TryLock() TRY_ACQUIRE(true);

  // Debug-checks that the calling thread holds this mutex (rank
  // checker builds only) and tells the static analysis to assume it.
  void AssertHeld() ASSERT_CAPABILITY(this);

  int rank() const { return rank_; }

  // BasicLockable, so this type drops into std:: lock helpers.
  void lock() ACQUIRE() { Lock(); }
  void unlock() RELEASE() { Unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return TryLock(); }

 private:
  friend class CondVar;
  std::mutex native_;
  const int rank_;
};

// RAII scoped lock with the SCOPED_CAPABILITY attribute, the unit of
// almost all locking in the codebase.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() {
    if (owns_) mu_->Unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // Early release / reacquire, for park-then-work loops that drop the
  // lock around a slow callout (publisher, heartbeat, sweeper).
  void Unlock() RELEASE() {
    mu_->Unlock();
    owns_ = false;
  }
  void Lock() ACQUIRE() {
    mu_->Lock();
    owns_ = true;
  }

 private:
  friend class CondVar;
  Mutex* const mu_;
  bool owns_ = true;
};

// Condition variable bound to railgun::Mutex. Waits keep the rank
// checker's bookkeeping straight: the held-lock record is popped for
// the duration of the wait and re-pushed when the mutex is
// reacquired, so a wakeup path can never be blamed for an inversion
// the waiter did not commit.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) REQUIRES(mu);

  template <typename Pred>
  void Wait(Mutex* mu, Pred pred) REQUIRES(mu) {
    while (!pred()) Wait(mu);
  }

  // Returns false on timeout (like std::cv_status::timeout).
  bool WaitFor(Mutex* mu, Micros timeout) REQUIRES(mu);

  // Returns pred() on exit, std::condition_variable semantics: the
  // timeout bounds the *total* wait, so spurious wakeups and notifies
  // that leave pred() false only consume the remaining budget.
  template <typename Pred>
  bool WaitFor(Mutex* mu, Micros timeout, Pred pred) REQUIRES(mu) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(timeout);
    while (!pred()) {
      const Micros remaining =
          std::chrono::duration_cast<std::chrono::microseconds>(
              deadline - std::chrono::steady_clock::now())
              .count();
      if (remaining <= 0) return pred();
      (void)WaitFor(mu, remaining);
    }
    return true;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace railgun

#endif  // RAILGUN_COMMON_MUTEX_H_
