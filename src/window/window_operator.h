// WindowOperator advances a window over the reservoir for every arriving
// event (real-time sliding: T_eval is the moment right after arrival) and
// reports the entering / expiring event sets to downstream operators.
//
// Iterator sharing (paper §4.1.1: "we reuse iterators among windows"):
// windows whose leading edges align (same delay) share one head
// iterator, and windows whose trailing edges align (same delay + size)
// share one tail iterator. WindowManager drains every shared iterator
// exactly once per arriving event and *broadcasts* the drained events to
// all windows subscribed to that edge.
//
// Edges compare thresholds against the iterators' timestamps and decode
// only the events that cross, into slots the caller's EdgeDeltas keeps
// across events, so a warm edge drains without allocating.
#ifndef RAILGUN_WINDOW_WINDOW_OPERATOR_H_
#define RAILGUN_WINDOW_WINDOW_OPERATOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "reservoir/reservoir.h"
#include "window/window.h"

namespace railgun::window {

// Events decoded into reused slots: the first size() slots are live, and
// the slots past them keep their value storage for the next fill.
class EventRun {
 public:
  void clear() { size_ = 0; }
  size_t size() const { return size_; }
  const reservoir::Event& operator[](size_t i) const { return slots_[i]; }
  // Makes the next slot live and returns it for the caller to fill.
  reservoir::Event* Add() {
    if (size_ == slots_.size()) slots_.emplace_back();
    return &slots_[size_++];
  }

 private:
  std::vector<reservoir::Event> slots_;
  size_t size_ = 0;
};

// One advancement step's output for one window. Entered/expired point
// into the EdgeDeltas storage (or `owned`) and are valid until the next
// WindowManager::Advance or Collect — the plan consumes them within the
// same step.
struct WindowDelta {
  std::vector<const reservoir::Event*> entered;
  std::vector<const reservoir::Event*> expired;
  // Backing storage for events not owned by EdgeDeltas (count-window
  // tails drain a private iterator).
  EventRun owned;
  // Tumbling windows: the window instance `now` falls in (its start
  // time); the plan keys the instance's state by it.
  Micros epoch = 0;
};

// Drained edge events per arriving event, keyed by edge offset. Reuse one
// across events: Advance refills its runs in place.
struct EdgeDeltas {
  std::map<Micros, EventRun> entered_by_offset;
  std::map<Micros, EventRun> expired_by_offset;
};

class WindowOperator;

// Owns the window operators of one task plan plus the shared edge
// iterators, and drives them per arriving event.
class WindowManager {
 public:
  explicit WindowManager(reservoir::Reservoir* reservoir)
      : reservoir_(reservoir) {}

  // Returns the operator for the spec, creating (and wiring shared
  // iterators) if needed.
  WindowOperator* GetOrCreate(const WindowSpec& spec);

  // Advances all shared edges to the arrival timestamp `now` and fills
  // the per-offset deltas consumed by WindowOperator::Collect. An edge
  // whose iterator cannot read a chunk stops there: the deltas keep what
  // every edge drained, and the first read error is returned.
  Status Advance(Micros now, EdgeDeltas* deltas);

  size_t num_operators() const { return operators_.size(); }
  // Distinct reservoir iterators in use (the Figure 9(b) x-axis).
  size_t num_edge_iterators() const { return heads_.size() + tails_.size(); }

  // Serializes / restores the position of every edge iterator and the
  // count-window state (used by checkpointing so recovered windows
  // resume exactly where they were). Restore runs after the operators
  // were re-created: the blob must name exactly this manager's edges
  // and count windows, or it is Corruption.
  void SavePositions(std::string* blob) const;
  Status RestorePositions(const Slice& blob);

 private:
  reservoir::Reservoir* reservoir_;
  std::map<std::string, std::unique_ptr<WindowOperator>> operators_;
  // Shared head/tail iterators keyed by edge offset.
  std::map<Micros, std::unique_ptr<reservoir::ReservoirIterator>> heads_;
  std::map<Micros, std::unique_ptr<reservoir::ReservoirIterator>> tails_;
};

class WindowOperator {
 public:
  explicit WindowOperator(WindowSpec spec) : spec_(spec) {}

  const WindowSpec& spec() const { return spec_; }

  // Extracts this window's delta for the evaluation at `now` from the
  // shared edge deltas. A count window's private tail reports a read
  // error the way Advance does.
  Status Collect(Micros now, const EdgeDeltas& deltas, WindowDelta* out);

 private:
  friend class WindowManager;

  WindowSpec spec_;
  // Count-window state: its tail is count-driven, so it cannot share.
  std::unique_ptr<reservoir::ReservoirIterator> count_tail_;
  uint64_t in_window_ = 0;
};

}  // namespace railgun::window

#endif  // RAILGUN_WINDOW_WINDOW_OPERATOR_H_
