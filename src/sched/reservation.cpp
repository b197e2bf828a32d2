#include "sched/reservation.h"

#include <algorithm>
#include <cassert>

namespace sdsched {

void ReservationProfile::set_base(int capacity, SimTime origin,
                                  const std::vector<std::pair<SimTime, int>>& busy_groups) {
  capacity_ = capacity;
  base_.clear();
  if (!busy_groups.empty()) {
    int busy = 0;
    for (const auto& [free_at, nodes] : busy_groups) {
      assert(free_at > origin && "busy group must release after the pass origin");
      assert(nodes > 0);
      (void)free_at;
      busy += nodes;
    }
    base_.reserve(busy_groups.size() + 1);
    int free = capacity - busy;
    base_.push_back(Step{origin, free});
    for (const auto& [free_at, nodes] : busy_groups) {
      assert(base_.back().time < free_at && "busy groups must be strictly ascending");
      free += nodes;
      base_.push_back(Step{free_at, free});
    }
    assert(free == capacity && "base snapshot must drain back to capacity");
  }
  clear_overlay();
}

void ReservationProfile::clear_overlay() {
  times_.resize(base_.size() + 1);
  free_.resize(base_.size() + 1);
  times_[0] = kSentinelTime;
  free_[0] = capacity_;
  for (std::size_t i = 0; i < base_.size(); ++i) {
    times_[i + 1] = base_[i].time;
    free_[i + 1] = base_[i].free;
  }
}

void ReservationProfile::reuse_base(SimTime now) {
  assert(now < first_release_time());
  if (!base_.empty()) {
    assert(base_[0].time <= now);
    base_[0].time = now;
  }
  clear_overlay();
}

std::size_t ReservationProfile::step_at(SimTime t) const noexcept {
  // times_[0] is the minimum SimTime, so the upper bound is never begin().
  const auto it = std::upper_bound(times_.begin() + 1, times_.end(), t);
  return static_cast<std::size_t>(it - times_.begin()) - 1;
}

std::size_t ReservationProfile::split_at(SimTime t) {
  const std::size_t i = step_at(t);
  if (times_[i] == t) return i;
  const auto at = static_cast<std::ptrdiff_t>(i + 1);
  times_.insert(times_.begin() + at, t);
  free_.insert(free_.begin() + at, free_[i]);
  return i + 1;
}

void ReservationProfile::add_delta(SimTime start, SimTime end, int delta) {
  if (start >= end || delta == 0) return;
  const std::size_t first = split_at(start);
  const std::size_t last = end < kForever ? split_at(end) : free_.size();
  for (std::size_t i = first; i < last; ++i) free_[i] += delta;
}

void ReservationProfile::reserve(SimTime start, SimTime end, int nodes) {
  assert(nodes >= 0);
  add_delta(start, end, -nodes);
}

void ReservationProfile::release(SimTime start, SimTime end, int nodes) {
  assert(nodes >= 0);
  add_delta(start, end, nodes);
}

int ReservationProfile::available_at(SimTime t) const { return free_[step_at(t)]; }

int ReservationProfile::min_available(SimTime start, SimTime duration) const {
  const SimTime end = window_end(start, duration);
  std::size_t i = step_at(start);
  int min_free = free_[i];
  for (++i; i < times_.size() && times_[i] < end; ++i) min_free = std::min(min_free, free_[i]);
  return min_free;
}

SimTime ReservationProfile::earliest_start(int nodes, SimTime duration,
                                           SimTime not_before) const {
  if (nodes > capacity_) return kNever;
  if (nodes <= 0) return not_before;

  // Scan the steps from not_before, tracking the earliest candidate start
  // whose window [candidate, window_end) has stayed feasible so far.
  std::size_t i = step_at(not_before);
  SimTime candidate = not_before;
  SimTime candidate_end = window_end(candidate, duration);
  bool feasible = free_[i] >= nodes;
  for (++i; i < times_.size() && times_[i] < kForever; ++i) {
    const SimTime t = times_[i];
    if (feasible && t >= candidate_end) return candidate;  // window closed first
    if (free_[i] >= nodes) {
      if (!feasible) {
        candidate = t;
        candidate_end = window_end(candidate, duration);
        feasible = true;
      }
    } else {
      feasible = false;
    }
  }
  // After the last breakpoint the profile stays constant; if feasible the
  // current candidate works, otherwise it never becomes feasible — but the
  // invariant "profiles drain back to capacity" makes that impossible for
  // nodes <= capacity unless permanent reservations exist.
  return feasible ? candidate : kNever;
}

}  // namespace sdsched
