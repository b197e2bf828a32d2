// Node-availability profile ("map of jobs reservations in time", §3.1).
//
// A piecewise-constant step function of free whole nodes over time, kept as
// a base snapshot plus one flat working copy so scheduling passes stop
// rebuilding the world:
//
//  * the **base snapshot** — flat, sorted, cumulative free-count steps
//    describing the running jobs' predicted releases. Installed via
//    set_base() from the ClusterStateIndex and *reused* across passes while
//    the cluster is unchanged (reuse_base() moves its origin up to the new
//    pass time);
//  * the **working profile** — contiguous time / free-count arrays (a
//    leading sentinel step covers everything before the first breakpoint)
//    that the current pass edits in place with reserve()/release().
//    clear_overlay() restores it from the base, a copy of the few hundred
//    base steps, once per pass.
//
// Every query is one binary search plus one forward scan of the working
// arrays. Both the backfill baseline and the SD-Policy's static_end
// estimate (Listing 1) read this profile.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/time_utils.h"

namespace sdsched {

class ReservationProfile {
 public:
  ReservationProfile() : ReservationProfile(0) {}

  /// Profile with `capacity` nodes free everywhere (before carving).
  explicit ReservationProfile(int capacity) : capacity_(capacity) { clear_overlay(); }

  [[nodiscard]] int capacity() const noexcept { return capacity_; }

  /// Install the base snapshot: `busy_groups` is an ascending (free_at,
  /// nodes) sequence meaning `nodes` nodes stay busy over [origin, free_at).
  /// Every free_at must be > origin. Resets the working profile to it.
  void set_base(int capacity, SimTime origin,
                const std::vector<std::pair<SimTime, int>>& busy_groups);

  /// Drop the pass's own reservations: the working profile becomes a copy
  /// of the base snapshot again.
  void clear_overlay();

  /// Reuse the base for a pass at `now` (origin <= now <
  /// first_release_time()): move its origin step up to `now`, which is
  /// exact because no base step lies in between, then clear_overlay(). The
  /// working profile then equals a snapshot taken at `now` step for step,
  /// so a window starting at `now` splits no extra step.
  void reuse_base(SimTime now);

  /// Remove `nodes` of availability over [start, end). end may be kForever.
  /// Callers reserve only what earliest_start() said was free.
  void reserve(SimTime start, SimTime end, int nodes);

  /// Add `nodes` of availability over [start, end) — used when a running
  /// job's predicted end moves later (mates stretched by malleability).
  void release(SimTime start, SimTime end, int nodes);

  /// Free nodes at time t.
  [[nodiscard]] int available_at(SimTime t) const;

  /// Minimum free-node count over the whole window [start, start + duration)
  /// (duration clamped to 1) — the largest request that could run there.
  [[nodiscard]] int min_available(SimTime start, SimTime duration) const;

  /// Earliest t >= not_before with `nodes` free during the whole window
  /// [t, t + duration). Always exists (profiles drain back to capacity)
  /// unless nodes > capacity, which returns kNever.
  [[nodiscard]] SimTime earliest_start(int nodes, SimTime duration, SimTime not_before) const;

  /// Steps in the working profile (base steps plus the breakpoints this
  /// pass's reservations split off; the sentinel is not counted) —
  /// observability for the benches.
  [[nodiscard]] std::size_t breakpoint_count() const noexcept { return times_.size() - 1; }

  /// Earliest base release (kForever when the base is flat). A snapshot
  /// built at pass time t0 stays valid at a later pass time t1 only while
  /// t1 < first_release_time(): the first release crossing `now` re-clamps
  /// overdue occupants, so the scheduler must refresh its base then.
  [[nodiscard]] SimTime first_release_time() const noexcept {
    return base_.size() > 1 ? base_[1].time : kForever;
  }

  /// End of the window [start, start + max(duration, 1)), saturated at
  /// kForever so a request near INT64_MAX reads as "never ends".
  [[nodiscard]] static constexpr SimTime window_end(SimTime start, SimTime duration) noexcept {
    duration = duration < 1 ? 1 : duration;
    return start >= kForever - duration ? kForever : start + duration;
  }

  static constexpr SimTime kForever = INT64_MAX / 4;
  static constexpr SimTime kNever = -1;

 private:
  struct Step {
    SimTime time;  ///< free count holds from this time until the next step
    int free;      ///< base free nodes
  };

  static constexpr SimTime kSentinelTime = std::numeric_limits<SimTime>::min();

  /// Index of the working step holding at time t (the last step <= t).
  [[nodiscard]] std::size_t step_at(SimTime t) const noexcept;

  /// Make t a step boundary (splitting the step that holds there) and
  /// return the index of the step starting at t.
  std::size_t split_at(SimTime t);

  void add_delta(SimTime start, SimTime end, int delta);

  int capacity_ = 0;
  std::vector<Step> base_;  ///< sorted, cumulative
  // Working profile, struct of arrays: free_[i] nodes are free over
  // [times_[i], times_[i + 1]). times_[0] is kSentinelTime.
  std::vector<SimTime> times_;
  std::vector<int> free_;
};

}  // namespace sdsched
