// Event-driven cluster state index.
//
// Scheduling passes used to rebuild their view of the cluster from scratch:
// scan every node, every occupant, every attribute. This index inverts
// that: the kernel notifies it on every occupancy change (static starts,
// guest placements, finishes, reconfigurations — via the Machine observer
// hook) and on every predicted-end move (mate stretching — via the
// Simulation kernel), and the index maintains incrementally:
//
//  * per-node `free_at` — the latest predicted end among the node's
//    occupants (the time backfill's reservation profile expects the node
//    back);
//  * the attribute-class partition (§3.2.4 constraint filtering in
//    O(classes) instead of O(nodes)): each class's attributes, node total
//    and (free_at -> occupied node count) map. busy_groups() and
//    busy_groups_for_mask() merge those maps into ReservationProfile base
//    snapshots — O(distinct release times) for one class, plus a sort
//    when several classes are merged;
//  * a class-partitioned bitmap FreeNodeIndex over free node ids (64 nodes
//    per word plus a summary level), so free/busy flips are O(1) bit
//    maintenance and find_free_nodes — called from the scheduling pass on
//    every start and from SD-Policy's mate-combination DFS — resolves with
//    popcount/ctz word scans instead of scanning the machine's nodes;
//  * a version counter, so schedulers can reuse their profile base across
//    passes when nothing changed;
//  * a per-job occupancy stamp, written in the occupant walk each
//    occupancy notification already makes, so per-job caches (the
//    MateSelector's node budgets) invalidate only when one of the job's
//    own nodes is touched.
//
// Quantities another layer already owns are not copied here: the node ->
// class map and the free counts (total and per class) are the
// FreeNodeIndex's, and the occupied-node count is Machine::occupied_nodes().
//
// check_consistent() cross-checks everything against the brute-force node
// scan the index replaced; compile with SDSCHED_INDEX_CROSSCHECK (the asan
// preset does) to run it on every scheduling pass — the free-node check
// covers every bitmap bit, the summary invariant, and the derived run view
// against the node scan (see free_node_index.h) — and to compare every
// find_free_nodes() pick against the machine scan.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/free_node_index.h"
#include "cluster/machine.h"
#include "job/job_registry.h"

namespace sdsched {

class ClusterStateIndex final : public MachineObserver {
 public:
  /// Attaches to `machine` as its observer and indexes its current state.
  /// `jobs` provides occupants' predicted ends.
  ClusterStateIndex(Machine& machine, const JobRegistry& jobs);
  ~ClusterStateIndex() override;

  ClusterStateIndex(const ClusterStateIndex&) = delete;
  ClusterStateIndex& operator=(const ClusterStateIndex&) = delete;

  // MachineObserver: an occupancy mutation touched `node_id`.
  void on_node_occupancy_changed(int node_id) override;

  /// `job`'s predicted end moved (mate stretching, Listing 1 update_stats):
  /// refresh every node the job holds.
  void on_predicted_end_changed(JobId job);

  /// Bumped whenever any indexed quantity actually changed. A no-op
  /// notification (e.g. a share resize that leaves the node's free_at and
  /// emptiness alone) does NOT bump it — profile-base reuse depends on
  /// that. State below the index's resolution (per-share core counts, free
  /// cores on a still-busy node) may change without a version bump: cache
  /// on mutation_serial() instead when that state matters.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Bumped on EVERY occupancy/predicted-end notification, including ones
  /// that change nothing the index tracks. An unchanged mutation_serial
  /// guarantees the machine has not been touched at all — the key the
  /// failed-select ledger and the SD cut-off cache are valid under.
  [[nodiscard]] std::uint64_t mutation_serial() const noexcept { return mutation_serial_; }

  /// The mutation_serial() of the last occupancy notification on any node
  /// `job` occupied at that notification (0 when there was none since the
  /// index was built). Predicted-end moves do not stamp. Every core change
  /// on a node notifies it, so an unchanged stamp guarantees that `job`'s
  /// shares and the free cores of its nodes are unchanged — the key the
  /// MateSelector's per-job node-budget cache is valid under
  /// (docs/determinism.md "Budget-cache stamp safety").
  [[nodiscard]] std::uint64_t occupancy_stamp(JobId job) const noexcept {
    const auto idx = static_cast<std::size_t>(job);
    return idx < occupancy_stamp_.size() ? occupancy_stamp_[idx] : 0;
  }

  /// Occupied-node release groups for a pass at `now`: ascending (free_at,
  /// nodes) with overdue occupants (free_at <= now) clamped to now + 1
  /// ("assume imminent completion"), ready for ReservationProfile::set_base.
  void busy_groups(SimTime now, std::vector<std::pair<SimTime, int>>& out) const;

  /// Nodes (free or busy) satisfying `constraints` — O(attribute classes).
  [[nodiscard]] int eligible_node_count(const JobConstraints& constraints) const;

  /// Drop-in indexed replacement for Machine::find_free_nodes: same node
  /// ids (lowest-first; earliest adequate run for contiguous requests),
  /// but resolved from the bitmap words — O(words/64 + words touched)
  /// worst case instead of O(free nodes). The single pick point schedulers
  /// and the MateSelector share; under SDSCHED_INDEX_CROSSCHECK every pick
  /// is compared against the machine scan. `count` must be >= 1.
  [[nodiscard]] std::optional<std::vector<int>> find_free_nodes(
      int count, const JobConstraints* constraints = nullptr) const;

  // --- attribute-class layer (constraint-class-aware profiles) ---

  [[nodiscard]] int class_count() const noexcept {
    return static_cast<int>(classes_.size());
  }

  /// Bit i set <=> attribute class i satisfies `constraints`. Only valid
  /// while class_count() <= 64 (callers fall back to the class-blind
  /// profile beyond that).
  [[nodiscard]] std::uint64_t eligible_class_mask(const JobConstraints& constraints) const;

  /// Total nodes (free or busy) across the classes in `mask`.
  [[nodiscard]] int node_count_for_mask(std::uint64_t mask) const;

  /// busy_groups() restricted to the classes in `mask` (same overdue
  /// clamping) — the base snapshot of a per-class profile layer.
  void busy_groups_for_mask(std::uint64_t mask, SimTime now,
                            std::vector<std::pair<SimTime, int>>& out) const;

  /// Cross-check every indexed quantity against a full scan of the machine
  /// and registry. On mismatch returns false and, if given, fills
  /// `diagnosis` with the first divergence found.
  [[nodiscard]] bool check_consistent(std::string* diagnosis = nullptr) const;

 private:
  /// Recompute one node's free_at and its class's busy map; bumps the
  /// version only when something actually changed. A non-null `stamps`
  /// is passed on to scan_free_at.
  void refresh_node(int node_id, std::uint64_t* stamps);

  /// Latest predicted end among the node's occupants (kEmptyNode when
  /// free). A non-null `stamps` (occupancy_stamp_'s data, sized to the
  /// registry) receives mutation_serial_ for every occupant in the same
  /// walk.
  [[nodiscard]] SimTime scan_free_at(int node_id, std::uint64_t* stamps = nullptr) const;

  /// Size occupancy_stamp_ to the registry. Out of line, so the
  /// per-notification path carries only the size check.
  void grow_stamps();

  /// The busy maps of every class (`all_classes`) or of the classes in
  /// `mask`, merged into ascending release groups with overdue occupants
  /// clamped to now + 1. Serves both busy-group queries.
  void merge_busy_groups(bool all_classes, std::uint64_t mask, SimTime now,
                         std::vector<std::pair<SimTime, int>>& out) const;

  static constexpr SimTime kEmptyNode = INT64_MIN;

  struct AttrClass {
    NodeAttributes attributes;
    int total = 0;
    std::map<SimTime, int> busy;  ///< free_at -> occupied node count, this class
  };

  Machine& machine_;
  const JobRegistry& jobs_;

  std::vector<SimTime> node_free_at_;        ///< kEmptyNode for free nodes
  std::vector<AttrClass> classes_;
  std::vector<int> all_classes_;             ///< 0..classes-1 (pick fast path)
  FreeNodeIndex free_runs_;                  ///< owns node -> class and free counts
  std::vector<std::uint64_t> occupancy_stamp_;  ///< by JobId; see occupancy_stamp()

  std::uint64_t version_ = 0;
  std::uint64_t mutation_serial_ = 0;
};

}  // namespace sdsched
