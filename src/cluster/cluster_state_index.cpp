#include "cluster/cluster_state_index.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace sdsched {

ClusterStateIndex::ClusterStateIndex(Machine& machine, const JobRegistry& jobs)
    : machine_(machine), jobs_(jobs) {
  const int nodes = machine_.node_count();
  node_free_at_.assign(static_cast<std::size_t>(nodes), kEmptyNode);
  std::vector<int> node_class(static_cast<std::size_t>(nodes));

  // Group nodes by attribute signature: attributes are static, so the
  // partition is built once and handed to the FreeNodeIndex, which owns it.
  for (int id = 0; id < nodes; ++id) {
    const NodeAttributes& attrs = machine_.node(id).attributes();
    int cls = -1;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      if (classes_[c].attributes == attrs) {
        cls = static_cast<int>(c);
        break;
      }
    }
    if (cls < 0) {
      cls = static_cast<int>(classes_.size());
      classes_.push_back(AttrClass{attrs, 0, {}});
    }
    node_class[static_cast<std::size_t>(id)] = cls;
    ++classes_[static_cast<std::size_t>(cls)].total;
  }
  all_classes_.resize(classes_.size());
  for (std::size_t c = 0; c < classes_.size(); ++c) all_classes_[c] = static_cast<int>(c);
  free_runs_ = FreeNodeIndex(std::move(node_class), static_cast<int>(classes_.size()));

  // Index whatever is already running (warm-start scenarios attach to a
  // populated machine).
  occupancy_stamp_.assign(jobs_.size(), 0);
  for (int id = 0; id < nodes; ++id) refresh_node(id, occupancy_stamp_.data());
  machine_.set_observer(this);
}

ClusterStateIndex::~ClusterStateIndex() { machine_.set_observer(nullptr); }

SimTime ClusterStateIndex::scan_free_at(int node_id, std::uint64_t* stamps) const {
  const Node& node = machine_.node(node_id);
  if (node.empty()) return kEmptyNode;
  SimTime free_at = INT64_MIN + 1;
  for (const auto& occ : node.occupants()) {
    free_at = std::max(free_at, jobs_.at(occ.job).predicted_end);
    if (stamps != nullptr) stamps[occ.job] = mutation_serial_;
  }
  return free_at;
}

void ClusterStateIndex::refresh_node(int node_id, std::uint64_t* stamps) {
  const SimTime free_at = scan_free_at(node_id, stamps);
  SimTime& slot = node_free_at_[static_cast<std::size_t>(node_id)];
  if (free_at == slot) return;

  // A release-time move updates the class's busy map; an emptiness flip
  // sets or clears the node's bit (O(1) word maintenance) in its place.
  std::map<SimTime, int>& busy =
      classes_[static_cast<std::size_t>(free_runs_.class_of(node_id))].busy;
  if (slot == kEmptyNode) {
    free_runs_.erase(node_id);
  } else {
    const auto it = busy.find(slot);
    assert(it != busy.end() && "indexed free_at missing from class busy map");
    if (it != busy.end() && --it->second == 0) busy.erase(it);
  }
  if (free_at == kEmptyNode) {
    free_runs_.insert(node_id);
  } else {
    ++busy[free_at];
  }
  slot = free_at;
  ++version_;
}

void ClusterStateIndex::grow_stamps() { occupancy_stamp_.resize(jobs_.size(), 0); }

void ClusterStateIndex::on_node_occupancy_changed(int node_id) {
  ++mutation_serial_;
  // Jobs added to the registry since the last notification may be among
  // the occupants.
  if (occupancy_stamp_.size() < jobs_.size()) [[unlikely]] grow_stamps();
  refresh_node(node_id, occupancy_stamp_.data());
}

void ClusterStateIndex::on_predicted_end_changed(JobId job) {
  // A predicted end is not a budget input: refresh free_at, stamp nothing.
  ++mutation_serial_;
  for (const NodeShare& share : jobs_.at(job).shares) {
    refresh_node(share.node, /*stamps=*/nullptr);
  }
}

void ClusterStateIndex::busy_groups(SimTime now,
                                    std::vector<std::pair<SimTime, int>>& out) const {
  merge_busy_groups(/*all_classes=*/true, 0, now, out);
}

void ClusterStateIndex::busy_groups_for_mask(
    std::uint64_t mask, SimTime now, std::vector<std::pair<SimTime, int>>& out) const {
  merge_busy_groups(/*all_classes=*/false, mask, now, out);
}

void ClusterStateIndex::merge_busy_groups(bool all_classes, std::uint64_t mask, SimTime now,
                                          std::vector<std::pair<SimTime, int>>& out) const {
  out.clear();
  int merged = 0;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    if (!all_classes && (c >= 64 || ((mask >> c) & 1u) == 0)) continue;
    ++merged;
    for (const auto& [free_at, nodes] : classes_[c].busy) {
      // Overdue occupants (free_at <= now): assume imminent completion at
      // now+1, exactly as the full-scan profile build always did.
      const SimTime at = std::max(free_at, now + 1);
      if (!out.empty() && out.back().first == at) {
        out.back().second += nodes;
      } else {
        out.emplace_back(at, nodes);
      }
    }
  }
  // One class's map is already ascending; several are concatenated, so
  // sort them and coalesce equal release times.
  if (merged <= 1) return;
  std::sort(out.begin(), out.end());
  std::size_t kept = 0;
  for (const auto& group : out) {
    if (kept > 0 && out[kept - 1].first == group.first) {
      out[kept - 1].second += group.second;
    } else {
      out[kept++] = group;
    }
  }
  out.resize(kept);
}

int ClusterStateIndex::eligible_node_count(const JobConstraints& constraints) const {
  if (constraints.unconstrained()) return machine_.node_count();
  int eligible = 0;
  for (const AttrClass& cls : classes_) {
    if (node_satisfies(cls.attributes, constraints)) eligible += cls.total;
  }
  return eligible;
}

std::optional<std::vector<int>> ClusterStateIndex::find_free_nodes(
    int count, const JobConstraints* constraints) const {
  assert(count >= 1);
  // Mirror Machine::find_free_nodes' early-outs exactly: global free count
  // first, then the eligible-free count for constrained requests.
  std::optional<std::vector<int>> picked;
  if (count <= free_runs_.free_count()) {
    if (constraints == nullptr || constraints->unconstrained()) {
      picked = free_runs_.pick(count, all_classes_, /*contiguous=*/false);
    } else {
      std::vector<int> eligible;
      eligible.reserve(classes_.size());
      int eligible_free = 0;
      for (std::size_t c = 0; c < classes_.size(); ++c) {
        if (node_satisfies(classes_[c].attributes, *constraints)) {
          eligible.push_back(static_cast<int>(c));
          eligible_free += free_runs_.free_count_of_class(static_cast<int>(c));
        }
      }
      if (eligible_free >= count) {
        picked = free_runs_.pick(count, eligible, constraints->contiguous);
      }
    }
  }
#ifdef SDSCHED_INDEX_CROSSCHECK
  assert(picked == machine_.find_free_nodes(count, constraints) &&
         "bitmap index pick diverged from the machine scan");
#endif
  return picked;
}

std::uint64_t ClusterStateIndex::eligible_class_mask(
    const JobConstraints& constraints) const {
  assert(classes_.size() <= 64 && "class mask only supports <= 64 attribute classes");
  std::uint64_t mask = 0;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    if (node_satisfies(classes_[c].attributes, constraints)) mask |= 1ull << c;
  }
  return mask;
}

int ClusterStateIndex::node_count_for_mask(std::uint64_t mask) const {
  int total = 0;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    if ((mask >> c) & 1u) total += classes_[c].total;
  }
  return total;
}

bool ClusterStateIndex::check_consistent(std::string* diagnosis) const {
  const auto fail = [diagnosis](const std::string& what) {
    if (diagnosis != nullptr) *diagnosis = what;
    return false;
  };

  std::vector<std::map<SimTime, int>> expect_class_busy(classes_.size());
  std::vector<bool> is_free(static_cast<std::size_t>(machine_.node_count()), false);
  for (int id = 0; id < machine_.node_count(); ++id) {
    const SimTime expect = scan_free_at(id);
    if (node_free_at_[static_cast<std::size_t>(id)] != expect) {
      std::ostringstream oss;
      oss << "node " << id << ": indexed free_at "
          << node_free_at_[static_cast<std::size_t>(id)] << " != scanned " << expect;
      return fail(oss.str());
    }
    if (expect == kEmptyNode) {
      is_free[static_cast<std::size_t>(id)] = true;
    } else {
      ++expect_class_busy[static_cast<std::size_t>(free_runs_.class_of(id))][expect];
    }
  }
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    if (classes_[c].busy != expect_class_busy[c]) {
      std::ostringstream oss;
      oss << "attribute class " << c << ": busy map diverged from node scan";
      return fail(oss.str());
    }
  }
  // Free-node bitmap: bit-level + summary-invariant + cached-count check,
  // plus the derived run view against the node scan.
  std::string runs_diag;
  if (!free_runs_.check_consistent(is_free, &runs_diag)) return fail(runs_diag);
  if (free_runs_.free_count() != machine_.free_node_count()) {
    return fail("free-node bitmap free count diverged from machine");
  }
  // The class partition must reproduce the machine's own constraint answers.
  for (const AttrClass& cls : classes_) {
    JobConstraints probe;
    probe.required_arch = cls.attributes.arch;
    probe.min_memory_gb = cls.attributes.memory_gb;
    probe.required_network = cls.attributes.network;
    if (eligible_node_count(probe) != machine_.eligible_node_count(probe)) {
      return fail("eligible_node_count diverged from machine for class probe");
    }
  }
  return true;
}

}  // namespace sdsched
