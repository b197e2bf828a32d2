// Property test: the event-driven ClusterStateIndex must agree with a
// brute-force node scan after arbitrary start/guest/finish/reconfigure
// sequences driven through the same NodeManager the kernel uses.
#include "cluster/cluster_state_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "drom/node_manager.h"

namespace sdsched {
namespace {

struct Cluster {
  Cluster() {
    MachineConfig mc;
    mc.nodes = 12;
    mc.node = NodeConfig{2, 4};  // 8 cores per node keeps plans interesting
    NodeAttributes highmem;
    highmem.memory_gb = 384;
    for (int id = 8; id < 12; ++id) mc.attribute_overrides.emplace_back(id, highmem);
    machine.emplace(mc);
    index.emplace(*machine, jobs);
  }

  JobId add_running(SimTime now, int req_nodes, SimTime runtime) {
    JobSpec spec;
    spec.submit = now;
    spec.req_cpus = req_nodes * machine->cores_per_node();
    spec.req_nodes = req_nodes;
    spec.req_time = runtime;
    spec.base_runtime = runtime;
    const JobId id = jobs.add(spec);
    Job& job = jobs.at(id);
    job.state = JobState::Running;
    job.start_time = now;
    job.predicted_end = now + runtime;
    return id;
  }

  JobRegistry jobs;
  DromRegistry drom;
  std::optional<Machine> machine;
  std::optional<ClusterStateIndex> index;
  std::vector<JobId> running;
};

/// The historical full-scan profile groups, for busy_groups comparison;
/// `include(id)` restricts the scan to some nodes.
template <typename Include>
std::map<SimTime, int> scan_groups(const Machine& machine, const JobRegistry& jobs,
                                   SimTime now, Include include) {
  std::map<SimTime, int> frees;
  for (int id = 0; id < machine.node_count(); ++id) {
    const Node& node = machine.node(id);
    if (node.empty() || !include(id)) continue;
    SimTime free_at = now + 1;
    for (const auto& occ : node.occupants()) {
      free_at = std::max(free_at, jobs.at(occ.job).predicted_end);
    }
    ++frees[free_at];
  }
  return frees;
}

std::map<SimTime, int> scan_groups(const Machine& machine, const JobRegistry& jobs,
                                   SimTime now) {
  return scan_groups(machine, jobs, now, [](int) { return true; });
}

TEST(ClusterStateIndex, EmptyMachineIsConsistent) {
  Cluster c;
  std::string diag;
  EXPECT_TRUE(c.index->check_consistent(&diag)) << diag;
  EXPECT_TRUE(c.index->find_free_nodes(12).has_value());  // every node is free
  EXPECT_EQ(c.index->version(), 0u);

  std::vector<std::pair<SimTime, int>> groups;
  c.index->busy_groups(100, groups);
  EXPECT_TRUE(groups.empty());
}

TEST(ClusterStateIndex, EligibleCountsMatchMachinePartition) {
  Cluster c;
  JobConstraints highmem;
  highmem.min_memory_gb = 128;
  EXPECT_EQ(c.index->eligible_node_count(highmem), 4);
  EXPECT_EQ(c.index->eligible_node_count(highmem),
            c.machine->eligible_node_count(highmem));
  EXPECT_EQ(c.index->find_free_nodes(4, &highmem), (std::vector<int>{8, 9, 10, 11}));
  EXPECT_FALSE(c.index->find_free_nodes(5, &highmem).has_value());

  NodeManager mgr(*c.machine, c.jobs, c.drom);
  const JobId id = c.add_running(0, 2, 100);
  mgr.start_static(0, id, {8, 9});
  EXPECT_EQ(c.index->find_free_nodes(2, &highmem), (std::vector<int>{10, 11}));
  EXPECT_FALSE(c.index->find_free_nodes(3, &highmem).has_value());
  EXPECT_EQ(c.index->eligible_node_count(highmem), 4);  // eligibility is static
  std::string diag;
  EXPECT_TRUE(c.index->check_consistent(&diag)) << diag;
}

TEST(ClusterStateIndex, VersionBumpsOnlyOnRealChanges) {
  Cluster c;
  NodeManager mgr(*c.machine, c.jobs, c.drom);
  const JobId id = c.add_running(0, 1, 50);
  mgr.start_static(0, id, {0});
  const std::uint64_t v = c.index->version();
  EXPECT_GT(v, 0u);

  // A resize changes the node's core split but not its release time or
  // emptiness: the index must not pretend the world changed.
  ASSERT_TRUE(c.machine->resize_share(1, id, 0, 4));
  EXPECT_EQ(c.index->version(), v);

  // A predicted-end move is a real change.
  c.jobs.at(id).predicted_end += 25;
  c.index->on_predicted_end_changed(id);
  EXPECT_GT(c.index->version(), v);
  std::string diag;
  EXPECT_TRUE(c.index->check_consistent(&diag)) << diag;
}

TEST(ClusterStateIndex, BusyGroupsClampOverdueOccupants) {
  Cluster c;
  NodeManager mgr(*c.machine, c.jobs, c.drom);
  const JobId early = c.add_running(0, 1, 10);   // predicted end 10
  const JobId late = c.add_running(0, 1, 500);   // predicted end 500
  mgr.start_static(0, early, {0});
  mgr.start_static(0, late, {1});

  std::vector<std::pair<SimTime, int>> groups;
  c.index->busy_groups(50, groups);  // `early` is overdue at now=50
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::pair<SimTime, int>{51, 1}));
  EXPECT_EQ(groups[1], (std::pair<SimTime, int>{500, 1}));

  const auto expect = scan_groups(*c.machine, c.jobs, 50);
  const std::map<SimTime, int> got(groups.begin(), groups.end());
  EXPECT_EQ(got, expect);
}

// More attribute classes than a class mask holds: the class-blind groups
// still merge every class's busy map.
TEST(ClusterStateIndex, BusyGroupsMergeMoreThan64Classes) {
  MachineConfig mc;
  mc.nodes = 70;
  for (int id = 0; id < mc.nodes; ++id) {
    NodeAttributes attrs;
    attrs.memory_gb = 96 + id;  // one class per node
    mc.attribute_overrides.emplace_back(id, attrs);
  }
  Machine machine(mc);
  JobRegistry jobs;
  DromRegistry drom;
  ClusterStateIndex index(machine, jobs);
  ASSERT_EQ(index.class_count(), 70);

  NodeManager mgr(machine, jobs, drom);
  // Descending node ids get ascending predicted ends, and several jobs
  // share an end, so the merge must both sort and coalesce.
  for (int id = 69, k = 0; id >= 0; id -= 3, ++k) {
    JobSpec spec;
    spec.req_cpus = machine.cores_per_node();
    spec.req_nodes = 1;
    spec.req_time = 10 + 5 * (k / 2);
    spec.base_runtime = spec.req_time;
    const JobId job = jobs.add(spec);
    jobs.at(job).state = JobState::Running;
    jobs.at(job).predicted_end = spec.req_time;
    mgr.start_static(0, job, {id});
  }
  std::vector<std::pair<SimTime, int>> groups;
  for (const SimTime now : {0, 12, 40}) {
    index.busy_groups(now, groups);
    const auto expect = scan_groups(machine, jobs, now);
    EXPECT_EQ(groups, (std::vector<std::pair<SimTime, int>>(expect.begin(), expect.end())))
        << "now " << now;
  }
  std::string diag;
  EXPECT_TRUE(index.check_consistent(&diag)) << diag;
}

TEST(ClusterStateIndex, RandomizedLifecycleMatchesBruteForce) {
  Cluster c;
  // The fixture's two classes, in the index's numbering: the default
  // attributes (nodes 0-7) are class 0, the high-memory nodes class 1.
  JobConstraints highmem;
  highmem.min_memory_gb = 128;
  ASSERT_EQ(c.index->class_count(), 2);
  ASSERT_EQ(c.index->eligible_class_mask(highmem), 2u);
  const auto class_bit = [](int id) { return id >= 8 ? 2u : 1u; };
  NodeManager mgr(*c.machine, c.jobs, c.drom);
  std::uint64_t state = 0x2545f4914f6cdd1dULL;
  const auto rnd = [&state](std::uint64_t bound) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state % bound;
  };

  SimTime now = 0;
  std::string diag;
  for (int step = 0; step < 400; ++step) {
    now += static_cast<SimTime>(rnd(20));
    const std::uint64_t op = rnd(10);
    if (op < 4) {
      // Static start on random free nodes.
      const int want = 1 + static_cast<int>(rnd(3));
      const auto nodes = c.machine->find_free_nodes(want);
      if (nodes) {
        const JobId id = c.add_running(now, want, 10 + static_cast<SimTime>(rnd(300)));
        mgr.start_static(now, id, *nodes);
        c.running.push_back(id);
      }
    } else if (op < 6 && !c.running.empty()) {
      // Finish a random running job (owners leaving early expand survivors
      // through resize_share — the §4.3 unbalance path).
      const std::size_t pick = rnd(c.running.size());
      const JobId id = c.running[pick];
      c.running.erase(c.running.begin() + static_cast<std::ptrdiff_t>(pick));
      c.jobs.at(id).state = JobState::Completed;
      c.jobs.at(id).end_time = now;
      mgr.finish_job(now, id);
    } else if (op < 8 && !c.running.empty()) {
      // Malleable guest start: shrink one mate on one of its nodes.
      const JobId mate_id = c.running[rnd(c.running.size())];
      const Job& mate_view = c.jobs.at(mate_id);
      if (!mate_view.malleable() || mate_view.shares.empty()) continue;
      const NodeShare share = mate_view.shares[rnd(mate_view.shares.size())];
      if (share.cpus < 2) continue;
      const int give = 1 + static_cast<int>(rnd(static_cast<std::uint64_t>(share.cpus) - 1));
      // add_running may grow the registry: re-fetch the mate afterwards.
      const JobId guest_id =
          c.add_running(now, 1, 10 + static_cast<SimTime>(rnd(200)));
      SharePlan plan;
      plan.node = share.node;
      plan.mate = mate_id;
      plan.guest_cpus = give;
      plan.mate_kept_cpus = share.cpus - give;
      plan.guest_static_cpus = give;
      // Kernel order: stretch the mate's predicted end, notify, then the
      // node-level shrink + placement.
      c.jobs.at(mate_id).predicted_end += static_cast<SimTime>(rnd(100));
      c.index->on_predicted_end_changed(mate_id);
      mgr.start_guest(now, guest_id, {plan});
      c.running.push_back(guest_id);
    } else if (!c.running.empty()) {
      // Pure reconfigure: a mate stretch with no placement attached.
      const JobId id = c.running[rnd(c.running.size())];
      c.jobs.at(id).predicted_end += static_cast<SimTime>(rnd(50));
      c.index->on_predicted_end_changed(id);
    }

    ASSERT_TRUE(c.index->check_consistent(&diag)) << "step " << step << ": " << diag;

    // busy_groups must reproduce the historical full scan, clamp included.
    std::vector<std::pair<SimTime, int>> groups;
    c.index->busy_groups(now, groups);
    const std::map<SimTime, int> got(groups.begin(), groups.end());
    ASSERT_EQ(got, scan_groups(*c.machine, c.jobs, now)) << "step " << step;
    ASSERT_TRUE(std::is_sorted(groups.begin(), groups.end())) << "step " << step;

    // ...and so must every class-restricted view, coalesced and sorted.
    for (std::uint64_t mask = 1; mask <= 3; ++mask) {
      c.index->busy_groups_for_mask(mask, now, groups);
      const auto expect = scan_groups(*c.machine, c.jobs, now,
                                      [&](int id) { return (mask & class_bit(id)) != 0; });
      ASSERT_EQ(groups, (std::vector<std::pair<SimTime, int>>(expect.begin(), expect.end())))
          << "step " << step << ", mask " << mask;
      ASSERT_TRUE(std::is_sorted(groups.begin(), groups.end()))
          << "step " << step << ", mask " << mask;
    }

    ASSERT_EQ(c.index->eligible_node_count(highmem),
              c.machine->eligible_node_count(highmem));
  }
  EXPECT_FALSE(c.running.empty());  // the walk actually exercised occupancy
}

}  // namespace
}  // namespace sdsched
