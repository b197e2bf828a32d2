// The MateRegistry must mirror a brute-force job-table scan through the
// whole lifecycle (starts, guest starts, finishes), and the registry-backed
// MateSelector's cached budgets must track machine state below the index
// version — refilled when one of the mate's own nodes is notified, kept
// otherwise. (Registry-backed plans against the brute-force oracle over a
// churned lifecycle: tests/integration/test_reference_models.cpp.)
#include "core/mate_registry.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "cluster/cluster_state_index.h"
#include "core/mate_selector.h"
#include "drom/node_manager.h"

namespace sdsched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

JobSpec spec_of(SimTime submit, SimTime req_time, int req_nodes, int cores_per_node,
                MalleabilityClass cls = MalleabilityClass::Malleable) {
  JobSpec spec;
  spec.submit = submit;
  spec.req_time = req_time;
  spec.base_runtime = req_time;
  spec.req_cpus = req_nodes * cores_per_node;
  spec.req_nodes = req_nodes;
  spec.malleability = cls;
  return spec;
}

TEST(MateRegistry, TracksLifecycleTransitions) {
  JobRegistry jobs;
  MateRegistry registry;

  const JobId malleable = jobs.add(spec_of(0, 100, 1, 48));
  const JobId rigid = jobs.add(spec_of(0, 100, 1, 48, MalleabilityClass::Rigid));
  const JobId guest = jobs.add(spec_of(0, 100, 1, 48));

  jobs.at(malleable).state = JobState::Running;
  registry.on_start(jobs.at(malleable));
  jobs.at(rigid).state = JobState::Running;
  registry.on_start(jobs.at(rigid));
  jobs.at(guest).state = JobState::Running;
  jobs.at(guest).started_as_guest = true;
  registry.on_start(jobs.at(guest));

  // All three run; only the plain malleable job is mate-eligible.
  EXPECT_EQ(registry.running(), (std::vector<JobId>{malleable, rigid, guest}));
  EXPECT_EQ(registry.mates(), (std::vector<JobId>{malleable}));
  std::string diag;
  EXPECT_TRUE(registry.check_consistent(jobs, &diag)) << diag;

  jobs.at(malleable).state = JobState::Completed;
  registry.on_finish(malleable);
  EXPECT_EQ(registry.running(), (std::vector<JobId>{rigid, guest}));
  EXPECT_TRUE(registry.mates().empty());
  EXPECT_TRUE(registry.check_consistent(jobs, &diag)) << diag;
}

TEST(MateRegistry, SeedIndexesAPopulatedRegistry) {
  JobRegistry jobs;
  const JobId a = jobs.add(spec_of(0, 100, 1, 48));
  const JobId b = jobs.add(spec_of(0, 100, 1, 48));
  jobs.at(a).state = JobState::Running;
  jobs.at(b).state = JobState::Running;
  jobs.at(b).started_as_guest = true;

  MateRegistry registry;
  registry.seed(jobs);
  EXPECT_EQ(registry.running(), (std::vector<JobId>{a, b}));
  EXPECT_EQ(registry.mates(), (std::vector<JobId>{a}));
}

TEST(MateRegistry, CheckConsistentCatchesAMissedStart) {
  JobRegistry jobs;
  const JobId a = jobs.add(spec_of(0, 100, 1, 48));
  jobs.at(a).state = JobState::Running;

  MateRegistry registry;  // never told about `a`
  std::string diag;
  EXPECT_FALSE(registry.check_consistent(jobs, &diag));
  EXPECT_FALSE(diag.empty());
}

/// Plan equality down to every node assignment.
bool plans_equal(const std::optional<MatePlan>& a, const std::optional<MatePlan>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  if (a->mates != b->mates || a->mate_increases != b->mate_increases) return false;
  if (a->guest_increase != b->guest_increase || a->guest_duration != b->guest_duration) {
    return false;
  }
  if (a->performance_impact != b->performance_impact) return false;
  if (a->nodes.size() != b->nodes.size()) return false;
  for (std::size_t i = 0; i < a->nodes.size(); ++i) {
    const SharePlan& x = a->nodes[i];
    const SharePlan& y = b->nodes[i];
    if (x.node != y.node || x.mate != y.mate || x.guest_cpus != y.guest_cpus ||
        x.mate_kept_cpus != y.mate_kept_cpus ||
        x.guest_static_cpus != y.guest_static_cpus) {
      return false;
    }
  }
  return true;
}

TEST(MateRegistry, BudgetCacheSeesOccupancyChangesBelowTheIndexVersion) {
  // A guest finishing on a node whose mate's predicted end dominates
  // changes the node's core split but NOT its free_at — the index version
  // does not move (profile reuse depends on that), yet the selector's
  // cached budgets must refresh or it diverges from the machine truth.
  MachineConfig mc;
  mc.nodes = 2;
  mc.node = NodeConfig{2, 24};
  Machine machine(mc);
  JobRegistry jobs;
  DromRegistry drom;
  NodeManager mgr(machine, jobs, drom);
  ClusterStateIndex index(machine, jobs);
  MateRegistry registry;

  SdConfig sd;
  sd.max_jobs_per_node = 3;  // keep M mate-eligible while it hosts G
  MateSelector cached(machine, jobs, registry, sd);
  cached.set_cluster_index(&index);

  // Mate M on node 0, predicted end 10000.
  const JobId m = jobs.add(spec_of(0, 10000, 1, 48));
  jobs.at(m).state = JobState::Running;
  jobs.at(m).predicted_end = 10000;
  mgr.start_static(0, m, {0});
  registry.on_start(jobs.at(m));

  // Guest G takes 24 of M's cores; M's end still dominates the node.
  const JobId g = jobs.add(spec_of(0, 100, 1, 48));
  jobs.at(g).state = JobState::Running;
  jobs.at(g).predicted_end = 200;
  mgr.start_guest(0, g, {SharePlan{0, m, 24, 24, 48}});
  registry.on_start(jobs.at(g));

  // Populate the cache while M is shrunk: no plan fits (M cannot shed more).
  const JobId probe1 = jobs.add(spec_of(10, 50, 1, 48));
  const std::uint64_t version_before = index.version();
  EXPECT_FALSE(cached.select(jobs.at(probe1), 10, kInf).has_value());

  // G finishes: node 0's free_at stays at M's end (no version bump), but
  // M expands back to its full static split. (Re-fetch G: the adds above
  // may have reallocated the registry.)
  jobs.at(g).state = JobState::Completed;
  jobs.at(g).end_time = 200;
  mgr.finish_job(200, g);
  registry.on_finish(g);
  EXPECT_EQ(index.version(), version_before);  // below the version's resolution

  // The warm selector must see the expanded mate and agree on the plan
  // with a fresh one, whose empty cache reads the machine as it is now.
  MateSelector fresh(machine, jobs, registry, sd);
  fresh.set_cluster_index(&index);
  const JobId probe2 = jobs.add(spec_of(200, 50, 1, 48));
  const auto fresh_plan = fresh.select(jobs.at(probe2), 200, kInf);
  const auto cached_plan = cached.select(jobs.at(probe2), 200, kInf);
  ASSERT_TRUE(fresh_plan.has_value());
  ASSERT_TRUE(plans_equal(fresh_plan, cached_plan));
}

/// A small machine with an index, a node manager and a mate registry, for
/// the occupancy-stamp tests below.
struct StampedCluster {
  explicit StampedCluster(int nodes) : machine(config(nodes)), mgr(machine, jobs, drom) {}

  static MachineConfig config(int nodes) {
    MachineConfig mc;
    mc.nodes = nodes;
    mc.node = NodeConfig{2, 24};
    return mc;
  }

  /// Start a one-node job statically on `node`, predicted to end at `end`.
  JobId start_on(int node, SimTime end,
                 MalleabilityClass cls = MalleabilityClass::Malleable) {
    const JobId id = jobs.add(spec_of(0, end, 1, 48, cls));
    jobs.at(id).state = JobState::Running;
    jobs.at(id).predicted_end = end;
    mgr.start_static(0, id, {node});
    registry.on_start(jobs.at(id));
    return id;
  }

  Machine machine;
  JobRegistry jobs;
  DromRegistry drom;
  NodeManager mgr;
  ClusterStateIndex index{machine, jobs};
  MateRegistry registry;
};

TEST(MateBudgetCache, JobAddedAfterTheIndexGetsAStamp) {
  StampedCluster c(2);  // index built over an empty registry
  const JobId a = c.start_on(0, 1000);
  EXPECT_GT(c.index.occupancy_stamp(a), 0u);
  EXPECT_EQ(c.index.occupancy_stamp(a), c.index.mutation_serial());

  // A predicted-end move bumps the serial but is not a budget input.
  const std::uint64_t stamp = c.index.occupancy_stamp(a);
  c.jobs.at(a).predicted_end = 2000;
  c.index.on_predicted_end_changed(a);
  EXPECT_GT(c.index.mutation_serial(), stamp);
  EXPECT_EQ(c.index.occupancy_stamp(a), stamp);

  // A start on another node stamps that job only.
  const JobId b = c.start_on(1, 1000);
  EXPECT_EQ(c.index.occupancy_stamp(b), c.index.mutation_serial());
  EXPECT_EQ(c.index.occupancy_stamp(a), stamp);
  EXPECT_EQ(c.index.occupancy_stamp(b + 100), 0u);  // never seen: unstamped
}

TEST(MateBudgetCache, NotificationOffTheMatesNodesKeepsItsBudgets) {
  StampedCluster c(3);
  const SdConfig sd;
  MateSelector cached(c.machine, c.jobs, c.registry, sd);
  cached.set_cluster_index(&c.index);

  const JobId m = c.start_on(0, 10000);
  const JobId probe1 = c.jobs.add(spec_of(10, 50, 1, 48));
  (void)cached.select(c.jobs.at(probe1), 10, kInf);
  ASSERT_EQ(cached.stats().budget_refills, 1u);

  // A rigid start on node 2 and a predicted-end move of the mate both bump
  // the serial; neither touches the mate's budgets.
  const std::uint64_t stamp = c.index.occupancy_stamp(m);
  const std::uint64_t serial = c.index.mutation_serial();
  (void)c.start_on(2, 5000, MalleabilityClass::Rigid);
  c.jobs.at(m).predicted_end = 12000;
  c.index.on_predicted_end_changed(m);
  EXPECT_GT(c.index.mutation_serial(), serial);
  EXPECT_EQ(c.index.occupancy_stamp(m), stamp);

  const JobId probe2 = c.jobs.add(spec_of(20, 50, 1, 48));
  const auto cached_plan = cached.select(c.jobs.at(probe2), 20, kInf);
  EXPECT_EQ(cached.stats().budget_refills, 1u);  // a hit

  MateSelector fresh(c.machine, c.jobs, c.registry, sd);
  fresh.set_cluster_index(&c.index);
  const auto fresh_plan = fresh.select(c.jobs.at(probe2), 20, kInf);
  ASSERT_TRUE(fresh_plan.has_value());
  EXPECT_TRUE(plans_equal(fresh_plan, cached_plan));
}

TEST(MateBudgetCache, ShareResizeRefillsOnlyThatMate) {
  StampedCluster c(3);
  SdConfig sd;
  sd.max_jobs_per_node = 3;  // keep M0 mate-eligible while it hosts G
  MateSelector cached(c.machine, c.jobs, c.registry, sd);
  cached.set_cluster_index(&c.index);

  const JobId m0 = c.start_on(0, 10000);
  const JobId m1 = c.start_on(1, 10000);
  const JobId probe1 = c.jobs.add(spec_of(10, 50, 1, 48));
  (void)cached.select(c.jobs.at(probe1), 10, kInf);
  ASSERT_EQ(cached.stats().budget_refills, 2u);

  // Guest G shrinks M0 on node 0: M0's stamp moves, M1's does not.
  const std::uint64_t m1_stamp = c.index.occupancy_stamp(m1);
  const JobId g = c.jobs.add(spec_of(10, 100, 1, 48));
  c.jobs.at(g).state = JobState::Running;
  c.jobs.at(g).predicted_end = 200;
  c.mgr.start_guest(10, g, {SharePlan{0, m0, 24, 24, 48}});
  c.registry.on_start(c.jobs.at(g));
  EXPECT_EQ(c.index.occupancy_stamp(m0), c.index.mutation_serial());
  EXPECT_EQ(c.index.occupancy_stamp(m1), m1_stamp);

  const JobId probe2 = c.jobs.add(spec_of(20, 50, 1, 48));
  const auto cached_plan = cached.select(c.jobs.at(probe2), 20, kInf);
  EXPECT_EQ(cached.stats().budget_refills, 3u);  // M0 refilled, M1 a hit

  MateSelector fresh(c.machine, c.jobs, c.registry, sd);
  fresh.set_cluster_index(&c.index);
  const auto fresh_plan = fresh.select(c.jobs.at(probe2), 20, kInf);
  ASSERT_TRUE(fresh_plan.has_value());
  EXPECT_EQ(fresh_plan->mates, std::vector<JobId>{m1});
  EXPECT_TRUE(plans_equal(fresh_plan, cached_plan));
}

// The budget crosscheck is process-wide (SDSCHED_SD_CROSSCHECK); CTest sets
// it for this binary.
TEST(MateBudgetCache, CrosscheckCatchesAStaleHit) {
  const char* mode = std::getenv("SDSCHED_SD_CROSSCHECK");
  ASSERT_TRUE(mode != nullptr && std::string(mode) != "0" && mode[0] != '\0')
      << "run with SDSCHED_SD_CROSSCHECK=1 (ctest sets it), or the check is vacuous";
  StampedCluster c(2);
  const SdConfig sd;
  MateSelector cached(c.machine, c.jobs, c.registry, sd);
  cached.set_cluster_index(&c.index);

  const JobId m = c.start_on(0, 10000);
  const JobId probe = c.jobs.add(spec_of(10, 50, 1, 48));
  (void)cached.select(c.jobs.at(probe), 10, kInf);

  // A share edit that bypasses the machine's notify path leaves the stamp
  // alone; the next hit must notice.
  c.jobs.at(m).shares.front().cpus -= 1;
  EXPECT_THROW((void)cached.select(c.jobs.at(probe), 10, kInf), std::logic_error);
}

}  // namespace
}  // namespace sdsched
