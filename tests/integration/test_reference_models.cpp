// Reference-model property tests: the optimized implementations are checked
// against brute-force oracles under randomized inputs.
//
//  * ReservationProfile vs a naive per-second availability array;
//  * MateSelector — registry-backed candidate walk plus branch-and-bound —
//    vs an exhaustive combination search over the whole job table, on
//    random populations and over a churned lifecycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <string>

#include "../sched/scheduler_test_harness.h"
#include "core/mate_selector.h"
#include "sched/reservation.h"
#include "util/rng.h"

namespace sdsched {
namespace {

// ---------------------------------------------------------------------------
// ReservationProfile oracle
// ---------------------------------------------------------------------------

/// Naive availability model over a bounded horizon.
class NaiveProfile {
 public:
  NaiveProfile(int capacity, SimTime horizon)
      : capacity_(capacity), free_(static_cast<std::size_t>(horizon), capacity) {}

  void reserve(SimTime start, SimTime end, int nodes) {
    for (SimTime t = start; t < std::min<SimTime>(end, horizon()); ++t) free_[t] -= nodes;
  }
  void release(SimTime start, SimTime end, int nodes) {
    for (SimTime t = start; t < std::min<SimTime>(end, horizon()); ++t) free_[t] += nodes;
  }
  [[nodiscard]] int available_at(SimTime t) const {
    return t < horizon() ? free_[t] : capacity_;
  }
  [[nodiscard]] SimTime earliest_start(int nodes, SimTime duration, SimTime not_before) const {
    for (SimTime start = not_before; start < horizon(); ++start) {
      bool ok = true;
      for (SimTime t = start; t < start + duration && ok; ++t) {
        if (available_at(t) < nodes) ok = false;
      }
      if (ok) return start;
    }
    return horizon();
  }

 private:
  [[nodiscard]] SimTime horizon() const { return static_cast<SimTime>(free_.size()); }
  int capacity_;
  std::vector<int> free_;
};

class ReservationOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReservationOracle, MatchesNaiveModelUnderRandomOps) {
  constexpr int kCapacity = 12;
  constexpr SimTime kHorizon = 600;
  Rng rng(GetParam());
  ReservationProfile profile(kCapacity);
  NaiveProfile naive(kCapacity, kHorizon);

  // Random reservations that never drive availability negative: emulate the
  // real usage pattern (reserve within what earliest_start reported free).
  for (int op = 0; op < 60; ++op) {
    const int nodes = static_cast<int>(rng.uniform_int(1, 4));
    const auto duration = static_cast<SimTime>(rng.uniform_int(5, 60));
    const auto not_before = static_cast<SimTime>(rng.uniform_int(0, 200));
    const SimTime start = profile.earliest_start(nodes, duration, not_before);
    ASSERT_NE(start, ReservationProfile::kNever);
    ASSERT_EQ(start, naive.earliest_start(nodes, duration, not_before))
        << "op " << op << " nodes " << nodes << " dur " << duration << " nb " << not_before;
    if (start + duration < kHorizon) {
      profile.reserve(start, start + duration, nodes);
      naive.reserve(start, start + duration, nodes);
    }
  }

  // Spot-check availability pointwise.
  for (SimTime t = 0; t < 300; t += 7) {
    ASSERT_EQ(profile.available_at(t), naive.available_at(t)) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReservationOracle,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// MateSelector oracle
// ---------------------------------------------------------------------------

using testing_support::TestCluster;

constexpr double kInf = std::numeric_limits<double>::infinity();

MachineConfig selector_machine(int nodes) {
  MachineConfig config;
  config.nodes = nodes;
  config.node = NodeConfig{2, 24};
  return config;
}

/// A running whole-node job of `node_count` nodes, started at `start`.
JobId run_job(TestCluster& cluster, int node_count, SimTime submit, SimTime start,
              SimTime req) {
  JobSpec spec;
  spec.submit = submit;
  spec.req_time = req;
  spec.base_runtime = req;
  spec.req_cpus = node_count * cluster.machine.cores_per_node();
  spec.req_nodes = node_count;
  const JobId id = cluster.jobs.add(spec);
  cluster.start_static(id, *cluster.machine.find_free_nodes(node_count), start);
  return id;
}

/// A selector over `cluster`'s registry and index — the production wiring.
MateSelector wired_selector(const TestCluster& cluster, const SdConfig& sd) {
  MateSelector selector(cluster.machine, cluster.jobs, cluster.mates, sd);
  selector.set_cluster_index(&cluster.index);
  return selector;
}

/// The brute-force oracle: exhaustive minimum-PI search (m <= 2) over the
/// WHOLE job table — the scan the MateRegistry replaced — with the same
/// penalty math: mate penalty = (wait + (1-sf)*D + req)/req where
/// D = req_guest / sf, for mates holding whole nodes exclusively (every
/// eligible mate in the worlds these tests build: static starts take whole
/// nodes, and a mate hosting a guest is ineligible). Mates at or above
/// `max_slowdown` are filtered as Eq. 2 requires.
class BruteForceMates {
 public:
  BruteForceMates(const TestCluster& cluster, const Job& guest, SimTime now,
                  double sharing_factor, double max_slowdown)
      : now_(now),
        sharing_factor_(sharing_factor),
        d_(static_cast<double>(guest.spec.req_time) / sharing_factor) {
    const SimTime mall_end = now + static_cast<SimTime>(std::ceil(d_));
    for (const auto& job : cluster.jobs) {
      if (job.running() && job.can_be_mate() && !job.started_as_guest &&
          job.guests.empty() && job.spec.req_nodes <= guest.spec.req_nodes &&
          job.predicted_end >= mall_end && penalty(job) < max_slowdown) {
        mates_.push_back(&job);
      }
    }
  }

  /// Eq. 4 for `mate` under this guest.
  [[nodiscard]] double penalty(const Job& mate) const {
    const auto req = static_cast<double>(mate.spec.req_time);
    const double increase = (1.0 - sharing_factor_) * d_;
    return (static_cast<double>(mate.wait_time(now_)) + std::ceil(increase) + req) / req;
  }

  [[nodiscard]] bool eligible(JobId id) const {
    return std::any_of(mates_.begin(), mates_.end(),
                       [id](const Job* job) { return job->spec.id == id; });
  }

  /// Minimum Performance Impact over every 1- and 2-mate combination whose
  /// weights sum to the guest's node count; infinity when none exists.
  [[nodiscard]] double best_pi(int guest_nodes) const {
    double best = kInf;
    for (std::size_t i = 0; i < mates_.size(); ++i) {
      if (mates_[i]->spec.req_nodes == guest_nodes) {
        best = std::min(best, penalty(*mates_[i]));
      }
      for (std::size_t j = i + 1; j < mates_.size(); ++j) {
        if (mates_[i]->spec.req_nodes + mates_[j]->spec.req_nodes == guest_nodes) {
          best = std::min(best, penalty(*mates_[i]) + penalty(*mates_[j]));
        }
      }
    }
    return best;
  }

 private:
  SimTime now_;
  double sharing_factor_;
  double d_;
  std::vector<const Job*> mates_;
};

/// `plan` must be exactly what the oracle allows: present iff a feasible
/// combination exists, at the oracle's minimum PI, built only from
/// oracle-eligible mates whose weights cover the guest and whose penalties
/// sum to the reported PI.
void expect_plan_matches_oracle(const TestCluster& cluster, const Job& guest, SimTime now,
                                double max_slowdown, const std::optional<MatePlan>& plan,
                                double sharing_factor) {
  const BruteForceMates oracle(cluster, guest, now, sharing_factor, max_slowdown);
  const double brute = oracle.best_pi(guest.spec.req_nodes);
  if (std::isinf(brute)) {
    EXPECT_FALSE(plan.has_value());
    return;
  }
  ASSERT_TRUE(plan.has_value());
  EXPECT_NEAR(plan->performance_impact, brute, brute * 1e-9);
  int weight = 0;
  double penalties = 0.0;
  for (const JobId mate : plan->mates) {
    EXPECT_TRUE(oracle.eligible(mate)) << "plan uses ineligible mate " << mate;
    weight += cluster.jobs.at(mate).spec.req_nodes;
    penalties += oracle.penalty(cluster.jobs.at(mate));
  }
  EXPECT_EQ(weight, guest.spec.req_nodes);
  EXPECT_NEAR(penalties, plan->performance_impact, brute * 1e-9);
}

class SelectorOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SelectorOracle, BranchAndBoundMatchesBruteForce) {
  Rng rng(GetParam());
  TestCluster cluster(selector_machine(24));

  // Random running population: 6-10 jobs of 1-3 nodes with varied waits.
  const int population = static_cast<int>(rng.uniform_int(6, 10));
  for (int i = 0; i < population; ++i) {
    const int nodes = static_cast<int>(rng.uniform_int(1, 3));
    const auto submit = static_cast<SimTime>(rng.uniform_int(0, 500));
    const auto start = submit + static_cast<SimTime>(rng.uniform_int(0, 2000));
    const auto req = static_cast<SimTime>(rng.uniform_int(50000, 200000));
    if (cluster.machine.free_node_count() >= nodes) {
      run_job(cluster, nodes, submit, start, req);
    }
  }

  JobSpec guest_spec;
  guest_spec.req_nodes = static_cast<int>(rng.uniform_int(1, 4));
  guest_spec.req_cpus = guest_spec.req_nodes * 48;
  guest_spec.req_time = static_cast<SimTime>(rng.uniform_int(100, 2000));
  guest_spec.base_runtime = guest_spec.req_time;
  guest_spec.submit = 2600;
  const JobId guest_id = cluster.jobs.add(guest_spec);
  const Job& guest = cluster.jobs.at(guest_id);

  SdConfig sd;
  sd.cutoff = CutoffConfig::infinite();
  const MateSelector selector = wired_selector(cluster, sd);
  const SimTime now = 2600;
  expect_plan_matches_oracle(cluster, guest, now, kInf, selector.select(guest, now, kInf),
                             sd.sharing_factor);
}

// The registry-backed selector against the oracle over a churned
// lifecycle: static starts (some rigid), finishes and guest starts applied
// from the selector's own plans, so the registry, the index and the budget
// cache all move under it. After every step, probe guests of several
// shapes under two cut-offs must get exactly the oracle's optimum.
TEST_P(SelectorOracle, RegistryPlansMatchBruteForceOverChurn) {
  Rng rng(GetParam());
  MachineConfig mc;
  mc.nodes = 12;
  mc.node = NodeConfig{2, 4};
  TestCluster cluster(mc);
  const int cores = cluster.machine.cores_per_node();
  SdConfig sd;
  const MateSelector selector = wired_selector(cluster, sd);

  const auto add_pending = [&](SimTime now, int req_nodes, SimTime req_time) {
    JobSpec spec;
    spec.submit = now;
    spec.req_time = req_time;
    spec.base_runtime = req_time;
    spec.req_cpus = req_nodes * cores;
    spec.req_nodes = req_nodes;
    return cluster.jobs.add(spec);
  };

  std::vector<JobId> running;
  SimTime now = 0;
  std::string diag;
  int plans = 0;
  for (int step = 0; step < 150; ++step) {
    now += rng.uniform_int(0, 14);
    const auto op = rng.uniform_int(0, 9);
    if (op < 5) {
      const int want = static_cast<int>(rng.uniform_int(1, 3));
      if (const auto nodes = cluster.machine.find_free_nodes(want)) {
        const JobId id = add_pending(now, want, rng.uniform_int(50, 550));
        if (rng.uniform_int(0, 3) == 0) {
          cluster.jobs.at(id).spec.malleability = MalleabilityClass::Rigid;
        }
        cluster.start_static(id, *nodes, now);
        running.push_back(id);
      }
    } else if (op < 7 && !running.empty()) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(running.size()) - 1));
      cluster.finish(running[pick], now);
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (!running.empty()) {
      const JobId guest = add_pending(now, static_cast<int>(rng.uniform_int(1, 2)),
                                      rng.uniform_int(20, 80));
      if (const auto plan = selector.select(cluster.jobs.at(guest), now, kInf)) {
        cluster.start_guest(guest, *plan, now);
        running.push_back(guest);
      }
    }
    ASSERT_TRUE(cluster.mates.check_consistent(cluster.jobs, &diag))
        << "step " << step << ": " << diag;
    ASSERT_TRUE(cluster.index.check_consistent(&diag)) << "step " << step << ": " << diag;

    for (const int req_nodes : {1, 2, 3}) {
      const JobId probe = add_pending(now, req_nodes, 30);
      const Job& guest = cluster.jobs.at(probe);
      for (const double cutoff : {kInf, 5.0}) {
        const auto plan = selector.select(guest, now, cutoff);
        SCOPED_TRACE(testing::Message() << "step " << step << " req_nodes " << req_nodes
                                        << " cutoff " << cutoff);
        expect_plan_matches_oracle(cluster, guest, now, cutoff, plan, sd.sharing_factor);
        if (plan) ++plans;
      }
    }
  }
  EXPECT_GT(plans, 0);  // the walk actually produced plans to compare
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectorOracle,
                         ::testing::Values(3, 7, 11, 19, 23, 31, 43, 59, 71, 97));

// ---------------------------------------------------------------------------
// NodeManager conservation under random churn
// ---------------------------------------------------------------------------

TEST(NodeManagerChurn, NoCoreLeaksAcrossRandomStartsAndFinishes) {
  Rng rng(1234);
  TestCluster cluster(selector_machine(16));
  SdConfig sd;
  sd.cutoff = CutoffConfig::infinite();
  const MateSelector selector = wired_selector(cluster, sd);

  std::vector<JobId> running;
  SimTime now = 0;
  for (int step = 0; step < 200; ++step) {
    now += rng.uniform_int(1, 100);
    const int action = static_cast<int>(rng.uniform_int(0, 2));
    if (action <= 1) {
      // Try to start a job: statically if room, else as a guest.
      const int nodes = static_cast<int>(rng.uniform_int(1, 3));
      if (cluster.machine.free_node_count() >= nodes) {
        running.push_back(run_job(cluster, nodes, now, now, rng.uniform_int(5000, 50000)));
      } else {
        JobSpec spec;
        spec.req_nodes = nodes;
        spec.req_cpus = nodes * 48;
        spec.req_time = rng.uniform_int(100, 1000);
        spec.base_runtime = spec.req_time;
        spec.submit = now;
        const JobId id = cluster.jobs.add(spec);
        const auto plan = selector.select(cluster.jobs.at(id), now, kInf);
        if (plan) {
          cluster.start_guest(id, *plan, now);
          running.push_back(id);
        }
      }
    } else if (!running.empty()) {
      const auto victim = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(running.size()) - 1));
      const JobId id = running[victim];
      running.erase(running.begin() + victim);
      cluster.finish(id, now);
    }

    // Invariants after every step.
    int share_total = 0;
    for (const auto& job : cluster.jobs) {
      for (const auto& share : job.shares) {
        ASSERT_GE(share.cpus, 1);
        const auto occ = cluster.machine.node(share.node).occupant(job.spec.id);
        ASSERT_TRUE(occ.has_value()) << "job/machine share mismatch";
        ASSERT_EQ(occ->cpus, share.cpus);
        share_total += share.cpus;
      }
    }
    ASSERT_EQ(share_total, cluster.machine.busy_cores());
    for (int n = 0; n < cluster.machine.node_count(); ++n) {
      ASSERT_LE(cluster.machine.node(n).used_cores(), cluster.machine.node(n).total_cores());
    }
  }

  // Drain everything; the machine must come back empty.
  for (const JobId id : running) cluster.finish(id, now + 1);
  EXPECT_EQ(cluster.machine.busy_cores(), 0);
  EXPECT_EQ(cluster.machine.free_node_count(), 16);
}

}  // namespace
}  // namespace sdsched
