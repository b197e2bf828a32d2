// Shared harness for scheduler and MateSelector unit tests: the cluster
// state a scheduler needs (machine, job table, the always-present
// ClusterStateIndex, the NodeManager that applies placements, and a
// MateRegistry for standalone selectors) plus a StartExecutor that applies
// starts the way the Simulation kernel would, minus event handling.
#pragma once

#include <vector>

#include "cluster/cluster_state_index.h"
#include "core/mate_registry.h"
#include "drom/node_manager.h"
#include "sched/scheduler.h"

namespace sdsched::testing_support {

/// One cluster's scheduler-visible state. The index observes the machine
/// from construction; `mates` tracks the running set for MateSelectors
/// built directly in a test (an SdPolicyScheduler keeps its own registry).
/// Every start and finish goes through the methods below so the index and
/// the registry hear about it exactly as they would inside a Simulation.
struct TestCluster {
  explicit TestCluster(const MachineConfig& config)
      : machine(config), index(machine, jobs), mgr(machine, jobs, drom) {}

  /// Run `id` on `nodes` from `now`, predicted to end at now + req_time.
  void start_static(JobId id, const std::vector<int>& nodes, SimTime now) {
    Job& job = jobs.at(id);
    job.state = JobState::Running;
    job.start_time = now;
    job.predicted_end = now + job.spec.req_time;
    mgr.start_static(now, id, nodes);
    mates.on_start(jobs.at(id));
  }

  /// Start `id` as a guest per `plan`: stretch the mates' predicted ends
  /// (telling the index, as Simulation::start_guest does), then place.
  void start_guest(JobId id, const MatePlan& plan, SimTime now) {
    Job& job = jobs.at(id);
    job.state = JobState::Running;
    job.start_time = now;
    job.predicted_increase = plan.guest_increase;
    job.predicted_end = now + job.spec.req_time + plan.guest_increase;
    for (std::size_t i = 0; i < plan.mates.size(); ++i) {
      Job& mate = jobs.at(plan.mates[i]);
      mate.predicted_increase += plan.mate_increases[i];
      mate.predicted_end += plan.mate_increases[i];
      index.on_predicted_end_changed(plan.mates[i]);
    }
    mgr.start_guest(now, id, plan.nodes);
    mates.on_start(jobs.at(id));
  }

  /// Complete a running job: release resources and expand survivors.
  void finish(JobId id, SimTime now) {
    Job& job = jobs.at(id);
    job.state = JobState::Completed;
    job.end_time = now;
    mgr.finish_job(now, id);
    mates.on_finish(id);
  }

  Machine machine;
  JobRegistry jobs;
  ClusterStateIndex index;
  DromRegistry drom;
  NodeManager mgr;
  MateRegistry mates;
};

class RecordingExecutor final : public StartExecutor {
 public:
  explicit RecordingExecutor(TestCluster& cluster) noexcept : cluster_(cluster) {}

  SimTime now = 0;
  std::vector<JobId> static_starts;
  std::vector<JobId> guest_starts;

  void start_static(JobId id, const std::vector<int>& nodes) override {
    cluster_.start_static(id, nodes, now);
    static_starts.push_back(id);
  }

  void start_guest(JobId id, const MatePlan& plan) override {
    cluster_.start_guest(id, plan, now);
    guest_starts.push_back(id);
  }

 private:
  TestCluster& cluster_;
};

/// Minimal malleable job spec.
inline JobSpec spec_of(SimTime submit, SimTime runtime, SimTime req_time, int cpus,
                       int cores_per_node,
                       MalleabilityClass cls = MalleabilityClass::Malleable) {
  JobSpec spec;
  spec.submit = submit;
  spec.base_runtime = runtime;
  spec.req_time = req_time;
  spec.req_cpus = cpus;
  spec.req_nodes = nodes_for(cpus, cores_per_node);
  spec.malleability = cls;
  return spec;
}

}  // namespace sdsched::testing_support
