#include "core/cutoff.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/mate_registry.h"

namespace sdsched {
namespace {

/// The cut-off over `jobs`' running set, as SD-Policy computes it: from the
/// MateRegistry's running-id list.
double cutoff_of(const CutoffConfig& config, const JobRegistry& jobs, SimTime now) {
  MateRegistry registry;
  registry.seed(jobs);
  return compute_cutoff(config, jobs, registry.running(), now);
}

Job& add_running(JobRegistry& jobs, SimTime submit, SimTime start, SimTime req_time,
                 SimTime increase = 0) {
  JobSpec spec;
  spec.submit = submit;
  spec.req_time = req_time;
  const JobId id = jobs.add(spec);
  Job& job = jobs.at(id);
  job.state = JobState::Running;
  job.start_time = start;
  job.predicted_increase = increase;
  return job;
}

TEST(Cutoff, StaticReturnsConfiguredValue) {
  JobRegistry jobs;
  EXPECT_DOUBLE_EQ(cutoff_of(CutoffConfig::max_sd(10.0), jobs, 0), 10.0);
  EXPECT_DOUBLE_EQ(cutoff_of(CutoffConfig::max_sd(5.0), jobs, 999), 5.0);
}

TEST(Cutoff, InfiniteIsUnbounded) {
  JobRegistry jobs;
  EXPECT_TRUE(std::isinf(cutoff_of(CutoffConfig::infinite(), jobs, 0)));
}

TEST(Cutoff, EstimatedRunningSlowdownFormula) {
  JobRegistry jobs;
  // waited 100s, requested 100s, no increase -> (100+100)/100 = 2.
  const Job& job = add_running(jobs, 0, 100, 100);
  EXPECT_DOUBLE_EQ(estimated_running_slowdown(job, 100), 2.0);
}

TEST(Cutoff, EstimatedSlowdownIncludesIncrease) {
  JobRegistry jobs;
  const Job& job = add_running(jobs, 0, 50, 100, 30);
  // (wait 50 + increase 30 + req 100)/100 = 1.8
  EXPECT_DOUBLE_EQ(estimated_running_slowdown(job, 60), 1.8);
}

TEST(Cutoff, DynamicAverageOfRunningJobs) {
  JobRegistry jobs;
  add_running(jobs, 0, 100, 100);  // slowdown 2
  add_running(jobs, 0, 300, 100);  // slowdown 4
  const double cutoff = cutoff_of(CutoffConfig::dynamic_avg(), jobs, 300);
  EXPECT_DOUBLE_EQ(cutoff, 3.0);
}

TEST(Cutoff, DynamicIgnoresNonRunningJobs) {
  JobRegistry jobs;
  const JobId first = add_running(jobs, 0, 100, 100).spec.id;  // slowdown 2
  JobSpec pending;
  pending.submit = 0;
  pending.req_time = 1;
  const JobId stale = jobs.add(pending);  // Pending: huge would-be slowdown
  EXPECT_DOUBLE_EQ(cutoff_of(CutoffConfig::dynamic_avg(), jobs, 100), 2.0);
  // Even listed as running (a stale entry), a non-running job never counts.
  const std::vector<JobId> listed{first, stale};
  EXPECT_DOUBLE_EQ(compute_cutoff(CutoffConfig::dynamic_avg(), jobs, listed, 100), 2.0);
}

TEST(Cutoff, DynamicWithNoRunningJobsIsInfinite) {
  JobRegistry jobs;
  EXPECT_TRUE(std::isinf(cutoff_of(CutoffConfig::dynamic_avg(), jobs, 0)));
}

TEST(Cutoff, ZeroWaitGivesSlowdownOne) {
  JobRegistry jobs;
  const Job& job = add_running(jobs, 100, 100, 200);
  EXPECT_DOUBLE_EQ(estimated_running_slowdown(job, 100), 1.0);
}

}  // namespace
}  // namespace sdsched
