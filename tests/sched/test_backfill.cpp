#include "sched/backfill.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "scheduler_test_harness.h"

namespace sdsched {
namespace {

using testing_support::RecordingExecutor;
using testing_support::TestCluster;
using testing_support::spec_of;

class BackfillTest : public ::testing::Test {
 protected:
  explicit BackfillTest(SchedConfig config = {})
      : cluster_(make_config()),
        executor_(cluster_),
        sched_(cluster_.machine, cluster_.jobs, executor_, config) {
    sched_.set_cluster_index(&cluster_.index);
  }

  static MachineConfig make_config() {
    MachineConfig config;
    config.nodes = 4;
    config.node = NodeConfig{2, 24};
    return config;
  }

  JobId submit(int cpus, SimTime runtime, SimTime req_time, SimTime submit_time = 0) {
    const JobId id = cluster_.jobs.add(spec_of(submit_time, runtime, req_time, cpus, 48));
    sched_.on_submit(id);
    return id;
  }

  TestCluster cluster_;
  RecordingExecutor executor_;
  BackfillScheduler sched_;
};

TEST_F(BackfillTest, ShortJobBackfillsAroundBlockedHead) {
  // 4-node machine. A (2 nodes, 100s) runs; B (4 nodes) must wait for A;
  // C (2 nodes, 50s <= A's remaining) fits in B's shadow on the spare nodes.
  const JobId a = submit(96, 100, 100);
  sched_.schedule_pass(0);
  ASSERT_EQ(executor_.static_starts, (std::vector<JobId>{a}));

  const JobId b = submit(192, 100, 100);
  const JobId c = submit(96, 50, 50);
  sched_.schedule_pass(0);
  EXPECT_EQ(executor_.static_starts, (std::vector<JobId>{a, c}));
  EXPECT_TRUE(sched_.queue().contains(b));
}

TEST_F(BackfillTest, BackfillNeverDelaysReservation) {
  // C too long to fit in the shadow: would push B past its reservation.
  const JobId a = submit(96, 100, 100);
  sched_.schedule_pass(0);
  const JobId b = submit(192, 100, 100);
  const JobId c = submit(96, 150, 150);
  sched_.schedule_pass(0);
  EXPECT_EQ(executor_.static_starts, (std::vector<JobId>{a}));
  EXPECT_TRUE(sched_.queue().contains(b));
  EXPECT_TRUE(sched_.queue().contains(c));
}

TEST_F(BackfillTest, ReservationHonoursPredictedEnds) {
  const JobId a = submit(192, 80, 100);  // requested 100, really 80
  sched_.schedule_pass(0);
  const JobId b = submit(192, 50, 50);
  sched_.schedule_pass(0);
  EXPECT_TRUE(sched_.queue().contains(b));
  // A finishes early; the pass at that moment starts B immediately.
  cluster_.finish(a, 80);
  executor_.now = 80;
  sched_.schedule_pass(80);
  EXPECT_EQ(executor_.static_starts, (std::vector<JobId>{a, b}));
}

TEST_F(BackfillTest, PriorityOrderPreservedAmongEqualJobs) {
  const JobId a = submit(192, 100, 100);
  sched_.schedule_pass(0);
  const JobId b = submit(96, 60, 60, 1);
  const JobId c = submit(96, 60, 60, 2);
  sched_.schedule_pass(2);
  EXPECT_TRUE(sched_.queue().contains(b));
  EXPECT_TRUE(sched_.queue().contains(c));
  // Both fit once the big job ends; starts must follow submit order.
  cluster_.finish(a, 100);
  executor_.now = 100;
  sched_.schedule_pass(100);
  EXPECT_EQ(executor_.static_starts, (std::vector<JobId>{a, b, c}));
}

TEST_F(BackfillTest, StaticPolicyNeverStartsGuests) {
  submit(192, 1000, 1000);
  sched_.schedule_pass(0);
  submit(96, 10, 10);
  sched_.schedule_pass(0);
  EXPECT_TRUE(executor_.guest_starts.empty());
}

TEST_F(BackfillTest, SharedNodeFreesAtLastOccupant) {
  // Simulate an SD-produced sharing situation and check the profile treats
  // the node as busy until the later predicted end.
  const JobId a = submit(96, 200, 200);
  sched_.schedule_pass(0);
  // Manually co-schedule a guest with a longer predicted end on node 0.
  const JobId g = cluster_.jobs.add(spec_of(0, 300, 300, 48, 48));
  Job& guest = cluster_.jobs.at(g);
  guest.state = JobState::Running;
  guest.start_time = 0;
  guest.predicted_end = 300;
  cluster_.machine.resize_share(0, a, 0, 24);
  cluster_.jobs.at(a).shares[0].cpus = 24;
  cluster_.machine.add_share(0, g, 0, 24, false);
  guest.shares.push_back({0, 24, 48});

  // A 4-node job can only be predicted to start when node 0 clears at 300.
  const JobId big = submit(192, 10, 10);
  sched_.schedule_pass(0);
  EXPECT_TRUE(sched_.queue().contains(big));
  cluster_.finish(a, 200);
  executor_.now = 200;
  sched_.schedule_pass(200);
  EXPECT_TRUE(sched_.queue().contains(big));  // node 0 still held by guest
  cluster_.finish(g, 300);
  executor_.now = 300;
  sched_.schedule_pass(300);
  EXPECT_FALSE(sched_.queue().contains(big));
}

class EasyBackfillTest : public BackfillTest {
 protected:
  EasyBackfillTest() : BackfillTest(easy_config()) {}
  static SchedConfig easy_config() {
    SchedConfig config;
    config.reservation_depth = 1;  // EASY: only the head gets a reservation
    return config;
  }
};

TEST_F(EasyBackfillTest, DepthOneOnlyProtectsHead) {
  // Machine: 4 nodes. A (3 nodes, 100s) runs. Queue: B (4 nodes, reserved
  // at 100), C (2 nodes, 200s) does not fit in the shadow, D (1 node,
  // 1000s). With depth 1, C gets no reservation, so D may start on the
  // spare node even though it delays *C* (but not B... D uses 1 node, B
  // needs all 4 at t=100 -> D would delay B; it must not start).
  const JobId a = submit(144, 100, 100);
  sched_.schedule_pass(0);
  ASSERT_EQ(executor_.static_starts, (std::vector<JobId>{a}));
  const JobId b = submit(192, 100, 100);
  const JobId c = submit(96, 200, 200);
  const JobId d = submit(48, 50, 50);
  sched_.schedule_pass(0);
  // D fits under B's shadow (50 <= 100) on the spare node; C does not.
  EXPECT_TRUE(sched_.queue().contains(b));
  EXPECT_TRUE(sched_.queue().contains(c));
  EXPECT_EQ(executor_.static_starts, (std::vector<JobId>{a, d}));
}

// Constraint-class-aware estimates: a constrained job whose eligible nodes
// are busy gets an exact earliest start from the per-class profile layer (a
// reservation at the eligible release) instead of the historical
// conservative hold-at-now — so unconstrained work is no longer blocked
// behind it.
class ConstrainedBackfillTest : public ::testing::Test {
 protected:
  ConstrainedBackfillTest()
      : cluster_(make_config()),
        executor_(cluster_),
        sched_(cluster_.machine, cluster_.jobs, executor_, SchedConfig{}) {
    sched_.set_cluster_index(&cluster_.index);
  }

  static MachineConfig make_config() {
    MachineConfig config;
    config.nodes = 4;
    config.node = NodeConfig{2, 24};
    NodeAttributes highmem;
    highmem.memory_gb = 384;
    config.attribute_overrides.emplace_back(2, highmem);
    config.attribute_overrides.emplace_back(3, highmem);
    return config;
  }

  JobId submit(int cpus, SimTime req_time, int min_memory_gb = 0, SimTime submit_time = 0) {
    JobSpec spec = spec_of(submit_time, req_time, req_time, cpus, 48);
    spec.constraints.min_memory_gb = min_memory_gb;
    const JobId id = cluster_.jobs.add(spec);
    sched_.on_submit(id);
    return id;
  }

  TestCluster cluster_;
  RecordingExecutor executor_;
  BackfillScheduler sched_;
};

TEST_F(ConstrainedBackfillTest, ClassLayerReplacesHoldAndRetry) {
  // A (highmem, 2 nodes, 100s) takes the two highmem nodes.
  const JobId a = submit(96, 100, /*min_memory_gb=*/128);
  sched_.schedule_pass(0);
  ASSERT_EQ(executor_.static_starts, (std::vector<JobId>{a}));
  EXPECT_EQ(cluster_.jobs.at(a).shares[0].node, 2);
  EXPECT_GT(sched_.class_layer_builds(), 0u);

  // B (highmem, 2 nodes): the class-blind profile sees 2 free nodes *now*,
  // but they are the wrong class. The class layer prices B at A's release
  // (t=100) — a plain reservation there, not a hold of [now, now+500).
  const JobId b = submit(96, 500, /*min_memory_gb=*/128, /*submit_time=*/10);
  // C (unconstrained, 2 nodes, 50s): fits on the default-class nodes now
  // and ends before B's reservation. Under the historical hold-and-retry
  // B's conservative hold would have blocked it.
  const JobId c = submit(96, 50, /*min_memory_gb=*/0, /*submit_time=*/10);
  executor_.now = 10;
  sched_.schedule_pass(10);
  EXPECT_TRUE(sched_.queue().contains(b));
  EXPECT_EQ(executor_.static_starts, (std::vector<JobId>{a, c}));

  // A finishes: B starts on the released highmem nodes.
  cluster_.finish(a, 100);
  sched_.on_finish(a);
  executor_.now = 100;
  sched_.schedule_pass(100);
  EXPECT_EQ(executor_.static_starts, (std::vector<JobId>{a, c, b}));
  EXPECT_EQ(cluster_.jobs.at(b).shares[0].node, 2);
}

TEST_F(ConstrainedBackfillTest, ClassLayerDoesNotDelayEligibleStarts) {
  // Highmem nodes free: a highmem job starts immediately through the same
  // path (the layer agrees with the shared profile at `now`).
  const JobId a = submit(96, 100, /*min_memory_gb=*/128);
  sched_.schedule_pass(0);
  EXPECT_EQ(executor_.static_starts, (std::vector<JobId>{a}));
}

TEST_F(ConstrainedBackfillTest, SamePassStartsAreNotDoubleCountedByTheLayer) {
  // X (unconstrained, 2 nodes) starts on the default nodes earlier in the
  // SAME pass as B (highmem, 2 nodes). X's start is visible to the layer
  // twice over if mishandled: once through the index snapshot (its nodes
  // are busy by the time the layer is built) and once through a replay of
  // its start reservation. B's eligible nodes are entirely free — it must
  // start in the same pass, as it always did before the layer existed.
  const JobId x = submit(96, 100);
  const JobId b = submit(96, 100, /*min_memory_gb=*/128);
  sched_.schedule_pass(0);
  EXPECT_EQ(executor_.static_starts, (std::vector<JobId>{x, b}));
  EXPECT_EQ(cluster_.jobs.at(b).shares[0].node, 2);
}

TEST_F(BackfillTest, ExaminationBudgetBoundsPassWork) {
  SchedConfig tight;
  tight.bf_max_jobs = 1;
  BackfillScheduler limited(cluster_.machine, cluster_.jobs, executor_, tight);
  limited.set_cluster_index(&cluster_.index);
  const JobId a = cluster_.jobs.add(spec_of(0, 100, 100, 192, 48));
  limited.on_submit(a);
  const JobId b = cluster_.jobs.add(spec_of(0, 10, 10, 48, 48));
  limited.on_submit(b);
  limited.schedule_pass(0);
  // Only the first queued job is examined; b stays even though it fits.
  EXPECT_EQ(executor_.static_starts, (std::vector<JobId>{a}));
  EXPECT_TRUE(limited.queue().contains(b));
}

// Requested times near INT64_MAX: every reservation window a pass derives
// from one saturates at kForever instead of overflowing (the asan preset
// halts on the signed overflow), so the job holds its nodes for good.
constexpr SimTime kHugeReqTime = std::numeric_limits<SimTime>::max() - 1;

/// Applies a start without the kernel's predicted-end arithmetic (now +
/// req_time would overflow for kHugeReqTime): the job is placed and
/// predicted to run until kForever.
class HorizonExecutor final : public StartExecutor {
 public:
  explicit HorizonExecutor(TestCluster& cluster) noexcept : cluster_(cluster) {}

  SimTime now = 0;
  std::vector<JobId> static_starts;

  void start_static(JobId id, const std::vector<int>& nodes) override {
    Job& job = cluster_.jobs.at(id);
    job.state = JobState::Running;
    job.start_time = now;
    job.predicted_end = ReservationProfile::kForever;
    cluster_.mgr.start_static(now, id, nodes);
    static_starts.push_back(id);
  }

  void start_guest(JobId /*id*/, const MatePlan& /*plan*/) override {
    ADD_FAILURE() << "the static baseline never starts guests";
  }

 private:
  TestCluster& cluster_;
};

TEST_F(BackfillTest, HugeRequestStartWindowSaturates) {
  HorizonExecutor horizon(cluster_);
  BackfillScheduler sched(cluster_.machine, cluster_.jobs, horizon, SchedConfig{});
  sched.set_cluster_index(&cluster_.index);
  const JobId a = cluster_.jobs.add(spec_of(0, 100, kHugeReqTime, 96, 48));
  sched.on_submit(a);
  const JobId b = cluster_.jobs.add(spec_of(0, 10, 10, 192, 48));
  sched.on_submit(b);
  horizon.now = 5;
  sched.schedule_pass(5);
  // A's start window [5, kForever) keeps its two nodes out of the profile,
  // so B (all four nodes) can never fit rather than being promised them.
  EXPECT_EQ(horizon.static_starts, (std::vector<JobId>{a}));
  EXPECT_EQ(sched.cancelled_jobs(), 1u);
  EXPECT_FALSE(sched.queue().contains(b));
}

TEST_F(BackfillTest, HugeRequestHoldWindowSaturates) {
  // X and Y (huge requests, so no release before kForever) leave nodes 1
  // and 3 free: two nodes, but not two consecutive ones.
  const JobId x = cluster_.jobs.add(spec_of(0, 100, kHugeReqTime, 48, 48));
  const JobId y = cluster_.jobs.add(spec_of(0, 100, kHugeReqTime, 48, 48));
  cluster_.start_static(x, {0}, 0);
  cluster_.start_static(y, {2}, 0);
  // C wants two contiguous nodes: the counts profile says "now", the pick
  // fails, and the pass holds [5, kForever) for it.
  JobSpec contiguous = spec_of(5, 100, kHugeReqTime, 96, 48);
  contiguous.constraints.contiguous = true;
  const JobId c = cluster_.jobs.add(contiguous);
  sched_.on_submit(c);
  const JobId d = submit(96, 50, 50, 5);
  executor_.now = 5;
  sched_.schedule_pass(5);
  // The hold keeps D off the two free nodes.
  EXPECT_TRUE(executor_.static_starts.empty());
  EXPECT_TRUE(sched_.queue().contains(c));
  EXPECT_NE(cluster_.jobs.at(d).state, JobState::Running);
}

TEST_F(BackfillTest, HugeRequestReservationWindowSaturates) {
  const JobId x = submit(96, 100, 100);
  sched_.schedule_pass(0);
  ASSERT_EQ(executor_.static_starts, (std::vector<JobId>{x}));
  // A (all four nodes, huge request) is reserved from X's release at 100
  // to kForever; B (two nodes, 200 s) would overlap that reservation.
  const JobId a = submit(192, 100, kHugeReqTime, 5);
  const JobId b = submit(96, 200, 200, 5);
  executor_.now = 5;
  sched_.schedule_pass(5);
  EXPECT_EQ(executor_.static_starts, (std::vector<JobId>{x}));
  EXPECT_TRUE(sched_.queue().contains(a));
  EXPECT_NE(cluster_.jobs.at(b).state, JobState::Running);
}

// The cluster index is a precondition of every pass, not an optional
// accelerator: a scheduler nobody attached one to refuses to run.
TEST_F(BackfillTest, PassWithoutClusterIndexThrows) {
  BackfillScheduler unwired(cluster_.machine, cluster_.jobs, executor_, SchedConfig{});
  const JobId a = cluster_.jobs.add(spec_of(0, 100, 100, 48, 48));
  unwired.on_submit(a);
  EXPECT_THROW(unwired.schedule_pass(0), std::logic_error);
  EXPECT_TRUE(executor_.static_starts.empty());
}


// ---------------------------------------------------------------------------
// Estimate memo: a pass over an unchanged base takes the previous pass's
// earliest-start answers for the unchanged queue prefix. Every pass below is
// checked against a scheduler that sees the same cluster for the first time.
// ---------------------------------------------------------------------------

/// Backfill whose policy hook records every (job, estimate) it is offered
/// and, for the job named by `shrink_start`, starts it shrunk onto one node
/// free over its whole window — a stand-in for a malleable start that goes
/// through the executor and keeps the pass profile consistent, as the hook
/// requires.
class ProbingBackfill final : public BackfillScheduler {
 public:
  using BackfillScheduler::BackfillScheduler;

  std::vector<std::pair<JobId, SimTime>> offered;
  JobId shrink_start = kInvalidJob;

 protected:
  bool try_malleable(SimTime now, Job& job, SimTime est_start,
                     ReservationProfile& profile) override {
    offered.emplace_back(job.spec.id, est_start);
    if (job.spec.id != shrink_start) return false;
    const SimTime planned = effective_req_time(job.spec);
    if (profile.min_available(now, planned) < 1) return false;
    const auto nodes = find_free_nodes(1, job.spec.constraints);
    if (!nodes) return false;
    reserve_window(now, ReservationProfile::window_end(now, planned), 1,
                   /*occupancy_backed=*/true);
    executor_.start_static(job.spec.id, *nodes);
    on_job_started(job.spec.id);
    return true;
  }
};

/// A cluster and the ProbingBackfill scheduling it.
struct MemoWorld {
  MemoWorld(const MachineConfig& machine_config, const SchedConfig& sched_config)
      : machine(machine_config),
        config(sched_config),
        cluster(machine),
        executor(cluster),
        sched(cluster.machine, cluster.jobs, executor, config) {
    sched.set_cluster_index(&cluster.index);
  }

  /// A job running on nodes [first, first + count) from t=0 until `until`.
  JobId run(int first, int count, SimTime until) {
    const JobId id = cluster.jobs.add(spec_of(0, until, until, count * 48, 48));
    std::vector<int> nodes;
    for (int n = first; n < first + count; ++n) nodes.push_back(n);
    cluster.start_static(id, nodes, 0);
    return id;
  }

  /// A waiting job of `nodes` whole nodes, requesting `planned` seconds.
  JobId queue(int nodes, SimTime planned, SimTime submit_time = 0, int min_memory_gb = 0) {
    JobSpec spec = spec_of(submit_time, planned, planned, nodes * 48, 48);
    spec.constraints.min_memory_gb = min_memory_gb;
    const JobId id = cluster.jobs.add(spec);
    sched.on_submit(id);
    return id;
  }

  void finish(JobId id, SimTime now) {
    cluster.finish(id, now);
    sched.on_finish(id);
  }

  const MachineConfig machine;
  const SchedConfig config;
  TestCluster cluster;
  RecordingExecutor executor;
  ProbingBackfill sched;
};

/// The cluster `world` holds, seen by a scheduler that never ran a pass:
/// the same jobs (so the same ids), the running ones on the same nodes
/// since the same start times, the waiting ones submitted anew.
std::unique_ptr<MemoWorld> fresh_copy(const MemoWorld& world) {
  auto copy = std::make_unique<MemoWorld>(world.machine, world.config);
  copy->sched.shrink_start = world.sched.shrink_start;
  for (JobId id = 0; id < world.cluster.jobs.size(); ++id) {
    const Job& job = world.cluster.jobs.at(id);
    copy->cluster.jobs.add(job.spec);
    if (job.state == JobState::Running) {
      std::vector<int> nodes;
      for (const NodeShare& share : job.shares) nodes.push_back(share.node);
      copy->cluster.start_static(id, nodes, job.start_time);
    } else if (world.sched.queue().contains(id)) {
      copy->sched.on_submit(id);
    } else {
      copy->cluster.jobs.at(id).state = job.state;
    }
  }
  return copy;
}

/// Runs `world`'s pass at `now` and a fresh scheduler's first pass at the
/// same `now` on a copy of the cluster as it stood before; both must offer
/// the same estimates, start the same jobs and end with the same profile
/// breakpoints. Returns the memo hits `world`'s pass took.
std::uint64_t pass_and_compare(MemoWorld& world, SimTime now) {
  const auto fresh = fresh_copy(world);
  const std::uint64_t hits_before = world.sched.est_memo_hits();
  const auto starts_before = static_cast<std::ptrdiff_t>(world.executor.static_starts.size());
  world.sched.offered.clear();
  world.executor.now = now;
  world.sched.schedule_pass(now);
  fresh->executor.now = now;
  fresh->sched.schedule_pass(now);
  EXPECT_EQ(std::vector<JobId>(world.executor.static_starts.begin() + starts_before,
                               world.executor.static_starts.end()),
            fresh->executor.static_starts)
      << "at t=" << now;
  EXPECT_EQ(world.sched.offered, fresh->sched.offered) << "at t=" << now;
  EXPECT_EQ(world.sched.profile_breakpoints(), fresh->sched.profile_breakpoints())
      << "at t=" << now;
  EXPECT_EQ(world.sched.queue().ordered_ids(), fresh->sched.queue().ordered_ids())
      << "at t=" << now;
  EXPECT_EQ(fresh->sched.est_memo_hits(), 0u);
  return world.sched.est_memo_hits() - hits_before;
}

MachineConfig eight_nodes() {
  MachineConfig config;
  config.nodes = 8;
  config.node = NodeConfig{2, 24};
  return config;
}

TEST(EstMemoTest, SubmitAndTickPassesReuseEveryRememberedEstimate) {
  MemoWorld world(eight_nodes(), SchedConfig{});
  world.run(0, 4, 1000);
  world.run(4, 4, 2000);
  const JobId q1 = world.queue(8, 500);
  const JobId q2 = world.queue(4, 300);
  const JobId q3 = world.queue(2, 100);
  EXPECT_EQ(pass_and_compare(world, 1), 0u);
  EXPECT_EQ(world.sched.offered, (std::vector<std::pair<JobId, SimTime>>{
                                     {q1, 2000}, {q2, 1000}, {q3, 1300}}));
  // A submit at the tail: the three remembered jobs hit, the new one probes.
  const JobId q4 = world.queue(8, 100, 5);
  EXPECT_EQ(pass_and_compare(world, 5), 3u);
  EXPECT_EQ(world.sched.offered.back(), (std::pair<JobId, SimTime>{q4, 2500}));
  // Ticks over the unchanged cluster: every waiting job hits.
  EXPECT_EQ(pass_and_compare(world, 35), 4u);
  EXPECT_EQ(pass_and_compare(world, 65), 4u);
  EXPECT_EQ(world.sched.est_memo_hits(), 11u);
  EXPECT_EQ(world.executor.static_starts, std::vector<JobId>{});
}

TEST(EstMemoTest, PassesAfterAFinishOrAStaticStartRecordNoHits) {
  MemoWorld world(eight_nodes(), SchedConfig{});
  const JobId r1 = world.run(0, 4, 1000);
  world.run(4, 4, 2000);
  world.queue(8, 500);
  const JobId q2 = world.queue(4, 300);
  world.queue(2, 100);
  EXPECT_EQ(pass_and_compare(world, 1), 0u);
  EXPECT_EQ(pass_and_compare(world, 31), 3u);
  // R1 ends early: the base is rebuilt and nothing is remembered over it.
  // The same pass starts Q2 on the released nodes.
  world.finish(r1, 900);
  EXPECT_EQ(pass_and_compare(world, 900), 0u);
  EXPECT_EQ(world.executor.static_starts, std::vector<JobId>{q2});
  // Q2's start changed the cluster: the next pass probes afresh too.
  EXPECT_EQ(pass_and_compare(world, 930), 0u);
  // Then the cluster holds still again and the two waiting jobs hit.
  EXPECT_EQ(pass_and_compare(world, 960), 2u);
}

/// The malleable-start shape: X asks for the whole machine but can also
/// start shrunk on one node, and Y waits behind it. A second pass at
/// `second` (another arrival, Z) reuses the base built at t=1 and starts X
/// shrunk.
void malleable_start_reuse_pass(MemoWorld& world, SimTime second) {
  world.run(0, 6, 1000);
  JobSpec shrinkable = spec_of(0, 500, 500, 48, 48);
  shrinkable.req_nodes = 8;
  const JobId x = world.cluster.jobs.add(shrinkable);
  world.sched.on_submit(x);
  const JobId y = world.queue(2, 1200);
  EXPECT_EQ(pass_and_compare(world, 1), 0u);
  // Y cannot run before X's whole-machine reservation ends.
  EXPECT_EQ(world.sched.offered, (std::vector<std::pair<JobId, SimTime>>{
                                     {x, 1000}, {y, 1500}}));
  // X's remembered estimate is taken, but Y's is not — with X gone from
  // the queue, Y can start once X's single node frees 500 s later.
  world.sched.shrink_start = x;
  const JobId z = world.queue(8, 100, second);
  EXPECT_EQ(pass_and_compare(world, second), 1u) << "second pass at t=" << second;
  EXPECT_EQ(world.sched.profile_reuses(), 1u);
  EXPECT_EQ(world.executor.static_starts, std::vector<JobId>{x});
  EXPECT_EQ(world.sched.offered, (std::vector<std::pair<JobId, SimTime>>{
                                     {x, 1000}, {y, second + 500}, {z, second + 1700}}));
  // The reused base's origin moves up to the pass time, so X's window
  // starting there splits no extra step: like the fresh scheduler's, the
  // profile holds the base's origin and release plus the ends of X, Y and Z.
  EXPECT_EQ(world.sched.profile_breakpoints(), 5u) << "second pass at t=" << second;
}

TEST(EstMemoTest, MalleableStartEndsReuseForTheRestOfThePass) {
  MemoWorld world(eight_nodes(), SchedConfig{});
  malleable_start_reuse_pass(world, 1);
  // X's start changed the cluster: nothing is remembered over the new base.
  EXPECT_EQ(pass_and_compare(world, 2), 0u);
  EXPECT_EQ(pass_and_compare(world, 32), 2u);
}

TEST(EstMemoTest, ReusedBaseStartsAtThePassTimeLikeAFreshOne) {
  // The reuse pass comes one second after the pass that built the base.
  MemoWorld world(eight_nodes(), SchedConfig{});
  malleable_start_reuse_pass(world, 2);
}

TEST(EstMemoTest, SmallerArrivalStopsReuseFromItsPosition) {
  SchedConfig config;
  config.priority.kind = PriorityKind::SmallestFirst;
  MemoWorld world(eight_nodes(), config);
  world.run(0, 8, 1000);
  const JobId q1 = world.queue(8, 500);
  const JobId q2 = world.queue(4, 300);
  const JobId q3 = world.queue(2, 100);
  EXPECT_EQ(pass_and_compare(world, 1), 0u);
  EXPECT_EQ(world.sched.offered, (std::vector<std::pair<JobId, SimTime>>{
                                     {q3, 1000}, {q2, 1000}, {q1, 1300}}));
  // A 3-node arrival sorts between Q3 and Q2: only Q3 keeps its answer.
  const JobId q4 = world.queue(3, 200, 10);
  EXPECT_EQ(pass_and_compare(world, 10), 1u);
  EXPECT_EQ(world.sched.offered, (std::vector<std::pair<JobId, SimTime>>{
                                     {q3, 1000}, {q4, 1000}, {q2, 1100}, {q1, 1400}}));
  EXPECT_EQ(pass_and_compare(world, 40), 4u);
}

TEST(EstMemoTest, LargerArrivalAtTheHeadStopsAllReuse) {
  SchedConfig config;
  config.priority.kind = PriorityKind::Multifactor;
  config.priority.age_weight = 0.0;
  config.priority.size_weight = 1000.0;
  config.priority.machine_nodes = 8;
  MemoWorld world(eight_nodes(), config);
  world.run(0, 8, 1000);
  world.queue(2, 100);
  world.queue(4, 300);
  world.queue(6, 500);
  EXPECT_EQ(pass_and_compare(world, 1), 0u);
  EXPECT_EQ(pass_and_compare(world, 31), 3u);
  // An 8-node arrival heads the queue: every position now holds a
  // different job (or the same job over a different profile).
  const JobId head = world.queue(8, 200, 40);
  EXPECT_EQ(pass_and_compare(world, 40), 0u);
  EXPECT_EQ(world.sched.offered.front(), (std::pair<JobId, SimTime>{head, 1000}));
  EXPECT_EQ(pass_and_compare(world, 70), 4u);
}

TEST(EstMemoTest, ConstrainedJobsReuseBothAnswers) {
  MachineConfig machine = eight_nodes();
  NodeAttributes highmem;
  highmem.memory_gb = 384;
  machine.attribute_overrides.emplace_back(6, highmem);
  machine.attribute_overrides.emplace_back(7, highmem);
  MemoWorld world(machine, SchedConfig{});
  world.run(0, 4, 1000);
  world.run(4, 2, 1500);
  world.run(6, 2, 2000);  // the two highmem nodes
  // C needs highmem: the shared profile says 1000, its class layer 2000.
  const JobId c = world.queue(2, 100, 0, /*min_memory_gb=*/128);
  const JobId u = world.queue(4, 600);
  const JobId c2 = world.queue(1, 50, 0, /*min_memory_gb=*/128);
  EXPECT_EQ(pass_and_compare(world, 1), 0u);
  EXPECT_EQ(world.sched.offered, (std::vector<std::pair<JobId, SimTime>>{
                                     {c, 2000}, {u, 1000}, {c2, 2100}}));
  EXPECT_EQ(pass_and_compare(world, 31), 3u);
  const JobId u2 = world.queue(2, 100, 40);
  EXPECT_EQ(pass_and_compare(world, 40), 3u);
  EXPECT_EQ(world.sched.offered.back(), (std::pair<JobId, SimTime>{u2, 1500}));
  EXPECT_EQ(pass_and_compare(world, 70), 4u);
}

TEST(EstMemoTest, AnswerNoLongerInTheFutureIsProbedAgain) {
  MachineConfig machine = eight_nodes();
  NodeAttributes highmem;
  highmem.memory_gb = 384;
  machine.attribute_overrides.emplace_back(6, highmem);
  machine.attribute_overrides.emplace_back(7, highmem);
  MemoWorld world(machine, SchedConfig{});
  world.run(6, 2, 1000);  // the two highmem nodes
  // C needs highmem: the shared profile answers `now` (six nodes of the
  // wrong class are free), its class layer 1000.
  const JobId c = world.queue(1, 100, 0, /*min_memory_gb=*/128);
  const JobId u = world.queue(8, 100);
  EXPECT_EQ(pass_and_compare(world, 1), 0u);
  EXPECT_EQ(world.sched.offered, (std::vector<std::pair<JobId, SimTime>>{
                                     {c, 1000}, {u, 1100}}));
  // C's remembered shared answer (1) is not in the future at t=31: it is
  // probed again, answers 31 this time, and reuse ends there.
  EXPECT_EQ(pass_and_compare(world, 31), 0u);
  EXPECT_EQ(world.sched.offered, (std::vector<std::pair<JobId, SimTime>>{
                                     {c, 1000}, {u, 1100}}));
}

TEST(EstMemoTest, SameShapedArrivalWithOtherConstraintsTakesNoAnswer) {
  MachineConfig machine = eight_nodes();
  NodeAttributes highmem;
  highmem.memory_gb = 384;
  NodeAttributes infiniband;
  infiniband.network = "ib";
  machine.attribute_overrides.emplace_back(4, highmem);
  machine.attribute_overrides.emplace_back(5, highmem);
  machine.attribute_overrides.emplace_back(6, infiniband);
  machine.attribute_overrides.emplace_back(7, infiniband);
  MemoWorld world(machine, SchedConfig{});
  world.run(0, 4, 500);
  world.run(4, 2, 1000);  // highmem
  world.run(6, 2, 2000);  // infiniband
  const JobId a = world.queue(2, 100, 10, /*min_memory_gb=*/128);
  EXPECT_EQ(pass_and_compare(world, 20), 0u);
  EXPECT_EQ(world.sched.offered, (std::vector<std::pair<JobId, SimTime>>{{a, 1000}}));
  // B has A's shape but needs the infiniband nodes; its earlier submit
  // stamp sorts it ahead of A, into the position A's answers belong to.
  JobSpec ib = spec_of(5, 100, 100, 96, 48);
  ib.constraints.required_network = "ib";
  const JobId b = world.cluster.jobs.add(ib);
  world.sched.on_submit(b);
  EXPECT_EQ(pass_and_compare(world, 30), 0u);
  EXPECT_EQ(world.sched.offered, (std::vector<std::pair<JobId, SimTime>>{
                                     {b, 2000}, {a, 1000}}));
  EXPECT_EQ(pass_and_compare(world, 60), 2u);
}

TEST(EstMemoTest, HoldEndsTheMemo) {
  // 4 nodes: X on node 0 and Y on node 2 run long, Z on node 1 ends at 200.
  MachineConfig machine;
  machine.nodes = 4;
  machine.node = NodeConfig{2, 24};
  MemoWorld world(machine, SchedConfig{});
  world.run(0, 1, 1000);
  const JobId z = world.run(1, 1, 200);
  world.run(2, 1, 1000);
  // H wants two consecutive nodes; J one node for long.
  JobSpec contiguous = spec_of(0, 100, 100, 96, 48);
  contiguous.constraints.contiguous = true;
  const JobId h = world.cluster.jobs.add(contiguous);
  world.sched.on_submit(h);
  const JobId j = world.queue(1, 1000);
  EXPECT_EQ(pass_and_compare(world, 1), 0u);
  EXPECT_EQ(world.sched.offered, (std::vector<std::pair<JobId, SimTime>>{
                                     {h, 200}, {j, 300}}));
  // Z ends early: nodes 1 and 3 are free but not adjacent, so H is held at
  // `now` instead — the memo must not outlive that hold.
  world.finish(z, 150);
  EXPECT_EQ(pass_and_compare(world, 150), 0u);
  EXPECT_EQ(world.sched.offered, (std::vector<std::pair<JobId, SimTime>>{{j, 250}}));
  // Another arrival at the same instant, over the same base: H is held
  // again and nothing is taken from the memo.
  const JobId k = world.queue(4, 10, 150);
  EXPECT_EQ(pass_and_compare(world, 150), 0u);
  EXPECT_EQ(world.sched.offered, (std::vector<std::pair<JobId, SimTime>>{
                                     {j, 250}, {k, 1250}}));
  EXPECT_TRUE(world.executor.static_starts.empty());
}

}  // namespace
}  // namespace sdsched
