#include "drom/drom.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace sdsched {
namespace {

TEST(Drom, AttachAndMaskLookup) {
  DromRegistry drom;
  drom.attach(1, 0, CpuMask{{24, 0}});
  EXPECT_TRUE(drom.attached(1, 0));
  EXPECT_FALSE(drom.attached(1, 1));
  const auto mask = drom.mask(1, 0);
  ASSERT_TRUE(mask.has_value());
  EXPECT_EQ(mask->total(), 24);
}

TEST(Drom, SetMaskCountsTransitions) {
  DromRegistry drom;
  drom.attach(1, 0, CpuMask{{48, 0}});
  EXPECT_EQ(drom.shrink_ops(), 0u);
  EXPECT_TRUE(drom.set_mask(1, 0, CpuMask{{24, 0}}));
  EXPECT_EQ(drom.shrink_ops(), 1u);
  EXPECT_EQ(drom.expand_ops(), 0u);
  EXPECT_TRUE(drom.set_mask(1, 0, CpuMask{{24, 24}}));
  EXPECT_EQ(drom.expand_ops(), 1u);
  // Same-width mask change (migration) counts as neither.
  EXPECT_TRUE(drom.set_mask(1, 0, CpuMask{{48, 0}}));
  EXPECT_EQ(drom.shrink_ops(), 1u);
  EXPECT_EQ(drom.expand_ops(), 1u);
}

TEST(Drom, SetMaskOnUnattachedFails) {
  DromRegistry drom;
  EXPECT_FALSE(drom.set_mask(9, 0, CpuMask{{1}}));
}

TEST(Drom, DetachRemovesProcess) {
  DromRegistry drom;
  drom.attach(1, 0, CpuMask{{8}});
  drom.attach(1, 1, CpuMask{{8}});
  drom.detach(1, 0);
  EXPECT_FALSE(drom.attached(1, 0));
  EXPECT_TRUE(drom.attached(1, 1));
  drom.detach(1, 1);
  EXPECT_EQ(drom.process_count(), 0u);
}

TEST(Drom, JobsOnNodeSortedAndScoped) {
  DromRegistry drom;
  drom.attach(5, 0, CpuMask{{8}});
  drom.attach(2, 0, CpuMask{{8}});
  drom.attach(3, 1, CpuMask{{8}});
  EXPECT_EQ(drom.jobs_on_node(0), (std::vector<JobId>{2, 5}));
  EXPECT_EQ(drom.jobs_on_node(1), (std::vector<JobId>{3}));
  EXPECT_TRUE(drom.jobs_on_node(2).empty());
}

TEST(Drom, ReattachReplacesTheMask) {
  DromRegistry drom;
  drom.attach(4, 3, CpuMask{{8, 0}});
  drom.attach(4, 3, CpuMask{{8, 8}});
  EXPECT_EQ(drom.process_count(), 1u);
  EXPECT_EQ(drom.mask(4, 3)->total(), 16);
  EXPECT_EQ(drom.expand_ops(), 0u);
}

/// A registry keyed by (job, node) in one ordered map: simple enough to be
/// obviously right, so the per-node slots are checked against it.
struct MapRegistry {
  std::map<std::pair<JobId, int>, CpuMask> masks;
  std::uint64_t shrink_ops = 0;
  std::uint64_t expand_ops = 0;

  bool set_mask(JobId job, int node, const CpuMask& mask) {
    const auto it = masks.find({job, node});
    if (it == masks.end()) return false;
    if (mask.total() < it->second.total()) ++shrink_ops;
    if (mask.total() > it->second.total()) ++expand_ops;
    it->second = mask;
    return true;
  }
  void detach_all(JobId job) {
    std::erase_if(masks, [job](const auto& entry) { return entry.first.first == job; });
  }
  std::vector<JobId> jobs_on_node(int node) const {
    std::vector<JobId> jobs;
    for (const auto& [key, mask] : masks) {
      if (key.second == node) jobs.push_back(key.first);
    }
    std::sort(jobs.begin(), jobs.end());
    return jobs;
  }
};

TEST(Drom, RandomChurnMatchesMapReference) {
  constexpr int kNodes = 6;
  constexpr JobId kJobs = 7;
  std::mt19937 rng(16);
  const auto pick = [&rng](int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng); };
  DromRegistry drom;
  MapRegistry ref;
  for (int step = 0; step < 5000; ++step) {
    const auto job = static_cast<JobId>(pick(kJobs));
    const int node = pick(kNodes);
    CpuMask mask;
    for (int s = 0; s < 2 + pick(3); ++s) mask.cores_per_socket[s] = pick(25);
    switch (pick(10)) {
      case 0: case 1: case 2:
        drom.attach(job, node, mask);
        ref.masks[{job, node}] = mask;
        break;
      case 3: case 4: case 5: case 6:
        ASSERT_EQ(drom.set_mask(job, node, mask), ref.set_mask(job, node, mask));
        break;
      case 7: case 8:
        drom.detach(job, node);
        ref.masks.erase({job, node});
        break;
      default:  // the job ends: detach it from every node
        for (int n = 0; n < kNodes; ++n) drom.detach(job, n);
        ref.detach_all(job);
        break;
    }
    ASSERT_EQ(drom.process_count(), ref.masks.size()) << "after step " << step;
    ASSERT_EQ(drom.shrink_ops(), ref.shrink_ops);
    ASSERT_EQ(drom.expand_ops(), ref.expand_ops);
    // One node past the last ever attached reads as empty.
    for (int n = 0; n <= kNodes; ++n) {
      ASSERT_EQ(drom.jobs_on_node(n), ref.jobs_on_node(n)) << "node " << n;
      for (JobId j = 0; j < kJobs; ++j) {
        const auto it = ref.masks.find({j, n});
        ASSERT_EQ(drom.attached(j, n), it != ref.masks.end());
        const auto got = drom.mask(j, n);
        ASSERT_EQ(got.has_value(), it != ref.masks.end());
        if (got) {
          ASSERT_EQ(got->cores_per_socket, it->second.cores_per_socket);
        }
      }
    }
  }
}

TEST(Drom, CpuMaskTotal) {
  EXPECT_EQ((CpuMask{{12, 24, 0}}).total(), 36);
  EXPECT_EQ((CpuMask{}).total(), 0);
}

}  // namespace
}  // namespace sdsched
