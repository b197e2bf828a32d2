#include "drom/cpu_distribution.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace sdsched {
namespace {

constexpr NodeConfig kMn4{2, 24};

struct CpuPlacement {
  JobId job = kInvalidJob;
  CpuMask mask;
};

/// distribute_cpu with one result per input demand, in input order (jobs
/// must be distinct).
std::vector<CpuPlacement> place(const NodeConfig& node, const std::vector<CpuDemand>& demands) {
  std::vector<CpuDemand> sorted = demands;
  std::vector<CpuMask> masks(sorted.size());
  distribute_cpu(node, sorted, masks);
  std::vector<CpuPlacement> placements;
  for (const CpuDemand& d : demands) {
    const auto k = std::find_if(sorted.begin(), sorted.end(),
                                [&d](const CpuDemand& s) { return s.job == d.job; });
    placements.push_back(CpuPlacement{d.job, masks[k - sorted.begin()]});
  }
  return placements;
}

/// True when no socket hosts more than one job (perfect isolation).
bool socket_isolated(const NodeConfig& node, const std::vector<CpuPlacement>& placements) {
  for (int s = 0; s < node.sockets; ++s) {
    int users = 0;
    for (const auto& p : placements) users += p.mask.cores_per_socket[s] > 0 ? 1 : 0;
    if (users > 1) return false;
  }
  return true;
}

TEST(CpuDistribution, TwoJobsGetSeparateSockets) {
  // The paper's headline case: SharingFactor 0.5 on a two-socket node puts
  // owner and guest in different sockets.
  const std::vector<CpuDemand> demands{{1, 24}, {2, 24}};
  const auto placements = place(kMn4, demands);
  ASSERT_EQ(placements.size(), 2u);
  EXPECT_TRUE(socket_isolated(kMn4, placements));
  EXPECT_EQ(placements[0].mask.total(), 24);
  EXPECT_EQ(placements[1].mask.total(), 24);
}

TEST(CpuDistribution, SingleJobFitsOneSocketWhenPossible) {
  const std::vector<CpuDemand> demands{{1, 20}};
  const auto placements = place(kMn4, demands);
  int sockets_used = 0;
  for (const int c : placements[0].mask.cores_per_socket) {
    if (c > 0) ++sockets_used;
  }
  EXPECT_EQ(sockets_used, 1);
}

TEST(CpuDistribution, LargeJobSpillsOver) {
  const std::vector<CpuDemand> demands{{1, 30}};
  const auto placements = place(kMn4, demands);
  EXPECT_EQ(placements[0].mask.total(), 30);
  EXPECT_EQ(placements[0].mask.cores_per_socket[0], 24);
  EXPECT_EQ(placements[0].mask.cores_per_socket[1], 6);
}

TEST(CpuDistribution, UnevenPairIsolatesWhenFits) {
  const std::vector<CpuDemand> demands{{1, 20}, {2, 10}};
  const auto placements = place(kMn4, demands);
  EXPECT_TRUE(socket_isolated(kMn4, placements));
}

TEST(CpuDistribution, FullNodeSingleOwner) {
  const std::vector<CpuDemand> demands{{7, 48}};
  const auto placements = place(kMn4, demands);
  EXPECT_EQ(placements[0].mask.total(), 48);
}

TEST(CpuDistribution, ThreeJobsCannotAllIsolateButFit) {
  const std::vector<CpuDemand> demands{{1, 16}, {2, 16}, {3, 16}};
  const auto placements = place(kMn4, demands);
  int total = 0;
  for (const auto& p : placements) total += p.mask.total();
  EXPECT_EQ(total, 48);
  // Per-socket capacity respected.
  std::vector<int> socket_use(kMn4.sockets, 0);
  for (const auto& p : placements) {
    for (int s = 0; s < kMn4.sockets; ++s) socket_use[s] += p.mask.cores_per_socket[s];
  }
  for (const int used : socket_use) EXPECT_LE(used, kMn4.cores_per_socket);
}

TEST(CpuDistribution, DeterministicOrderIndependentOfInput) {
  const std::vector<CpuDemand> a{{1, 24}, {2, 24}};
  const std::vector<CpuDemand> b{{2, 24}, {1, 24}};
  const auto pa = place(kMn4, a);
  const auto pb = place(kMn4, b);
  // Same job gets the same mask regardless of input order.
  for (const auto& p : pa) {
    for (const auto& q : pb) {
      if (p.job == q.job) {
        EXPECT_EQ(p.mask.cores_per_socket, q.mask.cores_per_socket);
      }
    }
  }
}

TEST(CpuDistribution, ResultsAlignWithInputOrder) {
  const std::vector<CpuDemand> demands{{9, 8}, {4, 40}};
  const auto placements = place(kMn4, demands);
  EXPECT_EQ(placements[0].job, 9u);
  EXPECT_EQ(placements[1].job, 4u);
}

}  // namespace
}  // namespace sdsched
