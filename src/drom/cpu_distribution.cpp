#include "drom/cpu_distribution.h"

#include <algorithm>
#include <array>
#include <cassert>

namespace sdsched {

void distribute_cpu(const NodeConfig& node, std::span<CpuDemand> demands,
                    std::span<CpuMask> masks) {
  assert(node.sockets >= 1 && node.sockets <= kMaxSockets && masks.size() == demands.size());
  int total = 0;
  for (const auto& d : demands) total += d.cpus;
  assert(total <= node.sockets * node.cores_per_socket &&
         "cpu distribution overcommits the node");
  (void)total;

  // Largest job first so big holdings grab whole sockets and small ones
  // fill the gaps; ties broken by job id for determinism.
  std::sort(demands.begin(), demands.end(), [](const CpuDemand& a, const CpuDemand& b) {
    if (a.cpus != b.cpus) return a.cpus > b.cpus;
    return a.job < b.job;
  });

  std::array<int, kMaxSockets> socket_free{};
  std::fill_n(socket_free.begin(), node.sockets, node.cores_per_socket);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    CpuMask& mask = masks[i] = CpuMask{};
    int remaining = demands[i].cpus;
    // Pass 1: a socket that fits the job entirely (emptiest such socket —
    // prefer isolation).
    int chosen = -1;
    for (int s = 0; s < node.sockets; ++s) {
      if (socket_free[s] >= remaining &&
          (chosen == -1 || socket_free[s] > socket_free[chosen])) {
        chosen = s;
      }
    }
    if (chosen >= 0) {
      mask.cores_per_socket[chosen] = remaining;
      socket_free[chosen] -= remaining;
      remaining = 0;
    } else {
      // Pass 2: spill over sockets, fullest-fit first to keep fragments low.
      for (int s = 0; s < node.sockets && remaining > 0; ++s) {
        const int take = std::min(socket_free[s], remaining);
        mask.cores_per_socket[s] = take;
        socket_free[s] -= take;
        remaining -= take;
      }
    }
    assert(remaining == 0);
  }
}

}  // namespace sdsched
