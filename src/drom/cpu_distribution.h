// Socket-aware core distribution (paper §3.3, Listing 3 step 1).
//
// Given the jobs on a node and the core count each should hold, assign
// cores to sockets so that jobs land in separate sockets whenever they fit
// ("best overall performance is obtained when the applications run isolated
// in separate sockets"), spilling over only when they must.
#pragma once

#include <span>

#include "cluster/node.h"
#include "drom/drom.h"

namespace sdsched {

struct CpuDemand {
  JobId job = kInvalidJob;
  int cpus = 0;
};

/// Distribute the demanded cores over the node's sockets. Total demand must
/// not exceed the node's capacity. Sorts `demands` into placement order —
/// largest first, ties by job id — and writes the mask of demands[i] (as
/// sorted) to masks[i], which must be as long; each job prefers the emptiest
/// socket and spills to the next when a socket fills. Deterministic and
/// allocation-free.
void distribute_cpu(const NodeConfig& node, std::span<CpuDemand> demands,
                    std::span<CpuMask> masks);

}  // namespace sdsched
