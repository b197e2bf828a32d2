// DROM (Dynamic Resource Ownership Management) registry — the simulator's
// analogue of the DROM API the paper integrates into slurmd/slurmstepd
// (§2.1, §3.3).
//
// Real DROM tracks attached processes and their CPU masks and lets the node
// manager change them at malleability points. Here a mask is modelled as a
// per-socket core count held inline; the registry keeps one slot vector per
// node of the processes attached there (ascending job id, a few at most),
// grown on attach and never shrunk, so steady-state updates allocate nothing.
// It counts shrink/expand transitions so tests and the overhead model can
// observe them.
#pragma once

#include <array>
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include "cluster/node.h"
#include "sim/event.h"

namespace sdsched {

/// A CPU mask abstracted as cores held per socket (0 past the node's sockets).
struct CpuMask {
  std::array<int, kMaxSockets> cores_per_socket{};

  [[nodiscard]] int total() const noexcept {
    return std::accumulate(cores_per_socket.begin(), cores_per_socket.end(), 0);
  }
};

class DromRegistry {
 public:
  /// Attach a process of `job` on `node` with an initial mask (DROM_run).
  /// Re-attaching replaces the mask without counting a transition.
  void attach(JobId job, int node, const CpuMask& mask);

  /// Detach on job end (DROM_clean). No-op if absent.
  void detach(JobId job, int node);

  /// Update the mask; the process adapts at its next malleability point.
  /// Returns false if the process is not attached.
  bool set_mask(JobId job, int node, const CpuMask& mask);

  [[nodiscard]] std::optional<CpuMask> mask(JobId job, int node) const;
  [[nodiscard]] bool attached(JobId job, int node) const { return mask(job, node).has_value(); }
  [[nodiscard]] std::size_t process_count() const noexcept { return processes_; }

  /// Jobs attached on a node (deterministic order).
  [[nodiscard]] std::vector<JobId> jobs_on_node(int node) const;

  // Transition counters (for the overhead model and tests).
  [[nodiscard]] std::uint64_t shrink_ops() const noexcept { return shrink_ops_; }
  [[nodiscard]] std::uint64_t expand_ops() const noexcept { return expand_ops_; }

 private:
  struct Process { JobId job; CpuMask mask; };

  std::vector<std::vector<Process>> slots_;  ///< slots_[node], ascending job id
  std::size_t processes_ = 0;
  std::uint64_t shrink_ops_ = 0;
  std::uint64_t expand_ops_ = 0;
};

}  // namespace sdsched
