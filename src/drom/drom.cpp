#include "drom/drom.h"

#include <algorithm>
#include <cassert>

namespace sdsched {

namespace {

/// `job`'s process on `node` in the per-node `slots`, or nullptr.
template <typename Slots>
auto find(Slots& slots, JobId job, int node) -> decltype(&slots[0][0]) {
  if (node < 0 || static_cast<std::size_t>(node) >= slots.size()) return nullptr;
  for (auto& p : slots[node]) {
    if (p.job == job) return &p;
  }
  return nullptr;
}

}  // namespace

void DromRegistry::attach(JobId job, int node, const CpuMask& mask) {
  assert(node >= 0);
  if (static_cast<std::size_t>(node) >= slots_.size()) slots_.resize(node + 1);
  auto& slots = slots_[node];
  const auto at = std::find_if(slots.begin(), slots.end(),
                               [job](const Process& p) { return p.job >= job; });
  if (at != slots.end() && at->job == job) {
    at->mask = mask;
  } else {
    slots.insert(at, Process{job, mask});
    ++processes_;
  }
}

void DromRegistry::detach(JobId job, int node) {
  if (node < 0 || static_cast<std::size_t>(node) >= slots_.size()) return;
  processes_ -= std::erase_if(slots_[node], [job](const Process& p) { return p.job == job; });
}

bool DromRegistry::set_mask(JobId job, int node, const CpuMask& mask) {
  Process* p = find(slots_, job, node);
  if (p == nullptr) return false;
  if (mask.total() < p->mask.total()) ++shrink_ops_;
  if (mask.total() > p->mask.total()) ++expand_ops_;
  p->mask = mask;
  return true;
}

std::optional<CpuMask> DromRegistry::mask(JobId job, int node) const {
  const Process* p = find(slots_, job, node);
  if (p == nullptr) return std::nullopt;
  return p->mask;
}

std::vector<JobId> DromRegistry::jobs_on_node(int node) const {
  std::vector<JobId> jobs;
  if (node >= 0 && static_cast<std::size_t>(node) < slots_.size()) {
    jobs.reserve(slots_[node].size());
    for (const Process& p : slots_[node]) jobs.push_back(p.job);
  }
  return jobs;
}

}  // namespace sdsched
