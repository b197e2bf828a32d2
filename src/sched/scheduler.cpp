#include "sched/scheduler.h"

#include <stdexcept>
#include <string>

#include "cluster/cluster_state_index.h"

namespace sdsched {

void Scheduler::require_cluster_index() const {
  if (cluster_index_ == nullptr) {
    throw std::logic_error(std::string("scheduler '") + name() +
                           "': scheduling pass without a cluster index "
                           "(attach one with set_cluster_index)");
  }
}

std::optional<std::vector<int>> Scheduler::find_free_nodes(
    int count, const JobConstraints& constraints) const {
  return cluster_index_->find_free_nodes(count, &constraints);
}

}  // namespace sdsched
