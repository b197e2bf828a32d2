#include "cluster/machine.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace sdsched {

bool node_satisfies(const NodeAttributes& attributes,
                    const JobConstraints& constraints) noexcept {
  if (!constraints.required_arch.empty() && attributes.arch != constraints.required_arch) {
    return false;
  }
  if (attributes.memory_gb < constraints.min_memory_gb) return false;
  if (!constraints.required_network.empty() &&
      attributes.network != constraints.required_network) {
    return false;
  }
  return true;
}

namespace {

MachineConfig validated(MachineConfig config) {
  const auto require = [](bool ok, const char* field, const char* range, int value) {
    if (!ok) {
      throw std::invalid_argument(std::string("MachineConfig: ") + field + " must be " + range +
                                  ", got " + std::to_string(value));
    }
  };
  static const std::string sockets_range = "in [1, " + std::to_string(kMaxSockets) + "]";
  require(config.nodes >= 1, "nodes", ">= 1", config.nodes);
  require(config.node.sockets >= 1 && config.node.sockets <= kMaxSockets, "node.sockets",
          sockets_range.c_str(), config.node.sockets);
  require(config.node.cores_per_socket >= 1, "node.cores_per_socket", ">= 1",
          config.node.cores_per_socket);
  const std::string ids_range = "a node id in [0, " + std::to_string(config.nodes) + ")";
  for (const auto& entry : config.attribute_overrides) {
    require(entry.first >= 0 && entry.first < config.nodes, "attribute_overrides",
            ids_range.c_str(), entry.first);
  }
  return config;
}

}  // namespace

// An index that subscribes after construction seeds itself from a full scan,
// so the unnotified free-node count seeded below cannot strand a subscriber.
// detlint: mutator-ok(construction precedes any observer attachment)
Machine::Machine(MachineConfig config)
    : config_(validated(std::move(config))), energy_(config_.energy, config_.nodes) {
  // Overrides apply in list order, so the last entry for a node id wins.
  std::vector<const NodeAttributes*> attributes(config_.nodes, &config_.attributes);
  for (const auto& [id, override_attrs] : config_.attribute_overrides) {
    attributes[id] = &override_attrs;
  }
  nodes_.reserve(config_.nodes);
  for (int i = 0; i < config_.nodes; ++i) nodes_.emplace_back(i, config_.node, *attributes[i]);
  free_node_count_ = config_.nodes;
}

std::optional<std::vector<int>> Machine::find_free_nodes(
    int count, const JobConstraints* constraints) const {
  if (count > free_node_count()) return std::nullopt;
  const bool filtered = constraints != nullptr && !constraints->unconstrained();
  std::vector<int> picked;
  for (const Node& node : nodes_) {
    if (node.empty() && (!filtered || node_satisfies(node.attributes(), *constraints))) {
      picked.push_back(node.id());
      if (static_cast<int>(picked.size()) == count) return picked;
    } else if (filtered && constraints->contiguous) {
      picked.clear();  // the run of consecutive eligible ids breaks here
    }
  }
  return std::nullopt;
}

int Machine::eligible_node_count(const JobConstraints& constraints) const {
  if (constraints.unconstrained()) return node_count();
  int eligible = 0;
  for (const auto& node : nodes_) {
    if (node_satisfies(node.attributes(), constraints)) ++eligible;
  }
  return eligible;
}

SimTime Machine::touch(SimTime now) {
  if (now < last_touch_) return last_touch_ - now;
  core_seconds_ += static_cast<double>(busy_cores_) * static_cast<double>(now - last_touch_);
  energy_.observe(now, busy_cores_, occupied_nodes());
  last_touch_ = now;
  return 0;
}

void Machine::commit(SimTime span, int cpu_delta, int node_delta) {
  if (span > 0) {
    core_seconds_ += static_cast<double>(cpu_delta) * static_cast<double>(span);
    energy_.credit(static_cast<double>(cpu_delta) * static_cast<double>(span),
                   static_cast<double>(node_delta) * static_cast<double>(span));
  }
  energy_.observe(last_touch_, busy_cores_, occupied_nodes());
}

// detlint: mutator-ok(notify-path helper; every caller notifies after syncing)
void Machine::sync_free_state(int node_id, bool was_empty) {
  free_node_count_ += static_cast<int>(nodes_[node_id].empty()) - static_cast<int>(was_empty);
}

bool Machine::allocate_exclusive(SimTime now, JobId job, const std::vector<int>& node_ids,
                                 const std::vector<int>& cpus) {
  assert(node_ids.size() == cpus.size());
  for (const int id : node_ids) {
    if (!nodes_.at(id).empty()) return false;
  }
  const SimTime backdated = touch(now);
  int added_cores = 0;
  for (std::size_t i = 0; i < node_ids.size(); ++i) {
    const int id = node_ids[i];
    const int held = std::clamp(cpus[i], 1, nodes_[id].total_cores());
    const bool ok = nodes_[id].add(job, held, /*is_owner=*/true);
    assert(ok);
    (void)ok;
    busy_cores_ += held;
    added_cores += held;
    sync_free_state(id, /*was_empty=*/true);
    notify(id);
  }
  commit(backdated, added_cores, static_cast<int>(node_ids.size()));
  return true;
}

bool Machine::add_share(SimTime now, JobId job, int node_id, int cpus, bool is_owner) {
  const SimTime backdated = touch(now);
  const bool was_empty = nodes_.at(node_id).empty();
  if (!nodes_[node_id].add(job, cpus, is_owner)) return false;
  busy_cores_ += cpus;
  sync_free_state(node_id, was_empty);
  notify(node_id);
  commit(backdated, cpus, was_empty ? 1 : 0);
  return true;
}

bool Machine::resize_share(SimTime now, JobId job, int node_id, int cpus) {
  auto& node = nodes_.at(node_id);
  const auto occ = node.occupant(job);
  if (!occ) return false;
  const SimTime backdated = touch(now);
  if (!node.resize(job, cpus)) return false;
  busy_cores_ += cpus - occ->cpus;
  notify(node_id);
  commit(backdated, cpus - occ->cpus, 0);
  return true;
}

int Machine::remove_share(SimTime now, JobId job, int node_id) {
  const SimTime backdated = touch(now);
  const bool was_empty = nodes_.at(node_id).empty();
  const int freed = nodes_[node_id].remove(job);
  busy_cores_ -= freed;
  const bool emptied = freed > 0 && nodes_[node_id].empty();
  sync_free_state(node_id, was_empty);
  if (freed > 0) notify(node_id);
  commit(backdated, -freed, emptied ? -1 : 0);
  return freed;
}

void Machine::finalize_energy(SimTime now) { (void)touch(now); }

}  // namespace sdsched
