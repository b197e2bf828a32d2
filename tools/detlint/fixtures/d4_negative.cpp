// Fixture: D4 negatives — every occupancy mutation references the notify
// path (directly or via on_node_occupancy_changed), reads don't count as
// mutations, and constructor init-lists with paren initializers parse.
// Analyzed under the fake path "cluster/machine.cpp"; never compiled.
#include <utility>

namespace fixture {

struct Config {
  int nodes = 4;
};

class Machine {
 public:
  explicit Machine(Config config)
      : config_(std::move(config)), spare_(config_.nodes) {
    // Mutation with notify in the same body: fine without a waiver.
    for (int i = 0; i < config_.nodes; ++i) {
      ++free_node_count_;
      notify(i);
    }
  }

  bool allocate(int node_id, int cpus) {
    busy_cores_ += cpus;
    free_node_count_ -= 1;
    notify(node_id);
    return true;
  }

  // Reads are not mutations: no finding, no waiver needed.
  int free_count() const { return free_node_count_; }
  int busy_cores() const { return busy_cores_; }
  bool any_free() const { return free_node_count_ > 0 && free_node_count_ != spare_; }
  bool none_free() const { return free_node_count_ == 0; }

 private:
  void notify(int node_id) { (void)node_id; }

  Config config_;
  int spare_ = 0;
  int free_node_count_ = 0;
  int busy_cores_ = 0;
};

}  // namespace fixture
