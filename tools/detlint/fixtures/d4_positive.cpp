// Fixture: D4 positives — occupancy mutators that never reference the
// MachineObserver notify path, so a subscribed ClusterStateIndex /
// FreeNodeIndex would silently go stale. Analyzed under the fake path
// "cluster/machine.cpp" (the rule's scope); never compiled.

namespace fixture {

class Machine {
 public:
  // finding: decrements free_node_count_ without notify
  void mark_busy(int node_id) {
    --free_node_count_;
    (void)node_id;
  }

  // finding: writes busy_cores_ without notify
  bool grow(int node_id, int cpus) {
    if (cpus <= 0) return false;
    busy_cores_ += cpus;
    (void)node_id;
    return true;
  }

  // finding: calls the sync helper without notify
  void quiet_release(int node_id) {
    sync_free_state(node_id, false);
  }

 private:
  // finding: the helper itself writes free_node_count_ and cannot notify
  void sync_free_state(int node_id, bool was_empty) {
    free_node_count_ += static_cast<int>(was_empty) - node_id;
  }

  void notify(int node_id) { (void)node_id; }

  int free_node_count_ = 0;
  int busy_cores_ = 0;
};

}  // namespace fixture
