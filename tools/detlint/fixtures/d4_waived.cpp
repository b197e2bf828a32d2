// Fixture: D4 waivers — mutators that legitimately cannot notify carry a
// mutator-ok waiver on the function header (or the line above it). Mirrors
// the real machine.cpp waivers (constructor and sync_free_state). Analyzed
// under the fake path "cluster/machine.cpp"; never compiled. (Prose must
// not spell the waiver marker verbatim — it would scan as a stale waiver.)

namespace fixture {

class Machine {
 public:
  // detlint: mutator-ok(construction precedes any observer attachment)
  explicit Machine(int nodes) {
    free_node_count_ = nodes;
  }

  void release(int node_id) {
    sync_free_state(node_id, false);
    notify(node_id);
  }

 private:
  void sync_free_state(int node_id, bool was_empty) {  // detlint: mutator-ok(callers notify)
    free_node_count_ += static_cast<int>(was_empty) - node_id;
  }

  void notify(int node_id) { (void)node_id; }

  int free_node_count_ = 0;
};

}  // namespace fixture
