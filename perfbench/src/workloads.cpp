#include "workloads.h"

#include <algorithm>
#include <stdexcept>

#include "workload/trace_catalog.h"

namespace perfbench {

using namespace sdsched;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"curie-trace", "ricc-deepqueue",
                                                 "cirne-malleable"};
  return names;
}

bool known_workload(const std::string& name) {
  const auto& names = workload_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

std::uint64_t workload_seed(const std::string& name, std::uint64_t seed) {
  if (name == "curie-trace") return 0;
  return 1 + seed % kSeedSlots;
}

std::uint64_t seed_slots(const std::string& name) {
  return name == "curie-trace" ? 1 : kSeedSlots;
}

double default_scale(const std::string& name) {
  if (name == "ricc-deepqueue") return 0.3;
  return 1.0;
}

std::string curie_fixture(const std::string& data_dir) {
  const TraceInfo* info = find_trace("curie");
  if (info == nullptr) throw std::logic_error("curie is not in the trace catalog");
  return default_fixture_path(*info, data_dir);
}

LoadedWorkload load_workload(const std::string& name, std::uint64_t seed,
                             const std::string& data_dir, double scale) {
  LoadedWorkload out;
  if (name == "curie-trace") {
    TraceLoadOptions options;
    options.scale = scale;
    options.fixture_dir = data_dir;
    options.allow_synthesis = false;
    LoadedTrace loaded = load_trace("curie", options);
    out.machine = trace_machine(loaded);
    out.workload = std::move(loaded.workload);
    out.source = loaded.source;
  } else if (name == "ricc-deepqueue" || name == "cirne-malleable") {
    const int which = name == "ricc-deepqueue" ? 3 : 1;
    PaperWorkload pw = paper_workload(which, scale, workload_seed(name, seed));
    out.machine = pw.machine;
    out.workload = std::move(pw.workload);
    out.source = "paper_workload(" + std::to_string(which) + ")";
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  out.workload.prepare_for(out.machine.nodes,
                           out.machine.node.sockets * out.machine.node.cores_per_socket);
  return out;
}

std::vector<Cell> cells_for(const MachineConfig& machine) {
  return {Cell{"bf", baseline_config(machine)},
          Cell{"sd", sd_config(machine, CutoffConfig::dynamic_avg())}};
}

}  // namespace perfbench
