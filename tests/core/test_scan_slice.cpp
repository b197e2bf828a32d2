// The rotating guest-budget slice (SdConfig::scan.slice): kPrefix is the
// historical byte-identical default, kRotate walks the window across
// passes so a head guest that perpetually burns the budget cannot starve
// the tail.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../integration/golden_common.h"
#include "api/experiment.h"
#include "api/simulation.h"
#include "core/guest_scan_policy.h"
#include "metrics/summary.h"
#include "util/json.h"
#include "workload/cirne.h"

namespace sdsched {
namespace {

/// Everything a scheduling decision can influence, in one byte-comparable
/// string (the test_sd_saturation idiom).
std::string decision_document(const SimulationReport& report) {
  JsonWriter json;
  json.begin_object();
  json.key("summary");
  to_json(json, report.summary);
  json.field("records", static_cast<std::uint64_t>(report.records.size()));
  json.field("records_fnv1a", golden::records_digest(report.records));
  json.field("malleable_starts", report.malleable_starts);
  json.field("cancelled_jobs", report.cancelled_jobs);
  json.field("sd_estimate_rejections", report.sd_estimate_rejections);
  json.field("sd_selection_failures", report.sd_selection_failures);
  json.field("sd_budget_deferrals", report.sd_budget_deferrals);
  json.end_object();
  return json.str();
}

/// Saturated churn on a 64-node machine: queue depth > 1 keeps every pass
/// exercising profiles, candidate scans and free-node picks.
Workload saturated_workload(std::uint64_t seed) {
  CirneConfig wl;
  wl.n_jobs = 250;
  wl.system_nodes = 64;
  wl.cores_per_node = 8;
  wl.max_job_nodes = 16;
  wl.target_load = 1.5;
  wl.seed = seed;
  return generate_cirne(wl);
}

MachineConfig machine_of(int nodes) {
  MachineConfig machine;
  machine.nodes = nodes;
  machine.node = NodeConfig{2, 4};
  return machine;
}

/// Two-node stage for the starvation scenario: two long 1-node mates
/// holding the whole machine, a big guest A that burns the single budget
/// slot on an estimate rejection every pass, and a tiny 1-node guest B
/// behind it whose only eligible mates (w_i <= W) are the 1-node runners —
/// it could start malleably at once, if the slice ever reaches it.
Workload starvation_workload() {
  std::vector<JobSpec> specs;
  for (int i = 0; i < 2; ++i) {
    JobSpec mate;
    mate.submit = 0;
    mate.req_cpus = 8;
    mate.req_nodes = 1;
    mate.base_runtime = 400;
    mate.req_time = 400;
    specs.push_back(mate);
  }
  JobSpec big;  // static_end 2400 always beats quick_mall_end (~2x req_time)
  big.submit = 1;
  big.req_cpus = 16;
  big.req_nodes = 2;
  big.base_runtime = 2000;
  big.req_time = 2000;
  specs.push_back(big);
  JobSpec tiny;
  tiny.submit = 2;
  tiny.req_cpus = 8;
  tiny.req_nodes = 1;
  tiny.base_runtime = 20;
  tiny.req_time = 20;
  specs.push_back(tiny);
  return Workload(WorkloadInfo{"starvation"}, std::move(specs));
}

SimulationReport run_slice(SliceKind slice) {
  SimulationConfig cfg = sd_config(machine_of(2), CutoffConfig::infinite());
  cfg.sd.scan.guest_budget = 1;
  cfg.sd.scan.slice = slice;
  return Simulation(cfg, starvation_workload()).run();
}

TEST(ScanSlice, RotateDrainsStarvedTail) {
  const SimulationReport prefix = run_slice(SliceKind::kPrefix);
  const SimulationReport rotate = run_slice(SliceKind::kRotate);

  ASSERT_EQ(prefix.records.size(), 4u);
  ASSERT_EQ(rotate.records.size(), 4u);
  const auto tiny_of = [](const SimulationReport& report) -> const JobRecord& {
    for (const JobRecord& record : report.records) {
      if (record.id == 3) return record;
    }
    ADD_FAILURE() << "tiny guest record missing";
    return report.records.front();
  };
  const JobRecord& tiny_prefix = tiny_of(prefix);
  const JobRecord& tiny_rotate = tiny_of(rotate);

  // Prefix: the head guest burns the slot every pass; the tiny guest only
  // moves once the mate finishes at t=400.
  EXPECT_GE(tiny_prefix.start, 400);
  // Rotate: the window shifts past the head guest on the next pass and the
  // tiny guest starts malleably while the mate is still running.
  EXPECT_TRUE(tiny_rotate.was_guest);
  EXPECT_LT(tiny_rotate.start, 400);
  EXPECT_GT(rotate.malleable_starts, 0u);
  // Rotation defers, never starves: both runs drain the whole workload.
  for (const SimulationReport* report : {&prefix, &rotate}) {
    for (const JobRecord& record : report->records) {
      EXPECT_GE(record.end, record.start) << "job " << record.id << " never finished";
    }
  }
}

// A rotating window at least the queue depth wraps to offset 0 every pass —
// the unbounded prefix pass, byte for byte.
TEST(ScanSlice, CoveringRotateMatchesUnboundedPrefix) {
  const Workload workload = saturated_workload(11u);
  SimulationConfig unbounded = sd_config(machine_of(64), CutoffConfig::dynamic_avg());
  const std::string base =
      decision_document(Simulation(unbounded, workload).run());

  SimulationConfig covering = sd_config(machine_of(64), CutoffConfig::dynamic_avg());
  covering.sd.scan.guest_budget = 250;  // queue depth can never exceed the job count
  covering.sd.scan.slice = SliceKind::kRotate;
  const std::string rotated =
      decision_document(Simulation(covering, workload).run());
  EXPECT_EQ(base, rotated);
}

}  // namespace
}  // namespace sdsched
