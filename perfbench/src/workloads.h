// The benchmark workloads and their two cells, built through the public API.
//
//   curie-trace      the bundled Curie SWF fixture (load_trace), 5040x16
//   ricc-deepqueue   W3 ricc-like (paper_workload(3)) at a deep-queue scale
//   cirne-malleable  W1 cirne (paper_workload(1)) at paper scale, 1024x48
//
// Each workload runs two cells: `bf`, static backfill (the normalization
// baseline), and `sd`, SD-Policy with the DynAVGSD cut-off and the default
// SdConfig (the paper's headline variant). README.md says why each was
// chosen.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/experiment.h"

namespace perfbench {

/// Number of distinct synthetic inputs per workload: the generator seed is
/// 1 + (seed mod kSeedSlots), so every input the benchmark can make has a
/// pinned decision digest (digests.txt). A timed run steps through all the
/// slots in whole rounds; the inputs differ enough in work (the
/// ricc-deepqueue cells by up to 2.5x) that one input per run would make
/// run-to-run spread a property of the seed, not of the program.
inline constexpr std::uint64_t kSeedSlots = 4;

[[nodiscard]] const std::vector<std::string>& workload_names();
[[nodiscard]] bool known_workload(const std::string& name);

/// The seed handed to the generator for benchmark seed `seed`. 0 for
/// curie-trace: a fixed log has no seed.
[[nodiscard]] std::uint64_t workload_seed(const std::string& name, std::uint64_t seed);

/// Distinct inputs of `name`: kSeedSlots, or 1 for curie-trace.
[[nodiscard]] std::uint64_t seed_slots(const std::string& name);

/// The workload's default scale (ricc-deepqueue and cirne-malleable pass it
/// to paper_workload; curie-trace keeps this fraction of the fixture).
[[nodiscard]] double default_scale(const std::string& name);

struct LoadedWorkload {
  sdsched::Workload workload;  ///< prepared for `machine`
  sdsched::MachineConfig machine;
  std::string source;          ///< fixture path or generator
};

/// Load or generate `name` at `scale` and prepare it for its machine.
/// `data_dir` holds the SWF fixtures (curie-trace only; no synthesis
/// fallback — a missing fixture throws).
[[nodiscard]] LoadedWorkload load_workload(const std::string& name, std::uint64_t seed,
                                           const std::string& data_dir, double scale);

/// Path of the SWF fixture curie-trace reads.
[[nodiscard]] std::string curie_fixture(const std::string& data_dir);

struct Cell {
  std::string name;  ///< "bf" or "sd"
  sdsched::SimulationConfig config;
};

/// The two cells of every workload, baseline first.
[[nodiscard]] std::vector<Cell> cells_for(const sdsched::MachineConfig& machine);

}  // namespace perfbench
