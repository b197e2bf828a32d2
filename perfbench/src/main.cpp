// perfbench — the repository benchmark binary (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --data-dir <dir> --digests <file> [--out <file>] [--commit <id>]
//   perfbench --pin --data-dir <dir>        print every pinned digest line
//   perfbench --selftest --data-dir <dir>   kernel parity + attribution checks
//   perfbench --list-metrics                every metric name with its unit
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
// every cell through both Simulation::run() and the traced kernel and
// reports the per-layer metrics. Either way every cell is checked for
// correctness, and the last stdout line is the one-line JSON result.
#include <algorithm>
#include <chrono>
#include <cctype>
#include <cmath>
#include <ctime>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "detlint/ruleset.h"
#include "traced_kernel.h"
#include "util/json.h"
#include "util/rss.h"
#include "workload/swf.h"
#include "workload/swf_stream.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace sdsched;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of the calling thread, in seconds (kept beside wall samples).
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------------------
// Metric catalog: every name the benchmark can print, with its unit.
// BENCHMARK.json lists exactly these (checked by test_perfbench.py).
// ---------------------------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"sim_jobs_per_s", "jobs/s"}, {"sd_cell_s", "s"},        {"baseline_cell_s", "s"},
      {"setup_s", "s"},             {"peak_rss_mib", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> out = {
        {"workload.read_swf_s", "s"},        {"workload.rows_per_s", "rows/s"},
        {"workload.sanitized_rows", "count"}, {"workload.generate_s", "s"},
        {"workload.prepare_s", "s"},
    };
    const std::vector<MetricDef> per_cell = {
        {"api.construct_s", "s"},
        {"api.report_s", "s"},
        {"sim.wall_s", "s"},
        {"sim.events", "count"},
        {"sim.dispatch_self_s", "s"},
        {"sim.schedules", "count"},
        {"sim.cancels", "count"},
        {"sched.passes", "count"},
        {"sched.pass_self_s", "s"},
        {"sched.pass_p50_us", "us"},
        {"sched.pass_p99_us", "us"},
        {"sched.profile_rebuilds", "count"},
        {"sched.profile_reuse_ratio", "ratio"},
        {"sched.breakpoints_mean", "count"},
        {"sched.submits_coalesced", "count"},
        {"core.selects", "count"},
        {"core.candidates_scanned", "count"},
        {"core.combinations_evaluated", "count"},
        {"core.plans_found", "count"},
        {"core.plan_yield", "ratio"},
        {"core.candidates_per_start", "count"},
        {"core.estimate_rejections", "count"},
        {"core.selection_failures", "count"},
        {"core.rescans_avoided", "count"},
        {"drom.commits", "count"},
        {"drom.commit_self_s", "s"},
        {"drom.shrink_ops", "count"},
        {"drom.expand_ops", "count"},
        {"cluster.notifies", "count"},
        {"cluster.notify_s", "s"},
        {"model.reconfigs", "count"},
        {"model.progress_s", "s"},
        {"metrics.collect_s", "s"},
        {"trace.overhead_frac", "frac"},
        {"trace.unattributed_frac", "frac"},
    };
    for (const char* cell : {"bf", "sd"}) {
      for (const MetricDef& def : per_cell) {
        out.push_back({std::string(cell) + "." + def.name, def.unit});
      }
    }
    return out;
  }();
  return defs;
}

std::string unit_of(const std::string& name) {
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& def : *defs) {
      if (def.name == name) return def.unit;
    }
  }
  throw std::logic_error("metric '" + name + "' is not in the catalog");
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Quartile q (1 or 3) by Python's statistics.quantiles(n=4) default
/// ("exclusive") method; the median for fewer than two samples.
double quartile(std::vector<double> v, int q) {
  if (v.size() < 2) return median(v);
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double m = (n + 1.0) * q / 4.0;
  const auto j = static_cast<std::size_t>(std::clamp(std::floor(m), 1.0, n - 1.0));
  const double delta = std::clamp(m - static_cast<double>(j), 0.0, 1.0);
  return v[j - 1] + (v[j] - v[j - 1]) * delta;
}

/// Nearest-rank percentile (pass-duration tails).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Correctness: digests and record invariants
// ---------------------------------------------------------------------------

/// FNV-1a over the canonical report JSON and every per-job record — the
/// cell's decision digest.
std::string report_digest(const SimulationReport& report) {
  JsonWriter records(0);
  report.records_to_json(records);
  std::uint64_t hash = 14695981039346656037ULL;
  for (const std::string& part : {report.json(), std::string("\n"), records.str()}) {
    for (const unsigned char c : part) {
      hash ^= c;
      hash *= 1099511628211ULL;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

/// Record invariants for a completed cell; empty when sound.
std::string check_records(const SimulationReport& report, const Workload& workload,
                          bool sd_cell) {
  const auto& records = report.records;
  if (records.size() != workload.size()) {
    return std::to_string(records.size()) + " of " + std::to_string(workload.size()) +
           " jobs completed";
  }
  std::vector<bool> seen(records.size(), false);
  std::uint64_t guests = 0;
  std::uint64_t mates = 0;
  for (const JobRecord& r : records) {
    const std::string job = "job " + std::to_string(r.id);
    if (r.id >= seen.size() || seen[r.id]) return job + ": duplicate or unknown id";
    seen[r.id] = true;
    if (r.start < r.submit) return job + ": start < submit";
    if (r.end < r.start) return job + ": end < start";
    if (r.was_mate && r.reconfigurations < 1) return job + ": mate never reconfigured";
    if (r.reconfigurations > 0 && !r.was_mate && !r.was_guest) {
      return job + ": reconfigured without a guest or mate role";
    }
    guests += r.was_guest ? 1 : 0;
    mates += r.was_mate ? 1 : 0;
  }
  if (guests != report.malleable_starts) return "guest records != malleable starts";
  if ((guests == 0) != (mates == 0)) return "guests without mates or mates without guests";
  if (!sd_cell && (guests != 0 || report.drom_shrink_ops != 0)) {
    return "backfill cell used malleability";
  }
  return {};
}

/// digests.txt: "<workload> <seed slot> <cell> <digest>" per line.
std::map<std::string, std::string> read_digests(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read pinned digests: " + path);
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, slot, cell, digest;
    if (!(fields >> workload >> slot >> cell >> digest)) {
      throw std::runtime_error("malformed digest line: " + line);
    }
    out[workload + " " + slot + " " + cell] = digest;
  }
  return out;
}

/// The pinned digest of `cell` on `workload`'s input for `seed`; empty
/// (which no digest equals) when none is pinned.
std::string pinned_digest(const std::map<std::string, std::string>& pinned,
                          const std::string& workload, std::uint64_t seed,
                          const std::string& cell) {
  const auto it =
      pinned.find(workload + " " + std::to_string(workload_seed(workload, seed)) + " " + cell);
  return it != pinned.end() ? it->second : std::string();
}

/// Counts failed cells against cells attempted, with the reason per miss.
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
    std::fprintf(stderr, "perfbench: cell failed: %s\n", why.c_str());
  }
};

/// Run a cell through the checks every measured cell gets.
void verify_cell(Gate& gate, const std::string& label, const SimulationReport& report,
                        const Workload& workload, bool sd_cell, const std::string& pinned,
                        std::uint64_t max_events) {
  ++gate.attempted;
  const std::string digest = report_digest(report);
  std::string why = check_records(report, workload, sd_cell);
  if (why.empty() && max_events != 0 && report.events_fired >= max_events) {
    why = "event budget exhausted";
  }
  if (why.empty() && digest != pinned) {
    why = "digest " + digest + " != pinned " + (pinned.empty() ? "(none)" : pinned);
  }
  if (!why.empty()) gate.fail(label + ": " + why);
}

/// Simulation::run() on a fresh Simulation, converting a throw into a
/// failed cell (an empty report fails every check).
SimulationReport run_simulation(Gate& gate, const std::string& label, Simulation& sim) {
  try {
    return sim.run();
  } catch (const std::exception& e) {
    gate.fail(label + ": threw: " + e.what());
    return {};
  }
}

// ---------------------------------------------------------------------------
// Environment stamp
// ---------------------------------------------------------------------------

bool release_build() { return std::string(PERFBENCH_BUILD_TYPE) == "Release"; }

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  std::string data_dir = "data/traces";
  std::string digests = "perfbench/digests.txt";
  std::string out;
  std::string commit = "unknown";
};

void write_env(JsonWriter& json, const Options& opt, const LoadedWorkload& lw) {
  json.key("env");
  json.begin_object();
  json.field("commit", opt.commit);
#ifdef NDEBUG
  json.field("build_type", std::string(PERFBENCH_BUILD_TYPE) + " (asserts off)");
#else
  json.field("build_type", std::string(PERFBENCH_BUILD_TYPE) + " (asserts on)");
#endif
  json.field("release", release_build());
  json.field("compiler", PERFBENCH_CXX_COMPILER);
  json.field("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.field("cpu_model", cpu_model());
  json.field("detlint_version", detlint::kVersion);
  json.field("detlint_ruleset_hash", detlint::ruleset_hash());
  json.field("seed", opt.seed);
  json.field("workload_seed", workload_seed(opt.workload, opt.seed));
  json.field("scale", default_scale(opt.workload));
  json.field("source", lw.source);
  json.field("jobs", static_cast<std::uint64_t>(lw.workload.size()));
  json.field("nodes", lw.machine.nodes);
  json.field("cores_per_node", lw.machine.node.sockets * lw.machine.node.cores_per_socket);
  json.field("sim_threads", 1);
  json.end_object();
}

struct Summary {
  double value = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
  std::size_t n = 0;
};

Summary summarize(const std::vector<double>& samples) {
  return Summary{median(samples), quartile(samples, 1), quartile(samples, 3), samples.size()};
}

/// Mean over inputs of each input's median and quartiles. `inputs[i]` names
/// the input `samples[i]` came from. The inputs of one workload differ in
/// cost, so a median over all of them would fall in the gap between two
/// inputs' clusters and jump with noise; a per-input median does not.
Summary summarize_by_input(const std::vector<double>& samples,
                           const std::vector<double>& inputs) {
  std::map<double, std::vector<double>> by_input;
  for (std::size_t i = 0; i < samples.size(); ++i) by_input[inputs.at(i)].push_back(samples[i]);
  Summary out{0.0, 0.0, 0.0, samples.size()};
  for (const auto& [input, values] : by_input) {
    const Summary one = summarize(values);
    out.value += one.value / static_cast<double>(by_input.size());
    out.p25 += one.p25 / static_cast<double>(by_input.size());
    out.p75 += one.p75 / static_cast<double>(by_input.size());
  }
  return out;
}

/// Write the full result document and print the human-readable table plus
/// the one-line result (always the last stdout line).
void emit(const Options& opt, const LoadedWorkload& lw, const Gate& gate,
          const std::vector<std::pair<std::string, Summary>>& metrics,
          const std::map<std::string, std::vector<double>>& samples) {
  const bool correct = gate.failed == 0 && gate.attempted > 0;
  if (!opt.out.empty()) {
    std::ofstream out(opt.out, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write " + opt.out);
    JsonWriter json(out);
    json.begin_object();
    json.field("schema", "sdsched-perfbench-v1");
    json.field("workload", opt.workload);
    json.field("trace", opt.trace);
    json.field("seconds", opt.seconds);
    write_env(json, opt, lw);
    json.field("correct", correct);
    json.field("attempted", gate.attempted);
    json.field("failed", gate.failed);
    json.key("failures");
    json.begin_array();
    for (const auto& f : gate.failures) json.value(f);
    json.end_array();
    json.key("metrics");
    json.begin_object();
    for (const auto& [name, s] : metrics) {
      json.key(name);
      json.begin_object();
      json.field("value", s.value);
      json.field("unit", unit_of(name));
      json.field("p25", s.p25);
      json.field("p75", s.p75);
      json.field("n", static_cast<std::uint64_t>(s.n));
      json.end_object();
    }
    json.end_object();
    json.key("samples");
    json.begin_object();
    for (const auto& [name, values] : samples) {
      json.key(name);
      json.begin_array();
      for (const double v : values) json.value(v);
      json.end_array();
    }
    json.end_object();
    json.end_object();
    json.finish();
  }

  std::printf("perfbench %s seed=%llu trace=%d: %zu jobs on %d nodes, cells %llu attempted, "
              "%llu failed\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.trace,
              lw.workload.size(), lw.machine.nodes,
              static_cast<unsigned long long>(gate.attempted),
              static_cast<unsigned long long>(gate.failed));
  for (const auto& [name, s] : metrics) {
    std::printf("  %-34s %14.6g %-7s p25=%.6g p75=%.6g n=%zu\n", name.c_str(), s.value,
                unit_of(name).c_str(), s.p25, s.p75, s.n);
  }
  JsonWriter line(0);
  line.begin_object();
  line.field("correct", correct);
  line.field("attempted", gate.attempted);
  line.field("failed", gate.failed);
  line.key("metrics");
  line.begin_object();
  for (const auto& [name, s] : metrics) {
    line.key(name);
    line.begin_object();
    line.field("value", s.value);
    line.field("unit", unit_of(name));
    line.end_object();
  }
  line.end_object();
  line.end_object();
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics, tracing off
// ---------------------------------------------------------------------------

/// Set-up-only repetitions after the timed cells, so setup_s has a steady
/// median.
constexpr int kExtraSetUps = 40;

int run_end_to_end(const Options& opt) {
  const auto pinned = read_digests(opt.digests);
  const double scale = default_scale(opt.workload);
  Gate gate;
  std::map<std::string, std::vector<double>> samples;

  // Set-up: load/generate + prepare_for + both Simulation constructions.
  struct SetUp {
    LoadedWorkload lw;
    std::vector<Cell> cells;
    std::vector<std::unique_ptr<Simulation>> sims;
  };
  const auto set_up = [&](std::uint64_t seed) {
    const auto t0 = Clock::now();
    SetUp s{load_workload(opt.workload, seed, opt.data_dir, scale), {}, {}};
    s.cells = cells_for(s.lw.machine);
    for (const Cell& cell : s.cells) {
      s.sims.push_back(std::make_unique<Simulation>(cell.config, s.lw.workload));
    }
    samples["setup_s"].push_back(since(t0));
    samples["setup.workload_seed"].push_back(
        static_cast<double>(workload_seed(opt.workload, seed)));
    return s;
  };

  // Repetition r simulates the input of seed + r, and the timed loop stops
  // only after whole rounds over the seed slots (workloads.h): runs with
  // different seeds measure the same mix of inputs in a different order.
  // Each repetition sets up, then runs both cells, alternating which goes
  // first.
  const auto repetition = [&](int rep, bool record) {
    const std::uint64_t seed = opt.seed + static_cast<std::uint64_t>(rep);
    SetUp s = set_up(seed);
    if (!record) {
      samples["setup_s"].clear();
      samples["setup.workload_seed"].clear();
    }
    double wall_sum = 0.0;
    for (std::size_t k = 0; k < s.cells.size(); ++k) {
      const std::size_t i = rep % 2 == 0 ? k : s.cells.size() - 1 - k;
      const Cell& cell = s.cells[i];
      const std::string label = cell.name + " rep " + std::to_string(rep);
      const double cpu0 = thread_cpu_s();
      const auto c0 = Clock::now();
      const SimulationReport report = run_simulation(gate, label, *s.sims[i]);
      const double wall = since(c0);
      const double cpu = thread_cpu_s() - cpu0;
      wall_sum += wall;
      verify_cell(gate, label, report, s.lw.workload, cell.name == "sd",
                  pinned_digest(pinned, opt.workload, seed, cell.name),
                  cell.config.max_events);
      if (record) {
        const std::string metric = cell.name == "bf" ? "baseline_cell_s" : "sd_cell_s";
        samples[metric].push_back(wall);
        samples[metric + ".cpu"].push_back(cpu);
      }
    }
    if (record) {
      const auto jobs = static_cast<double>(s.lw.workload.size());
      samples["sim_jobs_per_s"].push_back(jobs * static_cast<double>(s.cells.size()) / wall_sum);
      samples["rep.workload_seed"].push_back(
          static_cast<double>(workload_seed(opt.workload, seed)));
      samples["rep.jobs"].push_back(jobs);
    }
  };

  repetition(0, /*record=*/false);  // warm-up: caches, lazy set-up, page faults
  const auto round = static_cast<int>(seed_slots(opt.workload));
  const auto start = Clock::now();
  for (int rep = 1;;) {
    const auto r0 = Clock::now();
    for (int i = 0; i < round; ++i) repetition(rep++, /*record=*/true);
    // Stop at the round boundary nearest the deadline (at least 3 reps).
    if (rep > 3 && since(start) + 0.5 * since(r0) >= opt.seconds) break;
  }
  // Set-up is milliseconds against seconds of simulation: sample it more.
  for (int i = 0; i < kExtraSetUps; ++i) set_up(opt.seed + static_cast<std::uint64_t>(i));

  // The traced kernel must reproduce the pinned digest of every cell too.
  const LoadedWorkload first = load_workload(opt.workload, opt.seed, opt.data_dir, scale);
  for (const Cell& cell : cells_for(first.machine)) {
    const std::string label = cell.name + " traced";
    try {
      TracedKernel kernel(cell.config, first.workload);
      verify_cell(gate, label, kernel.run(), first.workload, cell.name == "sd",
                  pinned_digest(pinned, opt.workload, opt.seed, cell.name),
                  cell.config.max_events);
    } catch (const std::exception& e) {
      ++gate.attempted;
      gate.fail(label + ": threw: " + e.what());
    }
  }

  samples["peak_rss_mib"].push_back(static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0));
  std::vector<std::pair<std::string, Summary>> metrics;
  for (const MetricDef& def : end_to_end_metrics()) {
    const bool timed = def.name != "peak_rss_mib";
    metrics.emplace_back(def.name,
                         !timed ? summarize(samples[def.name])
                                : summarize_by_input(samples[def.name],
                                                     samples[def.name == "setup_s"
                                                                 ? "setup.workload_seed"
                                                                 : "rep.workload_seed"]));
  }
  emit(opt, first, gate, metrics, samples);
  return 0;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics from the traced kernel
// ---------------------------------------------------------------------------

using MetricMap = std::map<std::string, double>;

/// One traced cell: Simulation::run() (untraced wall, reference output) and
/// the traced kernel on the same inputs. Fills `m` with the cell's metrics.
void traced_cell(Gate& gate, const std::string& label, const Cell& cell,
                 const Workload& workload, const std::string& pinned, MetricMap& m) {
  Simulation sim(cell.config, workload);
  const auto s0 = Clock::now();
  const SimulationReport reference = run_simulation(gate, label + " simulation", sim);
  const double untraced_wall = since(s0);
  verify_cell(gate, label + " simulation", reference, workload, cell.name == "sd", pinned,
              cell.config.max_events);

  const auto c0 = Clock::now();
  TracedKernel kernel(cell.config, workload);
  const double construct = since(c0);
  const SimulationReport traced = kernel.run();
  ++gate.attempted;
  const bool identical =
      traced.json() == reference.json() && traced.records == reference.records;
  if (!identical) gate.fail(label + ": traced kernel output differs from Simulation::run()");

  const Tracer& t = kernel.tracer();
  const KernelCounts& k = kernel.counts();
  const BackfillScheduler& sched = kernel.scheduler();
  const double wall = kernel.wall_s();
  const std::string p = cell.name + ".";
  m[p + "api.construct_s"] = construct;
  m[p + "api.report_s"] = t.self_s(Layer::Api);
  m[p + "sim.wall_s"] = wall;
  m[p + "sim.events"] = static_cast<double>(k.events);
  m[p + "sim.dispatch_self_s"] = t.self_s(Layer::Sim);
  m[p + "sim.schedules"] = static_cast<double>(k.schedules);
  m[p + "sim.cancels"] = static_cast<double>(k.cancels);
  m[p + "sched.passes"] = static_cast<double>(k.passes);
  m[p + "sched.pass_self_s"] = t.self_s(Layer::Sched);
  m[p + "sched.pass_p50_us"] = percentile(k.pass_us, 50);
  m[p + "sched.pass_p99_us"] = percentile(k.pass_us, 99);
  m[p + "sched.profile_rebuilds"] = static_cast<double>(sched.profile_rebuilds());
  m[p + "sched.profile_reuse_ratio"] =
      ratio(static_cast<double>(sched.profile_reuses()),
            static_cast<double>(sched.profile_reuses() + sched.profile_rebuilds()));
  m[p + "sched.breakpoints_mean"] =
      ratio(static_cast<double>(k.breakpoints_sum), static_cast<double>(k.passes));
  m[p + "sched.submits_coalesced"] = static_cast<double>(k.submits_coalesced);
  MateSelector::SelectStats select{};
  std::uint64_t rejections = 0, failures = 0, avoided = 0;
  if (const SdPolicyScheduler* sd = kernel.sd_scheduler()) {
    select = sd->selector_stats();
    rejections = sd->estimate_rejections();
    failures = sd->selection_failures();
    avoided = sd->rescans_avoided();
  }
  m[p + "core.selects"] = static_cast<double>(select.selects);
  m[p + "core.candidates_scanned"] = static_cast<double>(select.candidates_scanned);
  m[p + "core.combinations_evaluated"] = static_cast<double>(select.combinations_evaluated);
  m[p + "core.plans_found"] = static_cast<double>(select.plans_found);
  m[p + "core.plan_yield"] =
      ratio(static_cast<double>(select.plans_found), static_cast<double>(select.selects));
  m[p + "core.candidates_per_start"] = ratio(static_cast<double>(select.candidates_scanned),
                                             static_cast<double>(select.plans_found));
  m[p + "core.estimate_rejections"] = static_cast<double>(rejections);
  m[p + "core.selection_failures"] = static_cast<double>(failures);
  m[p + "core.rescans_avoided"] = static_cast<double>(avoided);
  m[p + "drom.commits"] = static_cast<double>(k.commits);
  m[p + "drom.commit_self_s"] = t.self_s(Layer::Drom);
  m[p + "drom.shrink_ops"] = static_cast<double>(traced.drom_shrink_ops);
  m[p + "drom.expand_ops"] = static_cast<double>(traced.drom_expand_ops);
  m[p + "cluster.notifies"] = static_cast<double>(k.notifies);
  m[p + "cluster.notify_s"] = t.self_s(Layer::Cluster);
  m[p + "model.reconfigs"] = static_cast<double>(k.reconfigs);
  m[p + "model.progress_s"] = t.self_s(Layer::Model);
  m[p + "metrics.collect_s"] = t.self_s(Layer::Metrics);
  m[p + "trace.overhead_frac"] = ratio(wall - untraced_wall, untraced_wall);
  m[p + "trace.unattributed_frac"] = ratio(wall - t.attributed_s(), wall);
}

/// The workload layer: SWF read (curie-trace) or generation (synthetic),
/// and the cost of Workload::prepare_for on an unprepared copy.
void workload_layer(const Options& opt, const LoadedWorkload& lw, MetricMap& m) {
  const double scale = default_scale(opt.workload);
  double read = 0.0, rows = 0.0, sanitized = 0.0, generate = 0.0;
  if (opt.workload == "curie-trace") {
    const std::string path = curie_fixture(opt.data_dir);
    const auto r0 = Clock::now();
    const Workload raw = read_swf_file(path);
    read = since(r0);
    std::ifstream in(path, std::ios::binary);
    SwfJobStream stream(in, SwfReadOptions{});
    JobSpec spec;
    while (stream.next(spec)) {
    }
    rows = static_cast<double>(stream.stats().rows);
    sanitized = static_cast<double>(stream.stats().sanitized);
  } else {
    const auto g0 = Clock::now();
    const LoadedWorkload generated = load_workload(opt.workload, opt.seed, opt.data_dir, scale);
    generate = since(g0);
  }
  Workload unprepared(WorkloadInfo{lw.workload.info().name, 0, 0}, lw.workload.jobs());
  const auto p0 = Clock::now();
  unprepared.prepare_for(lw.machine.nodes,
                         lw.machine.node.sockets * lw.machine.node.cores_per_socket);
  const double prepare = since(p0);
  m["workload.read_swf_s"] = read;
  m["workload.rows_per_s"] = ratio(rows, read);
  m["workload.sanitized_rows"] = sanitized;
  m["workload.generate_s"] = generate;
  m["workload.prepare_s"] = prepare;
}

int run_traced(const Options& opt) {
  const auto pinned = read_digests(opt.digests);
  Gate gate;
  const LoadedWorkload lw =
      load_workload(opt.workload, opt.seed, opt.data_dir, default_scale(opt.workload));
  const std::vector<Cell> cells = cells_for(lw.machine);

  // Repeat the whole traced pass for the run's duration; times are medians
  // across repetitions, counts repeat exactly.
  std::map<std::string, std::vector<double>> samples;
  const auto start = Clock::now();
  for (int rep = 0; rep < 1 || since(start) < opt.seconds; ++rep) {
    MetricMap m;
    workload_layer(opt, lw, m);
    for (const Cell& cell : cells) {
      const std::string label = cell.name + " rep " + std::to_string(rep);
      try {
        traced_cell(gate, label, cell, lw.workload,
                    pinned_digest(pinned, opt.workload, opt.seed, cell.name), m);
      } catch (const std::exception& e) {
        ++gate.attempted;
        gate.fail(label + " traced: threw: " + e.what());
      }
    }
    for (const auto& [name, value] : m) samples[name].push_back(value);
  }

  std::vector<std::pair<std::string, Summary>> metrics;
  for (const MetricDef& def : per_layer_metrics()) {
    metrics.emplace_back(def.name, summarize(samples[def.name]));
  }
  emit(opt, lw, gate, metrics, samples);
  return 0;
}

// ---------------------------------------------------------------------------
// --pin and --selftest
// ---------------------------------------------------------------------------

int run_pin(const Options& opt) {
  std::printf("# <workload> <workload seed> <cell> <FNV-1a of report JSON + records>\n");
  for (const std::string& name : workload_names()) {
    for (std::uint64_t seed = 0; seed < seed_slots(name); ++seed) {
      const LoadedWorkload lw = load_workload(name, seed, opt.data_dir, default_scale(name));
      for (const Cell& cell : cells_for(lw.machine)) {
        Simulation sim(cell.config, lw.workload);
        const SimulationReport report = sim.run();
        const std::string why = check_records(report, lw.workload, cell.name == "sd");
        if (!why.empty()) {
          std::fprintf(stderr, "perfbench: %s seed %llu %s: %s\n", name.c_str(),
                       static_cast<unsigned long long>(seed), cell.name.c_str(), why.c_str());
          return 1;
        }
        std::printf("%s %llu %s %s\n", name.c_str(),
                    static_cast<unsigned long long>(workload_seed(name, seed)), cell.name.c_str(),
                    report_digest(report).c_str());
        std::fflush(stdout);
      }
    }
  }
  return 0;
}

int run_selftest(const Options& opt) {
  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  // Traced-kernel parity and attribution on a small scale of each workload.
  for (const std::string& name : workload_names()) {
    const double scale = name == "curie-trace" ? 0.15 : 0.05;
    const LoadedWorkload lw = load_workload(name, 1, opt.data_dir, scale);
    for (const Cell& cell : cells_for(lw.machine)) {
      const std::string what = name + "/" + cell.name;
      Simulation sim(cell.config, lw.workload);
      const SimulationReport reference = sim.run();
      TracedKernel kernel(cell.config, lw.workload);
      const auto w0 = Clock::now();
      const SimulationReport traced = kernel.run();
      const double wall = since(w0);
      check(traced.json() == reference.json() && traced.records == reference.records,
            what + " parity: traced kernel report and records byte-identical");
      check(check_records(reference, lw.workload, cell.name == "sd").empty(),
            what + " record invariants");
      const Tracer& t = kernel.tracer();
      double self = 0.0;
      for (std::size_t l = 0; l < kLayerCount; ++l) self += t.self_s(static_cast<Layer>(l));
      const double unattributed = kernel.wall_s() - t.attributed_s();
      const double gap = std::abs(self + unattributed - wall) / wall;
      char detail[160];
      std::snprintf(detail, sizeof detail,
                    " attribution: self %.6fs + unattributed %.6fs vs wall %.6fs (gap %.2f%%)",
                    self, unattributed, wall, 100.0 * gap);
      check(gap <= 0.05 && unattributed >= 0.0, what + detail);
      if (cell.name == "bf") {
        check(kernel.sd_scheduler() == nullptr && reference.malleable_starts == 0,
              what + " baseline does no core work");
      }
    }
  }

  // The kernel refuses every configuration it does not reproduce.
  const LoadedWorkload lw = load_workload("cirne-malleable", 1, opt.data_dir, 0.02);
  const std::vector<std::pair<std::string, std::function<void(SimulationConfig&)>>> unsupported = {
      {"worst-case execution model",
       [](SimulationConfig& c) { c.execution_model = RuntimeModelKind::WorstCase; }},
      {"app model", [](SimulationConfig& c) { c.use_app_model = true; }},
      {"runtime prediction", [](SimulationConfig& c) { c.use_runtime_prediction = true; }},
      {"reconfiguration overhead", [](SimulationConfig& c) { c.reconfig_overhead = 5; }},
      {"fcfs", [](SimulationConfig& c) { c.policy = PolicyKind::Fcfs; }},
  };
  for (const auto& [what, mutate] : unsupported) {
    SimulationConfig config = cells_for(lw.machine).back().config;
    mutate(config);
    bool rejected = false;
    try {
      TracedKernel kernel(config, lw.workload);
    } catch (const std::invalid_argument&) {
      rejected = true;
    }
    check(rejected, "kernel rejects " + what);
  }

  // Metric names are well-formed and unique.
  const auto well_formed_name = [](const std::string& n) {
    return !n.empty() && std::all_of(n.begin(), n.end(), [](unsigned char c) {
      return std::isalnum(c) != 0 || c == '_' || c == '.' || c == '-';
    });
  };
  std::vector<std::string> names;
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& def : *defs) names.push_back(def.name);
  }
  bool well_formed = true;
  for (const std::string& n : names) well_formed &= well_formed_name(n);
  std::sort(names.begin(), names.end());
  check(well_formed && std::adjacent_find(names.begin(), names.end()) == names.end(),
        "metric names match [A-Za-z0-9_.-]+ and are unique");
  return failures == 0 ? 0 : 1;
}

int list_metrics() {
  for (const MetricDef& def : end_to_end_metrics()) {
    std::printf("end_to_end %s %s\n", def.name.c_str(), def.unit.c_str());
  }
  for (const MetricDef& def : per_layer_metrics()) {
    std::printf("per_layer %s %s\n", def.name.c_str(), def.unit.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string mode = "run";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") opt.workload = value();
      else if (arg == "--seed") opt.seed = std::stoull(value());
      else if (arg == "--seconds") opt.seconds = std::stod(value());
      else if (arg == "--trace") opt.trace = std::stoi(value());
      else if (arg == "--data-dir") opt.data_dir = value();
      else if (arg == "--digests") opt.digests = value();
      else if (arg == "--out") opt.out = value();
      else if (arg == "--commit") opt.commit = value();
      else if (arg == "--pin" || arg == "--selftest" || arg == "--list-metrics")
        mode = arg.substr(2);
      else throw std::invalid_argument("unknown argument " + arg);
    }
    if (mode == "list-metrics") return list_metrics();
    if (!release_build()) {
      std::fprintf(stderr, "perfbench: refusing to measure a %s build (Release required)\n",
                   PERFBENCH_BUILD_TYPE);
      return 2;
    }
    if (mode == "pin") return run_pin(opt);
    if (mode == "selftest") return run_selftest(opt);
    if (!known_workload(opt.workload)) {
      throw std::invalid_argument("--workload must be one of curie-trace, ricc-deepqueue, "
                                  "cirne-malleable");
    }
    if (opt.trace != 0 && opt.trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
    return opt.trace == 0 ? run_end_to_end(opt) : run_traced(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
