#include "workload/swf.h"

#include <array>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/logging.h"
#include "workload/swf_stream.h"

namespace sdsched {

namespace {

constexpr int kStatusFailed = 0;
constexpr int kStatusCancelled = 5;

/// Parse one numeric header like "; MaxNodes: 1024".
bool parse_header(const std::string& line, const char* key, long long& out) {
  const auto pos = line.find(key);
  if (pos == std::string::npos) return false;
  const auto colon = line.find(':', pos);
  if (colon == std::string::npos) return false;
  try {
    out = std::stoll(line.substr(colon + 1));
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace

Workload read_swf(std::istream& in, const SwfReadOptions& options, std::size_t chunk_bytes) {
  // The whole-file API is a thin loop over the pull iterator; the job vector
  // is the only O(jobs) resident (the PR 7 seekable-stream reserve()
  // pre-size heuristic is gone — the chunked scanner made parse cost, not
  // reallocation, the dominant term, and the ~60-byte/row floor over-
  // reserved small logs). Callers that don't need the whole vector should
  // pull from SwfJobStream directly and never pay it.
  Workload workload;
  {
    SwfJobStream stream(in, options,
                        chunk_bytes == 0 ? SwfChunkReader::kDefaultChunkBytes : chunk_bytes);
    JobSpec spec;
    while (stream.next(spec)) workload.add(spec);
    workload.info() = stream.info();
  }
  workload.normalize();
  log_info("swf", "read ", workload.size(), " jobs");
  return workload;
}

Workload read_swf_file(const std::string& path, const SwfReadOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open SWF file: " + path);
  return read_swf(in, options);
}

Workload read_swf_reference(std::istream& in, const SwfReadOptions& options) {
  Workload workload;
  workload.info().name = "swf";
  std::string line;
  long long header_value = 0;
  std::size_t line_number = 0;
  std::size_t sanitized = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    if (line[0] == ';') {
      if (parse_header(line, "MaxNodes", header_value)) {
        workload.info().system_nodes = static_cast<int>(header_value);
      } else if (parse_header(line, "MaxProcs", header_value) &&
                 workload.info().system_nodes > 0) {
        workload.info().cores_per_node =
            static_cast<int>(header_value / workload.info().system_nodes);
      }
      continue;
    }
    std::istringstream fields(line);
    std::array<long long, 18> f{};
    int parsed = 0;
    std::string stop;
    for (; parsed < 18; ++parsed) {
      // tellg() fails once the row is exhausted: then no token stopped us.
      const std::streamoff before = fields.tellg();
      if (!(fields >> f[parsed])) {
        f[parsed] = 0;  // overflow stores the clamped limit; unparsed stays 0
        if (before >= 0) {
          std::istringstream rest(line.substr(static_cast<std::size_t>(before)));
          rest >> stop;
        }
        break;
      }
    }
    if (parsed < 11) {
      throw std::runtime_error(swf_short_row_error(line_number, parsed, stop));
    }

    const long long status = f[10];
    if (options.skip_failed && status == kStatusFailed) continue;
    if (options.skip_cancelled && status == kStatusCancelled) continue;

    JobSpec spec;
    spec.submit = static_cast<SimTime>(f[1]);
    spec.base_runtime = static_cast<SimTime>(f[3]);
    const long long procs_alloc = f[4];
    const long long procs_req = f[7];
    spec.req_cpus = static_cast<int>(procs_req > 0 ? procs_req : procs_alloc);
    spec.req_time = static_cast<SimTime>(f[8] > 0 ? f[8] : f[3]);
    spec.user_id = static_cast<int>(f[11]);
    spec.malleability = options.default_malleability;
    if (options.sanitize) {
      // The archives' non-completed rows (kept by default — see
      // SwfReadOptions) use -1/0 placeholders that would otherwise make
      // degenerate JobSpecs; clamp them, count, and warn once below.
      bool clamped = false;
      if (spec.base_runtime <= 0) {
        spec.base_runtime = 1;
        clamped = true;
      }
      if (spec.submit < 0) {
        spec.submit = 0;
        clamped = true;
      }
      if (spec.req_time < spec.base_runtime) {
        spec.req_time = spec.base_runtime;
        clamped = true;
      }
      if (clamped) ++sanitized;
    }
    workload.add(spec);
    if (options.max_jobs != 0 && workload.size() >= options.max_jobs) break;
  }
  workload.normalize();
  if (sanitized != 0) {
    log_warn("swf", "clamped ", sanitized,
             " job records with nonpositive run time/submit or request below run "
             "time (see docs/workloads.md); pass SwfReadOptions::sanitize=false to "
             "keep raw values");
  }
  log_info("swf", "read ", workload.size(), " jobs");
  return workload;
}

void write_swf(std::ostream& out, const Workload& workload) {
  out << "; Generated by sdsched\n";
  if (workload.info().system_nodes > 0) {
    out << "; MaxNodes: " << workload.info().system_nodes << '\n';
    if (workload.info().cores_per_node > 0) {
      out << "; MaxProcs: "
          << static_cast<long long>(workload.info().system_nodes) *
                 workload.info().cores_per_node
          << '\n';
    }
  }
  for (const auto& spec : workload.jobs()) {
    // wait time, cpu time, memory, and the trailing linkage fields are
    // unknown at generation time: SWF uses -1 for "not available".
    out << (spec.id + 1) << ' ' << spec.submit << ' ' << -1 << ' ' << spec.base_runtime << ' '
        << spec.req_cpus << ' ' << -1 << ' ' << -1 << ' ' << spec.req_cpus << ' '
        << spec.req_time << ' ' << -1 << ' ' << 1 << ' ' << spec.user_id << ' ' << -1 << ' '
        << (spec.app_profile >= 0 ? spec.app_profile : -1) << ' ' << -1 << ' ' << -1 << ' '
        << -1 << ' ' << -1 << '\n';
  }
}

void write_swf_file(const std::string& path, const Workload& workload) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  write_swf(out, workload);
}

}  // namespace sdsched
