// Traced kernel: Simulation::run()'s event loop rebuilt from the library's
// public classes, with a span around every call it makes into a layer.
//
// The library carries no tracing of its own, so per-layer attribution lives
// here: the kernel owns the same parts a Simulation owns (Engine, Machine,
// JobRegistry, the flat ClusterStateIndex, DromRegistry/NodeManager,
// ProgressTracker, MetricsCollector, a Backfill/SdPolicy scheduler), acts as
// the schedulers' StartExecutor itself, and registers a forwarding
// MachineObserver in front of the cluster index. That lets it separate
// commit time (executor callbacks into the NodeManager) and index-notify
// time from scheduling-pass time.
//
// It only counts if it measures the same program: every report and every
// per-job record it produces must be byte-identical to Simulation::run() on
// the same cell (the benchmark checks that on every traced cell). It
// supports exactly the configuration the benchmark workloads use — Ideal
// execution model, no application model, no runtime predictor, zero
// reconfiguration overhead, Backfill or SD-Policy — and rejects anything
// else at construction. It ignores SimulationConfig::shards: it reads the
// flat ClusterStateIndex, whose answers every shard count reproduces.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "api/simulation.h"
#include "core/sd_policy.h"
#include "sched/backfill.h"

namespace perfbench {

using sdsched::SimTime;

/// The layers a span can be charged to (names match the metric prefixes).
enum class Layer : int { Sim, Sched, Drom, Cluster, Model, Metrics, Api, kCount };
inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

/// Span stack with per-layer self-time accumulation. A span's self time is
/// its duration minus the time its child spans cover; time inside the
/// traced interval that no span covers is "unattributed".
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  void enter(Layer layer) { stack_.push_back(Frame{layer, Clock::now(), {}}); }

  /// Close the innermost span; returns its duration.
  Clock::duration leave();

  [[nodiscard]] double self_s(Layer layer) const {
    return seconds(self_[static_cast<std::size_t>(layer)]);
  }
  /// Sum of top-level span durations (what the layers account for).
  [[nodiscard]] double attributed_s() const { return seconds(top_level_); }

  [[nodiscard]] static double seconds(Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  }

 private:
  struct Frame {
    Layer layer;
    Clock::time_point start;
    Clock::duration child;
  };
  std::vector<Frame> stack_;
  std::array<Clock::duration, kLayerCount> self_{};
  Clock::duration top_level_{};
};

/// RAII span.
class Span {
 public:
  Span(Tracer& tracer, Layer layer) : tracer_(tracer) { tracer_.enter(layer); }
  ~Span() { tracer_.leave(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
};

/// Work counts recorded at the same boundaries as the spans.
struct KernelCounts {
  std::uint64_t events = 0;             ///< events fired
  std::uint64_t schedules = 0;          ///< Engine::schedule_at calls
  std::uint64_t cancels = 0;            ///< Engine::cancel calls
  std::uint64_t passes = 0;             ///< scheduling passes
  std::uint64_t submits_coalesced = 0;  ///< same-time submits folded into one pass
  std::uint64_t commits = 0;            ///< NodeManager start/guest/finish calls
  std::uint64_t notifies = 0;           ///< cluster-index notifications
  std::uint64_t reconfigs = 0;          ///< running-job reconfigurations
  std::uint64_t breakpoints_sum = 0;    ///< profile breakpoints after each pass
  std::vector<double> pass_us;          ///< inclusive duration of every pass
};

class TracedKernel final : public sdsched::StartExecutor {
 public:
  /// Throws std::invalid_argument for any configuration the kernel does not
  /// reproduce exactly (see the header comment).
  TracedKernel(sdsched::SimulationConfig config, sdsched::Workload workload);
  ~TracedKernel() override;

  TracedKernel(const TracedKernel&) = delete;
  TracedKernel& operator=(const TracedKernel&) = delete;

  /// Run to completion; one-shot, like Simulation::run().
  [[nodiscard]] sdsched::SimulationReport run();

  void start_static(sdsched::JobId job, const std::vector<int>& nodes) override;
  void start_guest(sdsched::JobId job, const sdsched::MatePlan& plan) override;

  [[nodiscard]] const Tracer& tracer() const noexcept { return tracer_; }
  [[nodiscard]] const KernelCounts& counts() const noexcept { return counts_; }
  [[nodiscard]] const sdsched::BackfillScheduler& scheduler() const noexcept {
    return *scheduler_;
  }
  /// The SD-Policy scheduler, or nullptr in a backfill cell.
  [[nodiscard]] const sdsched::SdPolicyScheduler* sd_scheduler() const noexcept {
    return sd_;
  }
  /// Wall time of run(), spans included.
  [[nodiscard]] double wall_s() const noexcept { return wall_s_; }

 private:
  /// Machine observer in front of the flat index: one cluster span per
  /// occupancy notification.
  class NotifyForwarder final : public sdsched::MachineObserver {
   public:
    explicit NotifyForwarder(TracedKernel& kernel) : kernel_(kernel) {}
    void on_node_occupancy_changed(int node_id) override;

   private:
    TracedKernel& kernel_;
  };

  void handle_event(const sdsched::EventQueue::Fired& fired);
  void on_submit(sdsched::JobId id);
  void on_finish(sdsched::JobId id, sdsched::EventHandle handle);
  void run_pass();
  void arm_tick();
  void reconfigure_job(sdsched::JobId id);
  void schedule_finish(sdsched::Job& job);
  sdsched::EventHandle schedule(SimTime time, sdsched::Event event);
  void cancel(sdsched::EventHandle handle);

  Tracer tracer_;
  KernelCounts counts_;
  sdsched::SimulationConfig config_;
  sdsched::Workload workload_;
  sdsched::Engine engine_;
  sdsched::Machine machine_;
  sdsched::JobRegistry jobs_;
  sdsched::ClusterStateIndex cluster_index_;
  NotifyForwarder forwarder_;
  sdsched::DromRegistry drom_;
  sdsched::NodeManager node_mgr_;
  sdsched::ProgressTracker tracker_;
  std::unique_ptr<sdsched::BackfillScheduler> scheduler_;
  sdsched::SdPolicyScheduler* sd_ = nullptr;
  sdsched::MetricsCollector metrics_;

  std::uint64_t malleable_starts_ = 0;
  std::uint64_t ticks_cancelled_ = 0;
  SimTime next_tick_ = -1;
  sdsched::EventHandle tick_event_ = sdsched::kInvalidEvent;
  double wall_s_ = 0.0;
  bool ran_ = false;
};

}  // namespace perfbench
