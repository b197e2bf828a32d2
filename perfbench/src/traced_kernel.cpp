#include "traced_kernel.h"

#include <cassert>
#include <stdexcept>
#include <string>

#include "util/logging.h"

namespace perfbench {

using namespace sdsched;

Tracer::Clock::duration Tracer::leave() {
  const Clock::time_point end = Clock::now();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const Clock::duration total = end - frame.start;
  const auto layer = static_cast<std::size_t>(frame.layer);
  self_[layer] += total - frame.child;
  if (stack_.empty()) {
    top_level_ += total;
  } else {
    stack_.back().child += total;
  }
  return total;
}

namespace {

SimulationConfig checked(SimulationConfig config) {
  std::string why;
  if (config.execution_model != RuntimeModelKind::Ideal) why = "execution_model != Ideal";
  if (config.use_app_model) why = "use_app_model";
  if (config.use_runtime_prediction) why = "use_runtime_prediction";
  if (config.reconfig_overhead != 0) why = "reconfig_overhead != 0";
  if (config.policy != PolicyKind::Backfill && config.policy != PolicyKind::SdPolicy) {
    why = std::string("policy ") + to_string(config.policy);
  }
  if (!why.empty()) {
    throw std::invalid_argument("TracedKernel: unsupported configuration: " + why);
  }
  return config;
}

}  // namespace

void TracedKernel::NotifyForwarder::on_node_occupancy_changed(int node_id) {
  ++kernel_.counts_.notifies;
  const Span span(kernel_.tracer_, Layer::Cluster);
  kernel_.cluster_index_.on_node_occupancy_changed(node_id);
}

TracedKernel::TracedKernel(SimulationConfig config, Workload workload)
    : config_(checked(config)),
      workload_(std::move(workload)),
      machine_(config_.machine),
      cluster_index_(machine_, jobs_),
      forwarder_(*this),
      node_mgr_(machine_, jobs_, drom_),
      tracker_(config_.execution_model) {
  // Take the machine's observer slot from the index; the forwarder hands
  // every notification on to it inside a cluster span.
  machine_.set_observer(&forwarder_);
  workload_.prepare_for(config_.machine.nodes, machine_.cores_per_node());
  for (const auto& spec : workload_.jobs()) {
    jobs_.add(spec);
  }
  if (config_.policy == PolicyKind::SdPolicy) {
    auto sd = std::make_unique<SdPolicyScheduler>(machine_, jobs_, *this, config_.sched,
                                                  config_.sd);
    sd_ = sd.get();
    scheduler_ = std::move(sd);
  } else {
    scheduler_ = std::make_unique<BackfillScheduler>(machine_, jobs_, *this, config_.sched);
  }
  scheduler_->set_cluster_index(&cluster_index_);
  engine_.set_handler([this](const EventQueue::Fired& fired) { handle_event(fired); });
}

TracedKernel::~TracedKernel() { machine_.set_observer(nullptr); }

EventHandle TracedKernel::schedule(SimTime time, Event event) {
  ++counts_.schedules;
  return engine_.schedule_at(time, event);
}

void TracedKernel::cancel(EventHandle handle) {
  ++counts_.cancels;
  engine_.cancel(handle);
}

void TracedKernel::schedule_finish(Job& job) {
  if (job.finish_event != kInvalidEvent) {
    cancel(job.finish_event);
  }
  assert(job.rate > 0.0 && "running job with zero progress rate");
  const SimTime finish_at = engine_.now() + tracker_.remaining_wallclock(job);
  job.finish_event = schedule(finish_at, Event{EventKind::JobFinish, job.spec.id});
}

void TracedKernel::reconfigure_job(JobId id) {
  Job& job = jobs_.at(id);
  if (!job.running()) return;
  ++counts_.reconfigs;
  const Span span(tracer_, Layer::Model);
  tracker_.settle(job, engine_.now());
  tracker_.set_rate_from_shares(job, 1.0);
  job.pending_reconfig_ops = 0;  // reconfig_overhead is 0 (checked)
  schedule_finish(job);
}

void TracedKernel::start_static(JobId id, const std::vector<int>& nodes) {
  const Span commit(tracer_, Layer::Drom);
  ++counts_.commits;
  Job& job = jobs_.at(id);
  assert(job.pending());
  const SimTime now = engine_.now();
  job.state = JobState::Running;
  job.start_time = now;
  job.last_progress_update = now;
  job.work_done = 0.0;
  job.predicted_increase = 0;
  job.predicted_end = now + job.spec.req_time;
  node_mgr_.start_static(now, id, nodes);
  {
    const Span model(tracer_, Layer::Model);
    tracker_.set_rate_from_shares(job, 1.0);
    schedule_finish(job);
  }
}

void TracedKernel::start_guest(JobId id, const MatePlan& plan) {
  const Span commit(tracer_, Layer::Drom);
  ++counts_.commits;
  Job& job = jobs_.at(id);
  assert(job.pending());
  const SimTime now = engine_.now();
  job.state = JobState::Running;
  job.start_time = now;
  job.last_progress_update = now;
  job.work_done = 0.0;
  job.predicted_increase = plan.guest_increase;
  job.predicted_end = now + job.spec.req_time + plan.guest_increase;

  for (std::size_t i = 0; i < plan.mates.size(); ++i) {
    Job& mate = jobs_.at(plan.mates[i]);
    mate.predicted_increase += plan.mate_increases[i];
    mate.predicted_end += plan.mate_increases[i];
    ++counts_.notifies;
    const Span notify(tracer_, Layer::Cluster);
    cluster_index_.on_predicted_end_changed(plan.mates[i]);
  }

  const auto affected = node_mgr_.start_guest(now, id, plan.nodes);
  for (const JobId mate_id : affected) {
    reconfigure_job(mate_id);
  }
  {
    const Span model(tracer_, Layer::Model);
    tracker_.set_rate_from_shares(job, 1.0);
    schedule_finish(job);
  }
  ++malleable_starts_;
}

void TracedKernel::on_submit(JobId id) {
  {
    const Span span(tracer_, Layer::Sched);
    scheduler_->on_submit(id);
  }
  // Simulation::on_submit's coalescing rule, verbatim.
  if (config_.policy != PolicyKind::SdPolicy &&
      config_.sched.priority.kind == PriorityKind::Fcfs && !engine_.idle() &&
      engine_.next_time() == engine_.now() &&
      engine_.next_event().kind == EventKind::JobSubmit) {
    ++counts_.submits_coalesced;
    return;
  }
  run_pass();
}

void TracedKernel::on_finish(JobId id, EventHandle handle) {
  Job& job = jobs_.at(id);
  if (handle != job.finish_event) {
    log_error("sim", "stale finish event for job ", id);
    return;
  }
  const SimTime now = engine_.now();
  {
    const Span model(tracer_, Layer::Model);
    tracker_.settle(job, now);
  }
  assert(job.work_done + 1e-6 >= static_cast<double>(job.spec.base_runtime));
  job.state = JobState::Completed;
  job.end_time = now;
  job.finish_event = kInvalidEvent;

  std::vector<JobId> affected;
  {
    const Span commit(tracer_, Layer::Drom);
    ++counts_.commits;
    affected = node_mgr_.finish_job(now, id);
  }
  for (const JobId other : affected) {
    reconfigure_job(other);
  }
  {
    const Span collect(tracer_, Layer::Metrics);
    metrics_.on_complete(job);
  }
  {
    const Span span(tracer_, Layer::Sched);
    scheduler_->on_finish(id);
  }
  run_pass();
}

void TracedKernel::run_pass() {
  ++counts_.passes;
  tracer_.enter(Layer::Sched);
  scheduler_->schedule_pass(engine_.now());
  const auto took = tracer_.leave();
  counts_.pass_us.push_back(std::chrono::duration<double, std::micro>(took).count());
  counts_.breakpoints_sum += scheduler_->profile_breakpoints();
  arm_tick();
}

void TracedKernel::arm_tick() {
  // Simulation::arm_tick, verbatim.
  if (config_.sched.bf_interval <= 0) return;
  if (scheduler_->queue().empty()) {
    if (tick_event_ != kInvalidEvent) {
      cancel(tick_event_);
      tick_event_ = kInvalidEvent;
      ++ticks_cancelled_;
    }
    return;
  }
  if (tick_event_ != kInvalidEvent) return;
  if (next_tick_ < engine_.now()) {
    next_tick_ = engine_.now() + config_.sched.bf_interval;
  }
  tick_event_ = schedule(next_tick_, Event{EventKind::SchedulerTick, kInvalidJob});
}

void TracedKernel::handle_event(const EventQueue::Fired& fired) {
  switch (fired.event.kind) {
    case EventKind::JobSubmit:
      on_submit(fired.event.job);
      break;
    case EventKind::JobFinish:
      on_finish(fired.event.job, fired.handle);
      break;
    case EventKind::SchedulerTick:
      next_tick_ = -1;
      tick_event_ = kInvalidEvent;
      if (!scheduler_->queue().empty()) {
        run_pass();
      }
      break;
  }
}

SimulationReport TracedKernel::run() {
  if (ran_) throw std::logic_error("TracedKernel::run() is one-shot");
  ran_ = true;
  const auto started = Tracer::Clock::now();

  SimulationReport report;
  {
    const Span dispatch(tracer_, Layer::Sim);
    for (const auto& spec : workload_.jobs()) {
      schedule(spec.submit, Event{EventKind::JobSubmit, spec.id});
    }
    const std::uint64_t budget = config_.max_events == 0 ? UINT64_MAX : config_.max_events;
    counts_.events = engine_.run(budget);
    if (!engine_.idle()) {
      log_warn("sim", "event budget exhausted with ", engine_.pending_events(),
               " events pending");
    }
  }
  {
    const Span api(tracer_, Layer::Api);
    machine_.finalize_energy(engine_.now());
    report.policy = scheduler_->name();
    report.workload = workload_.info().name;
    report.records = metrics_.records();
    report.summary = metrics_.summarize(machine_.total_cores(), machine_.core_seconds(),
                                        machine_.energy().kwh());
    report.events_fired = counts_.events;
    report.scheduling_passes = counts_.passes;
    report.submits_coalesced = counts_.submits_coalesced;
    report.ticks_cancelled = ticks_cancelled_;
    report.malleable_starts = malleable_starts_;
    report.drom_shrink_ops = drom_.shrink_ops();
    report.drom_expand_ops = drom_.expand_ops();
    scheduler_->annotate(report);
  }
  wall_s_ = Tracer::seconds(Tracer::Clock::now() - started);
  return report;
}

}  // namespace perfbench
