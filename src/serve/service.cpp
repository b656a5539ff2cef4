#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "core/context.hpp"
#include "core/metrics.hpp"

namespace lain::serve {

namespace {

// Host monotonic clock for the job-timeout monitor (serve robustness;
// strictly host-side — never fed into a simulation).
std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool job_has_flag(const core::ScenarioJobSpec& spec,
                  const std::string& flag) {
  for (const auto& [k, v] : spec.values) {
    if (k == flag) return true;
  }
  return std::find(spec.switches.begin(), spec.switches.end(), flag) !=
         spec.switches.end();
}

// Streams one job's telemetry records to its client, prefixing each
// simulation's manifest with a started frame so the client can map
// the job id to the run id the records demultiplex by.  Summary
// frames are watched for the control flags so the worker can pick the
// job's terminal state.  Callbacks may run concurrently when the job
// sweeps in parallel — the FrameWriter serializes the frames and the
// flags are atomic.
class JobFrameSink final : public telemetry::MetricsSink {
 public:
  JobFrameSink(std::string job_id, FrameWriterPtr out)
      : job_(std::move(job_id)), out_(std::move(out)) {}

  void on_manifest(const telemetry::RunManifest& m) override {
    out_->write_line(started_frame(job_, m.run));
    out_->write_line(telemetry::to_json(m));
  }
  void on_window(const telemetry::WindowRecord& w) override {
    out_->write_line(telemetry::to_json(w));
  }
  void on_fault(const telemetry::FaultRecord& f) override {
    out_->write_line(telemetry::to_json(f));
  }
  void on_flit(const telemetry::FlitRecord& f) override {
    out_->write_line(telemetry::to_json(f));
  }
  void on_summary(const telemetry::RunSummary& s) override {
    if (s.canceled) canceled_.store(true, std::memory_order_relaxed);
    if (s.aborted_saturated) {
      aborted_.store(true, std::memory_order_relaxed);
    }
    if (s.aborted_disconnected) {
      disconnected_.store(true, std::memory_order_relaxed);
    }
    out_->write_line(telemetry::to_json(s));
  }

  bool saw_canceled() const {
    return canceled_.load(std::memory_order_relaxed);
  }
  bool saw_aborted() const {
    return aborted_.load(std::memory_order_relaxed);
  }
  bool saw_disconnected() const {
    return disconnected_.load(std::memory_order_relaxed);
  }

 private:
  std::string job_;
  FrameWriterPtr out_;
  std::atomic<bool> canceled_{false};
  std::atomic<bool> aborted_{false};
  std::atomic<bool> disconnected_{false};
};

}  // namespace

void JobQueue::push(const JobPtr& job) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(job);
    registry_.push_back(job);
  }
  cv_.notify_one();
}

JobPtr JobQueue::pop() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return nullptr;  // closed and drained
  JobPtr job = queue_.front();
  queue_.pop_front();
  return job;
}

void JobQueue::close() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

JobPtr JobQueue::find(const std::string& id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const JobPtr& job : registry_) {
    if (job->id == id) return job;
  }
  return nullptr;
}

std::int64_t JobQueue::depth() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::int64_t>(queue_.size());
}

std::vector<JobPtr> JobQueue::all() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return registry_;
}

SweepService::SweepService(core::LainContext& ctx,
                           const core::ScenarioRegistry& registry,
                           ServeOptions opt)
    : ctx_(ctx), registry_(registry), opt_(std::move(opt)) {}

SweepService::~SweepService() { stop(); }

void SweepService::start() {
  // One pool lane per worker, leased for the service's lifetime; the
  // floor of 1 is the lane the first worker occupies, so a fully
  // subscribed budget still serves (serially).  Jobs' sweep engines
  // and sharded kernels lease their extra lanes per run on top, which
  // keeps every level inside the one budget.
  core::ThreadBudget& budget = ctx_.thread_budget();
  const int desired = opt_.workers <= 0 ? budget.total() : opt_.workers;
  lease_ = budget.acquire(desired, /*min_grant=*/1);

  server_.start(
      opt_.socket_path,
      [this](const std::string& line, const FrameWriterPtr& out) {
        handle_line(line, out);
      },
      [this](const FrameWriterPtr& out) {
        // A vanished client cannot read its stream; cancel its live
        // jobs so worker lanes go back to jobs someone is watching.
        for (const JobPtr& job : queue_.all()) {
          if (job->out == out) {
            job->cancel.store(true, std::memory_order_relaxed);
            JobState expected = JobState::kQueued;
            if (job->state.compare_exchange_strong(expected,
                                                   JobState::kCanceled)) {
              jobs_finished_.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });

  workers_.reserve(static_cast<std::size_t>(lease_.count()));
  for (int i = 0; i < lease_.count(); ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  if (opt_.job_timeout_s > 0.0) {
    timeout_monitor_ = std::thread([this] { timeout_loop(); });
  }
}

void SweepService::timeout_loop() {
  const auto deadline_ns =
      static_cast<std::int64_t>(opt_.job_timeout_s * 1e9);
  std::unique_lock<std::mutex> lock(monitor_mu_);
  while (!monitor_stop_) {
    // 50 ms scan period: far below any sane job timeout, cheap enough
    // to poll the registry.
    monitor_cv_.wait_for(lock, std::chrono::milliseconds(50),
                         [this] { return monitor_stop_; });
    if (monitor_stop_) return;
    const std::int64_t now = steady_now_ns();
    for (const JobPtr& job : queue_.all()) {
      if (job->state.load(std::memory_order_relaxed) != JobState::kRunning) {
        continue;
      }
      const std::int64_t started =
          job->started_ns.load(std::memory_order_relaxed);
      if (started < 0 || now - started < deadline_ns) continue;
      if (!job->timed_out.exchange(true, std::memory_order_relaxed)) {
        // The cooperative cancel: the job stops at its next window
        // boundary; run_job reads timed_out to pick the terminal
        // state.
        job->cancel.store(true, std::memory_order_relaxed);
      }
    }
  }
}

ServiceStats SweepService::stats() const {
  ServiceStats s;
  s.jobs_accepted = jobs_accepted_.load(std::memory_order_relaxed);
  s.jobs_running = jobs_running_.load(std::memory_order_relaxed);
  s.jobs_finished = jobs_finished_.load(std::memory_order_relaxed);
  s.queue_depth = queue_.depth();
  s.workers = worker_count();
  s.budget_total = ctx_.thread_budget().total();
  s.budget_in_use = ctx_.thread_budget().in_use();
  const core::CharacterizationCache& cache = ctx_.characterizations();
  s.cache_lookups = cache.lookups();
  s.cache_characterizations = cache.characterizations();
  s.cache_hits = cache.hits();
  return s;
}

void SweepService::handle_line(const std::string& line,
                               const FrameWriterPtr& out) {
  std::vector<core::JsonField> fields;
  std::string type;
  try {
    fields = core::parse_flat_json_object(line);
    if (const core::JsonField* f = core::find_field(fields, "type")) {
      type = f->text;
    }
    if (type.empty()) {
      throw std::invalid_argument("request is missing the \"type\" key");
    }
  } catch (const std::exception& e) {
    out->write_line(error_frame(e.what()));
    return;
  }

  const core::JsonField* job = core::find_field(fields, "job");
  const std::string job_id = job != nullptr ? job->text : "";

  if (type == "submit") {
    handle_submit(fields, out);
  } else if (type == "status") {
    handle_status(job_id, out);
  } else if (type == "cancel") {
    handle_cancel(job_id, out);
  } else if (type == "shutdown") {
    out->write_line(bye_frame());
    request_shutdown();
  } else {
    out->write_line(error_frame("unknown request type: " + type));
  }
}

void SweepService::handle_submit(const std::vector<core::JsonField>& fields,
                                 const FrameWriterPtr& out) {
  auto job = std::make_shared<Job>();
  try {
    job->spec = core::scenario_job_from_fields(registry_, fields,
                                               /*ignore_keys=*/{"type"});
    // Server-side output paths make no sense for a served job: the
    // stream IS the output, and it goes down this connection.
    for (const char* banned : {"out", "metrics-out", "progress"}) {
      if (job_has_flag(job->spec, banned)) {
        throw std::invalid_argument(
            std::string("flag \"") + banned +
            "\" is not accepted over the wire (the job's record stream "
            "goes to the submitting connection)");
      }
    }
    // Daemon-wide saturation-guard default for jobs that stream
    // windows but did not pick a guard themselves.
    if (opt_.abort_latency_mult > 0.0 &&
        !job_has_flag(job->spec, "abort-on-saturation") &&
        job_has_flag(job->spec, "metrics-window")) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", opt_.abort_latency_mult);
      job->spec.values.emplace_back("abort-on-saturation", buf);
    }
    // Full parse now, so a malformed job is rejected at submit time
    // with the exact build_scenario_spec error instead of failing
    // later on a worker.
    (void)core::build_scenario_spec(registry_, job->spec, {});
  } catch (const std::exception& e) {
    out->write_line(error_frame(e.what()));
    return;
  }

  job->id =
      "job-" + std::to_string(next_job_.fetch_add(1,
                                                  std::memory_order_relaxed));
  job->out = out;
  jobs_accepted_.fetch_add(1, std::memory_order_relaxed);
  // The accepted frame goes out before the job is queued: once queued,
  // a worker may run it at once, and a job that fails fast would
  // otherwise send its done frame ahead of the id the client needs to
  // read it.  The reported depth counts this job.
  out->write_line(accepted_frame(job->id, job->spec.scenario,
                                 queue_.depth() + 1));
  queue_.push(job);
}

void SweepService::handle_cancel(const std::string& id,
                                 const FrameWriterPtr& out) {
  const JobPtr job = queue_.find(id);
  if (job == nullptr) {
    out->write_line(error_frame("unknown job: " + id, id));
    return;
  }
  job->cancel.store(true, std::memory_order_relaxed);
  JobState expected = JobState::kQueued;
  if (job->state.compare_exchange_strong(expected, JobState::kCanceled)) {
    // Never started: terminal immediately.  (The worker that later
    // pops it sees the state and skips.)
    jobs_finished_.fetch_add(1, std::memory_order_relaxed);
    job->out->write_line(done_frame(job->id, JobState::kCanceled));
    if (job->out != out) {
      out->write_line(status_frame(job->id, JobState::kCanceled));
    }
    return;
  }
  // Running (or already terminal): the cancel flag does the work; the
  // done frame comes from the worker at the next window boundary.
  out->write_line(status_frame(job->id, job->state.load()));
}

void SweepService::handle_status(const std::string& id,
                                 const FrameWriterPtr& out) {
  if (id.empty()) {
    out->write_line(stats_frame(stats()));
    return;
  }
  const JobPtr job = queue_.find(id);
  if (job == nullptr) {
    out->write_line(error_frame("unknown job: " + id, id));
    return;
  }
  out->write_line(status_frame(job->id, job->state.load()));
}

void SweepService::worker_loop() {
  while (JobPtr job = queue_.pop()) {
    // Stamp before the CAS: once the state reads kRunning, the
    // timeout monitor must see a valid start time.
    job->started_ns.store(steady_now_ns(), std::memory_order_relaxed);
    JobState expected = JobState::kQueued;
    if (!job->state.compare_exchange_strong(expected, JobState::kRunning)) {
      continue;  // canceled while queued; done frame already sent
    }
    jobs_running_.fetch_add(1, std::memory_order_relaxed);
    run_job(job);
  }
}

void SweepService::run_job(const JobPtr& job) {
  JobFrameSink sink(job->id, job->out);
  JobState terminal = JobState::kDone;
  std::string error;
  try {
    core::ScenarioSpec spec =
        core::build_scenario_spec(registry_, job->spec, {});
    spec.run.telemetry.sink = &sink;
    spec.run.telemetry.cancel = &job->cancel;
    spec.metrics_out.clear();
    spec.progress = false;
    const core::Scenario* scenario = registry_.find(job->spec.scenario);
    // The run itself is the batch CLI's core, on the shared context:
    // the engine leases its lanes from the same budget the pool and
    // every other job draw from, and characterizations come from the
    // shared cache.
    const core::SweepEngine engine = ctx_.make_engine(spec.threads);
    (void)scenario->run(ctx_, spec, engine);
    if (job->timed_out.load(std::memory_order_relaxed)) {
      terminal = JobState::kAbortedTimeout;
    } else if (sink.saw_canceled() ||
               job->cancel.load(std::memory_order_relaxed)) {
      terminal = JobState::kCanceled;
    } else if (sink.saw_disconnected()) {
      terminal = JobState::kAbortedDisconnected;
    } else if (sink.saw_aborted()) {
      terminal = JobState::kAborted;
    }
  } catch (const std::exception& e) {
    terminal = JobState::kFailed;
    error = e.what();
  } catch (...) {
    // Containment: whatever a job throws poisons only this job.  The
    // worker survives, the lane goes back to the pool, and the client
    // learns the job died instead of hanging on a vanished stream.
    terminal = JobState::kFailed;
    error = "job threw a non-standard exception";
  }
  // Counters go terminal BEFORE the done frame is written: a client
  // that sequences "last done frame -> status request" must read
  // stats that already count this job as finished.
  job->state.store(terminal);
  jobs_running_.fetch_sub(1, std::memory_order_relaxed);
  jobs_finished_.fetch_add(1, std::memory_order_relaxed);
  if (terminal == JobState::kFailed) {
    // Job-scoped error frame (carries the job id — clients must not
    // read it as a submit rejection) ahead of the terminal done frame.
    job->out->write_line(error_frame(error, job->id));
  }
  job->out->write_line(done_frame(job->id, terminal, error));
}

void SweepService::request_shutdown() {
  {
    const std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void SweepService::wait() {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
  lock.unlock();
  stop();
}

void SweepService::stop() {
  {
    const std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (stopped_) return;
    stopped_ = true;
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
  // Queued jobs drain (accepted work completes), workers join, then
  // the socket closes — so every accepted job's client saw a terminal
  // frame before its connection drops.
  queue_.close();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  {
    const std::lock_guard<std::mutex> lock(monitor_mu_);
    monitor_stop_ = true;
  }
  monitor_cv_.notify_all();
  if (timeout_monitor_.joinable()) timeout_monitor_.join();
  server_.stop();
  lease_.release();
}

}  // namespace lain::serve
