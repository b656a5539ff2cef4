#include "serve/proto.hpp"

#include "core/json.hpp"

namespace lain::serve {

using core::JsonLine;

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kCanceled:
      return "canceled";
    case JobState::kAborted:
      return "aborted_saturated";
    case JobState::kAbortedTimeout:
      return "aborted_timeout";
    case JobState::kAbortedDisconnected:
      return "aborted_disconnected";
    case JobState::kFailed:
      return "failed";
  }
  return "unknown";
}

std::string accepted_frame(const std::string& job,
                           const std::string& scenario,
                           std::int64_t queue_depth) {
  return JsonLine()
      .str("type", "accepted")
      .str("job", job)
      .str("scenario", scenario)
      .num("queue_depth", queue_depth)
      .done();
}

std::string started_frame(const std::string& job, const std::string& run) {
  return JsonLine()
      .str("type", "started")
      .str("job", job)
      .str("run", run)
      .done();
}

std::string done_frame(const std::string& job, JobState state,
                       const std::string& error) {
  JsonLine line;
  line.str("type", "done").str("job", job).str("state", job_state_name(state));
  if (!error.empty()) line.str("error", error);
  return line.done();
}

std::string status_frame(const std::string& job, JobState state) {
  return JsonLine()
      .str("type", "status")
      .str("job", job)
      .str("state", job_state_name(state))
      .done();
}

std::string stats_frame(const ServiceStats& s) {
  return JsonLine()
      .str("type", "stats")
      .num("jobs_accepted", s.jobs_accepted)
      .num("jobs_running", s.jobs_running)
      .num("jobs_finished", s.jobs_finished)
      .num("queue_depth", s.queue_depth)
      .num("workers", s.workers)
      .num("budget_total", s.budget_total)
      .num("budget_in_use", s.budget_in_use)
      .num("cache_lookups", s.cache_lookups)
      .num("cache_characterizations", s.cache_characterizations)
      .num("cache_hits", s.cache_hits)
      .done();
}

std::string error_frame(const std::string& message, const std::string& job) {
  JsonLine line;
  line.str("type", "error").str("message", message);
  if (!job.empty()) line.str("job", job);
  return line.done();
}

std::string bye_frame() { return JsonLine().str("type", "bye").done(); }

}  // namespace lain::serve
