// proto.hpp — the sweep-service wire protocol.
//
// Both directions speak newline-delimited flat JSON objects with a
// "type" discriminator.  Requests (client -> daemon):
//
//   {"type":"submit","scenario":NAME, <flag keys...>}
//       One scenario job: every key besides type/scenario is one of
//       the scenario's CLI flags (core/scenario_json.hpp wire format).
//   {"type":"status"}            service-wide stats frame
//   {"type":"status","job":ID}   one job's state
//   {"type":"cancel","job":ID}   stop at the next window boundary
//   {"type":"shutdown"}          drain queued jobs, then exit
//
// Responses (daemon -> client):
//
//   {"type":"accepted","job":ID,"scenario":NAME,"queue_depth":N}
//       precedes every other frame of the job
//   {"type":"started","job":ID,"run":RUN}
//       emitted before each simulation's manifest, mapping the job to
//       the telemetry run id the next frames demultiplex by
//   manifest / window / flit / summary
//       the PR 7 MetricsSink records, verbatim (README
//       "Observability") — bit-identical to a batch --metrics-out run
//   {"type":"done","job":ID,"state":STATE}       terminal; STATE is
//       done|canceled|aborted_saturated|aborted_timeout|
//       aborted_disconnected|failed ("error" key when failed)
//   {"type":"status","job":ID,"state":STATE}
//   {"type":"stats",...}         cache/budget/job counters
//   {"type":"error","message":MSG[,"job":ID]}
//       submit rejections carry no "job" key (the job was never
//       accepted); a failed running job emits an error frame WITH its
//       id before its done frame — clients must not count job-scoped
//       errors as submit answers
//   {"type":"bye"}               shutdown acknowledged
//
// Frame builders only — no I/O here.  Frames are written and read by
// the core/json.hpp codec, so every string follows its one rule (\"
// and \\ escaped, bytes below 0x20 written as spaces) and a frame can
// never span lines, whatever an error message holds.  A request with
// a repeated key is malformed and answered with an error frame.

#pragma once

#include <cstdint>
#include <string>

namespace lain::serve {

// Job lifecycle.  kAborted means the saturation guard fired;
// kCanceled covers both explicit cancel frames and disconnect
// auto-cancel; kAbortedTimeout is the per-job wall-clock deadline
// (--job-timeout-s) canceling at a window boundary;
// kAbortedDisconnected is the fault layer's fail-fast verdict on a
// fabric the scheduled faults left (partially) unreachable.
enum class JobState {
  kQueued,
  kRunning,
  kDone,
  kCanceled,
  kAborted,
  kAbortedTimeout,
  kAbortedDisconnected,
  kFailed,
};
const char* job_state_name(JobState s);

// Service-wide counters for the stats frame.
struct ServiceStats {
  std::int64_t jobs_accepted = 0;
  std::int64_t jobs_running = 0;
  std::int64_t jobs_finished = 0;  // any terminal state
  std::int64_t queue_depth = 0;
  int workers = 0;
  int budget_total = 0;
  int budget_in_use = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_characterizations = 0;
  std::uint64_t cache_hits = 0;
};

std::string accepted_frame(const std::string& job,
                           const std::string& scenario,
                           std::int64_t queue_depth);
std::string started_frame(const std::string& job, const std::string& run);
std::string done_frame(const std::string& job, JobState state,
                       const std::string& error = "");
std::string status_frame(const std::string& job, JobState state);
std::string stats_frame(const ServiceStats& stats);
std::string error_frame(const std::string& message,
                        const std::string& job = "");
std::string bye_frame();

}  // namespace lain::serve
