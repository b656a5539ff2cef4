// lain_submit — scripting client for the lain_serve daemon.
//
//   lain_submit --socket PATH --job 'JSON'        submit one job
//   lain_submit --socket PATH --scenario-file F   submit a JSONL batch
//   lain_submit --socket PATH --cancel JOB        cancel a job by id
//   lain_submit --socket PATH --stats             print service stats
//   lain_submit --socket PATH --shutdown          stop the daemon
//
// --retry N retries the initial connect up to N times with jittered
// exponential backoff (--backoff-ms B, default 100) when the daemon
// is not up yet (socket file missing, or connection refused) — so a
// script can start lain_serve and lain_submit concurrently without a
// sleep.  Other connect failures are never retried.
//
// Job objects use the scenario wire format (README "Sweep service"):
//   {"scenario":"injection_sweep","rates":"0.05","metrics-window":"500"}
//
// Every frame the daemon sends back is printed to stdout, one per
// line — accepted/started, then the streamed manifest/window/summary
// records (demultiplex concurrent jobs by their "run" field), then a
// terminal done frame per job.  Modes compose in the order above:
// jobs first, stats after the last job finished, shutdown last.
// Exits 0 when every submitted job reached a clean terminal state
// (done or aborted_saturated); 1 on failed/canceled jobs or protocol
// errors; 2 on usage errors.

#include <cstdio>
#include <exception>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/json.hpp"
#include "serve/socket.hpp"

namespace {

using lain::core::json_field;
using lain::core::JsonLine;

constexpr const char* kUsage =
    "usage: lain_submit --socket PATH [--job JSON]\n"
    "                   [--scenario-file FILE] [--cancel JOB]\n"
    "                   [--retry N] [--backoff-ms MS]\n"
    "                   [--stats] [--shutdown]\n";

// Wraps one wire-format job object into a submit frame by splicing
// the type key after the opening brace.  The job's own keys go to the
// daemon as written: it validates them, and rejects a job that
// repeats the type key.
std::string submit_frame(const std::string& job_line) {
  const std::size_t open = job_line.find('{');
  if (open == std::string::npos) {
    throw std::invalid_argument("job is not a JSON object: " + job_line);
  }
  std::string frame = JsonLine().str("type", "submit").done();
  std::size_t rest = open + 1;
  while (rest < job_line.size() &&
         (job_line[rest] == ' ' || job_line[rest] == '\t')) {
    ++rest;
  }
  if (rest < job_line.size() && job_line[rest] == '}') {
    return frame;  // daemon rejects it with the reason
  }
  frame.back() = ',';
  return frame + job_line.substr(open + 1);
}

// Prints every incoming frame until each of the `pending` submissions
// was answered (accepted or error) and every accepted job reached its
// done frame.  Sets *failed on error frames and on failed/canceled
// terminal states.  Returns the number of jobs still outstanding —
// nonzero only when the connection died mid-stream.
int drain_jobs(lain::serve::Client& client, int pending, bool* failed) {
  std::string line;
  int unanswered = pending;  // submits without accepted/error yet
  int running = 0;           // accepted jobs without done yet
  while ((unanswered > 0 || running > 0) && client.read_line(&line)) {
    std::puts(line.c_str());
    const std::optional<std::string> type = json_field(line, "type");
    if (type == "error") {
      *failed = true;
      // Only job-LESS error frames answer a submit; an error frame
      // carrying a job id belongs to an already-accepted job (its
      // done frame still follows).
      if (!json_field(line, "job") && unanswered > 0) --unanswered;
    } else if (type == "accepted") {
      --unanswered;
      ++running;
    } else if (type == "done") {
      --running;
      const std::optional<std::string> state = json_field(line, "state");
      if (state == "failed" || state == "canceled") *failed = true;
    }
  }
  return unanswered + running;
}

int run(int argc, char** argv) {
  using lain::core::ArgParser;
  const ArgParser args(
      argc - 1, argv + 1,
      {"socket", "job", "scenario-file", "cancel", "retry", "backoff-ms"},
      {"stats", "shutdown", "help"});
  if (args.has("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  const std::string socket = args.get("socket", "");
  if (socket.empty()) {
    std::fprintf(stderr, "lain_submit: --socket PATH is required\n%s",
                 kUsage);
    return 2;
  }

  std::vector<std::string> jobs;
  const std::string inline_job = args.get("job", "");
  if (!inline_job.empty()) jobs.push_back(inline_job);
  const std::string file = args.get("scenario-file", "");
  if (!file.empty()) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "lain_submit: cannot open %s\n", file.c_str());
      return 2;
    }
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos || line[first] == '#') continue;
      jobs.push_back(line);
    }
  }
  const std::string cancel_id = args.get("cancel", "");
  if (jobs.empty() && cancel_id.empty() && !args.has("stats") &&
      !args.has("shutdown")) {
    std::fprintf(stderr, "lain_submit: nothing to do\n%s", kUsage);
    return 2;
  }

  int retries = 0;
  int backoff_ms = 0;
  try {
    retries = args.get_int("retry", 0);
    backoff_ms = args.get_int("backoff-ms", 100);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "lain_submit: %s\n%s", e.what(), kUsage);
    return 2;
  }
  if (retries < 0 || backoff_ms < 1) {
    std::fprintf(stderr,
                 "lain_submit: --retry must be >= 0 and --backoff-ms "
                 ">= 1\n%s",
                 kUsage);
    return 2;
  }

  lain::serve::Client client(socket, retries, backoff_ms);
  bool failed = false;
  std::string line;

  for (const std::string& job : jobs) client.send_line(submit_frame(job));
  if (!jobs.empty() &&
      drain_jobs(client, static_cast<int>(jobs.size()), &failed) != 0) {
    std::fputs("lain_submit: connection lost mid-stream\n", stderr);
    return 1;
  }

  if (!cancel_id.empty()) {
    client.send_line(
        JsonLine().str("type", "cancel").str("job", cancel_id).done());
    if (client.read_line(&line)) std::puts(line.c_str());
  }
  if (args.has("stats")) {
    client.send_line(JsonLine().str("type", "status").done());
    if (client.read_line(&line)) std::puts(line.c_str());
  }
  if (args.has("shutdown")) {
    client.send_line(JsonLine().str("type", "shutdown").done());
    // Wait for the ack so the daemon committed to exiting before we
    // return (the smoke test relies on this ordering).
    while (client.read_line(&line)) {
      std::puts(line.c_str());
      if (json_field(line, "type") == "bye") break;
    }
  }
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lain_submit: %s\n", e.what());
    return 1;
  }
}
