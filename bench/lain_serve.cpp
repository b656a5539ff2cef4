// lain_serve — the sweep-service daemon.
//
//   lain_serve --socket PATH [--workers N] [--abort-on-saturation M]
//
// Listens on a UNIX-domain socket and serves scenario jobs submitted
// as newline-delimited JSON frames (README "Sweep service").  All
// jobs run through the daemon's one LainContext: one warm
// characterization cache across every client, and one ThreadBudget
// that the worker pool, each job's sweep engine and each sharded
// kernel all lease lanes from — N clients submitting same-scheme jobs
// characterize once and never oversubscribe the host.
//
// --workers caps the pool (<= 0: the whole budget; the grant is
// clipped to what the budget has).  --abort-on-saturation installs a
// daemon-wide default saturation guard for jobs that stream windows
// without picking one themselves.  The daemon exits 0 on a clean
// shutdown frame and 2 on a usage error (no socket, a malformed
// number).

#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "core/cli.hpp"
#include "core/context.hpp"
#include "core/scenario.hpp"
#include "serve/service.hpp"

namespace {

constexpr const char* kUsage =
    "usage: lain_serve --socket PATH [--workers N]\n"
    "                  [--abort-on-saturation MULT] [--job-timeout-s S]\n"
    "\n"
    "  --socket              UNIX socket path to listen on (required)\n"
    "  --workers             job worker lanes to lease from the thread\n"
    "                        budget (0 = the whole budget)\n"
    "  --abort-on-saturation default saturation guard for jobs that\n"
    "                        stream windows (0 = none)\n"
    "  --job-timeout-s       per-job wall-clock timeout; timed-out jobs\n"
    "                        cancel at their next window boundary and\n"
    "                        report aborted_timeout (0 = none)\n"
    "\n"
    "Protocol and job schema: README \"Sweep service\".\n";

int run(int argc, char** argv) {
  using lain::core::ArgParser;
  const ArgParser args(
      argc - 1, argv + 1,
      {"socket", "workers", "abort-on-saturation", "job-timeout-s"},
      {"help"});
  if (args.has("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (!args.positionals().empty()) {
    std::fprintf(stderr, "lain_serve: unexpected argument: %s\n\n%s",
                 args.positionals().front().c_str(), kUsage);
    return 2;
  }
  lain::serve::ServeOptions opt;
  opt.socket_path = args.get("socket", "");
  try {
    opt.workers = args.get_int("workers", 0);
    opt.abort_latency_mult = args.get_double("abort-on-saturation", 0.0);
    opt.job_timeout_s = args.get_double("job-timeout-s", 0.0);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "lain_serve: %s\n\n%s", e.what(), kUsage);
    return 2;
  }
  if (opt.socket_path.empty()) {
    std::fprintf(stderr, "lain_serve: --socket PATH is required\n\n%s",
                 kUsage);
    return 2;
  }
  if (opt.abort_latency_mult < 0.0) {
    std::fputs("lain_serve: --abort-on-saturation must be >= 0\n", stderr);
    return 2;
  }
  if (opt.job_timeout_s < 0.0) {
    std::fputs("lain_serve: --job-timeout-s must be >= 0\n", stderr);
    return 2;
  }

  lain::core::LainContext ctx;
  lain::serve::SweepService service(
      ctx, lain::core::ScenarioRegistry::builtin(), opt);
  service.start();
  std::fprintf(stderr, "lain_serve: listening on %s (%d worker%s)\n",
               service.socket_path().c_str(), service.worker_count(),
               service.worker_count() == 1 ? "" : "s");
  service.wait();
  std::fputs("lain_serve: shutdown\n", stderr);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lain_serve: %s\n", e.what());
    return 1;
  }
}
