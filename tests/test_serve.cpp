// test_serve.cpp — the sweep service end to end, in process: shared
// warm cache across concurrent clients, worker pool inside the thread
// budget, streamed window records bit-identical to the batch path,
// cooperative cancel leaving the service consistent, strict submit
// rejection, and the no-torn-frames contract of both whole-line
// writers (JsonlSink and FrameWriter).

#include "serve/service.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/context.hpp"
#include "core/json.hpp"
#include "core/metrics.hpp"
#include "core/scenario_json.hpp"
#include "serve/socket.hpp"

namespace lain::serve {
namespace {

const core::ScenarioRegistry& reg() {
  return core::ScenarioRegistry::builtin();
}

std::string temp_socket(const char* tag) {
  // AF_UNIX paths are length-capped (~108 bytes): keep them short.
  return "/tmp/lain_" + std::to_string(::getpid()) + "_" + tag + ".s";
}

std::string frame_field(const std::string& line, const char* key) {
  return core::json_field(line, key).value_or("");
}

std::string frame_type(const std::string& line) {
  return frame_field(line, "type");
}

// Reads frames until one of type `stop_type` arrives; returns every
// line read, including the stopping one.
std::vector<std::string> read_until(Client& client,
                                    const std::string& stop_type) {
  std::vector<std::string> lines;
  std::string line;
  while (client.read_line(&line)) {
    lines.push_back(line);
    if (frame_type(line) == stop_type) break;
  }
  return lines;
}

std::string without_run_id(const std::string& json) {
  const std::size_t key = json.find("\"run\":\"");
  if (key == std::string::npos) return json;
  const std::size_t end = json.find('"', key + 8);
  return json.substr(0, key) + json.substr(end + 2);
}

// A small service on its own context: fresh cache counters and an
// explicit thread budget, so the assertions are exact.
struct TestService {
  explicit TestService(const char* tag, int budget = 2, int workers = 0,
                       double abort_mult = 0.0, double job_timeout_s = 0.0)
      : ctx(core::ContextOptions{budget}) {
    opt.socket_path = temp_socket(tag);
    opt.workers = workers;
    opt.abort_latency_mult = abort_mult;
    opt.job_timeout_s = job_timeout_s;
    service.emplace(ctx, reg(), opt);
    service->start();
  }
  ~TestService() {
    service->stop();
    std::remove(opt.socket_path.c_str());
  }

  core::LainContext ctx;
  ServeOptions opt;
  std::optional<SweepService> service;
};

constexpr const char* kSmallJob =
    "{\"type\":\"submit\",\"scenario\":\"injection_sweep\","
    "\"rates\":\"0.05\",\"patterns\":\"uniform\",\"schemes\":\"sdpc\"}";

TEST(SweepService, ConcurrentSameSchemeClientsCharacterizeOnce) {
  TestService ts("once", /*budget=*/2);

  // Four clients, each its own connection and thread, all submitting
  // the same-scheme job concurrently.
  std::vector<std::thread> clients;
  std::atomic<int> done_clean{0};
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&] {
      Client client(ts.service->socket_path());
      client.send_line(kSmallJob);
      const std::vector<std::string> lines = read_until(client, "done");
      if (!lines.empty() && frame_field(lines.back(), "state") == "done") {
        done_clean.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(done_clean.load(), 4);

  const ServiceStats s = ts.service->stats();
  EXPECT_EQ(s.jobs_accepted, 4);
  EXPECT_EQ(s.jobs_finished, 4);
  EXPECT_EQ(s.jobs_running, 0);
  // The whole point of serving: four same-scheme jobs, one
  // characterization, the rest warm hits.
  EXPECT_EQ(s.cache_characterizations, 1u);
  EXPECT_GE(s.cache_hits, 3u);
  // The pool never exceeds the context's budget.
  EXPECT_LE(s.workers, s.budget_total);
  EXPECT_EQ(s.budget_total, 2);
}

TEST(SweepService, WorkerPoolStaysInsideTheBudget) {
  // Asking for 8 workers against a budget of 2 grants at most 2.
  TestService ts("budget", /*budget=*/2, /*workers=*/8);
  EXPECT_LE(ts.service->worker_count(), 2);
  EXPECT_GE(ts.service->worker_count(), 1);
}

TEST(SweepService, StreamedWindowsBitIdenticalToBatch) {
  const std::string job_line =
      "{\"scenario\":\"injection_sweep\",\"rates\":\"0.05\","
      "\"patterns\":\"uniform\",\"schemes\":\"sdpc\","
      "\"metrics-window\":\"250\"}";

  // Served: submit and collect the streamed window frames.
  std::vector<std::string> served_windows;
  std::string served_summary;
  {
    TestService ts("ident");
    Client client(ts.service->socket_path());
    client.send_line("{\"type\":\"submit\"," + job_line.substr(1));
    for (const std::string& line : read_until(client, "done")) {
      if (frame_type(line) == "window") {
        served_windows.push_back(without_run_id(line));
      } else if (frame_type(line) == "summary") {
        served_summary = line;
      }
    }
  }
  ASSERT_FALSE(served_windows.empty());
  ASSERT_FALSE(served_summary.empty());

  // Batch: the same job through the library path lain_bench takes,
  // on a fresh context, into a MemorySink.
  core::LainContext ctx(core::ContextOptions{2});
  const core::ScenarioJobSpec job =
      core::scenario_job_from_json(reg(), job_line);
  core::ScenarioSpec spec = core::build_scenario_spec(reg(), job, {});
  telemetry::MemorySink sink;
  spec.run.telemetry.sink = &sink;
  const core::Scenario* sc = reg().find("injection_sweep");
  ASSERT_NE(sc, nullptr);
  const core::SweepEngine engine = ctx.make_engine(spec.threads);
  (void)sc->run(ctx, spec, engine);

  ASSERT_EQ(sink.windows.size(), served_windows.size());
  for (std::size_t i = 0; i < sink.windows.size(); ++i) {
    EXPECT_EQ(without_run_id(telemetry::to_json(sink.windows[i])),
              served_windows[i])
        << "window " << i;
  }
  // The summary's simulation-derived fields match too (its profiling
  // ns counters are wall clock, so the whole record is not comparable
  // bit-for-bit).
  ASSERT_EQ(sink.summaries.size(), 1u);
  const std::string batch_summary = telemetry::to_json(sink.summaries[0]);
  for (const char* key : {"cycles", "windows", "packets_injected",
                          "packets_ejected", "latency_mean",
                          "throughput"}) {
    const std::string batch = frame_field(batch_summary, key);
    ASSERT_FALSE(batch.empty()) << key;
    EXPECT_EQ(batch, frame_field(served_summary, key)) << key;
  }
}

TEST(SweepService, CancelMidRunLeavesTheServiceConsistent) {
  TestService ts("cancel", /*budget=*/1, /*workers=*/1);
  Client client(ts.service->socket_path());

  // A job long enough to be mid-run when the cancel lands: several
  // rates x replicates, windows streaming.
  client.send_line(
      "{\"type\":\"submit\",\"scenario\":\"injection_sweep\","
      "\"rates\":\"0.03,0.04,0.05\",\"patterns\":\"uniform\","
      "\"schemes\":\"sdpc\",\"replicates\":\"5\","
      "\"metrics-window\":\"250\"}");
  std::string job_id;
  std::string line;
  while (client.read_line(&line)) {
    if (frame_type(line) == "accepted") {
      job_id = frame_field(line, "job");
    } else if (frame_type(line) == "window") {
      break;  // the job is provably mid-run now
    }
    ASSERT_NE(frame_type(line), "done") << "job finished before cancel";
  }
  ASSERT_FALSE(job_id.empty());

  client.send_line("{\"type\":\"cancel\",\"job\":\"" + job_id + "\"}");
  std::string done_state;
  while (client.read_line(&line)) {
    if (frame_type(line) == "done" && frame_field(line, "job") == job_id) {
      done_state = frame_field(line, "state");
      break;
    }
  }
  EXPECT_EQ(done_state, "canceled");
  // The canceled run's summary frame said canceled, and the cancel
  // happened at a window boundary — the stream stayed well-formed
  // (read_until parsing above would have failed otherwise).

  // The service is still consistent: the worker lane is free again
  // and a fresh job on the same connection completes cleanly.
  client.send_line(kSmallJob);
  const std::vector<std::string> lines = read_until(client, "done");
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(frame_field(lines.back(), "state"), "done");

  const ServiceStats s = ts.service->stats();
  EXPECT_EQ(s.jobs_running, 0);
  EXPECT_EQ(s.jobs_finished, 2);
  EXPECT_EQ(s.queue_depth, 0);
  // Pool lease only; no leaked per-run lanes.
  EXPECT_LE(s.budget_in_use, s.budget_total);
}

TEST(SweepService, CancelingAQueuedJobIsImmediate) {
  TestService ts("queued", /*budget=*/1, /*workers=*/1);
  Client client(ts.service->socket_path());

  // Job A occupies the only worker; B waits in the queue.
  client.send_line(
      "{\"type\":\"submit\",\"scenario\":\"injection_sweep\","
      "\"rates\":\"0.03,0.04,0.05\",\"patterns\":\"uniform\","
      "\"schemes\":\"sdpc\",\"replicates\":\"5\"}");
  client.send_line(kSmallJob);
  std::string id_a, id_b;
  std::string line;
  while (id_b.empty() && client.read_line(&line)) {
    if (frame_type(line) == "accepted") {
      (id_a.empty() ? id_a : id_b) = frame_field(line, "job");
    }
  }
  ASSERT_FALSE(id_b.empty());

  client.send_line("{\"type\":\"cancel\",\"job\":\"" + id_b + "\"}");
  std::string b_state, a_state;
  while (client.read_line(&line)) {
    if (frame_type(line) != "done") continue;
    if (frame_field(line, "job") == id_b) {
      b_state = frame_field(line, "state");
      // B was still queued: its terminal frame arrives while A runs.
      EXPECT_TRUE(a_state.empty());
    } else if (frame_field(line, "job") == id_a) {
      a_state = frame_field(line, "state");
    }
    if (!a_state.empty() && !b_state.empty()) break;
  }
  EXPECT_EQ(b_state, "canceled");
  EXPECT_EQ(a_state, "done");
}

TEST(SweepService, RejectsBadSubmitsAndRequests) {
  TestService ts("reject");
  Client client(ts.service->socket_path());
  std::string line;

  // Unknown scenario.
  client.send_line("{\"type\":\"submit\",\"scenario\":\"frobnicate\"}");
  ASSERT_TRUE(client.read_line(&line));
  EXPECT_EQ(frame_type(line), "error");

  // Foreign flag for the scenario.
  client.send_line(
      "{\"type\":\"submit\",\"scenario\":\"corner_sweep\","
      "\"rates\":\"0.05\"}");
  ASSERT_TRUE(client.read_line(&line));
  EXPECT_EQ(frame_type(line), "error");

  // Server-side output paths are not accepted over the wire.
  client.send_line(
      "{\"type\":\"submit\",\"scenario\":\"injection_sweep\","
      "\"out\":\"/tmp/x\"}");
  ASSERT_TRUE(client.read_line(&line));
  EXPECT_EQ(frame_type(line), "error");

  // Malformed frame, unknown type, unknown job.
  client.send_line("this is not json");
  ASSERT_TRUE(client.read_line(&line));
  EXPECT_EQ(frame_type(line), "error");
  client.send_line("{\"type\":\"frob\"}");
  ASSERT_TRUE(client.read_line(&line));
  EXPECT_EQ(frame_type(line), "error");
  client.send_line("{\"type\":\"cancel\",\"job\":\"job-999\"}");
  ASSERT_TRUE(client.read_line(&line));
  EXPECT_EQ(frame_type(line), "error");

  // A repeated key is malformed: a job that carries its own type key
  // must not turn the submit into another request.
  client.send_line(
      "{\"type\":\"submit\",\"type\":\"shutdown\","
      "\"scenario\":\"table1\"}");
  ASSERT_TRUE(client.read_line(&line));
  EXPECT_EQ(frame_type(line), "error");
  EXPECT_NE(frame_field(line, "message").find("repeated key"),
            std::string::npos)
      << line;

  // And the service is still healthy afterwards.
  client.send_line("{\"type\":\"status\"}");
  ASSERT_TRUE(client.read_line(&line));
  EXPECT_EQ(frame_type(line), "stats");
  EXPECT_EQ(ts.service->stats().jobs_accepted, 0);
}

TEST(SweepService, ServedTable1CharacterizesThroughTheSharedCache) {
  TestService ts("table1");
  Client client(ts.service->socket_path());
  for (int i = 0; i < 2; ++i) {
    client.send_line("{\"type\":\"submit\",\"scenario\":\"table1\"}");
    const std::vector<std::string> lines = read_until(client, "done");
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(frame_field(lines.back(), "state"), "done") << lines.back();
  }
  // The first job characterizes the five schemes, the second hits.
  std::string line;
  client.send_line("{\"type\":\"status\"}");
  ASSERT_TRUE(client.read_line(&line));
  EXPECT_EQ(frame_type(line), "stats");
  EXPECT_EQ(frame_field(line, "cache_characterizations"), "5") << line;
  EXPECT_EQ(frame_field(line, "cache_hits"), "5") << line;
}

// ---------------------------------------------------- serve hardening

TEST(SweepService, JobTimeoutFiresAndFreesTheWorkerLane) {
  // 150 ms deadline against a job that takes seconds (about 2.5 s
  // through the CLI in a Release build, over ten times the deadline):
  // the monitor cancels it at a window boundary and the terminal state
  // says so.
  TestService ts("timeout", /*budget=*/1, /*workers=*/1,
                 /*abort_mult=*/0.0, /*job_timeout_s=*/0.15);
  Client client(ts.service->socket_path());
  client.send_line(
      "{\"type\":\"submit\",\"scenario\":\"injection_sweep\","
      "\"rates\":\"0.03,0.04,0.05\",\"patterns\":\"uniform\","
      "\"schemes\":\"sdpc\",\"replicates\":\"50\","
      "\"metrics-window\":\"250\"}");
  std::string line, done_state;
  while (client.read_line(&line)) {
    if (frame_type(line) == "done") {
      done_state = frame_field(line, "state");
      break;
    }
  }
  EXPECT_EQ(done_state, "aborted_timeout");

  // The worker lane went back to the pool: a fresh job on the same
  // connection completes cleanly (fast enough to beat the deadline —
  // one rate, warm cache from nothing? it characterizes once, which
  // is CPU work, not wall-clock idle, so the 150 ms deadline applies
  // to it too; accept either clean completion or its own timeout,
  // but the lane must be served).
  client.send_line(kSmallJob);
  const std::vector<std::string> lines = read_until(client, "done");
  ASSERT_FALSE(lines.empty());
  const std::string state = frame_field(lines.back(), "state");
  EXPECT_TRUE(state == "done" || state == "aborted_timeout") << state;

  const ServiceStats s = ts.service->stats();
  EXPECT_EQ(s.jobs_running, 0);
  EXPECT_EQ(s.jobs_finished, 2);
  EXPECT_LE(s.budget_in_use, s.budget_total);
}

TEST(SweepService, ThrowingJobPoisonsOnlyItselfNotTheDaemon) {
  TestService ts("throw", /*budget=*/2, /*workers=*/2);
  Client client(ts.service->socket_path());

  // Passes submit-time validation but throws on its worker thread: a
  // router kill disconnects the fabric, and FaultPlan::build rejects
  // the plan without --allow-partition once the run wires the
  // network.
  client.send_line(
      "{\"type\":\"submit\",\"scenario\":\"injection_sweep\","
      "\"rates\":\"0.05\",\"patterns\":\"uniform\",\"schemes\":\"sdpc\","
      "\"fault-routers\":\"1\"}");
  client.send_line(kSmallJob);  // concurrent healthy job

  // One read loop: the bad job can fail before the healthy one is even
  // accepted, so its error and done frames may arrive between the two
  // accepted frames.
  std::string id_bad, id_good;
  bool bad_error_frame = false;
  std::string bad_state, good_state, bad_error;
  std::string line;
  while ((bad_state.empty() || good_state.empty()) &&
         client.read_line(&line)) {
    const std::string type = frame_type(line);
    const std::string job = frame_field(line, "job");
    if (type == "accepted") {
      (id_bad.empty() ? id_bad : id_good) = job;
      continue;
    }
    if (job.empty()) continue;
    if (type == "error" && job == id_bad) bad_error_frame = true;
    if (type != "done") continue;
    if (job == id_bad) {
      bad_state = frame_field(line, "state");
      bad_error = frame_field(line, "error");
    } else if (job == id_good) {
      good_state = frame_field(line, "state");
    }
  }
  ASSERT_FALSE(id_bad.empty());
  ASSERT_FALSE(id_good.empty());
  // The throwing job died alone — job-scoped error frame, failed
  // terminal state carrying the diagnostic — while the healthy job
  // completed on the surviving pool.
  EXPECT_TRUE(bad_error_frame);
  EXPECT_EQ(bad_state, "failed");
  EXPECT_NE(bad_error.find("allow-partition"), std::string::npos)
      << bad_error;
  EXPECT_EQ(good_state, "done");

  // The daemon is intact: lanes free, and a further job completes.
  const ServiceStats s = ts.service->stats();
  EXPECT_EQ(s.jobs_running, 0);
  EXPECT_EQ(s.jobs_finished, 2);
  client.send_line(kSmallJob);
  const std::vector<std::string> lines = read_until(client, "done");
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(frame_field(lines.back(), "state"), "done");
}

TEST(SweepService, RetryConnectsToALateBindingSocket) {
  const std::string path = temp_socket("retry");
  std::remove(path.c_str());

  // Without retries, the absent daemon fails immediately and the
  // error names the socket path that failed.
  try {
    Client eager(path);
    FAIL() << "connected to a socket that does not exist";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }

  // Daemon comes up ~150 ms after the client starts retrying.
  std::optional<TestService> ts;
  std::thread late([&ts] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    ts.emplace("retry");
  });
  Client client(path, /*retries=*/50, /*backoff_ms=*/10);
  late.join();

  client.send_line(kSmallJob);
  const std::vector<std::string> lines = read_until(client, "done");
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(frame_field(lines.back(), "state"), "done");
}

// ------------------------------------------------------- torn frames

TEST(WholeLineWriters, JsonlSinkConcurrentRunsNeverTearLines) {
  const std::string path = "/tmp/lain_jsonl_" +
                           std::to_string(::getpid()) + ".jsonl";
  constexpr int kThreads = 8;
  constexpr int kRecords = 50;
  {
    telemetry::JsonlSink sink(path);
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&sink, t] {
        for (int i = 0; i < kRecords; ++i) {
          telemetry::WindowRecord w;
          w.run = "run-t" + std::to_string(t);
          w.window.index = i;
          sink.on_window(w);
        }
      });
    }
    for (std::thread& t : writers) t.join();
  }

  std::ifstream in(path);
  std::map<std::string, int> per_run;
  std::string line;
  int total = 0;
  while (std::getline(in, line)) {
    ++total;
    // Whole, parseable, demultiplexable: starts/ends like one object
    // and carries its run id intact.
    ASSERT_FALSE(line.empty());
    ASSERT_EQ(line.front(), '{') << line;
    ASSERT_EQ(line.back(), '}') << line;
    EXPECT_EQ(frame_type(line), "window");
    const std::string run = frame_field(line, "run");
    ASSERT_NE(run.find("run-t"), std::string::npos) << line;
    ++per_run[run];
  }
  EXPECT_EQ(total, kThreads * kRecords);
  EXPECT_EQ(per_run.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [run, count] : per_run) {
    EXPECT_EQ(count, kRecords) << run;
  }
  std::remove(path.c_str());
}

TEST(WholeLineWriters, FrameWriterConcurrentWritersNeverTearLines) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  constexpr int kThreads = 8;
  constexpr int kLines = 100;

  // Reader drains the peer end so writers never block on a full
  // socket buffer.
  std::string received;
  std::thread reader([&received, fd = fds[1]] {
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
      received.append(buf, static_cast<std::size_t>(n));
    }
  });

  {
    FrameWriter writer(fds[0]);
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&writer, t] {
        for (int i = 0; i < kLines; ++i) {
          writer.write_line(
              core::JsonLine().num("writer", t).num("seq", i).done());
        }
      });
    }
    for (std::thread& t : writers) t.join();
  }
  ::close(fds[0]);  // EOF for the reader
  reader.join();
  ::close(fds[1]);

  // Every received line is exactly one written frame, each frame
  // arrives exactly once, and each writer's own sequence is in order.
  std::vector<int> next_seq(kThreads, 0);
  int total = 0;
  std::size_t pos = 0;
  while (pos < received.size()) {
    const std::size_t nl = received.find('\n', pos);
    ASSERT_NE(nl, std::string::npos) << "trailing partial line";
    const std::string line = received.substr(pos, nl - pos);
    pos = nl + 1;
    ++total;
    const std::string writer_id = frame_field(line, "writer");
    const std::string seq = frame_field(line, "seq");
    ASSERT_FALSE(writer_id.empty()) << line;
    ASSERT_FALSE(seq.empty()) << line;
    const int t = std::stoi(writer_id);
    ASSERT_GE(t, 0);
    ASSERT_LT(t, kThreads);
    EXPECT_EQ(std::stoi(seq), next_seq[t]) << line;
    ++next_seq[t];
  }
  EXPECT_EQ(total, kThreads * kLines);
}

}  // namespace
}  // namespace lain::serve
