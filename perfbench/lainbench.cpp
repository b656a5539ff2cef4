// lainbench.cpp — the LAIN benchmark program.
//
//   lainbench --workload NAME --seed N --seconds S --trace 0|1
//             [--commit SHA --dirty 0|1 --cpu MODEL --out-dir DIR]
//
// Runs one workload as a closed loop (one operation after another on
// the calling thread, engine settings at their defaults unless the
// workload states otherwise) for S seconds, checks every operation's
// outputs, and prints one line per metric followed by a final JSON
// line {"correct", "attempted", "failed", "metrics"}.  With --trace 0
// the metrics are the end-to-end ones, measured untraced; with
// --trace 1 they are the per-layer ones, from a run that pairs each
// untraced operation with a traced one.  perfbench/README.md documents
// the workloads and metrics; perfbench/run.py builds and invokes this.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/context.hpp"
#include "core/experiments.hpp"
#include "core/noc_integration.hpp"
#include "core/table1.hpp"
#include "core/telemetry.hpp"
#include "noc/parallel/sharded_sim.hpp"
#include "noc/sim.hpp"
#include "replay.hpp"
#include "xbar/characterize.hpp"

namespace {

namespace core = lain::core;
namespace noc = lain::noc;
namespace xbar = lain::xbar;
using perfbench::MeshOutputs;
using perfbench::now_ns;

const std::int64_t g_process_start_ns = now_ns();

// Distinct inputs per run.  Operation i runs input i % pool; an input
// that repeats must reproduce its first result exactly, and the run's
// digest covers every input once, so it does not depend on how many
// operations fit in the measured time.  The pools are small so every
// input repeats often enough for op_ms_best to catch an uncontended run.
constexpr int kMeshPool = 8;
constexpr int kCircuitPool = 12;
// Fresh set-ups per run, spread evenly over it; setup_s is the fastest.
constexpr int kSetups = 27;

// ---------------------------------------------------------------------------
// Arguments, report, small statistics
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string commit = "unknown";
  int dirty = -1;
  std::string cpu = "unknown";
  std::string out_dir;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      a.trace = std::atoi(v.c_str());
    } else if (flag == "--commit") {
      a.commit = v;
    } else if (flag == "--dirty") {
      a.dirty = std::atoi(v.c_str());
    } else if (flag == "--cpu") {
      a.cpu = v;
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0.0 &&
         (a.trace == 0 || a.trace == 1);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = {}) {
    if (!std::isfinite(value)) {
      fail("metric " + name + " is not finite");
      value = 0.0;
    }
    metrics_.push_back({name, value, unit, note});
  }
  void info(const std::string& key, const std::string& text) {
    info_.emplace_back(key, text);
  }
  void attempt() { ++attempted_; }
  void fail(const std::string& what) {
    ++failed_;
    if (failures_.size() < 8) failures_.push_back(what);
  }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

  void print() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-34s %-22.10g %-10s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
    for (const auto& [key, text] : info_) {
      std::printf("  %-34s %s\n", key.c_str(), text.c_str());
    }
    std::printf("  %-34s %s (%" PRId64 " attempted, %" PRId64 " failed)\n",
                "output_check", failed_ == 0 ? "ok" : "FAILED", attempted_,
                failed_);
    for (const std::string& f : failures_) {
      std::printf("  %-34s %s\n", "check_failure", f.c_str());
    }
    std::string json = "{\"correct\": ";
    json += (failed_ == 0 && attempted_ > 0) ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    char buf[96];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::snprintf(buf, sizeof buf, "%.17g", m.value);
      json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failures_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Seed of input `input` of a run seeded `seed` (the benchmark's own
// derivation, independent of the library's seed mixing).
std::uint64_t input_seed(std::uint64_t seed, int input) {
  return splitmix64(splitmix64(seed) + static_cast<std::uint64_t>(input));
}

double unit_draw(std::uint64_t& state) {
  state = splitmix64(state);
  return static_cast<double>(state >> 11) * (1.0 / 9007199254740992.0);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of sorted values.
double percentile(const std::vector<double>& sorted, double pct) {
  const auto n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  rank = std::max<std::size_t>(1, std::min(rank, sorted.size()));
  return sorted[rank - 1];
}

// The tail: the highest percentile with at least ten operations beyond
// it.  Each workload fixes the percentile its usual operation count
// supports, so runs compare like with like; a run with too few
// operations steps down the ladder (the info line names the one used).
struct Tail {
  double pct = 50.0;
  double value = 0.0;
};
Tail tail_of(std::vector<double> v, double preferred_pct) {
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  Tail t;
  for (double pct : {preferred_pct, 90.0, 75.0, 50.0}) {
    if (pct > preferred_pct) continue;
    if (n * (1.0 - pct / 100.0) >= 10.0 || pct == 50.0) {
      t.pct = pct;
      break;
    }
  }
  t.value = v.empty() ? 0.0 : percentile(v, t.pct);
  return t;
}

// Peak resident set of this process image.  VmHWM, unlike ru_maxrss,
// starts afresh at exec, so a large parent (the Python wrapper) does not
// show through.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ms_since(std::int64_t t0) { return (now_ns() - t0) * 1e-6; }

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return splitmix64(h ^ v);
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

std::uint64_t fold_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return fold(h, bits);
}

// The five characterizations of a circuit operation: the values Table 1
// is derived from.
using Characterizations = std::array<xbar::Characterization, 5>;

std::uint64_t chars_digest(const Characterizations& cs) {
  std::uint64_t h = 0x4c41494e;  // "LAIN"
  for (const xbar::Characterization& c : cs) {
    for (double v : {c.delay_hl_s, c.delay_lh_s, c.active_leakage_w,
                     c.standby_leakage_w, c.total_power_w}) {
      h = fold_double(h, v);
    }
    h = fold(h, static_cast<std::uint64_t>(c.min_idle_cycles));
  }
  return h;
}

std::string check_chars(const Characterizations& cs) {
  for (const xbar::Characterization& c : cs) {
    for (double v : {c.delay_hl_s, c.delay_lh_s, c.active_leakage_w,
                     c.standby_leakage_w, c.total_power_w}) {
      if (!std::isfinite(v) || v <= 0.0) {
        return std::string("non-positive delay, leakage or power for ") +
               std::string(xbar::scheme_name(c.scheme));
      }
    }
    if (c.min_idle_cycles < 0) return "negative minimum idle time";
  }
  return {};
}

std::uint64_t rows_digest(const std::array<core::Table1Row, 5>& rows) {
  std::uint64_t h = 0x4c41494e;  // "LAIN"
  for (const core::Table1Row& r : rows) {
    for (double v : {r.delay_hl_ps, r.delay_lh_ps, r.active_saving,
                     r.standby_saving, r.total_power_mw, r.delay_penalty}) {
      h = fold_double(h, v);
    }
    h = fold(h, static_cast<std::uint64_t>(r.min_idle_cycles));
  }
  return h;
}

std::string check_rows(const std::array<core::Table1Row, 5>& rows) {
  for (const core::Table1Row& r : rows) {
    for (double v : {r.delay_hl_ps, r.delay_lh_ps, r.total_power_mw}) {
      if (!std::isfinite(v) || v <= 0.0) {
        return std::string("non-positive delay or power in row ") +
               std::string(xbar::scheme_name(r.scheme));
      }
    }
    for (double v : {r.active_saving, r.standby_saving, r.delay_penalty}) {
      if (!std::isfinite(v)) {
        return std::string("non-finite saving in row ") +
               std::string(xbar::scheme_name(r.scheme));
      }
    }
    if (r.min_idle_cycles < 0) return "negative minimum idle time";
  }
  return {};
}

// Mean |relative error| over the 23 numeric cells of Table 1 that the
// paper publishes: HL and LH delay and total power of all five schemes,
// active and standby saving of the four non-baseline schemes.
double table1_err_pct(const core::Table1& t) {
  const auto& paper = core::paper_table1();
  double sum = 0.0;
  int cells = 0;
  auto add = [&](double measured, double published) {
    sum += std::fabs(measured - published) / std::fabs(published);
    ++cells;
  };
  for (std::size_t i = 0; i < paper.size(); ++i) {
    const core::Table1Row& m = t.rows[i];
    const core::Table1Row& p = paper[i];
    add(m.delay_hl_ps, p.delay_hl_ps);
    add(m.delay_lh_ps, p.delay_lh_ps);
    add(m.total_power_mw, p.total_power_mw);
    if (p.scheme != xbar::Scheme::kSC) {
      add(m.active_saving, p.active_saving);
      add(m.standby_saving, p.standby_saving);
    }
  }
  return 100.0 * sum / cells;
}

// Table 1 at the paper's design point: the fidelity metric, its rows
// folded into the run digest.  Untimed; every workload ends with it.
void finish_with_table1(Report& rep, std::uint64_t& run_digest) {
  const core::Table1 t = core::make_table1();
  rep.attempt();
  const std::string err = check_rows(t.rows);
  if (!err.empty()) rep.fail("table1: " + err);
  run_digest = fold(run_digest, rows_digest(t.rows));
  rep.metric("table1_err_pct", table1_err_pct(t), "%",
             "mean |rel. error| vs paper, 23 cells");
}

// The timed closed loop every untraced run shares: operation i runs
// input i % pool, back to back, until the measured time is up.
struct LoopTimes {
  std::vector<double> op_ms;    // every timed operation, in order
  std::vector<double> best_ms;  // per input: its fastest repetition
  std::vector<double> setup_s;  // every set-up, the first from process start
  double op_time_s = 0.0;       // wall time spent inside operations
};

LoopTimes closed_loop(const Args& a, int pool, double first_setup_s,
                      const std::function<double()>& setup,
                      const std::function<double(int)>& op) {
  LoopTimes t;
  t.best_ms.assign(static_cast<std::size_t>(pool),
                   std::numeric_limits<double>::infinity());
  t.setup_s.push_back(first_setup_s);
  const std::int64_t start = now_ns();
  const auto span = static_cast<std::int64_t>(a.seconds * 1e9);
  int next_setup = 1;
  for (int i = 0; i == 0 || now_ns() < start + span; ++i) {
    // The later set-ups are spread evenly over the run, so the fastest
    // of them is taken in the quietest moment the operations saw too.
    if (next_setup < kSetups &&
        now_ns() >= start + span * next_setup / kSetups) {
      t.setup_s.push_back(setup());
      ++next_setup;
    }
    const int input = i % pool;
    const double ms = op(input);
    t.op_ms.push_back(ms);
    t.op_time_s += ms * 1e-3;
    double& best = t.best_ms[static_cast<std::size_t>(input)];
    best = std::min(best, ms);
  }
  for (; next_setup < kSetups; ++next_setup) t.setup_s.push_back(setup());
  return t;
}

// The end-to-end metrics every workload reports, in BENCHMARK.json
// order, plus the unbounded timing statistics as info lines.
void report_end_to_end(Report& rep, const LoopTimes& t, double tail_pct,
                       std::uint64_t& run_digest) {
  double best_sum = 0.0;
  int inputs = 0;
  for (double b : t.best_ms) {
    if (std::isfinite(b)) {
      best_sum += b;
      ++inputs;
    }
  }
  const std::string n = std::to_string(t.op_ms.size());
  rep.metric("setup_s", *std::min_element(t.setup_s.begin(), t.setup_s.end()),
             "s", "fastest of " + std::to_string(t.setup_s.size()) +
                      " set-ups");
  rep.metric("op_ms_best", best_sum / inputs, "ms",
             "mean over " + std::to_string(inputs) +
                 " inputs of each one's fastest run; " + n + " ops");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
  finish_with_table1(rep, run_digest);
  rep.metric("ops_ok_frac",
             1.0 - static_cast<double>(rep.failed()) / rep.attempted(),
             "frac");
  const Tail tail = tail_of(t.op_ms, tail_pct);
  rep.info("host.first_setup_s",
           fmt("%.4f", t.setup_s.front()) + " (process start to first op)");
  rep.info("host.setup_s_p50", fmt("%.4f", median(t.setup_s)));
  rep.info("host.op_ms_p50",
           fmt("%.4f", median(t.op_ms)) + " (" + n + " ops)");
  rep.info("host.op_ms_tail", fmt("%.4f", tail.value) + " (p" +
                                  fmt("%g", tail.pct) + " of " + n + " ops)");
  rep.info("host.ops_per_s", fmt("%.4f", t.op_ms.size() / t.op_time_s));
}

// ---------------------------------------------------------------------------
// Mesh workloads
// ---------------------------------------------------------------------------

// Operations run the serial kernel.  A workload with `shard_check` also
// runs each run's first input once, untimed, on the auto-sharded kernel
// (sim_threads = 0, partition = auto), whose digest must equal the
// serial one; its traced run measures the parallel layer.  A timed
// sharded workload (32x32 at 0.02) was tried and left out: on the
// shared 4-vCPU host its run-to-run spread was 14-31% whatever the
// statistic, because all four shard threads stall whenever any vCPU is
// contended.
struct MeshWorkload {
  const char* name;
  int radix;
  double rate;  // flits / node / cycle, uniform random traffic
  noc::Cycle warmup;
  noc::Cycle measure;
  bool shard_check;
  double tail_pct;  // see tail_of
};

constexpr MeshWorkload kMeshWorkloads[] = {
    {"mesh_sparse", 16, 0.002, 1000, 4000, false, 95.0},
    {"mesh_loaded", 16, 0.15, 150, 200, true, 90.0},
};
constexpr double kCircuitTailPct = 95.0;

noc::SimConfig mesh_config(const MeshWorkload& w, std::uint64_t seed,
                           int input) {
  noc::SimConfig cfg =
      core::make_sim_config(w.radix, noc::TopologyKind::kMesh, w.rate,
                            noc::TrafficPattern::kUniform,
                            input_seed(seed, input));
  cfg.warmup_cycles = w.warmup;
  cfg.measure_cycles = w.measure;
  return cfg;
}

std::unique_ptr<noc::SimKernel> make_kernel(const noc::SimConfig& cfg,
                                            bool sharded,
                                            core::LainContext& ctx) {
  if (!sharded) return std::make_unique<noc::Simulation>(cfg);
  noc::ShardedOptions opt;
  opt.shards = 0;
  opt.partition = noc::PartitionStrategy::kAuto;
  opt.budget = &ctx.thread_budget();
  return std::make_unique<noc::ShardedSimulation>(cfg, opt);
}

struct MeshOp {
  MeshOutputs out;
  double build_ms = 0.0;  // Network + kernel + PoweredNoc
  double run_ms = 0.0;    // SimKernel::run
  double total_ms = 0.0;  // the whole operation, teardown included
  int shards = 1;
  int boundary_links = 0;
};

// One powered run through the public engine API, as LainContext::run_noc
// performs it (each run cross-checks the two once), keeping
// the SimStats run_noc does not return.
MeshOp run_mesh_op(core::LainContext& ctx, const noc::SimConfig& cfg,
                   const core::NocPowerConfig& pcfg, bool sharded,
                   lain::telemetry::Collector* collector = nullptr) {
  MeshOp op;
  const std::int64_t t0 = now_ns();
  {
    std::unique_ptr<noc::SimKernel> kernel = make_kernel(cfg, sharded, ctx);
    core::PoweredNoc powered(kernel->network(), pcfg,
                             ctx.characterization(pcfg.xbar_spec, pcfg.scheme));
    if (collector != nullptr) kernel->set_telemetry(collector);
    const std::int64_t t1 = now_ns();
    op.out.stats = kernel->run();
    const std::int64_t t2 = now_ns();
    op.build_ms = (t1 - t0) * 1e-6;
    op.run_ms = (t2 - t1) * 1e-6;
    op.out.saturated = kernel->saturated();
    op.out.cycles = kernel->now();
    op.shards = kernel->num_shards();
    op.boundary_links = kernel->partition().boundary_links;
    perfbench::fill_power(op.out, cfg.num_nodes(), pcfg.xbar_spec.freq_hz,
                          [&](int i) -> const core::RouterPowerHook& {
                            return powered.hook(i);
                          });
  }
  op.total_ms = ms_since(t0);
  return op;
}

// One set-up: context creation, the first characterization and the
// first build, timed from `t0`.  Returns its seconds; the context goes
// to `ctx` when given.
double mesh_setup(const MeshWorkload& w, const Args& a,
                  const core::NocPowerConfig& pcfg, std::int64_t t0,
                  std::unique_ptr<core::LainContext>* ctx = nullptr) {
  auto fresh = std::make_unique<core::LainContext>();
  {
    const noc::SimConfig cfg = mesh_config(w, a.seed, 0);
    auto kernel = make_kernel(cfg, /*sharded=*/false, *fresh);
    core::PoweredNoc powered(
        kernel->network(), pcfg,
        fresh->characterization(pcfg.xbar_spec, pcfg.scheme));
  }
  const double s = ms_since(t0) * 1e-3;
  if (ctx != nullptr) *ctx = std::move(fresh);
  return s;
}

bool same_result(const core::NocRunResult& r, const MeshOutputs& o) {
  return r.avg_packet_latency_cycles == o.stats.packet_latency.mean() &&
         r.throughput_flits_node_cycle ==
             o.stats.throughput_flits_per_node_cycle() &&
         r.network_power_w == o.network_power_w &&
         r.crossbar_power_w == o.crossbar_power_w &&
         r.standby_fraction == o.standby_fraction &&
         r.realized_saving_w == o.realized_saving_w &&
         r.saturated == o.saturated;
}

// Records op `input`'s digest, failing the op when an earlier run of the
// same input produced a different one.
void check_repeat(Report& rep, std::vector<std::optional<std::uint64_t>>& pool,
                  int input, std::uint64_t d, const char* what) {
  auto& slot = pool[static_cast<std::size_t>(input)];
  if (slot && *slot != d) {
    rep.fail(std::string(what) + ": input " + std::to_string(input) +
             " repeated with a different digest");
  }
  if (!slot) slot = d;
}

void mesh_untraced(const MeshWorkload& w, const Args& a, Report& rep) {
  const core::NocPowerConfig pcfg =
      core::default_noc_power(xbar::Scheme::kSDPC, /*enable_gating=*/true);
  std::unique_ptr<core::LainContext> ctx;
  const double first_setup = mesh_setup(w, a, pcfg, g_process_start_ns, &ctx);

  std::vector<std::optional<std::uint64_t>> pool(kMeshPool);
  std::vector<MeshOutputs> outputs(kMeshPool);
  double node_cycles = 0.0, flit_hops = 0.0;
  const LoopTimes times = closed_loop(
      a, kMeshPool, first_setup,
      [&] { return mesh_setup(w, a, pcfg, now_ns()); },
      [&](int input) {
        const MeshOp op =
            run_mesh_op(*ctx, mesh_config(w, a.seed, input), pcfg,
                        /*sharded=*/false);
        rep.attempt();
        const std::string err = perfbench::check_mesh(op.out);
        if (!err.empty()) {
          rep.fail("input " + std::to_string(input) + ": " + err);
        }
        check_repeat(rep, pool, input, perfbench::digest(op.out), "mesh op");
        outputs[static_cast<std::size_t>(input)] = op.out;
        node_cycles += static_cast<double>(op.out.cycles) * w.radix * w.radix;
        flit_hops += static_cast<double>(op.out.flit_hops);
        return op.total_ms;
      });

  // Untimed: complete the input pool so the digest covers every input.
  for (int input = 0; input < kMeshPool; ++input) {
    if (pool[static_cast<std::size_t>(input)]) continue;
    const MeshOp op =
        run_mesh_op(*ctx, mesh_config(w, a.seed, input), pcfg,
                        /*sharded=*/false);
    rep.attempt();
    const std::string err = perfbench::check_mesh(op.out);
    if (!err.empty()) rep.fail("input " + std::to_string(input) + ": " + err);
    pool[static_cast<std::size_t>(input)] = perfbench::digest(op.out);
    outputs[static_cast<std::size_t>(input)] = op.out;
  }
  // Untimed cross-checks: the context entry point agrees with the
  // engine-level op, and a sharded op agrees with the serial kernel.
  {
    core::NocRunSpec spec;
    spec.scheme = pcfg.scheme;
    spec.sim = mesh_config(w, a.seed, 0);
    spec.enable_gating = pcfg.enable_gating;
    spec.sim_threads = 1;
    rep.attempt();
    if (!same_result(ctx->run_noc(spec), outputs[0])) {
      rep.fail("LainContext::run_noc disagrees with the engine-level op");
    }
  }
  if (w.shard_check) {
    const MeshOp sharded =
        run_mesh_op(*ctx, mesh_config(w, a.seed, 0), pcfg, /*sharded=*/true);
    rep.attempt();
    if (perfbench::digest(sharded.out) != *pool[0]) {
      rep.fail("sharded digest differs from the serial kernel's");
    }
  }

  std::uint64_t run_digest = 0;
  double lat = 0.0, thr = 0.0, mw = 0.0, stby = 0.0;
  for (int input = 0; input < kMeshPool; ++input) {
    const MeshOutputs& o = outputs[static_cast<std::size_t>(input)];
    run_digest = fold(run_digest, *pool[static_cast<std::size_t>(input)]);
    lat += o.stats.packet_latency.mean() / kMeshPool;
    thr += o.stats.throughput_flits_per_node_cycle() / kMeshPool;
    mw += o.network_power_w * 1e3 / kMeshPool;
    stby += o.standby_fraction / kMeshPool;
  }

  report_end_to_end(rep, times, w.tail_pct, run_digest);
  rep.info("host.mnode_cycles_per_s",
           fmt("%.4f", node_cycles / times.op_time_s / 1e6));
  rep.info("host.mflit_hops_per_s",
           fmt("%.4f", flit_hops / times.op_time_s / 1e6));
  rep.info("sim.latency_cycles", fmt("%.6f", lat));
  rep.info("sim.throughput", fmt("%.6f", thr));
  rep.info("sim.network_mw", fmt("%.6f", mw));
  rep.info("sim.standby_frac", fmt("%.6f", stby));
  rep.info("sim.digest", hex64(run_digest));
}

// Per-layer profile of a mesh workload.  Each iteration runs one input
// untraced and then replays it through the layer loops
// (perfbench/replay.hpp).  A workload with `shard_check` also runs the
// input on the auto-sharded kernel, untraced for the speed-up and with a
// telemetry::Collector attached for the phase split.
void mesh_traced(const MeshWorkload& w, const Args& a, Report& rep) {
  const core::NocPowerConfig pcfg =
      core::default_noc_power(xbar::Scheme::kSDPC, /*enable_gating=*/true);
  perfbench::clock_overhead_ns();

  // Circuit layer: each scheme characterized at the fabric's spec.
  std::array<double, 5> charz_ms{};
  for (std::size_t s = 0; s < 5; ++s) {
    std::vector<double> ms;
    for (int k = 0; k < 3; ++k) {
      const std::int64_t t0 = now_ns();
      const xbar::Characterization c =
          xbar::characterize(pcfg.xbar_spec, xbar::all_schemes()[s]);
      ms.push_back(ms_since(t0));
      if (!std::isfinite(c.total_power_w)) rep.fail("characterize: not finite");
    }
    charz_ms[s] = median(ms);
  }
  std::int64_t t0 = now_ns();
  const core::Table1 table = core::make_table1();
  const double table1_ms = ms_since(t0);
  if (!check_rows(table.rows).empty()) rep.fail("table1 rows");

  std::unique_ptr<core::LainContext> ctx;
  mesh_setup(w, a, pcfg, now_ns(), &ctx);
  const xbar::Characterization& chars =
      ctx->characterization(pcfg.xbar_spec, pcfg.scheme);
  constexpr int kLookups = 20000;
  t0 = now_ns();
  for (int k = 0; k < kLookups; ++k) {
    if (&ctx->characterization(pcfg.xbar_spec, pcfg.scheme) != &chars) {
      rep.fail("cache returned a different entry");
    }
  }
  const double hit_ns = static_cast<double>(now_ns() - t0) / kLookups;

  perfbench::ReplayProfile prof;
  lain::telemetry::Collector collector;
  lain::telemetry::PhaseCounters tel_sum;
  double u_ms = 0.0, t_ms = 0.0, p_ms = 0.0, c_ms = 0.0, u_run_ms = 0.0;
  double u_cycles = 0.0, replay_cycles = 0.0, tel_cycles = 0.0;
  double u_node_cycles = 0.0, u_hops = 0.0, replay_hops = 0.0;
  std::vector<double> build_ms;
  MeshOutputs first;  // input 0's outputs: the exact per-op counts
  std::int64_t first_link_ticks = 0;
  std::uint64_t op_lookups = 0, op_misses = 0;  // input 0, warm cache
  int shards = 1, boundary = 0;
  std::uint64_t digest_u = 0, digest_t = 0;
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(a.seconds * 1e9);
  for (int i = 0; i == 0 || now_ns() < deadline; ++i) {
    const int input = i % kMeshPool;
    const noc::SimConfig cfg = mesh_config(w, a.seed, input);
    const core::CharacterizationCache& cache = ctx->characterizations();
    const std::uint64_t lookups0 = cache.lookups();
    const std::uint64_t misses0 = cache.characterizations();
    const MeshOp u = run_mesh_op(*ctx, cfg, pcfg, /*sharded=*/false);
    if (i == 0) {
      op_lookups = cache.lookups() - lookups0;
      op_misses = cache.characterizations() - misses0;
    }
    rep.attempt();
    const std::string err = perfbench::check_mesh(u.out);
    if (!err.empty()) rep.fail("input " + std::to_string(input) + ": " + err);
    const std::uint64_t du = perfbench::digest(u.out);
    u_ms += u.total_ms;
    u_run_ms += u.run_ms;
    u_cycles += static_cast<double>(u.out.cycles);
    u_node_cycles += static_cast<double>(u.out.cycles) * cfg.num_nodes();
    u_hops += static_cast<double>(u.out.flit_hops);
    build_ms.push_back(u.build_ms);

    const std::int64_t links_before = prof.link_ticks;
    const std::int64_t tr0 = now_ns();
    const MeshOutputs r = perfbench::replay_serial(cfg, pcfg, chars, prof);
    t_ms += ms_since(tr0);
    replay_cycles += static_cast<double>(r.cycles);
    replay_hops += static_cast<double>(r.flit_hops);
    rep.attempt();
    const std::uint64_t dr = perfbench::digest(r);
    if (dr != du) rep.fail("replay digest differs from the kernel's");
    if (i == 0) {
      first = u.out;
      digest_u = du;
      digest_t = dr;
      first_link_ticks = prof.link_ticks - links_before;
    }

    if (w.shard_check) {
      const MeshOp p = run_mesh_op(*ctx, cfg, pcfg, /*sharded=*/true);
      p_ms += p.total_ms;
      collector.reset();
      const MeshOp c = run_mesh_op(*ctx, cfg, pcfg, true, &collector);
      c_ms += c.total_ms;
      tel_sum.merge(collector.totals());
      tel_cycles += static_cast<double>(c.out.cycles);
      shards = c.shards;
      boundary = c.boundary_links;
      for (const MeshOp* op : {&p, &c}) {
        rep.attempt();
        if (perfbench::digest(op->out) != du) {
          rep.fail("sharded digest differs from the serial kernel's");
        }
      }
    }
  }
  const double u_s = u_ms * 1e-3;
  std::int64_t layer_sum = 0;
  for (std::int64_t ns : prof.layer_ns) layer_sum += ns;
  const double per_node_cycle = static_cast<double>(prof.node_cycles);
  auto safe_div = [](double x, double y) { return y > 0.0 ? x / y : 0.0; };

  rep.metric("mnode_cycles_per_s", u_node_cycles / u_s / 1e6, "Mnodecyc/s");
  rep.metric("mflit_hops_per_s", u_hops / u_s / 1e6, "Mhop/s");
  rep.metric("charz_per_s", 0.0, "1/s", "no characterization per op");
  rep.metric("trace.overhead_pct", 100.0 * (t_ms - u_ms) / u_ms, "%",
             "replay vs untraced op");
  for (std::size_t s = 0; s < 5; ++s) {
    rep.metric("xbar.characterize_ms." +
                   std::string(xbar::scheme_name(xbar::all_schemes()[s])),
               charz_ms[s], "ms", "median of 3");
  }
  rep.metric("core.table1_ms", table1_ms, "ms", "cold process cache");
  rep.metric("core.cache.hit_ns", hit_ns, "ns");
  rep.metric("core.cache.lookups", static_cast<double>(op_lookups), "count",
             "per op, input 0");
  rep.metric("core.cache.misses", static_cast<double>(op_misses), "count",
             "per op, input 0 (warm cache)");
  rep.metric("noc.build_ms", median(build_ms), "ms");
  rep.metric("noc.traffic.ns_per_node_cycle",
             prof.layer_ns[perfbench::kTraffic] / per_node_cycle, "ns");
  rep.metric("noc.nic.ns_per_node_cycle",
             prof.layer_ns[perfbench::kNic] / per_node_cycle, "ns");
  rep.metric("noc.eject.ns_per_node_cycle",
             prof.layer_ns[perfbench::kEject] / per_node_cycle, "ns");
  const double idle_calls = static_cast<double>(prof.router_idle_calls);
  const double busy_calls = static_cast<double>(prof.router_busy_calls);
  rep.metric("noc.router.idle_ns_per_router_cycle",
             safe_div(prof.layer_ns[perfbench::kRouterIdle], idle_calls),
             "ns", "includes every router's quiescence probe");
  rep.metric("noc.router.idle_frac", idle_calls / (idle_calls + busy_calls),
             "frac");
  rep.metric("noc.router.busy_ns_per_router_cycle",
             safe_div(prof.layer_ns[perfbench::kRouterBusy], busy_calls),
             "ns");
  rep.metric("noc.router.ns_per_flit_hop",
             safe_div(prof.layer_ns[perfbench::kRouterBusy], replay_hops),
             "ns", "busy-router time per crossbar traversal");
  rep.metric("noc.channel.ns_per_link_tick",
             prof.layer_ns[perfbench::kChannel] /
                 static_cast<double>(prof.link_ticks),
             "ns");
  rep.metric("noc.channel.link_ticks", static_cast<double>(first_link_ticks),
             "count", "input 0");
  rep.metric("power.hook.ns_per_call",
             safe_div(static_cast<double>(prof.hook_sampled_ns),
                      static_cast<double>(prof.hook_sampled)),
             "ns", "sampled, 1 call in 64");
  rep.metric("power.hook.calls", static_cast<double>(first.power_cycles),
             "count", "input 0");
  rep.metric("power.sleep_transitions",
             static_cast<double>(first.sleep_transitions), "count", "input 0");
  rep.metric("power.standby_frac", first.standby_fraction, "frac", "input 0");
  rep.metric("noc.kernel.ns_per_cycle", u_run_ms * 1e6 / u_cycles, "ns",
             "untraced SimKernel::run");
  rep.metric("noc.kernel.other_ns_per_cycle",
             u_run_ms * 1e6 / u_cycles -
                 static_cast<double>(layer_sum) / replay_cycles,
             "ns", "serial kernel minus the replayed layers");
  rep.metric("noc.cycles", static_cast<double>(first.cycles), "count",
             "input 0");
  rep.metric("noc.router_cycles",
             static_cast<double>(first.cycles) * w.radix * w.radix, "count",
             "input 0");
  rep.metric("noc.flit_hops", static_cast<double>(first.flit_hops), "count",
             "input 0");
  rep.metric("noc.packets", static_cast<double>(first.stats.packets_ejected),
             "count", "input 0, measured");
  rep.metric("parallel.shards", shards, "count");
  rep.metric("parallel.boundary_links", boundary, "count");
  const double denom =
      static_cast<double>(tel_sum.component_ns + tel_sum.exchange_ns +
                          tel_sum.barrier_ns);
  rep.metric("parallel.component_ns_per_cycle",
             safe_div(static_cast<double>(tel_sum.component_ns), tel_cycles),
             "ns", "summed over shards");
  rep.metric("parallel.exchange_ns_per_cycle",
             safe_div(static_cast<double>(tel_sum.exchange_ns), tel_cycles),
             "ns", "summed over shards");
  rep.metric("parallel.barrier_ns_per_cycle",
             safe_div(static_cast<double>(tel_sum.barrier_ns), tel_cycles),
             "ns", "summed over shards");
  rep.metric("parallel.barrier_share",
             safe_div(static_cast<double>(tel_sum.barrier_ns), denom), "frac");
  rep.metric("parallel.speedup_vs_serial", safe_div(u_ms, p_ms), "x",
             "serial op time / auto-sharded op time");
  if (w.shard_check) {
    rep.info("trace.collector_overhead_pct",
             fmt("%.3f", 100.0 * (c_ms - p_ms) / p_ms));
  }
  rep.info("trace.replay_digest", hex64(digest_t));
  rep.info("trace.untraced_digest", hex64(digest_u));
  if (!a.out_dir.empty()) {
    const std::string path = a.out_dir + "/spans-" + w.name + "-seed" +
                             std::to_string(a.seed) + ".csv";
    if (perfbench::write_spans(path, prof)) rep.info("trace.spans", path);
  }
}

// ---------------------------------------------------------------------------
// circuit_sweep
// ---------------------------------------------------------------------------

// Design point of input `input`: the axes the paper varies (static
// probability, temperature, technology node).  A characterization's cost
// depends on the point, so the seed draws each point inside one cell of
// a fixed 3 x 4 grid (node x static-probability quarter, with the
// temperature quarter rotated by node), within the middle fifth of the
// cell.  Every seed's pool then has the same make-up and seeds differ
// only in where each point sits inside its cell.
xbar::CrossbarSpec circuit_point(std::uint64_t seed, int input) {
  static_assert(kCircuitPool == 12, "the grid is 3 nodes x 4 quarters");
  std::uint64_t state = input_seed(seed, input);
  const int node = input % 3;
  const int quarter = input / 3;
  auto in_cell = [&](int cell) { return cell + 0.4 + 0.2 * unit_draw(state); };
  xbar::CrossbarSpec spec = xbar::table1_spec();
  spec.static_probability = 0.1 + 0.2 * in_cell(quarter);
  spec.temp_k = 298.15 + 21.25 * in_cell((quarter + node) % 4);
  constexpr lain::tech::Node kNodes[] = {
      lain::tech::Node::k90nm, lain::tech::Node::k65nm,
      lain::tech::Node::k45nm};
  spec.node = kNodes[node];
  return spec;
}

struct CircuitOp {
  Characterizations chars{};
  std::array<double, 5> scheme_ms{};
  double total_ms = 0.0;
  std::uint64_t lookups = 0, misses = 0;
};

// A cold context characterizing all five schemes at one design point;
// `traced` adds one span per scheme.
CircuitOp circuit_op(const xbar::CrossbarSpec& spec, bool traced) {
  CircuitOp op;
  const std::int64_t t0 = now_ns();
  {
    core::LainContext ctx;
    for (std::size_t s = 0; s < 5; ++s) {
      const std::int64_t ts = traced ? now_ns() : 0;
      op.chars[s] = ctx.characterization(spec, xbar::all_schemes()[s]);
      if (traced) op.scheme_ms[s] = ms_since(ts);
    }
    op.lookups = ctx.characterizations().lookups();
    op.misses = ctx.characterizations().characterizations();
  }
  op.total_ms = ms_since(t0);
  return op;
}

// One set-up: a context and the first characterization of every
// scheme (at the paper's design point), timed from `t0`.
double circuit_setup(std::int64_t t0) {
  core::LainContext ctx;
  for (xbar::Scheme s : xbar::all_schemes()) {
    ctx.characterization(xbar::table1_spec(), s);
  }
  return ms_since(t0) * 1e-3;
}

void circuit_untraced(const Args& a, Report& rep) {
  const double first_setup = circuit_setup(g_process_start_ns);
  std::vector<std::optional<std::uint64_t>> pool(kCircuitPool);
  auto one = [&](int input) {
    const CircuitOp op =
        circuit_op(circuit_point(a.seed, input), /*traced=*/false);
    rep.attempt();
    const std::string err = check_chars(op.chars);
    if (!err.empty()) rep.fail("point " + std::to_string(input) + ": " + err);
    check_repeat(rep, pool, input, chars_digest(op.chars), "circuit op");
    return op.total_ms;
  };
  const LoopTimes times =
      closed_loop(a, kCircuitPool, first_setup,
                  [] { return circuit_setup(now_ns()); }, one);
  // Untimed: complete the point pool so the digest covers every point.
  for (int input = 0; input < kCircuitPool; ++input) {
    if (!pool[static_cast<std::size_t>(input)]) one(input);
  }
  std::uint64_t run_digest = 0;
  for (const auto& d : pool) run_digest = fold(run_digest, *d);

  report_end_to_end(rep, times, kCircuitTailPct, run_digest);
  rep.info("host.charz_per_s",
           fmt("%.4f", 5.0 * times.op_ms.size() / times.op_time_s));
  rep.info("sim.digest", hex64(run_digest));
}

void circuit_traced(const Args& a, Report& rep) {
  std::int64_t t0 = now_ns();
  const core::Table1 table = core::make_table1();
  const double table1_ms = ms_since(t0);
  if (!check_rows(table.rows).empty()) rep.fail("table1 rows");

  core::LainContext warm;
  const xbar::CrossbarSpec paper = xbar::table1_spec();
  const xbar::Characterization& ref =
      warm.characterization(paper, xbar::Scheme::kSC);
  constexpr int kLookups = 20000;
  t0 = now_ns();
  for (int k = 0; k < kLookups; ++k) {
    if (&warm.characterization(paper, xbar::Scheme::kSC) != &ref) {
      rep.fail("cache returned a different entry");
    }
  }
  const double hit_ns = static_cast<double>(now_ns() - t0) / kLookups;

  std::array<std::vector<double>, 5> scheme_ms;
  double u_ms = 0.0, t_ms = 0.0;
  double ops = 0.0;
  std::uint64_t lookups = 0, misses = 0;
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(a.seconds * 1e9);
  for (int i = 0; i == 0 || now_ns() < deadline; ++i) {
    const xbar::CrossbarSpec spec = circuit_point(a.seed, i % kCircuitPool);
    const CircuitOp u = circuit_op(spec, /*traced=*/false);
    u_ms += u.total_ms;
    const CircuitOp op = circuit_op(spec, /*traced=*/true);
    t_ms += op.total_ms;
    rep.attempt();
    const std::string err = check_chars(op.chars);
    if (!err.empty()) rep.fail(err);
    if (chars_digest(op.chars) != chars_digest(u.chars)) {
      rep.fail("traced op changed the characterizations");
    }
    for (std::size_t s = 0; s < 5; ++s) scheme_ms[s].push_back(op.scheme_ms[s]);
    if (i == 0) {
      lookups = op.lookups;
      misses = op.misses;
    }
    ops += 1.0;
  }
  rep.metric("mnode_cycles_per_s", 0.0, "Mnodecyc/s", "no mesh");
  rep.metric("mflit_hops_per_s", 0.0, "Mhop/s", "no mesh");
  rep.metric("charz_per_s", 5.0 * ops / (u_ms * 1e-3), "1/s");
  rep.metric("trace.overhead_pct", 100.0 * (t_ms - u_ms) / u_ms, "%",
             "per-scheme spans vs one span");
  for (std::size_t s = 0; s < 5; ++s) {
    rep.metric("xbar.characterize_ms." +
                   std::string(xbar::scheme_name(xbar::all_schemes()[s])),
               median(scheme_ms[s]), "ms", "median over ops");
  }
  rep.metric("core.table1_ms", table1_ms, "ms", "cold process cache");
  rep.metric("core.cache.hit_ns", hit_ns, "ns");
  rep.metric("core.cache.lookups", static_cast<double>(lookups), "count",
             "per op");
  rep.metric("core.cache.misses", static_cast<double>(misses), "count",
             "per op (cold context)");
  const std::pair<const char*, const char*> kMeshOnly[] = {
      {"noc.build_ms", "ms"},
      {"noc.traffic.ns_per_node_cycle", "ns"},
      {"noc.nic.ns_per_node_cycle", "ns"},
      {"noc.eject.ns_per_node_cycle", "ns"},
      {"noc.router.idle_ns_per_router_cycle", "ns"},
      {"noc.router.idle_frac", "frac"},
      {"noc.router.busy_ns_per_router_cycle", "ns"},
      {"noc.router.ns_per_flit_hop", "ns"},
      {"noc.channel.ns_per_link_tick", "ns"},
      {"noc.channel.link_ticks", "count"},
      {"power.hook.ns_per_call", "ns"},
      {"power.hook.calls", "count"},
      {"power.sleep_transitions", "count"},
      {"power.standby_frac", "frac"},
      {"noc.kernel.ns_per_cycle", "ns"},
      {"noc.kernel.other_ns_per_cycle", "ns"},
      {"noc.cycles", "count"},
      {"noc.router_cycles", "count"},
      {"noc.flit_hops", "count"},
      {"noc.packets", "count"},
      {"parallel.shards", "count"},
      {"parallel.boundary_links", "count"},
      {"parallel.component_ns_per_cycle", "ns"},
      {"parallel.exchange_ns_per_cycle", "ns"},
      {"parallel.barrier_ns_per_cycle", "ns"},
      {"parallel.barrier_share", "frac"},
      {"parallel.speedup_vs_serial", "x"},
  };
  for (const auto& [name, unit] : kMeshOnly) {
    rep.metric(name, 0.0, unit, "no mesh in this workload");
  }
}

void print_meta(const Args& a) {
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %g, \"trace\": %d, \"nproc\": %u, \"cpu\": \"%s\", "
      "\"compiler\": \"%s\", \"flags\": \"%s\", \"build_type\": \"%s\", "
      "\"lain_telemetry\": %d, \"commit\": \"%s\", \"dirty\": %d}}\n",
      json_escape(a.workload).c_str(), a.seed, a.seconds, a.trace,
      std::thread::hardware_concurrency(), json_escape(a.cpu).c_str(),
      LAINBENCH_COMPILER, LAINBENCH_FLAGS, LAINBENCH_BUILD_TYPE,
      LAIN_TELEMETRY, json_escape(a.commit).c_str(), a.dirty);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: lainbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--commit SHA --dirty 0|1 --cpu MODEL "
                 "--out-dir DIR]\n");
    return 2;
  }
  const MeshWorkload* mesh = nullptr;
  for (const MeshWorkload& w : kMeshWorkloads) {
    if (a.workload == w.name) mesh = &w;
  }
  if (mesh == nullptr && a.workload != "circuit_sweep") {
    std::fprintf(stderr, "lainbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  print_meta(a);
  Report rep;
  try {
    if (mesh != nullptr) {
      if (a.trace) {
        mesh_traced(*mesh, a, rep);
      } else {
        mesh_untraced(*mesh, a, rep);
      }
    } else if (a.trace) {
      circuit_traced(a, rep);
    } else {
      circuit_untraced(a, rep);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lainbench: %s\n", e.what());
    return 1;
  }
  rep.print();
  return 0;
}
