/// \file statleak_bench.cpp
/// \brief One rep of one benchmark workload per process.
///
///   statleak_bench --workload NAME --seed S --threads T [--trace]
///                  [--smoke] [--tmp DIR]
///
/// Generates the workload's circuit, serializes it to .bench text and hands
/// the program only that text (api::StudyInput::bench_text). Times set-up
/// and the facade or engine call, checks the outputs, and prints one JSON
/// object on stdout. Exit status 0 means every check passed.
///
/// With --trace the rep makes the same call with an obs::Registry attached
/// and reads the layer split from the phase timers, counters and trace
/// streams the program records there. It also records spans around the
/// calls it makes into each layer, and
///   * flow-c3540: runs the flow again over its complete journal, so the
///     statistical phase resumes (opt.replay_s) and must reproduce the
///     outcome bit for bit;
///   * mc-c7552: re-evaluates a strided subset of kernel blocks draw by
///     draw, lane-for-lane bit-equal to the population.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/driver.hpp"
#include "gen/proxy.hpp"
#include "gen/random_dag.hpp"
#include "gen/scaling.hpp"
#include "leakage/batch_leakage.hpp"
#include "leakage/leakage.hpp"
#include "mc/batch.hpp"
#include "mc/monte_carlo.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/flat_circuit.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "opt/metrics.hpp"
#include "opt/statistical.hpp"
#include "report/flow.hpp"
#include "ssta/flat_incremental.hpp"
#include "sta/batch_delay.hpp"
#include "sta/sta.hpp"
#include "util/rng.hpp"

#ifndef STATLEAK_BENCH_BUILD_TYPE
#define STATLEAK_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef STATLEAK_BENCH_COMPILER
#define STATLEAK_BENCH_COMPILER "unknown"
#endif

namespace {

using namespace statleak;
using obs::Json;
using Clock = std::chrono::steady_clock;

/// Replays every kMcReplayStride-th kernel block of the MC population.
constexpr std::size_t kMcReplayStride = 8;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t f64_bits(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

std::string hex64(std::uint64_t x) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

/// Order-sensitive 64-bit digest over words (splitmix chaining).
class Digest {
 public:
  void add(std::uint64_t x) { h_ = mix64(h_ ^ x); }
  void add_f64(double x) { add(f64_bits(x)); }
  std::string hex() const { return hex64(h_); }

 private:
  std::uint64_t h_ = 0x5354424Eu;
};

void add_impl(Digest& d, const Circuit& c) {
  d.add(c.num_gates());
  for (GateId id = 0; id < c.num_gates(); ++id) {
    d.add(static_cast<std::uint64_t>(c.gate(id).vth));
    d.add_f64(c.gate(id).size);
  }
}

void add_result(Digest& d, const OptResult& r) {
  d.add(static_cast<std::uint64_t>(r.iterations));
  d.add(static_cast<std::uint64_t>(r.sizing_commits));
  d.add(static_cast<std::uint64_t>(r.hvt_commits));
  d.add(static_cast<std::uint64_t>(r.downsize_commits));
  d.add(static_cast<std::uint64_t>(r.rejected_moves));
  d.add(r.feasible ? 1 : 0);
  d.add_f64(r.final_objective);
}

void add_metrics(Digest& d, const CircuitMetrics& m) {
  for (double x : {m.nominal_delay_ps, m.corner3_delay_ps,
                   m.ssta_delay_mean_ps, m.ssta_delay_sigma_ps,
                   m.timing_yield, m.leakage_nominal_na, m.leakage_mean_na,
                   m.leakage_sigma_na, m.leakage_p95_na, m.leakage_p99_na,
                   m.hvt_fraction, m.area_um}) {
    d.add_f64(x);
  }
  d.add(m.hvt_count);
  d.add(m.cell_count);
}

// ------------------------------------------------------------------ spans --

/// In-memory span recorder. Disabled (untraced reps) it records nothing and
/// reads no clock; run.py writes the spans of every traced rep to
/// build-bench/trace.json when the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), origin_(Clock::now()) {}

  int open(const char* name) {
    if (!enabled_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, id, stack_.empty() ? -1 : stack_.back(),
                      now_ns(), 0});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Summed duration of every span with this name [s].
  double total_s(std::string_view name) const {
    std::int64_t ns = 0;
    for (const Span& s : spans_) {
      if (name == s.name) ns += s.end_ns - s.start_ns;
    }
    return static_cast<double>(ns) * 1e-9;
  }

  Json to_json() const {
    Json out = Json::array();
    for (const Span& s : spans_) {
      Json j = Json::object();
      j.set("name", s.name);
      j.set("id", s.id);
      j.set("parent", s.parent);
      j.set("start_ns", static_cast<std::int64_t>(s.start_ns));
      j.set("end_ns", static_cast<std::int64_t>(s.end_ns));
      out.push_back(std::move(j));
    }
    return out;
  }

 private:
  struct Span {
    const char* name;
    int id;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~SpanScope() { tracer_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// -------------------------------------------------------------- workloads --

enum class Kind { kOpt, kFlow, kMc };

/// One workload. Why each exists is recorded in benchmark/README.md.
struct Workload {
  const char* name;
  Kind kind;
  const char* circuit;        ///< scaling member or ISCAS proxy
  const char* smoke_circuit;  ///< --smoke substitute
  /// opt: t_max = factor x nominal STA delay of the reset point;
  /// flow: t_max = factor x D_min.
  double t_factor;
  double iter_factor;  ///< opt: OptConfig::max_iterations_factor
  /// opt: the phase (0 sizing, 1 assign) >= 95 % of iterations must be in.
  int home_phase;
  int samples;        ///< mc
  int smoke_samples;  ///< mc, --smoke
  int setup_repeats;  ///< set-ups per rep (setup_s: median of a run's)
};

constexpr Workload kWorkloads[] = {
    {"opt-s100k-size", Kind::kOpt, "s100k", "s10k", 0.92, 0.003, 0, 0, 0, 1},
    {"opt-s100k-assign", Kind::kOpt, "s100k", "s10k", 1.30, 0.006, 1, 0, 0,
     1},
    {"flow-c3540", Kind::kFlow, "c3540", "c880", 1.15, 0.0, -1, 0, 0, 5},
    {"mc-c7552", Kind::kMc, "c7552", "c7552", 0.0, 0.0, -1, 60000, 5000, 5},
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  int threads = 1;
  bool trace = false;
  bool smoke = false;
  std::string tmp = ".";
};

/// The workload's circuit. Scaling members mix the seed into the generator
/// seed (seed 0 is the published member); the ISCAS proxies are fixed.
Circuit generate_circuit(const std::string& name, std::uint64_t seed) {
  for (const ScalingSpec& s : scaling_series()) {
    if (s.name != name) continue;
    RandomDagSpec spec;
    spec.num_inputs = s.num_inputs;
    spec.num_gates = s.num_gates;
    spec.num_outputs = s.num_outputs;
    spec.locality = s.locality;
    spec.seed = s.seed ^ (seed * 0x9E3779B97F4A7C15ull);
    Circuit c = make_random_dag(spec);
    c.set_name(name);
    return c;
  }
  return iscas85_proxy(name);
}

/// What set-up hands to the timed call.
struct Prepared {
  api::StudyInput input;
  api::LoadedStudy study;
  double t_max_ps = 0.0;  ///< opt: optimizer target; mc: yield target
};

Prepared prepare(const Workload& w, const Options& o, Tracer& tr) {
  SpanScope setup(tr, "setup");
  const std::string name = o.smoke ? w.smoke_circuit : w.circuit;
  Circuit generated;
  {
    SpanScope s(tr, "gen.generate");
    generated = generate_circuit(name, o.seed);
  }
  api::StudyInput input;
  {
    SpanScope s(tr, "gen.serialize");
    input.bench_text = write_bench_string(generated);
    input.circuit_name = generated.name();
  }
  api::LoadedStudy study = [&] {
    SpanScope s(tr, "netlist.parse");
    return api::load_study(input);
  }();
  Prepared p{std::move(input), std::move(study), 0.0};
  SpanScope s(tr, "sta.target");
  if (w.kind == Kind::kOpt) {
    reset_implementation(p.study.circuit, p.study.lib);
    p.t_max_ps = w.t_factor *
                 StaEngine(p.study.circuit, p.study.lib).critical_delay_ps();
  } else if (w.kind == Kind::kMc) {
    // api::prepare_mc_study's default: 1.1 x nominal critical delay.
    p.t_max_ps =
        1.1 * StaEngine(p.study.circuit, p.study.lib).critical_delay_ps();
  }
  return p;
}

// ------------------------------------------------------------ rep output --

struct Rep {
  Json checks = Json::object();
  Json layers = Json::object();
  bool all_ok = true;

  void check(const char* name, bool ok) {
    checks.set(name, ok);
    all_ok = all_ok && ok;
  }
  void layer(const char* name, double value) { layers.set(name, value); }
};

/// Seconds and scope count of one registry phase (zero when absent).
obs::PhaseTime phase(const obs::Registry& reg, std::string_view name) {
  for (obs::PhaseTime& p : reg.phases()) {
    if (p.name == name) return p;
  }
  return {std::string(name), 0.0, 0};
}

/// Layer metrics of one statistical-optimizer run, read from the registry
/// the run was handed: the stat.* phase timers (sizing and assign include
/// their pricing, stat.score), the per-iteration "stat" trace stream, and
/// the scorer and flat-SSTA counters.
void stat_layers(const obs::Registry& reg, const OptResult& r, Rep& rep) {
  const std::vector<obs::TraceEvent> events = reg.trace_events("stat");
  const auto sizing = std::count_if(
      events.begin(), events.end(),
      [](const obs::TraceEvent& e) { return e.phase == "sizing"; });
  rep.layer("opt.phase1_share",
            events.empty() ? 0.0
                           : static_cast<double>(sizing) /
                                 static_cast<double>(events.size()));
  rep.layer("opt.stat_s", phase(reg, "stat.total").seconds);
  rep.layer("opt.sizing_s", phase(reg, "stat.sizing").seconds);
  rep.layer("opt.assign_s", phase(reg, "stat.assign").seconds);
  rep.layer("opt.price_s", phase(reg, "stat.score").seconds);

  const int commits = r.sizing_commits + r.hvt_commits + r.downsize_commits;
  rep.layer("opt.iterations", r.iterations);
  rep.layer("opt.commits", commits);
  rep.layer("opt.accept_ratio",
            commits + r.rejected_moves > 0
                ? static_cast<double>(commits) /
                      static_cast<double>(commits + r.rejected_moves)
                : 0.0);
  rep.layer("opt.pruned_candidates",
            reg.counter_value("opt.pruned_candidates"));
  rep.layer("opt.candidate_blocks", reg.counter_value("opt.candidate_blocks"));

  const double retimed = reg.counter_value("ssta.flat_cone_gates_retimed");
  const double passes = reg.counter_value("ssta.flat_incremental_passes");
  rep.layer("ssta.cone_gates_retimed", retimed);
  rep.layer("ssta.gates_per_pass", passes > 0 ? retimed / passes : 0.0);
  rep.layer("ssta.full_passes", reg.counter_value("ssta.flat_full_passes"));
}

std::string fresh_journal(const Options& o, const char* stem) {
  const std::string path = o.tmp + "/" + stem + "-" +
                           std::to_string(::getpid()) + ".slop";
  std::filesystem::remove(path);
  return path;
}

// ------------------------------------------------------------ host probe ----

/// Seconds one fixed single-threaded compute kernel takes. The kernel is
/// harness code (it never changes with the program) and uses the
/// transcendental mix of the SSTA and MC inner loops (exp, sqrt, erfc). Run
/// right before set-up and right after the timed call, it measures how fast
/// the shared host runs at that moment; run.py divides every time by it.
double host_probe_s() {
  const auto t0 = Clock::now();
  double acc = 0.0;
  for (int i = 1; i < 12'000'000; ++i) {
    const double x = i * 1e-6;
    acc += std::exp(-x) * std::sqrt(x) + std::erfc(x * 0.1);
  }
  const double seconds = seconds_between(t0, Clock::now());
  if (acc == 0.0) std::puts("");  // keeps the loop observable
  return seconds;
}

// --------------------------------------------------------------- opt-* ----

struct Timed {
  double wall_s = 0.0;
  double probe_after_s = 0.0;  ///< host_probe_s right after the timed call
  double work = 0.0;  ///< iterations / samples / cells
  double leak_p99_na = 0.0;
  std::string digest;
};

Timed run_opt(const Workload& w, Prepared& p, const Options& o, Tracer& tr,
              Rep& rep) {
  api::LoadedStudy& st = p.study;
  OptConfig cfg;
  cfg.t_max_ps = p.t_max_ps;
  cfg.max_iterations_factor = w.iter_factor;
  cfg.num_threads = o.threads;
  obs::Registry reg;

  Timed t;
  OptResult r;
  {
    SpanScope s(tr, "opt.stat");
    const auto t0 = Clock::now();
    r = StatisticalOptimizer(st.lib, st.var, cfg)
            .run(st.circuit, o.trace ? &reg : nullptr);
    t.wall_s = seconds_between(t0, Clock::now());
  }
  t.probe_after_s = host_probe_s();
  const CircuitMetrics m =
      measure_metrics(st.circuit, st.lib, st.var, cfg.t_max_ps);
  rep.check("completed", r.completed);
  rep.check("p99_matches_objective",
            f64_bits(m.leakage_p99_na) == f64_bits(r.final_objective));
  t.work = r.iterations;
  t.leak_p99_na = m.leakage_p99_na;
  Digest d;
  add_result(d, r);
  add_impl(d, st.circuit);
  t.digest = d.hex();
  if (o.trace) stat_layers(reg, r, rep);
  return t;
}

// ---------------------------------------------------------------- flow ----

void add_outcome(Digest& d, const FlowOutcome& f) {
  d.add_f64(f.d_min_ps);
  d.add_f64(f.t_max_ps);
  d.add_f64(f.det_corner_k);
  add_result(d, f.det_result);
  add_result(d, f.stat_result);
  add_metrics(d, f.det_metrics);
  add_metrics(d, f.stat_metrics);
}

std::string outcome_digest(const FlowOutcome& f) {
  Digest d;
  add_outcome(d, f);
  return d.hex();
}

Timed run_flow_workload(const Workload& w, Prepared& p, const Options& o,
                        Tracer& tr, Rep& rep) {
  api::FlowCommandConfig cfg;
  cfg.input = p.input;
  cfg.flow.t_max_factor = w.t_factor;
  cfg.flow.yield_target = 0.99;
  cfg.flow.det_auto_corner = true;
  cfg.flow.num_threads = o.threads;
  // The stat phase is journaled, as a crash-durable CLI flow would be.
  const std::string journal = fresh_journal(o, "flow");
  cfg.flow.opt_checkpoint_path = journal;
  obs::Registry reg;

  Timed t;
  FlowOutcome f;
  {
    SpanScope s(tr, "flow");
    const auto t0 = Clock::now();
    f = api::run_flow_command(cfg, o.trace ? &reg : nullptr).outcome;
    t.wall_s = seconds_between(t0, Clock::now());
  }
  t.probe_after_s = host_probe_s();
  t.digest = outcome_digest(f);

  if (o.trace) {
    const obs::PhaseTime det = phase(reg, "det.total");
    const obs::PhaseTime stat = phase(reg, "stat.total");
    rep.layer("report.dmin_s", phase(reg, "flow.d_min").seconds);
    rep.layer("opt.det_s", det.seconds);
    rep.layer("opt.det_corners", static_cast<double>(det.calls));
    // flow.det and flow.stat also cover measure_metrics of each result.
    rep.layer("opt.metrics_s", phase(reg, "flow.det").seconds -
                                   det.seconds +
                                   phase(reg, "flow.stat").seconds -
                                   stat.seconds);
    stat_layers(reg, f.stat_result, rep);
    rep.layer("journal.records", reg.counter_value("opt.journal_records"));
    rep.layer("journal.bytes",
              static_cast<double>(std::filesystem::file_size(journal)));

    // The same flow over the complete journal: the stat phase replays every
    // decision through the optimizer's own control flow, appends nothing
    // and must reproduce the outcome.
    obs::Registry resumed_reg;
    FlowOutcome resumed;
    {
      SpanScope s(tr, "opt.replay");
      resumed = api::run_flow_command(cfg, &resumed_reg).outcome;
    }
    rep.layer("opt.replay_s", phase(resumed_reg, "stat.total").seconds);
    rep.check("resume_bit_equal",
              resumed.stat_result.replayed_moves > 0 &&
                  resumed_reg.counter_value("opt.journal_records") == 0.0 &&
                  outcome_digest(resumed) == t.digest);
  }
  std::filesystem::remove(journal);

  rep.check("completed", f.completed);
  rep.check("p99_matches_objective",
            f64_bits(f.stat_metrics.leakage_p99_na) ==
                f64_bits(f.stat_result.final_objective));
  rep.check("stat_yield_meets_eta",
            f.stat_metrics.timing_yield >= cfg.flow.yield_target);
  rep.check("det_yield_meets_eta",
            f.det_metrics.timing_yield >= cfg.flow.yield_target);
  rep.layer("report.p99_saving_pct", 100.0 * f.p99_saving());
  t.work = static_cast<double>(p.study.circuit.num_cells());
  t.leak_p99_na = f.stat_metrics.leakage_p99_na;
  return t;
}

// ------------------------------------------------------------------ mc ----

void add_population(Digest& d, const McResult& r) {
  d.add(r.delay_ps.size());
  for (double x : r.delay_ps) d.add_f64(x);
  for (double x : r.leakage_na) d.add_f64(x);
}

/// Re-evaluates every kMcReplayStride-th kernel block of the population
/// through the public draw and kernel entry points and compares every lane
/// with its population slot. It relies only on the MC determinism contract
/// (sample i is drawn from Rng::stream(seed, i): the die, then each gate in
/// id order), not on how the engine schedules its blocks. Times are scaled
/// to the whole population (single thread).
void replay_mc_kernels(const Circuit& circuit, const CellLibrary& lib,
                       const VariationModel& var, const McConfig& mc,
                       const McResult& pop, Tracer& tr, Rep& rep) {
  const std::size_t n = circuit.num_gates();
  const std::size_t total = pop.delay_ps.size();
  const FlatCircuit flat = FlatCircuit::build(circuit);
  const StaEngine sta(circuit, lib);
  const BatchDelayKernel delay_kernel(flat, lib, sta.loads());
  const BatchLeakageKernel leak_kernel(flat, lib);
  const std::vector<double> widths = mc_device_widths(circuit, lib);
  const std::size_t block = resolve_batch_size(mc.batch_size, n);
  BatchScratch sc;
  sc.resize(n, block);

  std::size_t replayed = 0;
  bool equal = true;
  for (std::size_t s0 = 0; s0 < total; s0 += block * kMcReplayStride) {
    const std::size_t lanes = std::min(block, total - s0);
    {
      SpanScope s(tr, "mc.draw");
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        Rng rng = Rng::stream(mc.seed, s0 + lane);
        const GlobalSample die = sample_global(var, rng);
        for (std::size_t id = 0; id < n; ++id) {
          const ParamSample ps = sample_gate(var, die, rng, widths[id]);
          sc.dl[id * block + lane] = ps.dl_nm;
          sc.dv[id * block + lane] = ps.dvth_v;
        }
      }
    }
    {
      SpanScope s(tr, "mc.delay_kernel");
      delay_kernel.critical_delay_block(sc.dl.data(), sc.dv.data(), block,
                                        lanes, mc.exact_delay, nullptr,
                                        sc.arrival.data(),
                                        sc.delay_out.data());
    }
    {
      SpanScope s(tr, "mc.leak_kernel");
      leak_kernel.total_block(sc.dl.data(), sc.dv.data(), block, lanes,
                              nullptr, sc.leak_out.data());
    }
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      equal = equal &&
              f64_bits(sc.delay_out[lane]) ==
                  f64_bits(pop.delay_ps[s0 + lane]) &&
              f64_bits(sc.leak_out[lane]) ==
                  f64_bits(pop.leakage_na[s0 + lane]);
    }
    replayed += lanes;
  }
  rep.check("kernel_replay_bit_equal", equal && replayed > 0);

  const double scale =
      static_cast<double>(total) / static_cast<double>(replayed);
  rep.layer("mc.draw_s", tr.total_s("mc.draw") * scale);
  rep.layer("mc.delay_kernel_s", tr.total_s("mc.delay_kernel") * scale);
  rep.layer("mc.leak_kernel_s", tr.total_s("mc.leak_kernel") * scale);
  // Computed (not measured) traffic: per gate-lane the delay kernel reads
  // dl, dv and one arrival per fanin and writes one arrival; the leakage
  // kernel reads dl and dv again.
  double per_lane_bytes = 0.0;
  for (GateId id = 0; id < n; ++id) {
    if (flat.is_input[id]) continue;
    const double fanin =
        flat.fanin_offset[id + 1] - flat.fanin_offset[id];
    per_lane_bytes += 8.0 * (2.0 + fanin + 1.0 + 2.0);
  }
  rep.layer("mc.gate_lanes", static_cast<double>(n) * total);
  rep.layer("mc.bytes_computed", per_lane_bytes * total);
}

Timed run_mc_workload(const Workload& w, Prepared& p, const Options& o,
                      Tracer& tr, Rep& rep) {
  api::McCommandConfig cfg;
  cfg.input = p.input;
  cfg.mc.num_samples = o.smoke ? w.smoke_samples : w.samples;
  cfg.mc.seed = o.seed;
  cfg.mc.num_threads = o.threads;
  cfg.mc.sampler = McSampler::kPseudo;
  cfg.mc.health_policy = HealthPolicy::kQuarantine;
  obs::Registry reg;

  Timed t;
  api::McCommandResult r;
  {
    SpanScope s(tr, "mc");
    const auto t0 = Clock::now();
    r = api::run_mc_command(cfg, o.trace ? &reg : nullptr);
    t.wall_s = seconds_between(t0, Clock::now());
  }
  t.probe_after_s = host_probe_s();
  const api::LoadedStudy& st = p.study;
  if (o.trace) {
    rep.layer("mc.samples_s", phase(reg, "mc.samples").seconds);
    replay_mc_kernels(st.circuit, st.lib, st.var, r.mc, r.result, tr, rep);
  }

  const McResult& res = r.result;
  const auto requested = static_cast<std::uint64_t>(cfg.mc.num_samples);
  rep.check("completed", res.completed && res.samples_done == requested &&
                             res.delay_ps.size() == requested);
  rep.check("no_quarantine", res.quarantined.empty());
  rep.check("target_matches_setup",
            f64_bits(r.t_max_ps) == f64_bits(p.t_max_ps));
  // MC against the analytic models it signs off.
  const LeakageAnalyzer analytic(st.circuit, st.lib, st.var);
  const double analytic_mean = analytic.mean_na();
  const double mc_mean = res.leakage_summary().mean;
  const double tol = std::max(4.0 * res.leakage_mean_ci_na(),
                              0.005 * analytic_mean);
  rep.check("mean_matches_wilkinson",
            std::abs(mc_mean - analytic_mean) <= tol);
  const double ssta_yield =
      FlatSstaEngine(st.circuit, st.lib, st.var).circuit_delay().cdf(
          p.t_max_ps);
  rep.check("yield_matches_ssta",
            std::abs(res.timing_yield(p.t_max_ps) - ssta_yield) <= 0.01);

  t.work = static_cast<double>(res.delay_ps.size());
  // MC signs the input off unchanged, so the implementation it delivers is
  // the input as loaded. Its sampled p99 (in the digest) carries ~0.3 %
  // sampling noise across seeds and is checked through the mean above.
  t.leak_p99_na = analytic.quantile_na(0.99);
  Digest d;
  add_population(d, res);
  t.digest = d.hex();
  return t;
}

// ------------------------------------------------------------------ main ----

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

Options parse_args(int argc, char** argv) {
  Options o;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) throw std::invalid_argument(argv[i]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload") {
      const std::string name = value(i);
      for (const Workload& w : kWorkloads) {
        if (name == w.name) o.workload = &w;
      }
      if (o.workload == nullptr) {
        throw std::invalid_argument("unknown workload " + name);
      }
    } else if (a == "--seed") {
      o.seed = std::stoull(value(i));
    } else if (a == "--threads") {
      o.threads = std::stoi(value(i));
    } else if (a == "--tmp") {
      o.tmp = value(i);
    } else if (a == "--trace") {
      o.trace = true;
    } else if (a == "--smoke") {
      o.smoke = true;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.workload == nullptr) throw std::invalid_argument("--workload needed");
  if (o.threads < 1) throw std::invalid_argument("--threads must be >= 1");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "usage: statleak_bench --workload NAME --seed S --threads T"
                 " [--trace] [--smoke] [--tmp DIR]\n  "
              << e.what() << "\n";
    return 2;
  }
  const Workload& w = *o.workload;
  Json out = Json::object();
  out.set("workload", w.name);
  out.set("seed", static_cast<std::int64_t>(o.seed));
  out.set("threads", o.threads);
  out.set("trace", o.trace);
  out.set("smoke", o.smoke);
  out.set("build_type", STATLEAK_BENCH_BUILD_TYPE);
  out.set("compiler", STATLEAK_BENCH_COMPILER);
  Tracer tr(o.trace);
  Rep rep;
  try {
    const double probe_before_s = host_probe_s();
    std::vector<double> setups;
    std::optional<Prepared> p;
    for (int i = 0; i < w.setup_repeats; ++i) {
      p.reset();
      const auto t0 = Clock::now();
      p.emplace(prepare(w, o, tr));
      setups.push_back(seconds_between(t0, Clock::now()));
    }
    if (o.trace) {
      const double k = static_cast<double>(w.setup_repeats);
      rep.layer("gen.generate_s", tr.total_s("gen.generate") / k);
      rep.layer("netlist.parse_s", tr.total_s("netlist.parse") / k);
      {
        SpanScope s(tr, "netlist.flat_build");
        (void)FlatCircuit::build(p->study.circuit);
      }
      rep.layer("netlist.flat_build_s", tr.total_s("netlist.flat_build"));
    }
    Timed t;
    switch (w.kind) {
      case Kind::kOpt: t = run_opt(w, *p, o, tr, rep); break;
      case Kind::kFlow: t = run_flow_workload(w, *p, o, tr, rep); break;
      case Kind::kMc: t = run_mc_workload(w, *p, o, tr, rep); break;
    }
    // run.py divides the delivered p99 by that of the reset point (every
    // gate LVT at minimum size, where both optimizers start): the seed
    // changes the s100k circuit's total leakage by ~0.25 %, the
    // optimizer's share of it by ~0.01 %. Computed after the timed call,
    // in heap the program has freed, so it leaves peak_rss_mb alone.
    Circuit reset = p->study.circuit;
    reset_implementation(reset, p->study.lib);
    const double reset_p99_na =
        LeakageAnalyzer(reset, p->study.lib, p->study.var).quantile_na(0.99);
    if (o.trace && w.home_phase >= 0 && !o.smoke) {
      const Json* share = rep.layers.find("opt.phase1_share");
      const double s = share != nullptr ? share->as_number() : 0.0;
      rep.check("home_phase_share",
                w.home_phase == 0 ? s >= 0.95 : s <= 0.05);
    }
    out.set("ok", rep.all_ok);
    out.set("setup_samples",
            Json(obs::JsonArray(setups.begin(), setups.end())));
    out.set("wall_s", t.wall_s);
    out.set("probe_s", Json(obs::JsonArray{probe_before_s, t.probe_after_s}));
    out.set("work", t.work);
    out.set("leak_p99_ua", t.leak_p99_na * 1e-3);
    out.set("reset_p99_ua", reset_p99_na * 1e-3);
    out.set("digest", t.digest);
    out.set("checks", rep.checks);
    if (o.trace) {
      out.set("layers", rep.layers);
      out.set("spans", tr.to_json());
    }
  } catch (const std::exception& e) {
    out.set("ok", false);
    out.set("error", e.what());
  }
  out.set("peak_rss_mb", peak_rss_mib());
  std::cout << out.dump() << "\n";
  return out.at("ok").as_bool() ? 0 : 1;
}
