/// \file statleak_cli.cpp
/// \brief The statleak command-line driver.
///
/// Subcommands (run with no arguments for the list, `<cmd> --help` for the
/// per-command flags):
///
///   gen <circuit> -o out.bench            generate a circuit
///   stats <netlist.bench>                 structural statistics
///   analyze <netlist.bench> [options]     STA + SSTA + leakage report
///   optimize <netlist.bench> [options]    run an optimizer, write .impl
///   mc <netlist.bench> [options]          Monte-Carlo report
///   sweep <netlist.bench> [options]       corner/temperature sweep surface
///   mlv <netlist.bench> [options]         minimum-leakage input vector
///   flow <netlist.bench> [options]        full det-vs-stat comparison
///   serve <netlist.bench> [options]       distributed Monte-Carlo campaign
///   worker [options]                      campaign worker process
///
/// Circuits for `gen`: any ISCAS85 proxy name (c432 .. c7552), a member of
/// the scaling series (s10k / s30k / s100k / s200k), or
/// rca<N> / cla<N> / csel<N> / ks<N> / mult<N> / wal<N> / alu<N> /
/// parity<N> / rand<N>.
///
/// Every subcommand accepts `--report-json <path>` (write a versioned JSON
/// run report: config echo, phase wall times, counters, convergence traces)
/// and `--trace` (dump the trace streams as JSON to stdout). Execution
/// knobs come from one shared flag table, so they are spelled the same
/// everywhere they apply: `--seed s`, `--threads n`, `--deadline ms`.
///
/// The command bodies live in the api/driver.hpp facade; this file only
/// parses flags, forwards to the facade, and prints. The distributed
/// worker drives the same facade, so `statleak mc` and a `statleak serve`
/// campaign share every line of engine and statistics code (see
/// docs/DISTRIBUTED.md).
///
/// The optimize/analyze/mc commands compose through .impl sidecars:
///
///   statleak gen c880 -o c880.bench
///   statleak optimize c880.bench --tmax-factor 1.15 --eta 0.99 -o c880.impl
///   statleak analyze c880.bench --impl c880.impl --tmax 1200
///   statleak mc c880.bench --impl c880.impl --tmax 1200 --samples 10000
///
/// Exit codes (stable contract, see docs/ROBUSTNESS.md):
///   0  success
///   1  internal error (unexpected exception)
///   2  usage error (unknown flag/command, missing argument)
///   3  input error (unreadable/malformed netlist, impl, or config;
///      includes numerical-health failures under the default fail policy)
///   4  deadline expired (--deadline budget ran out; partial results and
///      the run report — flagged "completed": false — are still written)
///   5  corrupt or mismatched checkpoint (--checkpoint rejected)
///   6  distributed campaign failure (fleet could not be set up, or every
///      worker was lost with shards still queued)

#include <charconv>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "gen/scaling.hpp"
#include "statleak.hpp"

namespace {

using namespace statleak;

/// One `--flag` a command understands.
struct FlagSpec {
  const char* name;        ///< "--tmax" (the "-o" alias maps to "--out")
  bool takes_value;        ///< false = boolean switch
  const char* value_name;  ///< shown in help, e.g. "ps"
  const char* help;
};

struct CommandSpec {
  const char* name;
  const char* positional;  ///< e.g. "<netlist.bench>", "" for none
  const char* blurb;
  std::vector<FlagSpec> flags;
};

/// Flags every subcommand accepts, appended to each spec at lookup time.
const std::vector<FlagSpec>& common_flags() {
  static const std::vector<FlagSpec> kCommon = {
      {"--report-json", true, "path",
       "write a schema-versioned JSON run report"},
      {"--trace", false, "", "dump convergence trace streams to stdout"},
  };
  return kCommon;
}

/// The shared execution-knob table (ExecConfig spellings). Every command
/// that runs an engine splices these in — including the serve/worker pair —
/// so `--seed/--threads/--deadline` mean the same thing everywhere.
const FlagSpec& exec_flag(const char* name) {
  static const std::vector<FlagSpec> kExec = {
      {"--seed", true, "s", "RNG seed"},
      {"--threads", true, "n",
       "worker threads, 0 = all cores (default 0); "
       "results are thread-count invariant"},
      {"--deadline", true, "ms",
       "wall-clock budget in ms, 0 = none (default); "
       "a clean early stop exits with code 4"},
  };
  for (const FlagSpec& f : kExec) {
    if (std::string(f.name) == name) return f;
  }
  std::cerr << "internal: unknown exec flag " << name << "\n";
  std::abort();
}

/// The Monte-Carlo engine flags, shared verbatim between `mc` (single
/// host) and `serve` (distributed): the two commands accept the same study
/// and must produce byte-identical populations.
std::vector<FlagSpec> mc_engine_flags() {
  return {
      {"--impl", true, "f.impl",
       "apply an implementation sidecar before running"},
      {"--tmax", true, "ps", "delay target (default 1.1 * nominal)"},
      {"--samples", true, "n", "number of dies (default 5000)"},
      {"--batch", true, "b",
       "samples per kernel block, 0 = auto (default; results identical)"},
      exec_flag("--seed"),
      exec_flag("--threads"),
      exec_flag("--deadline"),
      {"--checkpoint", true, "path",
       "append-only checkpoint file; resumes it when it already exists"},
      {"--checkpoint-every", true, "n",
       "checkpoint flush cadence in samples per worker (default 4096)"},
      {"--health", true, "fail|quarantine",
       "non-finite sample policy (default fail)"},
      {"--sampler", true, "pseudo|sobol",
       "global-dimension sampler (default pseudo); sobol = scrambled QMC"},
      {"--importance", true, "auto|off",
       "importance-sample the timing tail at --tmax (default off); "
       "estimates stay unbiased via exact likelihood weights"},
      {"--cv", false, "", "SSTA control variate for leakage mean/quantiles"},
      {"--node", true, "preset",
       "technology node preset name, or 100|70 (default generic-100nm)"},
      {"--temp", true, "K",
       "analysis temperature in kelvin (default: the node's calibration "
       "temperature)"},
      {"--vdd", true, "V", "supply voltage (default: the node's nominal Vdd)"},
      {"--sigma-scale", true, "x",
       "variation sigma multiplier (default 1.0 = typical model)"},
      {"--dump-samples", true, "path",
       "write surviving per-sample 'delay leakage' pairs as exact "
       "round-trip text (byte-comparable across hosts/threads/shards)"},
  };
}

/// The `sweep` flag table: the mc engine knobs minus the single-corner
/// flags (--node/--temp/--vdd/--sigma-scale — the grid owns every cell's
/// corner) plus the grid axes and the surface output.
std::vector<FlagSpec> sweep_flags() {
  std::vector<FlagSpec> flags = {
      {"--impl", true, "f.impl",
       "apply an implementation sidecar before running"},
      {"--tmax", true, "ps",
       "delay target for every cell (default: 1.1 * that corner's nominal)"},
      {"--nodes", true, "a,b",
       "comma-separated node presets (default generic-100nm)"},
      {"--temps", true, "K,K",
       "comma-separated temperatures in kelvin (0 = calibrated default)"},
      {"--vdds", true, "V,V",
       "comma-separated supplies in volts (0 = nominal Vdd)"},
      {"--sigmas", true, "x,x",
       "comma-separated variation sigma multipliers (default 1)"},
      {"--surface-json", true, "path",
       "write the per-cell yield/leakage surface as versioned JSON"},
      {"--dump-samples", true, "prefix",
       "write each cell's per-sample pairs to <prefix>.cell<i> "
       "(byte-comparable against a standalone mc run at that corner)"},
  };
  for (const FlagSpec& f : mc_engine_flags()) {
    const std::string name = f.name;
    if (name == "--impl" || name == "--tmax" || name == "--node" ||
        name == "--temp" || name == "--vdd" || name == "--sigma-scale" ||
        name == "--importance" || name == "--dump-samples") {
      continue;  // replaced above, or owned by the grid axes
    }
    if (name == "--deadline") {
      flags.push_back({"--deadline", true, "ms",
                       "wall-clock budget for the whole grid, 0 = none; "
                       "a clean early stop keeps finished cells (exit 4)"});
      continue;
    }
    if (name == "--checkpoint") {
      flags.push_back({"--checkpoint", true, "prefix",
                       "per-cell checkpoint prefix: cell i resumes "
                       "<prefix>.cell<i> when it exists"});
      continue;
    }
    flags.push_back(f);
  }
  return flags;
}

std::vector<CommandSpec> command_specs() {
  const FlagSpec impl = {"--impl", true, "f.impl",
                         "apply an implementation sidecar before running"};
  const FlagSpec node = {"--node", true, "preset",
                         "technology node preset name, or 100|70 "
                         "(default generic-100nm)"};

  std::vector<FlagSpec> serve_flags = mc_engine_flags();
  const std::vector<FlagSpec> dist_flags = {
      {"--workers", true, "n",
       "fleet size: pool processes to fork, or TCP peers to wait for "
       "(default 2)"},
      {"--worker-threads", true, "n",
       "threads per worker (default: the --threads value, else 1)"},
      {"--listen", true, "host:port",
       "wait for remote workers there instead of forking a local pool "
       "(port 0 = pick a free port)"},
      {"--port-file", true, "path",
       "with --listen, write the bound port here once listening"},
      {"--heartbeat", true, "ms",
       "per-worker silence budget before re-dispatching its shard "
       "(default 30000; 0 disables)"},
      {"--shards-per-worker", true, "n",
       "dispatch granularity (default 4 shards per worker)"},
  };
  serve_flags.insert(serve_flags.end(), dist_flags.begin(), dist_flags.end());

  return {
      {"gen", "<circuit>", "generate a benchmark circuit",
       {{"--out", true, "out.bench", "output netlist (-o works too)"},
        {"--seed", true, "s", "seed for rand<N> circuits (default 1)"}}},
      {"stats", "<netlist.bench>", "structural statistics", {impl}},
      {"analyze", "<netlist.bench>", "STA + SSTA + leakage report",
       {impl,
        {"--tmax", true, "ps", "delay target (default 1.1 * nominal)"},
        node}},
      {"optimize", "<netlist.bench>", "optimize and write an .impl sidecar",
       {impl,
        {"--flow", true, "stat|det", "optimizer to run (default stat)"},
        {"--tmax", true, "ps", "absolute delay target"},
        {"--tmax-factor", true, "f",
         "delay target as a multiple of D_min (default 1.15)"},
        {"--eta", true, "y", "timing-yield target (default 0.99)"},
        {"--corner", true, "k",
         "deterministic guard-band in sigmas (default 3)"},
        node,
        exec_flag("--seed"),
        exec_flag("--threads"),
        exec_flag("--deadline"),
        {"--checkpoint", true, "path",
         "durable move journal; resumes it bit-identically when it "
         "already exists"},
        {"--checkpoint-every", true, "n",
         "journal snapshot cadence in committed moves (default 256; "
         "trajectory-invariant)"},
        {"--out", true, "out.impl", "implementation sidecar (-o works too)"},
        {"--write-bench", true, "out.bench", "also write the netlist"}}},
      {"mc", "<netlist.bench>", "Monte-Carlo delay/leakage report",
       mc_engine_flags()},
      {"sweep", "<netlist.bench>",
       "corner/temperature sweep: one frozen circuit across a "
       "T x Vdd x node x sigma grid",
       sweep_flags()},
      {"mlv", "<netlist.bench>", "minimum-leakage standby vector search",
       {impl,
        {"--trials", true, "n", "random probes (default 128)"},
        exec_flag("--seed"),
        node}},
      {"flow", "<netlist.bench>", "full deterministic-vs-statistical flow",
       {impl,
        {"--tmax-factor", true, "f",
         "delay target as a multiple of D_min (default 1.15)"},
        {"--eta", true, "y", "timing-yield target (default 0.99)"},
        {"--corner", true, "k",
         "fixed deterministic guard-band (default 0)"},
        {"--auto-corner", false, "",
         "search for the smallest corner meeting eta"},
        {"--mc-samples", true, "n",
         "Monte-Carlo cross-check dies, 0 = skip (default 0)"},
        {"--batch", true, "b",
         "MC samples per kernel block, 0 = auto (default; results identical)"},
        exec_flag("--seed"),
        exec_flag("--threads"),
        exec_flag("--deadline"),
        {"--checkpoint", true, "path",
         "durable move journal for the statistical phase; resumes it "
         "bit-identically when it already exists"},
        {"--checkpoint-every", true, "n",
         "journal snapshot cadence in committed moves (default 256; "
         "trajectory-invariant)"},
        node}},
      {"serve", "<netlist.bench>",
       "distributed Monte-Carlo campaign (byte-identical to mc)",
       serve_flags},
      {"worker", "",
       "campaign worker (spawned by serve, or connected via --connect)",
       {{"--stdio", false, "",
         "speak the protocol on stdin/stdout (how serve's pool spawns it)"},
        {"--connect", true, "host:port", "connect to a listening serve"},
        exec_flag("--threads")}},
  };
}

int usage() {
  std::cerr <<
      R"(statleak — statistical leakage optimization under process variation

usage: statleak <command> [options]   (statleak <command> --help for flags)

commands:
)";
  for (const CommandSpec& c : command_specs()) {
    std::cerr << "  " << c.name << std::string(10 - std::string(c.name).size(), ' ')
              << c.positional << (*c.positional != '\0' ? "  " : "")
              << c.blurb << "\n";
  }
  std::cerr <<
      R"(
circuits for gen: c432 c499 c880 c1355 c1908 c2670 c3540 c5315 c6288 c7552
                  s10k s30k s100k s200k
                  rca<N> cla<N> csel<N> ks<N> mult<N> wal<N> alu<N> parity<N> rand<N>
)";
  return 2;
}

void print_command_help(const CommandSpec& spec, std::ostream& os) {
  os << "usage: statleak " << spec.name;
  if (*spec.positional != '\0') os << " " << spec.positional;
  os << " [options]\n\n" << spec.blurb << "\n\noptions:\n";
  const auto print_flag = [&](const FlagSpec& f) {
    std::string left = std::string("  ") + f.name;
    if (f.takes_value) left += std::string(" <") + f.value_name + ">";
    if (left.size() < 26) left.resize(26, ' ');
    os << left << " " << f.help << "\n";
  };
  for (const FlagSpec& f : spec.flags) print_flag(f);
  for (const FlagSpec& f : common_flags()) print_flag(f);
}

/// A flag error: unknown flag, missing value, stray positional. Reported
/// with the per-command usage and exit code 2 (vs 1 for runtime errors).
struct UsageError : Error {
  using Error::Error;
};

/// Command-line parser validated against one command's FlagSpec list:
/// positionals plus --key [value] pairs, `-o` as an alias for `--out`,
/// unknown flags rejected with the offending spelling.
class Args {
 public:
  Args(const CommandSpec& spec, int argc, char** argv) {
    const auto find_spec = [&](const std::string& key) -> const FlagSpec* {
      for (const FlagSpec& f : spec.flags) {
        if (key == f.name) return &f;
      }
      for (const FlagSpec& f : common_flags()) {
        if (key == f.name) return &f;
      }
      return nullptr;
    };
    for (int i = 2; i < argc; ++i) {
      std::string tok = argv[i];
      if (tok == "-h" || tok == "--help") {
        help_ = true;
        continue;
      }
      if (tok.rfind("-", 0) != 0) {
        positional_.push_back(tok);
        continue;
      }
      const std::string key = tok == "-o" ? "--out" : tok;
      const FlagSpec* f = find_spec(key);
      if (f == nullptr) {
        throw UsageError("unknown flag '" + tok + "' for 'statleak " +
                         spec.name + "'");
      }
      if (f->takes_value) {
        if (i + 1 >= argc) throw UsageError("flag " + tok + " needs a value");
        flags_.emplace_back(key, argv[++i]);
      } else {
        flags_.emplace_back(key, "");
      }
    }
  }

  bool help_requested() const { return help_; }

  bool has(const std::string& key) const {
    for (const auto& [k, v] : flags_) {
      if (k == key) return true;
    }
    return false;
  }
  std::optional<std::string> get(const std::string& key) const {
    for (const auto& [k, v] : flags_) {
      if (k == key) return v;
    }
    return std::nullopt;
  }
  double get_double(const std::string& key, double fallback) const {
    const auto v = get(key);
    return v ? std::atof(v->c_str()) : fallback;
  }
  long get_long(const std::string& key, long fallback) const {
    const auto v = get(key);
    return v ? std::atol(v->c_str()) : fallback;
  }
  const std::vector<std::string>& positional() const { return positional_; }

  /// Echoes every flag the user actually passed into the report's config
  /// section, plus the command and positional arguments.
  void echo_config(const char* command, obs::Registry* obs) const {
    if (obs == nullptr) return;
    obs->note_config("command", command);
    for (std::size_t i = 0; i < positional_.size(); ++i) {
      obs->note_config(i == 0 ? "arg" : "arg" + std::to_string(i),
                       positional_[i]);
    }
    for (const auto& [k, v] : flags_) {
      const std::string key = k.substr(2);  // strip the leading "--"
      if (v.empty()) {
        obs->note_config_num(key, true);
      } else {
        obs->note_config(key, v);
      }
    }
  }

 private:
  std::vector<std::pair<std::string, std::string>> flags_;
  std::vector<std::string> positional_;
  bool help_ = false;
};

/// The per-invocation observability session: a registry that exists only
/// when --report-json or --trace asked for one (so the default path stays
/// on the engines' null-sink fast path), finalized after the command runs.
class ObsSession {
 public:
  ObsSession(const char* command, const Args& args)
      : report_path_(args.get("--report-json")),
        trace_(args.has("--trace")) {
    args.echo_config(command, reg());
  }

  /// nullptr when no report was requested — engines skip all bookkeeping.
  obs::Registry* reg() {
    return report_path_ || trace_ ? &registry_ : nullptr;
  }

  /// Writes the report file and/or dumps traces, after the command body.
  /// `os` is where the trace JSON and the confirmation line go — stdout
  /// normally, stderr for the worker (its stdout is the protocol channel).
  void finish(std::ostream& os = std::cout) {
    if (trace_) {
      obs::Json traces = obs::Json::object();
      for (const std::string& stream : registry_.trace_streams()) {
        obs::Json events = obs::Json::array();
        for (const obs::TraceEvent& e : registry_.trace_events(stream)) {
          obs::Json ev = obs::Json::object();
          ev.set("step", static_cast<double>(e.step));
          ev.set("phase", e.phase);
          ev.set("objective", e.objective);
          ev.set("yield", e.yield);
          ev.set("delay_ps", e.delay_ps);
          ev.set("commits", static_cast<double>(e.commits));
          ev.set("rejected", static_cast<double>(e.rejected));
          events.push_back(std::move(ev));
        }
        traces.set(stream, std::move(events));
      }
      os << traces.dump(2);
    }
    if (report_path_) {
      obs::write_run_report(*report_path_, registry_);
      os << "wrote report " << *report_path_ << "\n";
    }
  }

 private:
  obs::Registry registry_;
  std::optional<std::string> report_path_;
  bool trace_ = false;
};

Circuit generate(const std::string& spec, std::uint64_t seed) {
  const auto numeric_suffix = [&](const std::string& prefix) -> int {
    return std::atoi(spec.substr(prefix.size()).c_str());
  };
  if (spec.rfind("rca", 0) == 0) {
    return make_ripple_carry_adder(numeric_suffix("rca"));
  }
  if (spec.rfind("cla", 0) == 0) {
    return make_carry_lookahead_adder(numeric_suffix("cla"));
  }
  if (spec.rfind("csel", 0) == 0) {
    return make_carry_select_adder(numeric_suffix("csel"));
  }
  if (spec.rfind("mult", 0) == 0) {
    return make_array_multiplier(numeric_suffix("mult"));
  }
  if (spec.rfind("ks", 0) == 0) {
    return make_kogge_stone_adder(numeric_suffix("ks"));
  }
  if (spec.rfind("wal", 0) == 0) {
    return make_wallace_multiplier(numeric_suffix("wal"));
  }
  if (spec.rfind("alu", 0) == 0) return make_alu(numeric_suffix("alu"));
  if (spec.rfind("parity", 0) == 0) {
    return make_parity_tree(numeric_suffix("parity"));
  }
  if (spec.rfind("rand", 0) == 0) {
    RandomDagSpec r;
    r.num_gates = numeric_suffix("rand");
    r.seed = seed;
    return make_random_dag(r);
  }
  for (const ScalingSpec& s : scaling_series()) {
    if (s.name != spec) continue;
    Circuit c = scaling_circuit(spec);  // the published member; no --seed
    c.set_name(spec);
    return c;
  }
  return iscas85_proxy(spec);  // throws with a clear message if unknown
}

CellLibrary make_library(const Args& args) {
  // process_node_by_name resolves preset names and the "100"/"70" aliases,
  // throwing a statleak::Error (exit 3) listing the known names otherwise.
  return CellLibrary(process_node_by_name(args.get("--node").value_or("100")));
}

void print_metrics(const CircuitMetrics& m, double t_max) {
  Table t({"metric", "value"});
  const auto row = [&](const std::string& k, const std::string& v) {
    t.begin_row();
    t.add(k);
    t.add(v);
  };
  row("delay target", format_fixed(t_max, 1) + " ps");
  row("nominal delay", format_fixed(m.nominal_delay_ps, 1) + " ps");
  row("3-sigma corner delay", format_fixed(m.corner3_delay_ps, 1) + " ps");
  row("delay mean / sigma (SSTA)",
      format_fixed(m.ssta_delay_mean_ps, 1) + " / " +
          format_fixed(m.ssta_delay_sigma_ps, 1) + " ps");
  row("timing yield (SSTA)", format_fixed(m.timing_yield, 4));
  row("leakage nominal", format_si(m.leakage_nominal_na * 1e-9, "A"));
  row("leakage mean", format_si(m.leakage_mean_na * 1e-9, "A"));
  row("leakage p95 / p99", format_si(m.leakage_p95_na * 1e-9, "A") + " / " +
                               format_si(m.leakage_p99_na * 1e-9, "A"));
  row("HVT cells", std::to_string(m.hvt_count) + " / " +
                       std::to_string(m.cell_count) + " (" +
                       format_fixed(100.0 * m.hvt_fraction, 1) + " %)");
  row("area", format_fixed(m.area_um, 1) + " um device width");
  t.print(std::cout);
}

/// Loads the netlist (and --impl) under the `netlist.load` phase, like the
/// facade commands do.
Circuit load_circuit(const Args& args, obs::Registry* obs) {
  if (args.positional().empty()) {
    throw UsageError("missing netlist argument");
  }
  obs::ScopedTimer timer(obs, "netlist.load");
  Circuit c = read_bench_file(args.positional()[0]);
  if (const auto impl = args.get("--impl")) {
    const std::size_t updated = read_impl_file(*impl, c);
    std::cout << "applied " << updated << " implementation entries from "
              << *impl << "\n";
  }
  timer.stop();
  if (obs != nullptr) {
    obs->set_gauge("netlist.gates", static_cast<double>(c.num_gates()));
  }
  return c;
}

/// Facade-driven commands resolve their input through StudyInput; the
/// "applied N implementation entries" line the file-loading commands print
/// is reproduced from the facade's count for stdout parity.
api::StudyInput study_input(const Args& args) {
  if (args.positional().empty()) {
    throw UsageError("missing netlist argument");
  }
  api::StudyInput in;
  in.bench_path = args.positional()[0];
  in.impl_path = args.get("--impl").value_or("");
  // Purely numeric spellings keep the node_nm path (and its 100|70
  // validation); anything else is a preset name for the registry.
  const std::string node = args.get("--node").value_or("100");
  int node_nm = 0;
  const auto res =
      std::from_chars(node.data(), node.data() + node.size(), node_nm);
  if (res.ec == std::errc() && res.ptr == node.data() + node.size()) {
    in.node_nm = node_nm;
  } else {
    in.node_name = node;
  }
  in.temperature_k = args.get_double("--temp", 0.0);
  in.vdd_v = args.get_double("--vdd", 0.0);
  in.sigma_scale = args.get_double("--sigma-scale", 1.0);
  return in;
}

/// Splits a comma-separated flag value into doubles with strict full-token
/// parsing: "373.15,398.15" is a grid axis, "373x" or ",," is a usage
/// error (exit 2), matching the flag-validation-before-I/O contract.
std::vector<double> parse_double_list(const Args& args, const char* flag,
                                      double fallback) {
  const auto value = args.get(flag);
  if (!value) return {fallback};
  std::vector<double> out;
  const std::string& s = *value;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    const std::string tok = s.substr(start, end - start);
    double v = 0.0;
    const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), v);
    if (tok.empty() || res.ec != std::errc() ||
        res.ptr != tok.data() + tok.size()) {
      throw UsageError(std::string(flag) + ": '" + tok +
                       "' is not a number (expected a comma-separated list)");
    }
    out.push_back(v);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Same splitting for the node-name axis; empty tokens are usage errors.
std::vector<std::string> parse_string_list(const Args& args, const char* flag,
                                           const char* fallback) {
  const auto value = args.get(flag);
  if (!value) return {fallback};
  std::vector<std::string> out;
  const std::string& s = *value;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    const std::string tok = s.substr(start, end - start);
    if (tok.empty()) {
      throw UsageError(std::string(flag) +
                       ": empty list entry (expected comma-separated names)");
    }
    out.push_back(tok);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

void report_impl(const Args& args, std::size_t entries) {
  if (const auto impl = args.get("--impl")) {
    std::cout << "applied " << entries << " implementation entries from "
              << *impl << "\n";
  }
}

int cmd_gen(const Args& args, ObsSession& session) {
  if (args.positional().empty()) {
    throw UsageError("gen needs a circuit spec");
  }
  obs::ScopedTimer timer(session.reg(), "gen.build");
  const Circuit c = generate(args.positional()[0],
                             static_cast<std::uint64_t>(
                                 args.get_long("--seed", 1)));
  timer.stop();
  const std::string out =
      args.get("--out").value_or(c.name() + ".bench");
  std::ofstream file(out);
  STATLEAK_CHECK(file.good(), "cannot write " + out);
  write_bench(file, c);
  std::cout << "wrote " << out << " (" << c.num_cells() << " cells)\n";
  if (obs::Registry* obs = session.reg()) {
    obs->set_gauge("gen.cells", static_cast<double>(c.num_cells()));
  }
  return 0;
}

int cmd_stats(const Args& args, ObsSession& session) {
  const Circuit c = load_circuit(args, session.reg());
  obs::ScopedTimer timer(session.reg(), "stats.measure");
  const CircuitStats s = circuit_stats(c);
  timer.stop();
  std::cout << c.name() << ": " << s.num_cells << " cells, " << s.num_inputs
            << " PIs, " << s.num_outputs << " POs, depth " << s.depth
            << ", avg fanout " << format_fixed(s.avg_fanout, 2) << "\n";
  if (obs::Registry* obs = session.reg()) {
    obs->set_gauge("stats.cells", static_cast<double>(s.num_cells));
    obs->set_gauge("stats.depth", static_cast<double>(s.depth));
    obs->set_gauge("stats.avg_fanout", s.avg_fanout);
  }
  return 0;
}

int cmd_analyze(const Args& args, ObsSession& session) {
  Circuit c = load_circuit(args, session.reg());
  const CellLibrary lib = make_library(args);
  const VariationModel var = VariationModel::typical_100nm();
  const double t_max = args.get_double(
      "--tmax", 1.1 * StaEngine(c, lib).critical_delay_ps());
  obs::ScopedTimer timer(session.reg(), "analyze.metrics");
  const CircuitMetrics m = measure_metrics(c, lib, var, t_max);
  timer.stop();
  print_metrics(m, t_max);
  if (obs::Registry* obs = session.reg()) {
    obs->set_gauge("analyze.t_max_ps", t_max);
    obs->set_gauge("analyze.timing_yield", m.timing_yield);
    obs->set_gauge("analyze.leakage_mean_na", m.leakage_mean_na);
    obs->set_gauge("analyze.leakage_p99_na", m.leakage_p99_na);
  }
  return 0;
}

/// Shared --checkpoint-every decoding for mc, optimize and flow: the
/// cadence is a positive count (samples for mc, committed moves for the
/// optimizer). Validated at the flag boundary, before any file I/O, so a
/// bad cadence is a usage error (exit 2) even when the netlist is also
/// missing or the checkpoint flag was not given at all.
int parse_checkpoint_every(const Args& args, long fallback) {
  const long every = args.get_long("--checkpoint-every", fallback);
  if (every < 1) {
    throw UsageError("--checkpoint-every must be >= 1, got " +
                     std::to_string(every));
  }
  return static_cast<int>(every);
}

int cmd_optimize(const Args& args, ObsSession& session) {
  api::OptimizeCommandConfig cfg;
  const std::string flow = args.get("--flow").value_or("stat");
  if (flow == "stat") {
    cfg.flow = api::OptimizeFlow::kStat;
  } else if (flow == "det") {
    cfg.flow = api::OptimizeFlow::kDet;
  } else {
    throw UsageError("--flow must be 'stat' or 'det'");
  }
  cfg.input = study_input(args);
  cfg.opt.t_max_ps = args.get_double("--tmax", 0.0);  // <= 0: factor * D_min
  cfg.t_max_factor = args.get_double("--tmax-factor", 1.15);
  cfg.opt.yield_target = args.get_double("--eta", 0.99);
  cfg.opt.corner_k_sigma = args.get_double("--corner", 3.0);
  cfg.opt.seed = static_cast<std::uint64_t>(args.get_long("--seed", 42));
  // 0 = all hardware threads; results are thread-count invariant.
  cfg.opt.num_threads = static_cast<int>(args.get_long("--threads", 0));
  cfg.opt.deadline_ms = args.get_long("--deadline", 0);
  cfg.opt.checkpoint_path = args.get("--checkpoint").value_or("");
  cfg.opt.checkpoint_every = parse_checkpoint_every(args, 256);

  const api::OptimizeCommandResult r =
      api::run_optimize_command(cfg, session.reg());
  report_impl(args, r.impl_entries);

  std::cout << flow << " flow on " << r.circuit.name() << ": "
            << r.result.note << " (" << r.result.sizing_commits
            << " upsizes, " << r.result.hvt_commits << " HVT swaps, "
            << r.result.downsize_commits << " downsizes)\n";
  if (!r.result.completed && !cfg.opt.checkpoint_path.empty()) {
    std::cout << "progress saved to " << cfg.opt.checkpoint_path
              << "; rerun the same command to resume\n";
  }
  std::cout << "\n";
  print_metrics(r.metrics, r.t_max_ps);

  const std::string out =
      args.get("--out").value_or(r.circuit.name() + ".impl");
  write_impl_file(out, r.circuit);
  std::cout << "\nwrote " << out << "\n";
  if (const auto bench_out = args.get("--write-bench")) {
    std::ofstream file(*bench_out);
    STATLEAK_CHECK(file.good(), "cannot write " + *bench_out);
    write_bench(file, r.circuit);
    std::cout << "wrote " << *bench_out << "\n";
  }
  // The partial implementation above is still valid and was written; the
  // exit code tells scripts the budget ran out before convergence.
  return r.exit_code();
}

/// The shared mc/serve flag decoding: flag validation precedes any file
/// I/O, so a bad spelling is a usage error (exit 2) even when the netlist
/// is also missing.
api::McCommandConfig parse_mc_config(const Args& args) {
  api::McCommandConfig cfg;
  McConfig& mc = cfg.mc;
  const std::string health = args.get("--health").value_or("fail");
  if (health == "fail") {
    mc.health_policy = HealthPolicy::kFail;
  } else if (health == "quarantine") {
    mc.health_policy = HealthPolicy::kQuarantine;
  } else {
    throw UsageError("--health must be 'fail' or 'quarantine'");
  }
  const std::string sampler = args.get("--sampler").value_or("pseudo");
  if (sampler == "pseudo") {
    mc.sampler = McSampler::kPseudo;
  } else if (sampler == "sobol") {
    mc.sampler = McSampler::kSobol;
  } else {
    throw UsageError("--sampler must be 'pseudo' or 'sobol'");
  }
  const std::string importance = args.get("--importance").value_or("off");
  if (importance != "auto" && importance != "off") {
    throw UsageError("--importance must be 'auto' or 'off'");
  }
  mc.control_variate = args.has("--cv");
  if (mc.control_variate && importance == "auto") {
    throw UsageError("--cv cannot be combined with --importance auto");
  }
  cfg.importance_auto = importance == "auto";
  mc.num_samples = static_cast<int>(args.get_long("--samples", 5000));
  // 0 = auto; any value yields bit-identical results (performance knob).
  mc.batch_size = static_cast<int>(args.get_long("--batch", 0));
  mc.seed = static_cast<std::uint64_t>(args.get_long("--seed", 42));
  // 0 = all hardware threads; the sample streams are counter-based, so the
  // report is bit-identical whatever the thread count.
  mc.num_threads = static_cast<int>(args.get_long("--threads", 0));
  mc.deadline_ms = args.get_long("--deadline", 0);
  mc.checkpoint_path = args.get("--checkpoint").value_or("");
  mc.checkpoint_every = parse_checkpoint_every(args, 4096);
  cfg.t_max_ps = args.get_double("--tmax", 0.0);  // <= 0: 1.1 * nominal
  cfg.input = study_input(args);
  return cfg;
}

/// --dump-samples: the surviving per-sample values in slot order, one
/// "delay leakage" pair per line, printed with std::to_chars shortest
/// round-trip form — the byte-comparison artifact of the distributed
/// acceptance tests (a serve campaign must reproduce `mc` exactly).
void write_sample_lines(const std::string& path, const McResult& result) {
  std::ofstream out(path, std::ios::binary);
  STATLEAK_CHECK(out.good(), "cannot write " + path);
  char buf[64];
  const auto write_num = [&](double v) {
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.write(buf, res.ptr - buf);
  };
  for (std::size_t i = 0; i < result.delay_ps.size(); ++i) {
    write_num(result.delay_ps[i]);
    out.put(' ');
    write_num(result.leakage_na[i]);
    out.put('\n');
  }
  STATLEAK_CHECK(out.good(), "failed writing " + path);
  std::cout << "wrote " << result.delay_ps.size() << " samples to " << path
            << "\n";
}

void dump_samples(const Args& args, const api::McCommandResult& r) {
  const auto path = args.get("--dump-samples");
  if (!path) return;
  write_sample_lines(*path, r.result);
}

/// Sweep's --dump-samples is a prefix: cell i (grid order) lands in
/// <prefix>.cell<i>, each file byte-identical to a standalone `statleak
/// mc --dump-samples` run at that cell's corner.
void dump_sweep_samples(const Args& args, const api::SweepCommandResult& r) {
  const auto prefix = args.get("--dump-samples");
  if (!prefix) return;
  for (std::size_t i = 0; i < r.sweep.cells.size(); ++i) {
    write_sample_lines(*prefix + ".cell" + std::to_string(i),
                       r.sweep.cells[i].result);
  }
}

int cmd_mc(const Args& args, ObsSession& session) {
  const api::McCommandConfig cfg = parse_mc_config(args);
  const api::McCommandResult r = api::run_mc_command(cfg, session.reg());
  report_impl(args, r.impl_entries);
  std::cout << api::mc_summary_text(r);
  dump_samples(args, r);
  return r.exit_code();
}

int cmd_sweep(const Args& args, ObsSession& session) {
  // The shared mc-engine flag decoding supplies input + per-cell engine
  // config (absent single-corner flags fall back to defaults the grid
  // overrides anyway); the grid axes come from the list flags.
  const api::McCommandConfig base = parse_mc_config(args);
  api::SweepCommandConfig cfg;
  cfg.input = base.input;
  cfg.mc = base.mc;
  cfg.t_max_ps = base.t_max_ps;
  cfg.grid.nodes = parse_string_list(args, "--nodes", "generic-100nm");
  cfg.grid.temperatures_k = parse_double_list(args, "--temps", 0.0);
  cfg.grid.vdds_v = parse_double_list(args, "--vdds", 0.0);
  cfg.grid.sigma_scales = parse_double_list(args, "--sigmas", 1.0);

  const api::SweepCommandResult r = api::run_sweep_command(cfg, session.reg());
  report_impl(args, r.impl_entries);
  std::cout << api::sweep_summary_text(r);
  if (const auto surface = args.get("--surface-json")) {
    write_sweep_surface(*surface, r.circuit_name, r.grid, r.sweep);
    std::cout << "wrote surface " << *surface << "\n";
  }
  dump_sweep_samples(args, r);
  return r.exit_code();
}

int cmd_serve(const Args& args, ObsSession& session) {
  const api::McCommandConfig cfg = parse_mc_config(args);
  dist::DistConfig dc;
  dc.workers = static_cast<int>(args.get_long("--workers", 2));
  if (dc.workers < 1) throw UsageError("--workers must be >= 1");
  dc.worker_threads = static_cast<int>(
      args.get_long("--worker-threads", args.get_long("--threads", 1)));
  dc.listen = args.get("--listen").value_or("");
  dc.port_file = args.get("--port-file").value_or("");
  dc.heartbeat_ms = args.get_long("--heartbeat", 30000);
  dc.shards_per_worker =
      static_cast<int>(args.get_long("--shards-per-worker", 4));

  const dist::CampaignResult r = dist::run_campaign(cfg, dc, session.reg());
  report_impl(args, r.command.impl_entries);
  std::cout << "campaign: " << r.workers_spawned << " worker(s), "
            << r.shards_dispatched << " shard(s) dispatched";
  if (r.shards_redispatched > 0) {
    std::cout << ", " << r.shards_redispatched << " re-dispatched";
  }
  if (r.workers_lost > 0) {
    std::cout << ", " << r.workers_lost << " worker(s) lost";
  }
  std::cout << "\n";
  std::cout << api::mc_summary_text(r.command);
  dump_samples(args, r.command);
  return r.command.exit_code();
}

int cmd_worker(const Args& args, ObsSession& session) {
  dist::WorkerOptions wo;
  wo.stdio = args.has("--stdio");
  wo.connect = args.get("--connect").value_or("");
  wo.threads_override = static_cast<int>(args.get_long("--threads", 0));
  if (wo.stdio && !wo.connect.empty()) {
    throw UsageError("--stdio and --connect are mutually exclusive");
  }
  if (!wo.stdio && wo.connect.empty()) {
    throw UsageError("worker needs --stdio or --connect host:port");
  }
  return dist::run_worker(wo, session.reg());
}

int cmd_mlv(const Args& args, ObsSession& session) {
  Circuit c = load_circuit(args, session.reg());
  const CellLibrary lib = make_library(args);
  MlvConfig cfg;
  cfg.random_trials = static_cast<int>(args.get_long("--trials", 128));
  cfg.seed = static_cast<std::uint64_t>(args.get_long("--seed", 1));
  obs::ScopedTimer timer(session.reg(), "mlv.search");
  const MlvResult res = find_min_leakage_vector(c, lib, cfg);
  timer.stop();
  std::cout << "standby leakage of " << c.name() << ": random mean "
            << format_si(res.mean_leakage_na * 1e-9, "A") << ", worst "
            << format_si(res.worst_leakage_na * 1e-9, "A")
            << ", min-leakage vector "
            << format_si(res.best_leakage_na * 1e-9, "A") << " ("
            << format_fixed(100.0 * res.saving_vs_mean(), 1)
            << " % below mean, " << res.evaluations << " evaluations)\n"
            << "vector: ";
  for (char bit : res.best_vector) std::cout << (bit ? '1' : '0');
  std::cout << "\n";
  if (obs::Registry* obs = session.reg()) {
    obs->add("mlv.evaluations", static_cast<double>(res.evaluations));
    obs->set_gauge("mlv.best_leakage_na", res.best_leakage_na);
    obs->set_gauge("mlv.mean_leakage_na", res.mean_leakage_na);
  }
  return 0;
}

int cmd_flow(const Args& args, ObsSession& session) {
  api::FlowCommandConfig cfg;
  cfg.input = study_input(args);
  cfg.flow.t_max_factor = args.get_double("--tmax-factor", 1.15);
  cfg.flow.yield_target = args.get_double("--eta", 0.99);
  cfg.flow.det_corner_k = args.get_double("--corner", 0.0);
  cfg.flow.det_auto_corner = args.has("--auto-corner");
  cfg.flow.mc_samples = static_cast<int>(args.get_long("--mc-samples", 0));
  cfg.flow.mc_batch_size = static_cast<int>(args.get_long("--batch", 0));
  cfg.flow.seed = static_cast<std::uint64_t>(args.get_long("--seed", 7));
  cfg.flow.num_threads = static_cast<int>(args.get_long("--threads", 0));
  cfg.flow.deadline_ms = args.get_long("--deadline", 0);
  cfg.flow.opt_checkpoint_path = args.get("--checkpoint").value_or("");
  cfg.flow.opt_checkpoint_every = parse_checkpoint_every(args, 256);

  const api::FlowCommandResult r = api::run_flow_command(cfg, session.reg());
  report_impl(args, r.impl_entries);
  const FlowOutcome& out = r.outcome;

  Table t({"", "deterministic", "statistical"});
  const auto row = [&](const std::string& k, const std::string& det,
                       const std::string& stat) {
    t.begin_row();
    t.add(k);
    t.add(det);
    t.add(stat);
  };
  const auto& dm = out.det_metrics;
  const auto& sm = out.stat_metrics;
  row("timing yield (SSTA)", format_fixed(dm.timing_yield, 4),
      format_fixed(sm.timing_yield, 4));
  row("leakage mean", format_si(dm.leakage_mean_na * 1e-9, "A"),
      format_si(sm.leakage_mean_na * 1e-9, "A"));
  row("leakage p99", format_si(dm.leakage_p99_na * 1e-9, "A"),
      format_si(sm.leakage_p99_na * 1e-9, "A"));
  row("HVT fraction", format_fixed(100.0 * dm.hvt_fraction, 1) + " %",
      format_fixed(100.0 * sm.hvt_fraction, 1) + " %");
  row("area", format_fixed(dm.area_um, 1) + " um",
      format_fixed(sm.area_um, 1) + " um");
  // The two optimizers run side by side, so these wall times overlap.
  row("runtime (overlapping)", format_fixed(out.det_runtime_s, 2) + " s",
      format_fixed(out.stat_runtime_s, 2) + " s");
  if (out.has_mc) {
    row("MC timing yield", format_fixed(out.det_mc.timing_yield, 4),
        format_fixed(out.stat_mc.timing_yield, 4));
    row("MC leakage p99", format_si(out.det_mc.leakage_p99_na * 1e-9, "A"),
        format_si(out.stat_mc.leakage_p99_na * 1e-9, "A"));
  }
  std::cout << out.circuit_name << ": D_min "
            << format_fixed(out.d_min_ps, 1) << " ps, T "
            << format_fixed(out.t_max_ps, 1) << " ps, det corner "
            << format_fixed(out.det_corner_k, 1) << " sigma\n\n";
  t.print(std::cout);
  std::cout << "\np99 leakage saving "
            << format_fixed(100.0 * out.p99_saving(), 1)
            << " %, mean saving "
            << format_fixed(100.0 * out.mean_saving(), 1) << " %\n";
  if (!out.completed) {
    std::cout << "\ndeadline expired mid-flow: the numbers above are from "
                 "cleanly stopped partial phases\n";
  }
  return r.exit_code();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "-h" || cmd == "--help") {
    usage();
    return 0;
  }
  static const std::vector<CommandSpec> kSpecs = command_specs();
  const CommandSpec* spec = nullptr;
  for (const CommandSpec& c : kSpecs) {
    if (cmd == c.name) {
      spec = &c;
      break;
    }
  }
  if (spec == nullptr) {
    std::cerr << "unknown command '" << cmd << "'\n";
    return usage();
  }
  try {
    const Args args(*spec, argc, argv);
    if (args.help_requested()) {
      print_command_help(*spec, std::cout);
      return 0;
    }
    ObsSession session(spec->name, args);
    int rc = 1;
    if (cmd == "gen") rc = cmd_gen(args, session);
    if (cmd == "stats") rc = cmd_stats(args, session);
    if (cmd == "analyze") rc = cmd_analyze(args, session);
    if (cmd == "optimize") rc = cmd_optimize(args, session);
    if (cmd == "mc") rc = cmd_mc(args, session);
    if (cmd == "sweep") rc = cmd_sweep(args, session);
    if (cmd == "mlv") rc = cmd_mlv(args, session);
    if (cmd == "flow") rc = cmd_flow(args, session);
    if (cmd == "serve") rc = cmd_serve(args, session);
    if (cmd == "worker") rc = cmd_worker(args, session);
    // A deadline-expired run (rc 4) still writes its report — flagged
    // "completed": false — so partial progress is observable. The worker's
    // stdout is its protocol channel, so its session output goes to stderr.
    if (rc == 0 || rc == 4) {
      session.finish(cmd == "worker" ? std::cerr : std::cout);
    }
    return rc;
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n\n";
    print_command_help(*spec, std::cerr);
    return 2;
  } catch (const CheckpointError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 5;
  } catch (const dist::DistError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 6;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
