// fpgadbg — command-line front end for the parameterized debug flow.
//
//   fpgadbg stats <design.blif>
//       print netlist statistics
//   fpgadbg instrument <design.blif> <out.blif> <out.par>
//              [--width N] [--radix R] [--replication R] [--select K]
//       run the signal parameterisation step; with --select K, run critical
//       signal selection first (paper SSVI future work) and instrument only
//       the K best signals
//   fpgadbg map <design.blif> [--par <file.par>] [--mapper sm|abc|tcon] [-k K]
//       technology-map and print area/depth (paper Tables I/II metrics)
//   fpgadbg flow <design.blif> [--width N] [--timing-driven] [--crit-exp F]
//       full offline stage + a sample online debugging turn, with timing;
//       --timing-driven steers place and route by STA criticality and the
//       report prints critical path / Fmax / worst slack
//   fpgadbg profile <design.blif> [--width N] [--turns T] [--cycles C]
//              [--scenarios S] [--scenario-cycles C] [--timing-driven]
//       run the offline stage plus T debugging turns of C emulated cycles
//       each and a batched scenario campaign of S stimulus universes
//       (--scenarios 0 skips it), then print a stage-time / metric table
//       from the telemetry registry, the route and slack convergence
//       trajectories, and the final STA summary (combine with
//       --trace/--metrics for machine-readable output)
//   fpgadbg gen <benchname|list> [<out.blif>]
//       emit one of the paper's synthetic benchmark circuits
//   fpgadbg export <design.blif> <out.v> [--par f.par] [--mapper sm|abc|tcon]
//       technology-map and write structural Verilog
//   fpgadbg cache gc --max-bytes <N>
//       LRU sweep of the --cache-dir artifact cache: evict least-recently-
//       used objects (and the index entries naming them) until the total
//       payload size is at most N bytes
//   fpgadbg report <session.jsonl> [<metrics.json>] [--top N] [--serve PORT]
//       analyse a session journal (--journal output): per-turn SCG/DPR
//       table against the paper's §V-C2 constants (50 us SCG, 176 ms /
//       23712-frame full config), the signal-coverage curve, the top-N
//       churned frames, and the trigger timeline; --serve additionally
//       mounts the finished report at /report on the introspection server
//       and keeps serving (default linger 3600 s, GET /quitz to stop)
//
// Global options (valid with every subcommand, --flag value or --flag=value):
//   --cache-dir <dir>      content-addressed artifact cache for the offline
//                          pipeline (flow, profile): re-runs skip stages
//                          whose inputs and options are unchanged.  Any
//                          number of fpgadbg processes may share one
//                          directory (atomic publish, lock-free mmap
//                          reads)
//   --trace <file.json>    collect TraceScope spans and write a Chrome-trace
//                          JSON timeline (chrome://tracing, Perfetto)
//   --metrics <file.json>  write the metrics registry snapshot as JSON
//   --prom <file.prom>     write the metrics registry in Prometheus text
//                          exposition format
//   --journal <file.jsonl> stream the debug session's flight recorder (flow,
//                          profile) as JSON lines; feed it to `report`
//   --log-level <level>    debug|info|warn|error|off (default: warn, or the
//                          FPGADBG_LOG_LEVEL environment variable)
//   --log-format <fmt>     text|json (JSON-lines structured logging)
//   --introspect <port>    start the live introspection HTTP server
//                          (support/introspect.h) on 127.0.0.1:<port> for
//                          the duration of the command: /metrics scrapes the
//                          registry live, /progressz streams route/pipeline/
//                          campaign progress, /statusz + /healthz + /tracez
//                          round out the surface.  Port 0 picks an ephemeral
//                          port; the bound address is printed on stderr.
//   --introspect-linger <seconds>  keep the introspection server up after
//                          the command finishes — until the timeout expires
//                          or a client GETs /quitz
//
// Errors are reported as one structured line on stderr
// (`fpgadbg: code=<name> ...: <message>`) and a per-StatusCode exit code
// (see support/status.h); usage errors keep the conventional exit code 2.
#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bitstream/churn.h"
#include "debug/journal.h"
#include "debug/session.h"
#include "debug/signal_select.h"
#include "flow/pipeline.h"
#include "genbench/genbench.h"
#include "map/mappers.h"
#include "map/verilog.h"
#include "netlist/blif.h"
#include "netlist/par.h"
#include "netlist/stats.h"
#include "support/error.h"
#include "support/introspect.h"
#include "support/json.h"
#include "support/log.h"
#include "support/profiler.h"
#include "support/rng.h"
#include "support/status.h"
#include "support/strings.h"
#include "support/telemetry.h"

using namespace fpgadbg;

namespace {

/// Exit code for command-line misuse (bad arguments, unknown command).
constexpr int kUsageExit = 2;

/// Global --introspect server.  Started in main() before the subcommand
/// dispatch; `report --serve` starts it on demand and mounts the report.
/// main() owns the linger-then-stop at the end of the run.
std::unique_ptr<support::IntrospectServer> g_introspect;
double g_introspect_linger = 0.0;       ///< --introspect-linger seconds
bool g_introspect_linger_set = false;

/// Starts the global introspection server (idempotent) and announces the
/// bound address on stderr, so scripts can discover an ephemeral port.
support::Status start_introspect(int port) {
  if (g_introspect) return support::Status();
  support::IntrospectOptions iopt;
  iopt.port = port;
  FPGADBG_ASSIGN_OR_RETURN(g_introspect,
                           support::IntrospectServer::start(iopt));
  std::fprintf(stderr, "fpgadbg: introspect: serving on %s:%d\n",
               g_introspect->bind_address().c_str(), g_introspect->port());
  return support::Status();
}

int usage() {
  std::fprintf(stderr,
               "usage: fpgadbg <stats|instrument|map|flow|profile|gen|export"
               "|cache|report|benchdiff> ...\n"
               "  stats <design.blif>\n"
               "  instrument <design.blif> <out.blif> <out.par> [--width N]"
               " [--radix R] [--replication R] [--select K]\n"
               "  map <design.blif> [--par f.par] [--mapper sm|abc|tcon]"
               " [-k K]\n"
               "  flow <design.blif> [--width N] [--route-threads N]"
               " [--astar-fac F] [timing options]\n"
               "  profile <design.blif> [--width N] [--turns T] [--cycles C]"
               " [--scenarios S] [--scenario-cycles C]"
               " [--route-threads N] [--astar-fac F] [timing options]\n"
               "          [--flame <out>]    sample wall-clock stacks across"
               " all threads; write collapsed stacks (or speedscope JSON"
               " when <out> ends in .json)\n"
               "          [--sample-hz N]    sampling rate (default 99)\n"
               "  gen <benchname|list> [<out.blif>]\n"
               "  export <design.blif> <out.v> [--par f.par]"
               " [--mapper sm|abc|tcon]\n"
               "  cache gc --max-bytes <N>\n"
               "  report <session.jsonl> [<metrics.json>] [--top N]"
               " [--serve PORT]\n"
               "  benchdiff <fresh-summary.json> [--baseline <path>]"
               " [--tolerance F]\n"
               "          compare a fresh BENCH_summary.json against the"
               " committed baseline (default bench/baselines/"
               "BENCH_summary.json); exits 1 on regression\n"
               "global options (any command):\n"
               "  --introspect <port>    live HTTP introspection on"
               " 127.0.0.1 while the command runs: /metrics /healthz"
               " /statusz /tracez /progressz (port 0 = ephemeral; bound"
               " address printed on stderr)\n"
               "  --introspect-linger <seconds>  keep serving after the"
               " command finishes, until the timeout or a GET /quitz\n"
               "  --cache-dir <dir>      content-addressed artifact cache"
               " for the offline pipeline (flow, profile); shareable by"
               " concurrent processes\n"
               "  --trace <file.json>    write Chrome-trace/Perfetto span"
               " timeline\n"
               "  --metrics <file.json>  write metrics registry snapshot as"
               " JSON\n"
               "  --prom <file.prom>     write metrics in Prometheus text"
               " format\n"
               "  --journal <file.jsonl> stream the session flight recorder"
               " (flow, profile) as JSONL\n"
               "  --log-level <level>    debug|info|warn|error|off (default"
               " warn; FPGADBG_LOG_LEVEL env var also honored)\n"
               "  --log-format <fmt>     text|json (JSON-lines logging)\n"
               "timing options (flow, profile):\n"
               "  --timing-driven        steer placement and routing by STA"
               " criticality instead of pure wirelength/congestion\n"
               "  --timing-tradeoff F    placer blend: 0 = wirelength only,"
               " 1 = criticality only (default 0.5)\n"
               "  --crit-exp F           criticality sharpening exponent"
               " (default 2.0)\n"
               "  --route-crit-weight F  router delay-cost weight for critical"
               " connections (default 1.0)\n"
               "  --delay-lut/--delay-pin/--delay-segment/--delay-fanout/"
               "--delay-tile <ns>\n"
               "                         override the delay-model constants;"
               " each participates in the place/route/pconf-build cache"
               " keys\n");
  return kUsageExit;
}

/// Valueless (boolean) flags.  The positional scan in parse() must know
/// them: every other "-"-prefixed token swallows the next token as its
/// value, which would silently eat a positional after e.g. --timing-driven.
bool is_boolean_flag(const std::string& t) {
  return t == "--timing-driven";
}

struct Args {
  std::vector<std::string> positional;
  std::optional<std::string> option(const std::string& name) const {
    for (std::size_t i = 0; i + 1 < raw.size(); ++i) {
      if (raw[i] == name) return raw[i + 1];
    }
    return std::nullopt;
  }
  bool has_flag(const std::string& name) const {
    for (const std::string& t : raw) {
      if (t == name) return true;
    }
    return false;
  }
  std::vector<std::string> raw;
  std::string cache_dir;     ///< global --cache-dir, empty = caching disabled
  std::string journal_path;  ///< global --journal, empty = no JSONL sink
};

/// Opens the --journal sink (if requested) and attaches it to the session;
/// events already ringed (the constructor's initial full-configuration turn)
/// are caught up immediately.  Declare the sink BEFORE the session so it
/// outlives the destructor's final cycle-batch flush.
support::Status attach_journal_sink(const Args& args, std::ofstream& out,
                                    debug::DebugSession& session) {
  if (args.journal_path.empty()) return support::Status();
  out.open(args.journal_path);
  if (!out) {
    return support::Status::not_found("cannot write journal file: " +
                                      args.journal_path);
  }
  session.journal().set_sink(&out);
  return support::Status();
}

Args parse(const std::vector<std::string>& tokens, std::size_t skip) {
  Args args;
  for (std::size_t i = skip; i < tokens.size(); ++i) {
    args.raw.push_back(tokens[i]);
  }
  for (std::size_t i = 0; i < args.raw.size(); ++i) {
    if (args.raw[i].rfind("-", 0) == 0) {
      if (!is_boolean_flag(args.raw[i])) ++i;  // skip option value
    } else {
      args.positional.push_back(args.raw[i]);
    }
  }
  return args;
}

std::size_t to_count(const std::string& s, const char* what) {
  return parse_size(s, what);
}

double to_factor(const std::string& s, const char* what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos == s.size() && v >= 0.0) return v;
  } catch (const Error&) {
    throw;
  } catch (...) {
  }
  throw Error(std::string(what) + ": expected a non-negative number, got '" +
              s + "'");
}

/// Router knobs shared by flow/profile: worker count (0 = hardware
/// concurrency, capped by FPGADBG_THREADS) and the A* lookahead weight
/// (0 = plain Dijkstra).
void apply_route_options(const Args& args, pnr::RouteOptions& route) {
  if (auto t = args.option("--route-threads")) {
    route.route_threads = static_cast<int>(to_count(*t, "--route-threads"));
  }
  if (auto f = args.option("--astar-fac")) {
    route.astar_fac = to_factor(*f, "--astar-fac");
  }
}

/// Timing knobs shared by flow/profile: --timing-driven turns on the
/// criticality-blended place/route costs; the --delay-* flags override the
/// DelayModel constants (every one participates in the stage cache keys, so
/// editing a knob re-runs place/route/pconf-build and nothing else).
void apply_timing_options(const Args& args, pnr::TimingOptions& timing) {
  if (args.has_flag("--timing-driven")) timing.timing_driven = true;
  if (auto v = args.option("--timing-tradeoff")) {
    timing.place_tradeoff = to_factor(*v, "--timing-tradeoff");
  }
  if (auto v = args.option("--crit-exp")) {
    timing.crit_exp = to_factor(*v, "--crit-exp");
  }
  if (auto v = args.option("--route-crit-weight")) {
    timing.route_crit_weight = to_factor(*v, "--route-crit-weight");
  }
  if (auto v = args.option("--delay-lut")) {
    timing.delays.lut_ns = to_factor(*v, "--delay-lut");
  }
  if (auto v = args.option("--delay-pin")) {
    timing.delays.pin_ns = to_factor(*v, "--delay-pin");
  }
  if (auto v = args.option("--delay-segment")) {
    timing.delays.segment_ns = to_factor(*v, "--delay-segment");
  }
  if (auto v = args.option("--delay-fanout")) {
    timing.delays.fanout_ns = to_factor(*v, "--delay-fanout");
  }
  if (auto v = args.option("--delay-tile")) {
    timing.delays.tile_ns = to_factor(*v, "--delay-tile");
  }
}

/// Loads a netlist and (optionally) specializes it with a --par file.
support::Result<netlist::Netlist> load_design(const Args& args) {
  FPGADBG_ASSIGN_OR_RETURN(netlist::Netlist nl,
                           netlist::try_read_blif_file(args.positional[0]));
  if (auto par = args.option("--par")) {
    std::ifstream in(*par);
    if (!in) {
      return support::Status::not_found("cannot open .par file: " + *par);
    }
    FPGADBG_ASSIGN_OR_RETURN(std::vector<std::string> assignment,
                             netlist::try_read_par(in, *par));
    FPGADBG_ASSIGN_OR_RETURN(
        nl, netlist::try_apply_params(std::move(nl), assignment));
  }
  return nl;
}

/// Runs one of the named mappers with its canonical option preset.
support::Result<map::MapResult> run_mapper(const netlist::Netlist& nl,
                                           const std::string& mapper, int k) {
  try {
    if (mapper == "sm") return map::simple_map(nl, k);
    if (mapper == "abc") return map::abc_map(nl, k);
    if (mapper == "tcon") return map::tcon_map(nl, k);
  } catch (...) {
    return support::status_from_current_exception();
  }
  return support::Status::invalid_argument("unknown mapper: " + mapper +
                                           " (want sm|abc|tcon)");
}

support::Result<int> cmd_stats(const Args& args) {
  if (args.positional.empty()) return usage();
  FPGADBG_ASSIGN_OR_RETURN(const netlist::Netlist nl,
                           netlist::try_read_blif_file(args.positional[0]));
  std::cout << netlist::compute_stats(nl) << '\n';
  return 0;
}

support::Result<int> cmd_instrument(const Args& args) {
  if (args.positional.size() < 3) return usage();
  FPGADBG_ASSIGN_OR_RETURN(netlist::Netlist nl,
                           netlist::try_read_blif_file(args.positional[0]));

  debug::InstrumentOptions options;
  if (auto w = args.option("--width")) {
    options.trace_width = to_count(*w, "--width");
  }
  if (auto r = args.option("--radix")) {
    options.mux_radix = static_cast<int>(to_count(*r, "--radix"));
  }
  if (auto r = args.option("--replication")) {
    options.replication = static_cast<int>(to_count(*r, "--replication"));
  }
  if (auto k = args.option("--select")) {
    debug::SelectOptions select;
    select.count = to_count(*k, "--select");
    const auto selection = debug::select_critical_signals(nl, select);
    options.observe_list = selection.signals;
    std::printf("critical signal selection: %zu signals cover %.1f%% of the "
                "logic\n",
                selection.signals.size(), selection.coverage * 100.0);
  }

  FPGADBG_ASSIGN_OR_RETURN(const debug::Instrumented inst,
                           debug::try_parameterize_signals(nl, options));
  netlist::write_blif_file(inst.netlist, args.positional[1]);
  netlist::write_par_file(inst.netlist, args.positional[2]);
  std::printf("instrumented: %zu observable signals, %zu lanes, %zu "
              "parameters\n",
              inst.num_observable(), inst.lane_signals.size(),
              inst.netlist.params().size());
  std::printf("wrote %s and %s\n", args.positional[1].c_str(),
              args.positional[2].c_str());
  return 0;
}

support::Result<int> cmd_map(const Args& args) {
  if (args.positional.empty()) return usage();
  FPGADBG_ASSIGN_OR_RETURN(const netlist::Netlist nl, load_design(args));
  int k = 6;
  if (auto kk = args.option("-k")) k = static_cast<int>(to_count(*kk, "-k"));

  const std::string mapper = args.option("--mapper").value_or("tcon");
  FPGADBG_ASSIGN_OR_RETURN(const map::MapResult result,
                           run_mapper(nl, mapper, k));
  std::printf("%s: %zu LUTs + %zu TLUTs + %zu TCONs (LUT area %zu), depth "
              "%d, %.2fs\n",
              result.stats.mapper.c_str(), result.stats.num_luts,
              result.stats.num_tluts, result.stats.num_tcons,
              result.stats.lut_area, result.stats.depth,
              result.stats.runtime_seconds);
  return 0;
}

/// Shared offline-stage driver for flow/profile: runs the staged pipeline
/// (honoring --cache-dir) and prints a stage/cache summary.
support::Result<debug::OfflineResult> run_pipeline(
    const netlist::Netlist& nl, const debug::OfflineOptions& options) {
  flow::Pipeline pipeline(options);
  FPGADBG_ASSIGN_OR_RETURN(flow::PipelineResult result, pipeline.run(nl));
  if (!options.cache_dir.empty()) {
    const telemetry::MetricsSnapshot snap = telemetry::metrics().snapshot();
    std::printf("pipeline: %zu stages executed, %zu from cache (%s), "
                "%llu mmap hits / %llu bytes mapped\n",
                result.stages_executed, result.stages_from_cache,
                options.cache_dir.c_str(),
                static_cast<unsigned long long>(
                    snap.counter("flow.cache.mmap_hits")),
                static_cast<unsigned long long>(
                    snap.counter("flow.cache.bytes_mapped")));
  }
  return std::move(result.offline);
}

support::Result<int> cmd_flow(const Args& args) {
  if (args.positional.empty()) return usage();
  FPGADBG_ASSIGN_OR_RETURN(const netlist::Netlist nl,
                           netlist::try_read_blif_file(args.positional[0]));
  debug::OfflineOptions options;
  options.cache_dir = args.cache_dir;
  if (auto w = args.option("--width")) {
    options.instrument.trace_width = to_count(*w, "--width");
  }
  apply_route_options(args, options.compile.route);
  apply_timing_options(args, options.compile.timing);
  FPGADBG_ASSIGN_OR_RETURN(const debug::OfflineResult offline,
                           run_pipeline(nl, options));
  std::printf("offline stage: instrument %.2fs, map %.2fs, P&R %.2fs, "
              "bitstream %.2fs\n",
              offline.instrument_seconds, offline.map_seconds,
              offline.pnr_seconds, offline.bitstream_seconds);
  std::printf("  %zu LUTs + %zu TLUTs + %zu TCONs, depth %d\n",
              offline.mapping.stats.num_luts, offline.mapping.stats.num_tluts,
              offline.mapping.stats.num_tcons, offline.mapping.stats.depth);
  std::printf("  device %s, routed: %s\n",
              offline.compiled->report.device.c_str(),
              offline.compiled->report.route_success ? "yes" : "NO");
  std::printf("  timing (%s): critical path %.3f ns, Fmax %.1f MHz, "
              "worst slack %.3f ns\n",
              offline.compiled->report.timing_driven ? "timing-driven"
                                                     : "wirelength-driven",
              offline.compiled->report.critical_path_ns,
              offline.compiled->report.max_frequency_mhz,
              offline.compiled->report.worst_slack_ns);
  std::printf("  PConf: %zu bits, %zu parameterized, %zu touchable frames\n",
              offline.pconf->total_bits(),
              offline.pconf->num_parameterized_bits(),
              offline.pconf->parameterized_frames().size());

  std::ofstream journal_out;
  debug::DebugSession session(offline);
  FPGADBG_RETURN_IF_ERROR(attach_journal_sink(args, journal_out, session));
  const auto& lane0 = offline.instrumented.lane_signals[0];
  const auto turn = session.observe({lane0[lane0.size() / 2]});
  std::printf("sample debugging turn ('%s'): %zu frames, SCG %.1f us, "
              "reconfig %.1f us\n",
              lane0[lane0.size() / 2].c_str(), turn.frames_reconfigured,
              turn.scg_eval_seconds * 1e6, turn.reconfig_seconds * 1e6);
  return 0;
}

support::Result<int> cmd_profile(const Args& args) {
  if (args.positional.empty()) return usage();
  FPGADBG_ASSIGN_OR_RETURN(const netlist::Netlist nl,
                           netlist::try_read_blif_file(args.positional[0]));
  debug::OfflineOptions options;
  options.cache_dir = args.cache_dir;
  if (auto w = args.option("--width")) {
    options.instrument.trace_width = to_count(*w, "--width");
  }
  apply_route_options(args, options.compile.route);
  apply_timing_options(args, options.compile.timing);
  std::size_t turns = 4;
  if (auto t = args.option("--turns")) turns = to_count(*t, "--turns");
  std::size_t cycles = 256;
  if (auto c = args.option("--cycles")) cycles = to_count(*c, "--cycles");
  std::size_t scenarios = 256;
  if (auto s = args.option("--scenarios")) {
    scenarios = to_count(*s, "--scenarios");
  }
  std::size_t scenario_cycles = 64;
  if (auto s = args.option("--scenario-cycles")) {
    scenario_cycles = to_count(*s, "--scenario-cycles");
  }

  // --flame: sample wall-clock stacks across every thread for the whole
  // run and write a flame-graph input when done.  --sample-hz alone also
  // enables sampling (counters only, no file).
  const std::optional<std::string> flame_path = args.option("--flame");
  prof::ProfilerOptions popt;
  if (auto hz = args.option("--sample-hz")) {
    popt.sample_hz = static_cast<int>(to_count(*hz, "--sample-hz"));
  }
  const bool sampling = flame_path.has_value() || args.option("--sample-hz");
  if (sampling) {
    FPGADBG_RETURN_IF_ERROR(prof::start_profiler(popt));
  }

  FPGADBG_ASSIGN_OR_RETURN(const debug::OfflineResult offline,
                           run_pipeline(nl, options));
  std::ofstream journal_out;
  debug::DebugSession session(offline);
  FPGADBG_RETURN_IF_ERROR(attach_journal_sink(args, journal_out, session));

  // Exercise the online stage: rotate the observed signal through the lane-0
  // candidates (every turn is a real SCG + DPR charge) and emulate cycles
  // with deterministic random stimuli.
  const auto& lanes = offline.instrumented.lane_signals;
  Rng rng(0xfdb6);
  std::vector<debug::TurnReport> ledger;
  for (std::size_t turn = 0; turn < turns && !lanes.empty(); ++turn) {
    const auto& lane = lanes[turn % lanes.size()];
    ledger.push_back(session.observe({lane[turn % lane.size()]}));
    for (std::size_t c = 0; c < cycles; ++c) {
      std::vector<bool> inputs;
      inputs.reserve(nl.inputs().size());
      for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
        inputs.push_back(rng.next_bool());
      }
      session.step(inputs);
    }
  }

  // Batched scenario campaign over the same design: exercises the SoA
  // engine (and its sim.batch.* counters) with a mix of clean and
  // fault-injected universes.
  debug::ScenarioBatchResult batch;
  if (scenarios > 0) {
    debug::ScenarioBatchOptions sopt;
    sopt.scenarios = scenarios;
    sopt.cycles = scenario_cycles;
    sopt.auto_faults = 2;
    batch = session.run_scenario_batch(sopt);
  }

  if (sampling) prof::stop_profiler();

  const telemetry::MetricsSnapshot snap = telemetry::metrics().snapshot();
  auto row_s = [](const char* name, double seconds) {
    std::printf("  %-28s %12.6f s\n", name, seconds);
  };
  auto row_h = [&](const char* name) {
    const auto h = snap.histogram(name);
    if (h.count == 0) return;
    std::printf("  %-28s %12.6f s  (n=%llu, p50 %.1f us, p99 %.1f us)\n",
                name, h.sum, static_cast<unsigned long long>(h.count),
                h.p50 * 1e6, h.p99 * 1e6);
  };
  auto row_c = [&](const char* name) {
    std::printf("  %-28s %12llu\n", name,
                static_cast<unsigned long long>(snap.counter(name)));
  };
  auto row_g = [&](const char* name) {
    std::printf("  %-28s %12.4f\n", name, snap.gauge(name));
  };

  std::printf("offline stage times:\n");
  row_s("instrument", snap.histogram("offline.instrument_seconds").sum);
  row_s("map", snap.histogram("offline.map_seconds").sum);
  row_s("pnr", snap.histogram("offline.pnr_seconds").sum);
  row_s("bitstream", snap.histogram("offline.bitstream_seconds").sum);
  row_s("total", snap.histogram("offline.total_seconds").sum);

  std::printf("online stage (%zu turns, %zu cycles/turn):\n", turns, cycles);
  row_h("scg.eval_seconds");
  row_h("debug.reconfig_seconds");
  row_h("debug.turn_seconds");
  row_h("pnr.route.iteration_seconds");
  if (!ledger.empty()) {
    // Where a turn's measured time goes, part by part.  Each part is timed
    // inside the turn, so per turn the parts never exceed the wall time and
    // the unaccounted rest (journal, coverage, metrics) is never negative.
    auto median_us = [&](double (*part)(const debug::TurnReport&)) {
      std::vector<double> v;
      for (const debug::TurnReport& r : ledger) v.push_back(part(r) * 1e6);
      std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
      return v[v.size() / 2];
    };
    std::printf(
        "  turn ledger (median us over %zu turns): select %.1f, scg %.1f, "
        "frame diff %.1f, retarget %.1f, unaccounted %.1f, wall %.1f\n",
        ledger.size(),
        median_us([](const debug::TurnReport& r) { return r.select_seconds; }),
        median_us(
            [](const debug::TurnReport& r) { return r.scg_eval_seconds; }),
        median_us(
            [](const debug::TurnReport& r) { return r.frame_diff_seconds; }),
        median_us(
            [](const debug::TurnReport& r) { return r.retarget_seconds; }),
        median_us([](const debug::TurnReport& r) {
          return r.wall_seconds - r.select_seconds - r.scg_eval_seconds -
                 r.frame_diff_seconds - r.retarget_seconds;
        }),
        median_us([](const debug::TurnReport& r) { return r.wall_seconds; }));
  }
  // Where an emulated cycle's time goes: the DUT runs its program folded on
  // the current parameters, re-folded on the first cycle after a turn.
  if (const sim::SimProgram* program = session.dut().program()) {
    const auto refold = snap.histogram("sim.refold_seconds");
    std::printf("  DUT program: %zu ops (%zu unfolded, %zu aliased cells), "
                "refold p50 %.1f us over %llu refolds\n",
                program->ops.size(), session.dut().unfolded_ops(),
                session.dut().aliased_cells(), refold.p50 * 1e6,
                static_cast<unsigned long long>(refold.count));
  } else {
    std::printf("  DUT program: none (interpreted backend)\n");
  }

  std::printf("counters:\n");
  row_c("flow.stage.executions");
  row_c("flow.cache.hits");
  row_c("flow.cache.misses");
  row_c("flow.cache.stores");
  row_c("flow.cache.mmap_hits");
  row_c("flow.cache.bytes_mapped");
  row_c("flow.cache.bytes_read");
  row_c("map.cuts_enumerated");
  row_c("map.cells.lut");
  row_c("map.cells.tlut");
  row_c("map.cells.tcon");
  row_c("pnr.route.iterations");
  row_c("pnr.route.rerouted_nets");
  row_c("pnr.route.heap_pops");
  row_c("pnr.route.bbox_expansions");
  row_c("scg.bits_reevaluated");
  row_c("scg.bdd_nodes_visited");
  row_c("scg.incremental_specializations");
  row_c("icap.frames_transferred");
  row_c("icap.bytes_transferred");
  row_c("icap.frame_writes");
  row_c("debug.cycles_emulated");
  row_c("debug.journal.events");
  row_c("debug.journal.dropped_events");
  row_c("sim.evals");
  row_c("sim.ops_skipped");
  row_c("sim.batch.blocks");
  row_c("sim.batch.scenario_cycles");
  row_c("sim.batch.faulted_scenarios");

  // Convergence trajectory of the PathFinder negotiation, one row per
  // iteration (empty when the route stage was replayed from cache).
  const std::vector<double> conv =
      snap.series_of("pnr.route.iteration.overused_nodes");
  if (!conv.empty()) {
    const std::vector<double> rerouted =
        snap.series_of("pnr.route.iteration.rerouted_nets");
    const std::vector<double> pops =
        snap.series_of("pnr.route.iteration.heap_pops");
    std::printf("route convergence (%zu iterations):\n", conv.size());
    std::printf("  %4s %14s %14s %14s\n", "iter", "overused", "rerouted",
                "heap pops");
    for (std::size_t i = 0; i < conv.size(); ++i) {
      std::printf("  %4zu %14.0f %14.0f %14.0f\n", i + 1, conv[i],
                  i < rerouted.size() ? rerouted[i] : 0.0,
                  i < pops.size() ? pops[i] : 0.0);
    }
  }

  // Timing: the final routed-fidelity STA, plus (when the router ran
  // timing-driven this process) the per-iteration slack trajectory against
  // the placed-fidelity clock budget.
  std::printf("timing (%s):\n", offline.compiled->report.timing_driven
                                    ? "timing-driven"
                                    : "wirelength-driven");
  std::printf("  %-28s %12.3f ns\n", "critical path",
              offline.compiled->report.critical_path_ns);
  std::printf("  %-28s %12.1f MHz\n", "Fmax",
              offline.compiled->report.max_frequency_mhz);
  std::printf("  %-28s %12.3f ns\n", "worst slack",
              offline.compiled->report.worst_slack_ns);
  const std::vector<double> slack =
      snap.series_of("pnr.timing.iteration.worst_slack_ns");
  if (!slack.empty()) {
    const std::vector<double> fmax =
        snap.series_of("pnr.timing.iteration.fmax_mhz");
    std::printf("slack convergence (%zu iterations, budget = placed-fidelity "
                "critical path):\n",
                slack.size());
    std::printf("  %4s %18s %14s\n", "iter", "worst slack[ns]", "Fmax[MHz]");
    for (std::size_t i = 0; i < slack.size(); ++i) {
      std::printf("  %4zu %18.3f %14.1f\n", i + 1, slack[i],
                  i < fmax.size() ? fmax[i] : 0.0);
    }
  }

  if (scenarios > 0) {
    std::printf("scenario batch (%zu scenarios x %zu cycles, %zu blocks/"
                "pass):\n",
                batch.scenarios, batch.cycles, batch.blocks_per_pass);
    std::printf("  %-28s %12.0f\n", "scenario_cycles/sec",
                batch.scenario_cycles_per_sec);
    std::printf("  %-28s %12zu\n", "faulted scenarios",
                batch.faulted_scenarios);
  }

  std::printf("signal coverage:\n");
  row_g("debug.coverage.observed");
  row_g("debug.coverage.observable");
  row_g("debug.coverage.fraction");
  const auto hot = session.churn().top(4);
  if (!hot.empty()) {
    std::printf("hottest frames (%llu reconfigurations, %zu frames "
                "touched):\n",
                static_cast<unsigned long long>(
                    session.churn().reconfigurations()),
                session.churn().frames_touched());
    for (const auto& h : hot) {
      std::printf("  frame %-6zu %6llu writes\n", h.frame,
                  static_cast<unsigned long long>(h.writes));
    }
  }

  if (sampling) {
    const prof::ProfilerStats pstats = prof::profiler_stats();
    std::printf("sampler (%d Hz):\n", pstats.sample_hz);
    std::printf("  %-28s %12llu\n", "samples",
                static_cast<unsigned long long>(pstats.samples));
    std::printf("  %-28s %12llu\n", "dropped samples",
                static_cast<unsigned long long>(pstats.dropped));
    std::printf("  %-28s %12llu\n", "dropped ring spans",
                static_cast<unsigned long long>(
                    telemetry::dropped_span_count()));
    if (flame_path) {
      if (!prof::write_profile_file(*flame_path)) {
        return support::Status::io_error("profile: cannot write " +
                                         *flame_path);
      }
      std::printf("  %-28s %s\n", "flame output", flame_path->c_str());
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// fpgadbg report — session-journal post-mortem
// ---------------------------------------------------------------------------

/// printf-append onto a string: the report body is built once, then written
/// to stdout and (with --serve) also mounted on the introspection server.
void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void appendf(std::string& out, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  if (n > 0) {
    std::vector<char> buf(static_cast<std::size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    out.append(buf.data(), static_cast<std::size_t>(n));
  }
  va_end(ap2);
}

/// Linear-interpolated percentile of an unsorted sample set (p in [0,1]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = lo + 1 < v.size() ? lo + 1 : lo;
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

/// Cross-checks a --metrics JSON snapshot against the journal: parses it
/// (schema errors are fatal — that is the point) and prints the counters and
/// histogram summaries the report cares about.
support::Result<int> report_metrics_snapshot(std::string& out,
                                             const std::string& path,
                                             std::size_t journal_turns) {
  std::ifstream in(path);
  if (!in) return support::Status::not_found("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  support::JsonValue root;
  try {
    root = support::parse_json(buffer.str());
  } catch (const std::exception& e) {
    return support::Status::parse_error(path, 0, e.what());
  }
  const support::JsonValue* counters = root.find("counters");
  const support::JsonValue* histograms = root.find("histograms");
  if (!counters || !counters->is_object() || !histograms ||
      !histograms->is_object() || !root.find("gauges")) {
    return support::Status::corrupt_artifact(
        path + ": not a metrics snapshot (want counters/gauges/histograms)");
  }
  appendf(out, "metrics snapshot (%s):\n", path.c_str());
  auto counter = [&](const char* name) -> double {
    const support::JsonValue* v = counters->find(name);
    return v && v->is_number() ? v->number : 0.0;
  };
  for (const char* name :
       {"debug.turns", "debug.cycles_emulated", "debug.journal.events",
        "icap.frame_writes", "scg.bits_reevaluated"}) {
    appendf(out, "  %-28s %12.0f\n", name, counter(name));
  }
  if (const support::JsonValue* h = histograms->find("debug.turn_seconds")) {
    const support::JsonValue* p50 = h->find("p50");
    const support::JsonValue* p99 = h->find("p99");
    const support::JsonValue* count = h->find("count");
    if (p50 && p99 && count) {
      appendf(out, "  %-28s n=%.0f, p50 %.1f us, p99 %.1f us\n",
                  "debug.turn_seconds", count->number, p50->number * 1e6,
                  p99->number * 1e6);
    }
  }
  const double turns = counter("debug.turns");
  if (journal_turns != 0 && turns != 0.0 &&
      turns != static_cast<double>(journal_turns)) {
    appendf(out, "  note: snapshot counts %.0f turns, journal records %zu "
                "(snapshot may span several sessions)\n",
                turns, journal_turns);
  }
  return 0;
}

support::Result<int> cmd_report(const Args& args) {
  if (args.positional.empty()) return usage();
  FPGADBG_ASSIGN_OR_RETURN(
      const debug::SessionJournal journal,
      debug::SessionJournal::load_file(args.positional[0]));
  std::size_t top_n = 8;
  if (auto t = args.option("--top")) top_n = to_count(*t, "--top");

  // The report is built into a string so one rendering feeds both stdout and
  // (with --serve) the introspection server's /report mount.
  std::string out;

  using debug::SessionEvent;
  using debug::SessionEventKind;

  struct TurnRow {
    std::vector<std::string> requested;
    std::uint64_t bits = 0;
    std::uint64_t frames = 0;
    bool incremental = false;
    double scg_seconds = 0.0;
    double dpr_seconds = 0.0;
    double coverage = 0.0;
    bool ended = false;
  };
  std::map<std::uint64_t, TurnRow> turns;
  std::vector<double> scg_samples, dpr_partial_samples;
  bitstream::FrameChurn churn;
  std::uint64_t cycles = 0;
  std::uint64_t full_configs = 0, full_frames = 0;
  double full_seconds = 0.0;
  struct Fire {
    std::uint64_t turn, cycle, fire_cycle, window = 0;
  };
  std::vector<Fire> fires;

  for (const SessionEvent& e : journal.events()) {
    switch (e.kind) {
      case SessionEventKind::kTurnStart:
        turns[e.turn].requested = e.signals;
        break;
      case SessionEventKind::kScgEval: {
        TurnRow& row = turns[e.turn];
        row.bits = e.bits_changed;
        row.incremental = e.incremental;
        row.scg_seconds = e.scg_eval_seconds;
        // The paper's ~50 us bound covers the per-turn (incremental)
        // specialization; the one-off full evaluation is setup cost.
        if (e.incremental) scg_samples.push_back(e.scg_eval_seconds);
        break;
      }
      case SessionEventKind::kIcapWrite: {
        TurnRow& row = turns[e.turn];
        row.frames = e.frames;
        row.dpr_seconds = e.reconfig_seconds;
        if (e.full) {
          ++full_configs;
          full_frames = e.frames;
          full_seconds = e.reconfig_seconds;
          churn.record_full(e.frames);
        } else {
          std::vector<std::size_t> ids(e.frame_ids.begin(),
                                       e.frame_ids.end());
          churn.record_partial(ids);
          dpr_partial_samples.push_back(e.reconfig_seconds);
        }
        break;
      }
      case SessionEventKind::kTurnEnd: {
        TurnRow& row = turns[e.turn];
        row.coverage = e.coverage;
        row.ended = true;
        break;
      }
      case SessionEventKind::kCycleBatch:
        cycles += e.count;
        break;
      case SessionEventKind::kTriggerFire:
        fires.push_back({e.turn, e.cycle, e.count, 0});
        break;
      case SessionEventKind::kTraceWindow:
        if (!fires.empty()) fires.back().window = e.count;
        break;
      default:
        break;
    }
  }

  appendf(out, "session journal %s: %zu events (%llu recorded, %llu "
              "dropped), %zu turns, %llu emulated cycles\n",
              args.positional[0].c_str(), journal.size(),
              static_cast<unsigned long long>(journal.total_events()),
              static_cast<unsigned long long>(journal.dropped_events()),
              turns.size(), static_cast<unsigned long long>(cycles));

  appendf(out, "\nper-turn breakdown:\n");
  appendf(out, "  %4s %-5s %10s %8s %10s %10s %9s\n", "turn", "mode", "bits",
              "frames", "scg[us]", "dpr[us]", "coverage");
  for (const auto& [turn, row] : turns) {
    appendf(out, "  %4llu %-5s %10llu %8llu %10.1f %10.1f %8.1f%%\n",
                static_cast<unsigned long long>(turn),
                row.incremental ? "incr" : "full",
                static_cast<unsigned long long>(row.bits),
                static_cast<unsigned long long>(row.frames),
                row.scg_seconds * 1e6, row.dpr_seconds * 1e6,
                row.coverage * 100.0);
  }

  // Paper §V-C2: SCG evaluation stays within ~50 us, and partial
  // reconfiguration beats the 176 ms full configuration of the 23712-frame
  // reference device by ~3 orders of magnitude.
  constexpr double kPaperScgBoundSeconds = 50e-6;
  const bitstream::IcapModel reference;
  if (!scg_samples.empty()) {
    const double p50 = percentile(scg_samples, 0.50);
    const double p99 = percentile(scg_samples, 0.99);
    appendf(out, "\nSCG evaluation: p50 %.1f us, p99 %.1f us over %zu "
                "incremental evals (paper bound ~%.0f us): %s\n",
                p50 * 1e6, p99 * 1e6, scg_samples.size(),
                kPaperScgBoundSeconds * 1e6,
                p99 <= kPaperScgBoundSeconds ? "within bound"
                                             : "EXCEEDS BOUND");
  }
  if (!dpr_partial_samples.empty()) {
    const double p50 = percentile(dpr_partial_samples, 0.50);
    const double p99 = percentile(dpr_partial_samples, 0.99);
    appendf(out, "DPR (partial): p50 %.1f us, p99 %.1f us over %zu "
                "reconfigurations; reference full config %.0f ms / %zu "
                "frames -> %.0fx faster at p50\n",
                p50 * 1e6, p99 * 1e6, dpr_partial_samples.size(),
                reference.reference_full_seconds * 1e3,
                reference.reference_frames,
                p50 > 0.0 ? reference.reference_full_seconds / p50 : 0.0);
  }
  if (full_configs > 0) {
    appendf(out, "full configurations: %llu (device %llu frames, %.1f ms "
                "each)\n",
                static_cast<unsigned long long>(full_configs),
                static_cast<unsigned long long>(full_frames),
                full_seconds * 1e3);
  }

  // Coverage curve: the fraction of the observable-signal universe seen at
  // least once, after each completed turn.
  std::vector<double> curve;
  for (const auto& [turn, row] : turns) {
    if (row.ended) curve.push_back(row.coverage);
  }
  if (!curve.empty()) {
    appendf(out, "\nsignal coverage after %zu turns: %.1f%%\n", curve.size(),
                curve.back() * 100.0);
    appendf(out, "  curve:");
    const std::size_t max_points = 16;
    const std::size_t stride =
        curve.size() > max_points ? (curve.size() + max_points - 1) / max_points
                                  : 1;
    for (std::size_t i = 0; i < curve.size(); i += stride) {
      appendf(out, " %.1f%%", curve[i] * 100.0);
    }
    if (stride > 1) appendf(out, " ... %.1f%%", curve.back() * 100.0);
    appendf(out, "\n");
  }

  const auto hot = churn.top(top_n);
  if (!hot.empty()) {
    appendf(out, "\nframe churn: %llu writes over %zu frames touched; "
                "top %zu:\n",
                static_cast<unsigned long long>(churn.total_writes()),
                churn.frames_touched(), hot.size());
    const std::uint64_t peak = hot.front().writes;
    for (const auto& h : hot) {
      const std::size_t bar =
          peak > 0 ? static_cast<std::size_t>(40 * h.writes / peak) : 0;
      appendf(out, "  frame %-6zu %6llu %s\n", h.frame,
                  static_cast<unsigned long long>(h.writes),
                  std::string(bar, '#').c_str());
    }
  }

  if (!fires.empty()) {
    appendf(out, "\ntrigger timeline:\n");
    for (const Fire& f : fires) {
      appendf(out, "  turn %llu: fired at run cycle %llu (session cycle "
                  "%llu, %llu samples frozen)\n",
                  static_cast<unsigned long long>(f.turn),
                  static_cast<unsigned long long>(f.fire_cycle),
                  static_cast<unsigned long long>(f.cycle),
                  static_cast<unsigned long long>(f.window));
    }
  }

  if (args.positional.size() >= 2) {
    appendf(out, "\n");
    auto snapshot =
        report_metrics_snapshot(out, args.positional[1], turns.size());
    if (!snapshot.ok()) {
      std::fputs(out.c_str(), stdout);  // partial report still has value
      return snapshot;
    }
  }
  std::fputs(out.c_str(), stdout);

  // --serve: expose the finished report (and the usual telemetry endpoints)
  // over HTTP until /quitz or the linger timeout.  Reuses the global
  // --introspect server when one is already up.
  if (auto serve = args.option("--serve")) {
    const std::size_t port = to_count(*serve, "--serve");
    if (port > 65535) {
      return support::Status::invalid_argument("--serve: port out of range: " +
                                               *serve);
    }
    FPGADBG_RETURN_IF_ERROR(start_introspect(static_cast<int>(port)));
    g_introspect->mount("/report", out);
    if (!g_introspect_linger_set) {
      g_introspect_linger = 3600.0;
      g_introspect_linger_set = true;
    }
    std::fprintf(stderr, "fpgadbg: report: mounted at http://%s:%d/report\n",
                 g_introspect->bind_address().c_str(), g_introspect->port());
  }
  return 0;
}

/// `fpgadbg cache gc --max-bytes N`: LRU-by-atime sweep over the
/// --cache-dir cache.
support::Result<int> cmd_cache(const Args& args) {
  if (args.positional.empty() || args.positional[0] != "gc") return usage();
  const flow::ArtifactCache cache(args.cache_dir);
  if (!cache.enabled()) {
    return support::Status::invalid_argument(
        "cache gc: no cache configured (use --cache-dir)");
  }
  const auto max = args.option("--max-bytes");
  if (!max) {
    return support::Status::invalid_argument(
        "cache gc: --max-bytes <N> is required");
  }
  const std::uint64_t max_bytes = to_count(*max, "--max-bytes");
  FPGADBG_ASSIGN_OR_RETURN(const flow::GcStats stats, cache.gc(max_bytes));
  std::printf("cache gc (%s): kept %zu entries / %llu bytes, evicted %zu "
              "entries / %llu bytes (budget %llu)\n",
              args.cache_dir.c_str(),
              stats.scanned_entries - stats.removed_entries,
              static_cast<unsigned long long>(stats.scanned_bytes -
                                              stats.removed_bytes),
              stats.removed_entries,
              static_cast<unsigned long long>(stats.removed_bytes),
              static_cast<unsigned long long>(max_bytes));
  return 0;
}

support::Result<int> cmd_export(const Args& args) {
  if (args.positional.size() < 2) return usage();
  FPGADBG_ASSIGN_OR_RETURN(const netlist::Netlist nl, load_design(args));
  const std::string mapper = args.option("--mapper").value_or("tcon");
  FPGADBG_ASSIGN_OR_RETURN(const map::MapResult result,
                           run_mapper(nl, mapper, 6));
  map::write_verilog_file(result.netlist, args.positional[1]);
  std::printf("wrote %s (%zu cells)\n", args.positional[1].c_str(),
              result.netlist.num_cells());
  return 0;
}

support::Result<int> cmd_gen(const Args& args) {
  if (args.positional.empty()) return usage();
  if (args.positional[0] == "list") {
    for (const auto& spec : genbench::paper_benchmarks()) {
      std::printf("%-10s %6zu gates, depth %2d, %3zu PI, %4zu latches\n",
                  spec.name.c_str(), spec.num_gates, spec.depth,
                  spec.num_inputs, spec.num_latches);
    }
    return 0;
  }
  try {
    const auto spec = genbench::paper_benchmark(args.positional[0]);
    const auto nl = genbench::generate(spec);
    if (args.positional.size() >= 2) {
      netlist::write_blif_file(nl, args.positional[1]);
      std::printf("wrote %s (%zu gates)\n", args.positional[1].c_str(),
                  nl.num_logic_nodes());
    } else {
      std::cout << netlist::compute_stats(nl) << '\n';
    }
  } catch (...) {
    return support::status_from_current_exception();
  }
  return 0;
}

// ---------------------------------------------------------------------------
// benchdiff: the perf-regression sentinel.  Compares a fresh BENCH_summary
// against a committed baseline snapshot, metric by metric, with per-kind
// noise tolerances; exits nonzero when anything regressed.
// scripts/bench_all.sh runs it against bench/baselines/.
// ---------------------------------------------------------------------------

/// One comparable number extracted from a summary: a histogram sum or a
/// gauge, keyed "harness metric".
struct BenchMetric {
  double value = 0.0;
  bool is_hist_sum = false;
};

bool str_ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Pulls every gate-relevant metric out of a parsed summary: all `bench.*`
/// gauges plus all `bench.*_seconds` histogram sums, per harness.  The
/// bench. namespace is the harnesses' contract for dashboard-tracked
/// numbers; everything else in the registry dump is diagnostic noise.
std::map<std::string, BenchMetric> bench_metrics(
    const support::JsonValue& summary) {
  std::map<std::string, BenchMetric> out;
  const support::JsonValue* results = summary.find("results");
  if (results == nullptr || !results->is_object()) return out;
  for (const auto& [harness, doc] : results->object) {
    const support::JsonValue* metrics = doc.find("metrics");
    if (metrics == nullptr) continue;
    if (const support::JsonValue* gauges = metrics->find("gauges")) {
      for (const auto& [name, v] : gauges->object) {
        if (name.rfind("bench.", 0) != 0 || !v.is_number()) continue;
        out[harness + " " + name] = {v.number, false};
      }
    }
    if (const support::JsonValue* hists = metrics->find("histograms")) {
      for (const auto& [name, h] : hists->object) {
        if (name.rfind("bench.", 0) != 0) continue;
        if (!str_ends_with(name, "_seconds")) continue;
        const support::JsonValue* sum = h.find("sum");
        if (sum == nullptr || !sum->is_number()) continue;
        out[harness + " " + name] = {sum->number, true};
      }
    }
  }
  return out;
}

support::Result<support::JsonValue> load_summary(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return support::Status::io_error("benchdiff: cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return support::parse_json(buf.str());
  } catch (const std::exception& e) {
    return support::Status::parse_error(path, 0,
                                        std::string("benchdiff: ") + e.what());
  }
}

support::Result<int> cmd_benchdiff(const Args& args) {
  if (args.positional.empty()) return usage();
  const std::string fresh_path = args.positional[0];
  const std::string base_path =
      args.option("--baseline").value_or("bench/baselines/BENCH_summary.json");
  // Timings on shared CI hardware are noisy: the default relative budget is
  // deliberately generous; tighten with --tolerance for dedicated boxes.
  double tolerance = 0.5;
  if (auto t = args.option("--tolerance")) {
    char* end = nullptr;
    tolerance = std::strtod(t->c_str(), &end);
    if (end == t->c_str() || *end != '\0' || tolerance < 0.0) {
      return support::Status::invalid_argument(
          "benchdiff: --tolerance wants a non-negative number, got '" + *t +
          "'");
    }
  }

  FPGADBG_ASSIGN_OR_RETURN(const support::JsonValue base_doc,
                           load_summary(base_path));
  FPGADBG_ASSIGN_OR_RETURN(const support::JsonValue fresh_doc,
                           load_summary(fresh_path));
  const std::map<std::string, BenchMetric> base = bench_metrics(base_doc);
  const std::map<std::string, BenchMetric> fresh = bench_metrics(fresh_doc);
  if (base.empty()) {
    return support::Status::parse_error(
        base_path, 0, "benchdiff: baseline carries no bench.* metrics");
  }

  auto commit_of = [](const support::JsonValue& doc) {
    const support::JsonValue* c = doc.find("commit");
    return c != nullptr && c->is_string() ? c->str : std::string("unknown");
  };
  std::printf("benchdiff: baseline %s (%s)\n", base_path.c_str(),
              commit_of(base_doc).c_str());
  std::printf("benchdiff: fresh    %s (%s)\n", fresh_path.c_str(),
              commit_of(fresh_doc).c_str());
  std::printf("  %-52s %14s %14s %8s  %s\n", "metric", "baseline", "fresh",
              "delta%", "verdict");

  // Per-metric-kind rules:
  //   *_seconds hist sums     lower better, rel tolerance + 50 ms floor
  //   *speedup*, *per_sec*    higher better, rel tolerance
  //   *bit_identical*         exact match
  //   *overhead_pct           absolute budget: baseline + 2 points
  //   other gauges            informational, never gate
  int regressions = 0;
  for (const auto& [key, b] : base) {
    const auto it = fresh.find(key);
    const char* verdict;
    double fresh_value = 0.0;
    double delta_pct = 0.0;
    if (it == fresh.end()) {
      // A metric that vanished is a silent coverage loss — gate on it.
      verdict = "MISSING";
      ++regressions;
    } else {
      fresh_value = it->second.value;
      delta_pct = b.value != 0.0
                      ? (fresh_value - b.value) / std::abs(b.value) * 100.0
                      : (fresh_value == 0.0 ? 0.0 : 100.0);
      bool fail;
      if (key.find("bit_identical") != std::string::npos) {
        fail = fresh_value != b.value;
      } else if (str_ends_with(key, "overhead_pct")) {
        fail = fresh_value > b.value + 2.0;
      } else if (b.is_hist_sum) {
        fail = fresh_value > b.value * (1.0 + tolerance) + 0.05;
      } else if (key.find("speedup") != std::string::npos ||
                 key.find("per_sec") != std::string::npos) {
        fail = fresh_value < b.value * (1.0 - tolerance);
      } else {
        fail = false;
      }
      if (fail) {
        verdict = "FAIL";
        ++regressions;
      } else if (key.find("speedup") == std::string::npos &&
                 key.find("per_sec") == std::string::npos &&
                 key.find("bit_identical") == std::string::npos &&
                 !str_ends_with(key, "overhead_pct") && !b.is_hist_sum) {
        verdict = "info";
      } else {
        verdict = "ok";
      }
    }
    std::printf("  %-52s %14.6g %14.6g %+7.1f%%  %s\n", key.c_str(), b.value,
                fresh_value, delta_pct, verdict);
  }
  // New metrics in fresh are fine (a new harness landed); list them.
  for (const auto& [key, f] : fresh) {
    if (base.find(key) == base.end()) {
      std::printf("  %-52s %14s %14.6g %8s  new\n", key.c_str(), "-", f.value,
                  "-");
    }
  }
  if (regressions > 0) {
    std::printf("benchdiff: %d regression%s (tolerance %.0f%%)\n", regressions,
                regressions == 1 ? "" : "s", tolerance * 100.0);
    return 1;
  }
  std::printf("benchdiff: no regressions across %zu metrics (tolerance "
              "%.0f%%)\n",
              base.size(), tolerance * 100.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Tokenize, splitting --flag=value into two tokens so both spellings work.
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) {
    std::string t = argv[i];
    const auto eq = t.find('=');
    if (t.rfind("--", 0) == 0 && eq != std::string::npos) {
      tokens.push_back(t.substr(0, eq));
      tokens.push_back(t.substr(eq + 1));
    } else {
      tokens.push_back(std::move(t));
    }
  }

  // Log level precedence: built-in default < FPGADBG_LOG_LEVEL < --log-level.
  LogLevel level = LogLevel::kWarn;
  if (const char* env = std::getenv("FPGADBG_LOG_LEVEL")) {
    if (const auto parsed = parse_log_level(env)) {
      level = *parsed;
    } else {
      std::fprintf(stderr, "fpgadbg: ignoring invalid FPGADBG_LOG_LEVEL "
                   "'%s'\n", env);
    }
  }

  // Peel global options off the token stream; the rest is command + args.
  std::string trace_path, metrics_path, prom_path, cache_dir, journal_path;
  bool introspect = false;
  int introspect_port = 0;
  std::vector<std::string> rest;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string t = tokens[i];
    if (t == "--trace" || t == "--metrics" || t == "--prom" ||
        t == "--journal" || t == "--log-level" || t == "--log-format" ||
        t == "--cache-dir" || t == "--introspect" ||
        t == "--introspect-linger") {
      if (i + 1 >= tokens.size()) {
        std::fprintf(stderr, "fpgadbg: %s requires a value\n", t.c_str());
        return kUsageExit;
      }
      const std::string value = tokens[++i];
      if (t == "--trace") {
        trace_path = value;
      } else if (t == "--metrics") {
        metrics_path = value;
      } else if (t == "--prom") {
        prom_path = value;
      } else if (t == "--journal") {
        journal_path = value;
      } else if (t == "--cache-dir") {
        cache_dir = value;
      } else if (t == "--introspect") {
        char* end = nullptr;
        const long port = std::strtol(value.c_str(), &end, 10);
        if (end == value.c_str() || *end != '\0' || port < 0 || port > 65535) {
          std::fprintf(stderr,
                       "fpgadbg: invalid --introspect port '%s' (want "
                       "0-65535)\n",
                       value.c_str());
          return kUsageExit;
        }
        introspect = true;
        introspect_port = static_cast<int>(port);
      } else if (t == "--introspect-linger") {
        char* end = nullptr;
        const double seconds = std::strtod(value.c_str(), &end);
        if (end == value.c_str() || *end != '\0' || seconds < 0.0) {
          std::fprintf(stderr,
                       "fpgadbg: invalid --introspect-linger '%s' (want "
                       "seconds >= 0)\n",
                       value.c_str());
          return kUsageExit;
        }
        g_introspect_linger = seconds;
        g_introspect_linger_set = true;
      } else if (t == "--log-level") {
        const auto parsed = parse_log_level(value);
        if (!parsed) {
          std::fprintf(stderr, "fpgadbg: invalid --log-level '%s' (want "
                       "debug|info|warn|error|off)\n", value.c_str());
          return kUsageExit;
        }
        level = *parsed;
      } else {
        if (value == "json") {
          set_log_format(LogFormat::kJson);
        } else if (value == "text") {
          set_log_format(LogFormat::kText);
        } else {
          std::fprintf(stderr, "fpgadbg: invalid --log-format '%s' (want "
                       "text|json)\n", value.c_str());
          return kUsageExit;
        }
      }
      continue;
    }
    rest.push_back(t);
  }
  set_log_level(level);
  if (rest.empty()) return usage();

  if (!trace_path.empty()) telemetry::start_tracing();

  if (introspect) {
    const support::Status started = start_introspect(introspect_port);
    if (!started.ok()) {
      std::fprintf(stderr, "fpgadbg: %s\n", started.to_string().c_str());
      return support::status_code_exit_code(started.code());
    }
  }

  const std::string command = rest[0];
  Args args = parse(rest, 1);
  args.cache_dir = cache_dir;
  args.journal_path = journal_path;

  // Every subcommand reports failure as a Result; stray exceptions from
  // deeper layers are converted to a Status here, so nothing escapes main.
  support::Result<int> result = kUsageExit;
  try {
    if (command == "stats") {
      result = cmd_stats(args);
    } else if (command == "instrument") {
      result = cmd_instrument(args);
    } else if (command == "map") {
      result = cmd_map(args);
    } else if (command == "flow") {
      result = cmd_flow(args);
    } else if (command == "profile") {
      result = cmd_profile(args);
    } else if (command == "gen") {
      result = cmd_gen(args);
    } else if (command == "export") {
      result = cmd_export(args);
    } else if (command == "cache") {
      result = cmd_cache(args);
    } else if (command == "report") {
      result = cmd_report(args);
    } else if (command == "benchdiff") {
      result = cmd_benchdiff(args);
    } else {
      result = usage();
    }
  } catch (...) {
    result = support::status_from_current_exception();
  }

  int code;
  if (result.ok()) {
    code = result.value();
  } else {
    // One structured line: `fpgadbg: code=<name> [stage=...]: <message>`.
    std::fprintf(stderr, "fpgadbg: %s\n",
                 result.status().to_string().c_str());
    code = support::status_code_exit_code(result.status().code());
  }

  // Linger: keep the introspection server answering scrapes after the
  // command body finished (scripts use this to curl a short-lived run; a
  // GET /quitz ends the wait early).  The server is stopped before the
  // telemetry artifacts are written so file output reflects final state.
  if (g_introspect) {
    if (g_introspect_linger > 0.0) {
      std::fprintf(stderr,
                   "fpgadbg: introspect: lingering %.0f s on %s:%d "
                   "(GET /quitz to stop)\n",
                   g_introspect_linger, g_introspect->bind_address().c_str(),
                   g_introspect->port());
      g_introspect->wait_quit(g_introspect_linger);
    }
    g_introspect.reset();
  }

  // Telemetry artifacts are written even when the command failed: a partial
  // timeline of a crashed run is exactly what one wants to look at.
  if (!trace_path.empty()) {
    telemetry::stop_tracing();
    if (!telemetry::write_chrome_trace_file(trace_path)) {
      std::fprintf(stderr, "fpgadbg: cannot write trace file %s\n",
                   trace_path.c_str());
      if (code == 0) code = 1;
    }
  }
  if (!metrics_path.empty()) {
    if (!telemetry::metrics().write_json_file(metrics_path)) {
      std::fprintf(stderr, "fpgadbg: cannot write metrics file %s\n",
                   metrics_path.c_str());
      if (code == 0) code = 1;
    }
  }
  if (!prom_path.empty()) {
    if (!telemetry::metrics().write_prometheus_file(prom_path)) {
      std::fprintf(stderr, "fpgadbg: cannot write prometheus file %s\n",
                   prom_path.c_str());
      if (code == 0) code = 1;
    }
  }
  return code;
}
