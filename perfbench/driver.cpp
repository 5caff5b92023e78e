// perfbench_driver: the fpgadbg end-to-end benchmark program.
//
// One process measures the paper's two user-visible paths on paper-scale
// circuits (a stereov-class and a diffeq2-class design from genbench):
//
//   offline  compile: instrument -> tcon-map -> pack -> place -> route ->
//            pconf-build through flow::Pipeline, cold and warm;
//   online   debug turns: DebugSession::observe (SCG, frame diff, DUT
//            retarget), then emulation: interactive trace windows through
//            DebugSession::run and a batched scenario campaign.
//
// Every workload runs all four phases (compile, debug, interactive,
// campaign) so that it can print every end-to-end metric; the workload
// decides which phase gets the measuring time.  The other phases run a fixed
// minimum.  Every workload measures the compile path with one cold compile
// and warm re-runs per round.  See README.md for the workloads and the
// metric map.
//
// Usage:
//   perfbench_driver --workload debug|emulate --seed N --seconds S
//                    --trace 0|1 [--out DIR] [--short]
//
// The last line of stdout is the result object.  The exit code is 0 when
// every correctness check passed, 1 when one failed, 2 on bad arguments and
// 3 when the run could not complete.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bitstream/builder.h"
#include "debug/scenario_batch.h"
#include "debug/session.h"
#include "flow/artifacts.h"
#include "flow/pipeline.h"
#include "genbench/genbench.h"
#include "map/mappers.h"
#include "pnr/nets.h"
#include "pnr/pack.h"
#include "pnr/place.h"
#include "pnr/route.h"
#include "sim/batch_simulator.h"
#include "sim/simulator.h"
#include "sim/trigger.h"
#include "support/log.h"
#include "support/stopwatch.h"
#include "support/telemetry.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace fpgadbg;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// A paper circuit class and the fixed channel width it routes at (VPR's
/// fixed-W method; the library default W=32 does not route these).  At W=48
/// six of 80 stereov-class seeds stay unrouted after 40 iterations; W=64
/// routes all 80 in at most 9.  diffeq2-class routes every seed tried at
/// W=96 in at most 10.
struct DesignClass {
  const char* name;
  int channel_width;
  std::uint64_t salt;
};
constexpr DesignClass kDesigns[] = {{"stereov", 64, 0x5731},
                                    {"diffeq2", 96, 0xd1f2}};
constexpr std::size_t kDebugDesign = 1;  // diffeq2-class

constexpr int kTurnsPerEpisode = 8;  // one reselect + seven sweeps
constexpr std::size_t kRounds = 4;
constexpr std::size_t kWarmRuns = 3;  ///< minimum warm re-runs per round
/// Emulation traffic follows the repository's own documented use.  A window
/// is `fpgadbg profile`'s default of 256 emulated cycles per debug turn, with
/// uniform random input bits as there; it runs through DebugSession::run
/// under an all-'x' trigger whose post-trigger span covers the window, the
/// pattern bench_runtime_overhead times, so every window runs exactly
/// kWindowCycles cycles into the session's default 1024-sample trace.
constexpr std::size_t kWindowCycles = 256;
constexpr std::size_t kStimulusRows = 4096;
/// A campaign is the ScenarioBatchOptions default and the README example
/// (4096 scenarios x 256 cycles: 64 scenario blocks, one pass at the default
/// 64 blocks per pass), with `fpgadbg profile`'s 2 auto-faults.
constexpr std::size_t kCampaignScenarios = 4096;
constexpr std::size_t kCampaignCycles = 256;
constexpr std::size_t kCampaignFaults = 2;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Rng {
  std::uint64_t state;
  std::uint64_t next() { return state = splitmix64(state); }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % static_cast<std::uint64_t>(n));
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool short_mode = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

/// Online CPUs this process may run on (what `nproc` prints).
int nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (numpy's default); NaN on no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Registry counter read: deltas around a call give its work counts.
std::uint64_t counter(const char* name) {
  return telemetry::metrics().counter(name).value();
}

// ---------------------------------------------------------------------------
// Outcome and report
// ---------------------------------------------------------------------------

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  // first few, for stderr

  /// One operation attempted; `ok` says whether all of its checks passed.
  bool record(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
    return ok;
  }
};

struct Metric {
  double value;
  std::string unit;
  std::size_t samples;  ///< 0 for a value computed from counts
  const char* clock;    ///< "host", "modelled" or "count"
};
using Metrics = std::map<std::string, Metric>;

void put(Metrics& m, const std::string& name, double value, const char* unit,
         std::size_t samples, const char* clock) {
  m[name] = Metric{value, unit, samples, clock};
}

// ---------------------------------------------------------------------------
// Budgets
// ---------------------------------------------------------------------------

/// A pass runs its phases in rounds, interleaved, so that a slow spell of a
/// shared host falls on every phase alike instead of on whichever phase ran
/// during it.
struct Round {
  std::size_t index = 0;
  std::size_t of = 1;
};

/// How much of a phase a pass runs: by the end of round r of n, at least
/// ceil(min * (r+1)/n) iterations and until the phase's time reaches
/// seconds * (r+1)/n; never more than `max` iterations.
struct Plan {
  double seconds = 0.0;
  std::size_t min = 0;
  std::size_t max = static_cast<std::size_t>(-1);

  bool more(std::size_t done, double spent, const Round& r) const {
    if (done >= max) return false;
    const double share =
        static_cast<double>(r.index + 1) / static_cast<double>(r.of);
    return static_cast<double>(done) <
               std::ceil(static_cast<double>(min) * share) ||
           spent < seconds * share;
  }
  static Plan exactly(std::size_t n) { return Plan{0.0, n, n}; }
};

// ---------------------------------------------------------------------------
// Shared state of one run
// ---------------------------------------------------------------------------

/// What the run's first cold compile fixed: exact per-seed results, and the
/// stage hashes every later compile of the same circuits must repeat.
struct DesignFacts {
  double clbs = 0, wirelength = 0, fmax_mhz = 0;
  std::map<std::string, double> counts;
  std::vector<std::vector<std::uint64_t>> hashes;  // per design, empty = unset
};

struct Run {
  Args args;
  int threads = 1;
  Tracer tracer{false};
  Outcome outcome;
  std::vector<netlist::Netlist> circuits;  // one per kDesigns entry
  DesignFacts facts;
  std::string cache_root;
  std::string setup_cache;  ///< filled by the kept set-up's cold compile
  std::size_t cache_serial = 0;

  debug::OfflineOptions options(std::size_t design,
                                const std::string& cache_dir) const {
    debug::OfflineOptions o;
    o.compile.arch.channel_width = kDesigns[design].channel_width;
    o.compile.route.route_threads = threads;
    o.cache_dir = cache_dir;
    return o;
  }

  std::string fresh_cache_dir() {
    const std::string dir = cache_root + "/cache-" + std::to_string(getpid()) +
                            "-" + std::to_string(cache_serial++);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
  }

  Rng rng(std::uint64_t stream) const {
    return Rng{splitmix64(args.seed ^ splitmix64(stream))};
  }
};

void generate_circuits(Run& run) {
  run.circuits.clear();
  for (const DesignClass& d : kDesigns) {
    genbench::CircuitSpec spec = genbench::paper_benchmark(d.name);
    spec.seed = splitmix64(run.args.seed ^ d.salt);
    run.circuits.push_back(genbench::generate(spec));
  }
}

/// Runs the pipeline; nullopt (and a recorded failure) when it errors or the
/// design does not route.
std::optional<flow::PipelineResult> compile_design(Run& run,
                                                   std::size_t design,
                                                   const std::string& cache,
                                                   const char* span,
                                                   double* seconds,
                                                   std::int32_t* span_index) {
  const flow::Pipeline pipeline(run.options(design, cache));
  Tracer::Scope scope(run.tracer, span);
  auto result = pipeline.run(run.circuits[design]);
  const double s = scope.close();
  if (seconds != nullptr) *seconds = s;
  if (span_index != nullptr) *span_index = scope.index();
  const std::string what = std::string(span) + " " + kDesigns[design].name;
  if (!result.ok()) {
    run.outcome.record(false, what + ": " + result.status().to_string());
    return std::nullopt;
  }
  const auto& compiled = result.value().offline.compiled;
  if (!run.outcome.record(compiled && compiled->report.route_success,
                          what + ": design did not route")) {
    return std::nullopt;
  }
  return std::move(result).value();
}

// ---------------------------------------------------------------------------
// Compile phase
// ---------------------------------------------------------------------------

struct CompileStats {
  std::size_t iterations = 0;  ///< cold+warm iterations of the compile phase
  double spent = 0.0;          ///< their wall time
  std::vector<double> cold_s, warm_s;  // per compile of both designs
  /// Per cold compile, summed over both designs: direct layer-call times
  /// (traced pass only) and the pipeline's remainder.
  std::map<std::string, std::vector<double>> layer_s;
  std::vector<double> warm_load_s;
  std::uint64_t warm_hits = 0, warm_misses = 0, mmap_hits = 0,
                bytes_mapped = 0;
  std::size_t warm_runs = 0;
};

std::vector<std::uint64_t> stage_hashes(const flow::PipelineResult& r) {
  std::vector<std::uint64_t> out;
  for (const auto& s : r.stages) out.push_back(s.content_hash);
  return out;
}

template <typename T, typename Ser>
std::uint64_t stream_hash(const T& value, Ser ser) {
  flow::ByteWriter w;
  ser(value, w);
  return flow::fnv1a(w.take());
}

/// Re-executes one cold compile through each layer's own entry point (traced
/// pass only), checks every artifact equals the pipeline's and returns the
/// per-layer times.
std::vector<std::pair<const char*, double>> shadow_compile(
    Run& run, std::size_t design, const flow::PipelineResult& ref) {
  const debug::OfflineOptions opt = run.options(design, "");
  const pnr::CompileOptions& copt = opt.compile;
  Tracer& t = run.tracer;
  Tracer::Scope root(t, "shadow.compile");
  double inst_s = 0, map_s = 0, pack_s = 0, rr_s = 0, nets_s = 0, place_s = 0,
         route_s = 0, sta_s = 0, pconf_s = 0;

  const debug::Instrumented inst = t.timed("shadow.debug.instrument", &inst_s, [&] {
    return debug::parameterize_signals(run.circuits[design], opt.instrument);
  });
  const map::MapResult mapped = t.timed("shadow.map.tcon_map", &map_s, [&] {
    return map::tcon_map(inst.netlist, opt.lut_size, opt.max_param_leaves);
  });
  pnr::CompiledDesign d;
  d.netlist = mapped.netlist;
  d.packing = t.timed("shadow.pnr.pack", &pack_s,
                      [&] { return pnr::pack(d.netlist, copt.arch); });
  t.timed("shadow.arch.rr_graph", &rr_s, [&] {
    const auto min_clbs = std::max<std::size_t>(
        4, static_cast<std::size_t>(std::ceil(
               static_cast<double>(d.packing.num_clusters()) *
               copt.device_slack)));
    d.device = std::make_unique<arch::Device>(copt.arch, min_clbs);
    d.rr = std::make_unique<arch::RRGraph>(*d.device);
    d.frames = std::make_unique<arch::FrameGeometry>(*d.device, *d.rr);
  });
  d.nets = t.timed("shadow.pnr.extract_nets", &nets_s, [&] {
    return pnr::extract_nets(d.netlist, inst.trace_outputs);
  });
  d.placement = t.timed("shadow.pnr.place", &place_s, [&] {
    return pnr::place(d.netlist, d.packing, d.nets, *d.device, copt.place,
                      copt.timing);
  });
  d.routing = t.timed("shadow.pnr.route", &route_s, [&] {
    return pnr::route(*d.rr, d.netlist, d.packing, d.nets, d.placement,
                      copt.route, copt.timing);
  });
  t.timed("shadow.pnr.sta", &sta_s,
          [&] { pnr::finalize_timing(d, copt.timing); });
  bitstream::PconfBuildStats stats;
  const bitstream::PConf pconf = t.timed("shadow.bitstream.pconf_build", &pconf_s, [&] {
    bitstream::PConf p = bitstream::build_pconf(d, &stats);
    p.prepare_incremental();
    return p;
  });
  root.close();

  // Equality with the pipeline's artifacts (stream encoding on both sides).
  Tracer::Scope check(t, "bench.check");
  const debug::OfflineResult& o = ref.offline;
  const pnr::CompiledDesign& rc = *o.compiled;
  bool same =
      stream_hash(inst, flow::serialize_instrumented) ==
          stream_hash(o.instrumented, flow::serialize_instrumented) &&
      stream_hash(mapped, flow::serialize_map_result) ==
          stream_hash(o.mapping, flow::serialize_map_result) &&
      stream_hash(d.packing, flow::serialize_packing) ==
          stream_hash(rc.packing, flow::serialize_packing) &&
      stream_hash(d.placement, flow::serialize_placement) ==
          stream_hash(rc.placement, flow::serialize_placement) &&
      stream_hash(d.routing, flow::serialize_route_result) ==
          stream_hash(rc.routing, flow::serialize_route_result) &&
      d.report.max_frequency_mhz == rc.report.max_frequency_mhz &&
      pconf.constants() == o.pconf->constants() &&
      pconf.num_parameterized_bits() == o.pconf->num_parameterized_bits();
  if (same) {
    Rng rng = run.rng(0x5bad0 + design);
    std::unordered_map<std::string, bool> assignment;
    for (const std::string& p : pconf.param_names()) {
      assignment[p] = (rng.next() & 1) != 0;
    }
    same = pconf.specialize(assignment).memory ==
           o.pconf->specialize(assignment).memory;
  }
  run.outcome.record(same, std::string("direct layer calls differ from the "
                                       "pipeline on ") +
                               kDesigns[design].name);
  return {{"debug.instrument", inst_s}, {"map.tcon_map", map_s},
          {"pnr.pack", pack_s},         {"arch.rr_graph", rr_s},
          {"pnr.extract_nets", nets_s}, {"pnr.place", place_s},
          {"pnr.route", route_s},       {"pnr.sta", sta_s},
          {"bitstream.pconf_build", pconf_s}};
}

void record_design_counts(DesignFacts& st, std::size_t design,
                          const flow::PipelineResult& r,
                          const std::map<std::string, std::uint64_t>& delta) {
  const std::string sfx = std::string(".") + kDesigns[design].name;
  const debug::OfflineResult& o = r.offline;
  const auto& rep = o.compiled->report;
  auto& c = st.counts;
  c["map.luts" + sfx] = static_cast<double>(o.mapping.stats.num_luts);
  c["map.tluts" + sfx] = static_cast<double>(o.mapping.stats.num_tluts);
  c["map.tcons" + sfx] = static_cast<double>(o.mapping.stats.num_tcons);
  c["map.depth" + sfx] = o.mapping.stats.depth;
  const double cuts = static_cast<double>(delta.at("map.cuts_enumerated"));
  c["map.cuts_enumerated" + sfx] = cuts;
  c["map.cuts_kept_ratio" + sfx] =
      cuts > 0 ? static_cast<double>(delta.at("map.cuts_kept")) / cuts : 0.0;
  const double iters = static_cast<double>(delta.at("pnr.route.iterations"));
  c["pnr.route_iters" + sfx] = iters;
  c["pnr.route.heap_pops" + sfx] =
      static_cast<double>(delta.at("pnr.route.heap_pops"));
  const double attempts = iters * static_cast<double>(rep.nets);
  c["pnr.rerouted_net_ratio" + sfx] =
      attempts > 0
          ? static_cast<double>(delta.at("pnr.route.rerouted_nets")) / attempts
          : 0.0;
  c["bitstream.param_bits" + sfx] =
      static_cast<double>(o.pconf->num_parameterized_bits());
  st.clbs += static_cast<double>(rep.clbs_used);
  st.wirelength += static_cast<double>(rep.total_wirelength);
  st.fmax_mhz = st.fmax_mhz == 0 ? rep.max_frequency_mhz
                                 : std::min(st.fmax_mhz, rep.max_frequency_mhz);
}

constexpr const char* kCompileCounters[] = {
    "map.cuts_enumerated", "map.cuts_kept", "pnr.route.iterations",
    "pnr.route.heap_pops", "pnr.route.rerouted_nets"};

/// Cold-compiles both designs into `cache`, an empty directory.  Records the
/// sample (only when both route) and, when traced, re-executes each compile
/// through the layers' own entry points.  Returns the diffeq2-class result.
std::optional<flow::PipelineResult> cold_compile(Run& run,
                                                 const std::string& cache,
                                                 CompileStats& st) {
  std::optional<flow::PipelineResult> debug_design;
  std::map<std::string, double> layers;
  double total = 0.0, overhead = 0.0;
  bool all_ok = true;
  run.facts.hashes.resize(std::size(kDesigns));
  for (std::size_t d = 0; d < std::size(kDesigns); ++d) {
    std::map<std::string, std::uint64_t> before, delta;
    for (const char* c : kCompileCounters) before[c] = counter(c);
    double s = 0.0;
    std::int32_t span = -1;
    auto r = compile_design(run, d, cache, "flow.pipeline_cold", &s, &span);
    if (!r) {
      all_ok = false;
      continue;
    }
    for (const char* c : kCompileCounters) delta[c] = counter(c) - before[c];
    total += s;
    std::vector<std::uint64_t>& first = run.facts.hashes[d];
    if (first.empty()) {
      first = stage_hashes(*r);
      record_design_counts(run.facts, d, *r, delta);
    } else {
      run.outcome.record(stage_hashes(*r) == first,
                         std::string("stage hashes changed between cold "
                                     "compiles of ") +
                             kDesigns[d].name);
    }
    if (run.tracer.enabled()) {
      const auto parts = shadow_compile(run, d, *r);
      double direct = 0.0;
      for (const auto& [name, sec] : parts) {
        direct += sec;
        layers[name] += sec;
      }
      overhead += s - direct;
      run.tracer.add_derived(span, parts);
    }
    if (d == kDebugDesign) debug_design = std::move(r);
  }
  if (!all_ok) return std::nullopt;
  st.cold_s.push_back(total);
  if (run.tracer.enabled()) {
    for (const auto& [name, sec] : layers) st.layer_s[name].push_back(sec);
    st.layer_s["flow.cold_overhead"].push_back(overhead);
  }
  return debug_design;
}

/// Re-runs both designs against `cache`, which a cold compile filled: every
/// stage must load from the cache with the cold compile's content hash.
void warm_compiles(Run& run, const std::string& cache, CompileStats& st) {
  for (std::size_t w = 0; w < kWarmRuns; ++w) {
    double total = 0.0, load = 0.0;
    const std::uint64_t hits0 = counter("flow.cache.hits"),
                        miss0 = counter("flow.cache.misses"),
                        mmap0 = counter("flow.cache.mmap_hits"),
                        bytes0 = counter("flow.cache.bytes_mapped");
    bool ok = true;
    for (std::size_t d = 0; d < std::size(kDesigns); ++d) {
      double s = 0.0;
      auto warm =
          compile_design(run, d, cache, "flow.pipeline_warm", &s, nullptr);
      if (!warm) {
        ok = false;
        continue;
      }
      total += s;
      for (const auto& stage : warm->stages) load += stage.seconds;
      ok = run.outcome.record(
               warm->stages_executed == 0 &&
                   stage_hashes(*warm) == run.facts.hashes[d],
               std::string("warm re-run of ") + kDesigns[d].name +
                   " executed a stage or changed a hash") &&
           ok;
    }
    if (!ok) continue;
    st.warm_s.push_back(total);
    st.warm_load_s.push_back(load);
    st.warm_hits += counter("flow.cache.hits") - hits0;
    st.warm_misses += counter("flow.cache.misses") - miss0;
    st.mmap_hits += counter("flow.cache.mmap_hits") - mmap0;
    st.bytes_mapped += counter("flow.cache.bytes_mapped") - bytes0;
    ++st.warm_runs;
  }
}

/// Cold compiles, each into a fresh cache and followed by warm re-runs.  A
/// round without a cold compile re-runs against the set-up's cache.
void compile_phase(Run& run, const Plan& plan, const Round& round,
                   CompileStats& st) {
  bool cold_ran = false;
  while (plan.more(st.iterations, st.spent, round)) {
    Stopwatch sw;
    const std::string cache = run.tracer.timed(
        "bench.cache_dir", nullptr, [&] { return run.fresh_cache_dir(); });
    if (cold_compile(run, cache, st)) warm_compiles(run, cache, st);
    run.tracer.timed("bench.cache_dir", nullptr,
                     [&] { fs::remove_all(cache); });
    st.spent += sw.elapsed_seconds();
    ++st.iterations;
    cold_ran = true;
  }
  if (!cold_ran) warm_compiles(run, run.setup_cache, st);
}

// ---------------------------------------------------------------------------
// Debug phase
// ---------------------------------------------------------------------------

/// The signals a turn asks for: one candidate per lane from that lane's own
/// list, so a conflict-free assignment always exists.  A signal two lanes
/// picked is requested once.
std::vector<std::string> request_of(const debug::Instrumented& inst,
                                    const std::vector<std::size_t>& choice) {
  std::vector<std::string> req;
  std::set<std::string> seen;
  for (std::size_t l = 0; l < choice.size(); ++l) {
    const std::string& s = inst.lane_signals[l][choice[l]];
    if (seen.insert(s).second) req.push_back(s);
  }
  return req;
}

struct TurnLog {
  bool reselect;
  std::vector<std::string> request;
  std::size_t frames, bits_changed;
  double reconfig_s;
  std::uint64_t bits_reevaluated, bdd_nodes;
};

struct DebugStats {
  Rng rng{0};
  std::size_t episodes = 0;
  double spent = 0.0;
  std::vector<double> sweep_us, reselect_us;
  /// Traced pass: direct-call times per turn kind (index 0 sweep, 1
  /// reselect).
  std::vector<double> select_us[2], scg_us[2], diff_us[2], other_us[2];
  std::vector<TurnLog> prefix;  ///< the first turns, for exact counts
  std::uint64_t journal_dropped0 = 0, journal_dropped_prefix = 0;
  /// Traced pass: the direct-call SCG chain, one turn behind the session.
  std::optional<bitstream::PConf::Specialization> prev;
  std::unordered_map<std::string, bool> prev_a;
};

/// The debug session under test plus what the benchmark drives it with.
struct Session {
  const debug::OfflineResult* offline = nullptr;
  std::unique_ptr<debug::DebugSession> session;
  std::vector<std::size_t> choice;   ///< current pick per lane
  std::vector<std::string> request;  ///< what the last turn asked for
  /// Emulation stimulus, generated from the seed before anything is timed:
  /// kStimulusRows rows of one bit per primary input.
  std::vector<std::vector<bool>> stimulus;

  void open(const Run& run, const debug::OfflineResult& off) {
    offline = &off;
    session = std::make_unique<debug::DebugSession>(off);
    choice.assign(off.instrumented.lane_signals.size(), 0);
    request.clear();
    Rng rng = run.rng(0x57);
    stimulus.assign(kStimulusRows,
                    std::vector<bool>(off.mapping.netlist.inputs().size()));
    for (auto& row : stimulus) {
      for (std::size_t i = 0; i < row.size(); ++i) row[i] = (rng.next() & 1) != 0;
    }
  }
};

/// Replays the logged turns through a fresh incremental SCG chain, outside
/// any timed region: frames and bits per turn must match what the session
/// reported, and on every 8th turn the incremental result must equal a full
/// specialization of the same assignment.
void verify_turns(Run& run, const debug::OfflineResult& off,
                  const std::vector<TurnLog>& log) {
  const bitstream::PConf& pconf = *off.pconf;
  auto prev_a = off.instrumented.select_signals({});
  auto prev = pconf.specialize(prev_a);
  for (std::size_t i = 0; i < log.size(); ++i) {
    const auto a = off.instrumented.select_signals(log[i].request);
    auto spec = pconf.specialize_incremental(prev, prev_a, a);
    bool ok = prev.memory.changed_frames(spec.memory).size() == log[i].frames &&
              prev.memory.bit_distance(spec.memory) == log[i].bits_changed;
    if (ok && i % 8 == 0) ok = pconf.specialize(a).memory == spec.memory;
    run.outcome.record(ok, "turn " + std::to_string(i) +
                               ": incremental SCG disagrees with the replay");
    prev = std::move(spec);
    prev_a = a;
  }
}

void debug_phase(Run& run, Session& s, const Plan& plan, const Round& round,
                 std::size_t prefix_turns, DebugStats& st) {
  const debug::Instrumented& inst = s.offline->instrumented;
  const bitstream::PConf& pconf = *s.offline->pconf;
  const std::size_t lanes = inst.lane_signals.size();
  Rng& rng = st.rng;
  Tracer& t = run.tracer;
  auto& prev = st.prev;
  auto& prev_a = st.prev_a;

  if (st.episodes == 0) {
    st.journal_dropped0 = counter("debug.journal.dropped_events");
    if (t.enabled()) {
      // The direct-call chain starts where the session stands.
      prev_a = inst.select_signals(s.request);
      prev = pconf.specialize(prev_a);
    }
  }

  while (plan.more(st.episodes, st.spent, round)) {
    Stopwatch sw;
    for (int k = 0; k < kTurnsPerEpisode; ++k) {
      const bool reselect = k == 0;
      {
        Tracer::Scope choose(t, "bench.choose");
        if (reselect) {
          for (std::size_t l = 0; l < lanes; ++l) {
            s.choice[l] = rng.below(inst.lane_signals[l].size());
          }
        } else {
          const std::size_t l = rng.below(lanes);
          const std::size_t n = inst.lane_signals[l].size();
          if (n > 1) s.choice[l] = (s.choice[l] + 1 + rng.below(n - 1)) % n;
        }
        s.request = request_of(inst, s.choice);
      }
      const std::uint64_t bits0 = counter("scg.bits_reevaluated");
      const std::uint64_t bdd0 = counter("scg.bdd_nodes_visited");
      debug::TurnReport report;
      double turn_s = 0.0;
      std::int32_t span = -1;
      bool threw = false;
      {
        Tracer::Scope scope(t, "debug.observe");
        try {
          report = s.session->observe(s.request);
        } catch (const std::exception&) {
          threw = true;
        }
        turn_s = scope.close();
        span = scope.index();
      }
      const std::uint64_t bits = counter("scg.bits_reevaluated") - bits0;
      const std::uint64_t bdd = counter("scg.bdd_nodes_visited") - bdd0;
      {
        Tracer::Scope check(t, "bench.check");
        bool ok = !threw;
        if (ok) {
          const std::set<std::string> shown(report.observed.begin(),
                                            report.observed.end());
          for (const std::string& sig : s.request) ok = ok && shown.count(sig);
        }
        run.outcome.record(ok, "turn did not show every requested signal");
        if (!ok) continue;
      }
      (reselect ? st.reselect_us : st.sweep_us).push_back(turn_s * 1e6);
      if (st.prefix.size() < prefix_turns) {
        st.prefix.push_back(TurnLog{reselect, s.request,
                                    report.frames_reconfigured,
                                    report.bits_changed,
                                    report.reconfig_seconds, bits, bdd});
        if (st.prefix.size() == prefix_turns) {
          st.journal_dropped_prefix =
              counter("debug.journal.dropped_events") - st.journal_dropped0;
        }
      }
      if (t.enabled()) {
        // Direct calls to the layers observe() uses, to split its time.
        Tracer::Scope root(t, "shadow.turn");
        double sel = 0, scg = 0, diff = 0;
        const auto a = t.timed("shadow.debug.select", &sel, [&] {
          auto assignment = inst.select_signals(s.request);
          (void)inst.observed_under(assignment);
          return assignment;
        });
        auto spec = t.timed("shadow.bitstream.scg", &scg, [&] {
          return pconf.specialize_incremental(*prev, prev_a, a);
        });
        t.timed("shadow.bitstream.frame_diff", &diff, [&] {
          return prev->memory.changed_frames(spec.memory);
        });
        root.close();
        prev = std::move(spec);
        prev_a = a;
        const int kind = reselect ? 1 : 0;
        st.select_us[kind].push_back(sel * 1e6);
        st.scg_us[kind].push_back(scg * 1e6);
        st.diff_us[kind].push_back(diff * 1e6);
        st.other_us[kind].push_back((turn_s - sel - scg - diff) * 1e6);
        t.add_derived(span, {{"debug.select", sel},
                             {"bitstream.scg", scg},
                             {"bitstream.frame_diff", diff}});
      }
    }
    st.spent += sw.elapsed_seconds();
    ++st.episodes;
  }
}

// ---------------------------------------------------------------------------
// Emulation phase
// ---------------------------------------------------------------------------

struct EmulateStats {
  Rng rng{0};
  std::size_t windows = 0, campaigns = 0;
  std::uint64_t cycles = 0;
  double window_s = 0.0;  ///< wall time of the interactive windows
  double scenario_cycles = 0.0, campaign_s = 0.0;
  /// Per window: cycles/s; per campaign: scenario-cycles/s.
  std::vector<double> window_rates, campaign_rates;
  /// Compiled-engine work over the minimum number of windows (exact per
  /// seed).
  std::uint64_t evals0 = 0, skipped0 = 0;
  std::uint64_t prefix_cycles = 0, prefix_evals = 0, prefix_skipped = 0;
  // Traced pass, summed over cycles / campaigns.
  double step_s = 0, dut_s = 0, trigger_s = 0, stimulus_s = 0;
  std::vector<double> batch_eval_s, campaign_overhead_s;
};

/// The window's trace must equal what the instrumented (pre-mapping)
/// netlist shows on its trace outputs under the same parameters and
/// stimulus.  Runs outside any timed region.
bool window_matches_reference(const Session& s, std::size_t offset,
                              std::uint64_t cycles) {
  const debug::Instrumented& inst = s.offline->instrumented;
  const map::MappedNetlist& mn = s.offline->mapping.netlist;
  const netlist::Netlist& nl = inst.netlist;
  sim::NetlistSimulator ref(nl);
  const auto assignment = inst.select_signals(s.request);
  for (netlist::NodeId p : nl.params()) {
    const auto it = assignment.find(nl.name(p));
    ref.set_param(p, it != assignment.end() && it->second);
  }
  std::vector<std::size_t> lane_out;
  for (const std::string& name : inst.trace_outputs) {
    const auto& names = nl.output_names();
    lane_out.push_back(static_cast<std::size_t>(
        std::find(names.begin(), names.end(), name) - names.begin()));
  }
  const sim::TraceBuffer& trace = s.session->trace();
  const std::size_t kept = trace.samples_stored();
  for (std::uint64_t c = 0; c < cycles; ++c) {
    const auto& row = s.stimulus[(offset + c) % s.stimulus.size()];
    for (std::size_t i = 0; i < mn.inputs().size(); ++i) {
      ref.set_input(mn.cell(mn.inputs()[i]).name, row[i]);
    }
    ref.eval();
    const std::uint64_t age = cycles - 1 - c;
    if (age < kept) {
      const BitVec& sample = trace.sample_back(static_cast<std::size_t>(age));
      for (std::size_t l = 0; l < lane_out.size(); ++l) {
        if (sample.get(l) != ref.output(lane_out[l])) return false;
      }
    }
    ref.step();
  }
  return kept == std::min<std::uint64_t>(cycles, trace.depth());
}

debug::ScenarioBatchOptions campaign_options(const Run& run,
                                             std::size_t faults) {
  debug::ScenarioBatchOptions o;
  o.scenarios = kCampaignScenarios;
  o.cycles = kCampaignCycles;
  o.seed = splitmix64(run.args.seed ^ 0xca4a);
  o.num_threads = 1;
  o.auto_faults = faults;
  return o;
}

void emulate_phase(Run& run, Session& s, const Plan& windows_plan,
                   const Plan& campaign_plan, const Round& round,
                   std::size_t prefix_windows, EmulateStats& st) {
  Tracer& t = run.tracer;
  const map::MappedNetlist& mn = s.offline->mapping.netlist;
  // Fires on the first sample; the post-trigger span covers the window.
  sim::Trigger trigger(std::string(s.session->num_lanes(), 'x'),
                       kWindowCycles);
  Rng& rng = st.rng;

  // Traced pass: a twin DUT with the same parameters, driven in lockstep,
  // gives the DUT's own time per cycle.
  std::optional<sim::MappedSimulator> twin;
  if (t.enabled()) {
    twin.emplace(mn, s.session->dut().backend());
    const auto assignment = s.offline->instrumented.select_signals(s.request);
    for (map::CellId p : mn.params()) {
      const auto it = assignment.find(mn.cell(p).name);
      twin->set_param(p, it != assignment.end() && it->second);
    }
  }

  if (st.windows == 0) {
    st.evals0 = counter("sim.evals");
    st.skipped0 = counter("sim.ops_skipped");
  }
  while (windows_plan.more(st.windows, st.window_s, round)) {
    const std::size_t offset = rng.below(s.stimulus.size());
    s.session->reset();
    trigger.reset();
    std::uint64_t cycles = 0;
    Stopwatch window;
    if (!t.enabled()) {
      const auto source = [&](std::uint64_t c) {
        return s.stimulus[(offset + c) % s.stimulus.size()];
      };
      cycles = s.session->run(trigger, source, kWindowCycles).first;
    } else {
      // The same window through the public per-cycle calls, each timed.
      twin->reset();
      for (std::uint64_t c = 0; c < kWindowCycles; ++c) {
        const std::vector<bool> in = t.timed("bench.stimulus", &st.stimulus_s, [&] {
          return s.stimulus[(offset + c) % s.stimulus.size()];
        });
        Tracer::Scope step(t, "debug.step");
        const BitVec& sample = s.session->step(in);
        st.step_s += step.close();
        double dut = 0.0;
        t.timed("shadow.sim.dut", &dut, [&] {
          twin->set_inputs(in);
          twin->eval();
          twin->step();
        });
        st.dut_s += dut;
        t.add_derived(step.index(), {{"sim.dut", dut}});
        ++cycles;
        if (!t.timed("sim.trigger", &st.trigger_s,
                     [&] { return trigger.observe(sample); })) {
          break;
        }
      }
    }
    const double window_s = window.elapsed_seconds();
    st.window_s += window_s;
    st.cycles += cycles;
    st.window_rates.push_back(static_cast<double>(cycles) / window_s);
    if (st.windows % 8 == 0) {
      Tracer::Scope check(t, "bench.check");
      run.outcome.record(window_matches_reference(s, offset, cycles),
                         "trace window differs from the netlist reference");
    }
    ++st.windows;
    if (st.windows == prefix_windows) {
      st.prefix_cycles = st.cycles;
      st.prefix_evals = counter("sim.evals") - st.evals0;
      st.prefix_skipped = counter("sim.ops_skipped") - st.skipped0;
    }
  }

  const debug::ScenarioBatchOptions opts =
      campaign_options(run, kCampaignFaults);
  std::optional<debug::ScenarioBatchResult> clean;
  std::optional<sim::BatchSimulator> batch;
  while (campaign_plan.more(st.campaigns, st.campaign_s, round)) {
    std::int32_t span = -1;
    double secs = 0.0;
    debug::ScenarioBatchResult r;
    {
      Tracer::Scope scope(t, "debug.campaign");
      r = s.session->run_scenario_batch(opts);
      secs = scope.close();
      span = scope.index();
    }
    st.campaign_s += secs;
    const double scenario_cycles =
        static_cast<double>(r.scenarios) * static_cast<double>(r.cycles);
    st.scenario_cycles += scenario_cycles;
    st.campaign_rates.push_back(scenario_cycles / secs);
    if (st.campaigns == 0) {
      Tracer::Scope check(t, "bench.check");
      clean = s.session->run_scenario_batch(campaign_options(run, 0));
      std::vector<std::size_t> expect;  // auto-fault i hits scenario 2i+1
      for (std::size_t i = 0; i < kCampaignFaults; ++i) expect.push_back(2 * i + 1);
      run.outcome.record(debug::diverging_scenarios(r, *clean) == expect,
                         "campaign diverges on other than the faulted "
                         "scenarios");
    }
    if (t.enabled()) {
      // The same stimulus straight into the batch engine (fault-free).
      Tracer::Scope root(t, "shadow.campaign");
      if (!batch) {
        sim::BatchSimOptions bo;
        bo.blocks = std::min(sim::default_batch_blocks(),
                             r.scenarios / sim::BatchSimulator::kLanesPerBlock);
        bo.num_threads = 1;
        batch.emplace(mn, bo);
      }
      const sim::SimProgram& prog = batch->program();
      const std::size_t blocks = r.scenarios / sim::BatchSimulator::kLanesPerBlock;
      double eval = 0.0;
      for (std::size_t b0 = 0; b0 < blocks; b0 += batch->blocks()) {
        batch->reset();
        const std::size_t valid = std::min(batch->blocks(), blocks - b0);
        for (std::uint64_t c = 0; c < opts.cycles; ++c) {
          t.timed("shadow.bench.stimulus", nullptr, [&] {
            for (std::size_t i = 0; i < prog.inputs.size(); ++i) {
              for (std::size_t b = 0; b < valid; ++b) {
                batch->set_input_word(
                    prog.inputs[i], b,
                    debug::scenario_stimulus_word(opts.seed, i, c, b0 + b));
              }
            }
          });
          t.timed("shadow.sim.batch_step", &eval, [&] { batch->step(); });
        }
      }
      root.close();
      st.batch_eval_s.push_back(eval);
      st.campaign_overhead_s.push_back(secs - eval);
      t.add_derived(span, {{"sim.batch_eval", eval}});
    }
    ++st.campaigns;
  }
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Budgets {
  Plan compile, debug, windows, campaigns;
};

/// Every workload runs every phase; the named one gets the measuring time,
/// the others their minimum (enough samples for each metric they print).
/// Each round makes one cold compile, so the compile_cold_s samples are
/// spread over the pass like every other phase's.  A traced run makes two
/// passes, so each gets half the time and two cold compiles, which keeps the
/// run within its time limit.
Budgets budgets_for(const Args& a) {
  const std::size_t min_cold = a.short_mode ? 1 : a.trace ? 2 : kRounds;
  const double seconds = a.trace ? a.seconds / 2 : a.seconds;
  const std::size_t min_episodes = a.short_mode ? 4 : 100;
  const std::size_t min_windows = a.short_mode ? 4 : 150;
  const std::size_t min_campaigns = a.short_mode ? 2 : 16;
  Budgets b{Plan{0.0, min_cold}, Plan{0.0, min_episodes},
            Plan{0.0, min_windows}, Plan{0.0, min_campaigns}};
  if (a.workload == "debug") {
    b.debug.seconds = seconds;
  } else {
    b.windows.seconds = seconds / 2;
    b.campaigns.seconds = seconds / 2;
  }
  return b;
}

struct PassResult {
  CompileStats compile;
  DebugStats debug;
  EmulateStats emulate;
  double wall_s = 0.0;
  /// Summed duration of the library calls the pass times: cold and warm
  /// compiles, turns, windows and campaigns.
  double call_s = 0.0;
};

/// Set-up: generate both circuits, cold-compile both into a fresh cache and
/// open the session on the diffeq2-class design.  Returns false when a design
/// did not compile.
bool set_up(Run& run, Session& s, std::unique_ptr<flow::PipelineResult>& owned,
            CompileStats& st, double* generate_s) {
  Stopwatch sw;
  generate_circuits(run);
  *generate_s = sw.elapsed_seconds();
  s.session.reset();
  owned.reset();
  if (!run.setup_cache.empty()) fs::remove_all(run.setup_cache);
  run.setup_cache = run.fresh_cache_dir();
  auto r = cold_compile(run, run.setup_cache, st);
  if (!r) return false;
  owned = std::make_unique<flow::PipelineResult>(std::move(*r));
  s.open(run, owned->offline);
  return true;
}

/// The timed phases, interleaved over `rounds` rounds.  Counts that must
/// repeat exactly for a seed cover the first `prefix_turns` turns and
/// `prefix_windows` windows.
PassResult run_pass(Run& run, Session& s, const Budgets& b, std::size_t rounds,
                    std::size_t prefix_turns, std::size_t prefix_windows) {
  PassResult p;
  p.debug.rng = run.rng(0xde6);
  p.emulate.rng = run.rng(0x3d0);
  Stopwatch wall;
  for (Round r{0, rounds}; r.index < rounds; ++r.index) {
    compile_phase(run, b.compile, r, p.compile);
    debug_phase(run, s, b.debug, r, prefix_turns, p.debug);
    emulate_phase(run, s, b.windows, b.campaigns, r, prefix_windows,
                  p.emulate);
  }
  p.wall_s = wall.elapsed_seconds();
  double turn_us = 0.0;
  for (double us : p.debug.sweep_us) turn_us += us;
  for (double us : p.debug.reselect_us) turn_us += us;
  for (double sec : p.compile.cold_s) p.call_s += sec;
  for (double sec : p.compile.warm_s) p.call_s += sec;
  p.call_s += turn_us * 1e-6 + p.emulate.window_s + p.emulate.campaign_s;
  return p;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

Metrics end_to_end(const Run& run, const PassResult& p,
                   const std::vector<double>& setups) {
  Metrics m;
  put(m, "setup_s", median(setups), "s", setups.size(), "host");
  put(m, "peak_rss_mb", peak_rss_mb(), "MB", 1, "host");
  const CompileStats& c = p.compile;
  put(m, "compile_cold_s", quantile(c.cold_s, 0.9), "s", c.cold_s.size(),
      "host");
  put(m, "compile_warm_s", median(c.warm_s), "s", c.warm_s.size(), "host");
  const DesignFacts& f = run.facts;
  put(m, "clbs_used", f.clbs, "count", 0, "modelled");
  put(m, "wirelength", f.wirelength, "count", 0, "modelled");
  put(m, "fmax_mhz", f.fmax_mhz, "MHz", 0, "modelled");
  const DebugStats& d = p.debug;
  put(m, "turn_sweep_p50_us", quantile(d.sweep_us, 0.5), "us",
      d.sweep_us.size(), "host");
  put(m, "turn_sweep_p90_us", quantile(d.sweep_us, 0.9), "us",
      d.sweep_us.size(), "host");
  put(m, "turn_reselect_p50_us", quantile(d.reselect_us, 0.5), "us",
      d.reselect_us.size(), "host");
  put(m, "turn_reselect_p90_us", quantile(d.reselect_us, 0.9), "us",
      d.reselect_us.size(), "host");
  std::vector<double> frames;
  for (const TurnLog& t : d.prefix) frames.push_back(static_cast<double>(t.frames));
  put(m, "dpr_frames_per_turn", mean(frames), "frames", frames.size(),
      "modelled");
  const EmulateStats& e = p.emulate;
  // p90 time per window and per campaign, given as the rate it sustains.
  put(m, "emu_cycles_per_s", quantile(e.window_rates, 0.1), "1/s",
      e.window_rates.size(), "host");
  put(m, "campaign_scenario_cycles_per_s", quantile(e.campaign_rates, 0.1),
      "1/s", e.campaign_rates.size(), "host");
  return m;
}

/// Layers whose self time the traced run reports (the modules the
/// benchmark calls, plus its own harness work and the shadow re-executions).
constexpr const char* kLayers[] = {"flow", "debug", "map",   "pnr",   "arch",
                                   "bitstream", "sim", "bench", "shadow"};

/// How the traced run's layer times add up (see per_layer).
struct Reconcile {
  double identity_residual = 0.0;
  double library_s = 0.0;        ///< traced self time of the library layers
  double untraced_call_s = 0.0;  ///< the same calls timed untraced
};

Metrics per_layer(const Run& run, const Session& s, const PassResult& base,
                  const PassResult& traced, const std::vector<double>& gen,
                  std::size_t trace_first, Reconcile* rec) {
  Metrics m;
  put(m, "genbench.generate_s", median(gen), "s", gen.size(), "host");

  // Compile: direct layer calls, per cold iteration over both designs.
  const CompileStats& tc = traced.compile;
  for (const char* name :
       {"debug.instrument", "map.tcon_map", "pnr.pack", "arch.rr_graph",
        "pnr.extract_nets", "pnr.place", "pnr.route", "pnr.sta",
        "bitstream.pconf_build", "flow.cold_overhead"}) {
    const auto it = tc.layer_s.find(name);
    const std::vector<double> v = it == tc.layer_s.end() ? std::vector<double>{}
                                                         : it->second;
    put(m, std::string(name) + "_s", median(v), "s", v.size(), "host");
  }
  const CompileStats& bc = base.compile;
  for (const auto& [name, value] : run.facts.counts) {
    put(m, name, value, name.find("ratio") != std::string::npos ? "ratio" : "count",
        0, "count");
  }
  put(m, "flow.warm_load_s", median(bc.warm_load_s), "s", bc.warm_load_s.size(),
      "host");
  const double lookups = static_cast<double>(bc.warm_hits + bc.warm_misses);
  put(m, "flow.cache_hit_ratio",
      lookups > 0 ? static_cast<double>(bc.warm_hits) / lookups : 0.0, "ratio",
      0, "count");
  const double runs = static_cast<double>(std::max<std::size_t>(1, bc.warm_runs));
  put(m, "flow.mmap_hits", static_cast<double>(bc.mmap_hits) / runs, "count", 0,
      "count");
  put(m, "flow.bytes_mapped", static_cast<double>(bc.bytes_mapped) / runs,
      "bytes", 0, "count");

  // Debug turns: direct-call times from the traced pass, counts from the
  // untraced pass's fixed prefix of turns.
  const DebugStats& td = traced.debug;
  const char* kinds[] = {"sweep", "reselect"};
  for (int k = 0; k < 2; ++k) {
    const std::string sfx = std::string(".") + kinds[k];
    put(m, "debug.select_us" + sfx, median(td.select_us[k]), "us",
        td.select_us[k].size(), "host");
    put(m, "bitstream.scg_us" + sfx, median(td.scg_us[k]), "us",
        td.scg_us[k].size(), "host");
    put(m, "bitstream.frame_diff_us" + sfx, median(td.diff_us[k]), "us",
        td.diff_us[k].size(), "host");
    put(m, "debug.session_other_us" + sfx, median(td.other_us[k]), "us",
        td.other_us[k].size(), "host");
    double n = 0, bits = 0, bdd = 0, changed = 0;
    for (const TurnLog& t : base.debug.prefix) {
      if (t.reselect != (k == 1)) continue;
      n += 1;
      bits += static_cast<double>(t.bits_reevaluated);
      bdd += static_cast<double>(t.bdd_nodes);
      changed += static_cast<double>(t.bits_changed);
    }
    put(m, "bitstream.bits_reevaluated_per_turn" + sfx, n > 0 ? bits / n : 0,
        "count", 0, "count");
    put(m, "logic.bdd_nodes_visited_per_turn" + sfx, n > 0 ? bdd / n : 0,
        "count", 0, "count");
    put(m, "bitstream.useful_bit_ratio" + sfx, bits > 0 ? changed / bits : 0,
        "ratio", 0, "count");
  }
  put(m, "bitstream.scg_reselect_p90_us", quantile(td.scg_us[1], 0.9), "us",
      td.scg_us[1].size(), "host");
  std::vector<double> dpr;
  for (const TurnLog& t : base.debug.prefix) dpr.push_back(t.reconfig_s * 1e3);
  put(m, "bitstream.modelled_dpr_ms_per_turn", mean(dpr), "ms", dpr.size(),
      "modelled");
  put(m, "debug.journal.dropped_events",
      static_cast<double>(base.debug.journal_dropped_prefix), "count", 0,
      "count");

  // Emulation: per cycle over the traced pass's windows.
  const EmulateStats& te = traced.emulate;
  const double cyc = static_cast<double>(std::max<std::uint64_t>(1, te.cycles));
  put(m, "sim.dut_eval_ns_per_cycle", te.dut_s / cyc * 1e9, "ns", te.cycles,
      "host");
  put(m, "debug.step_overhead_ns_per_cycle", (te.step_s - te.dut_s) / cyc * 1e9,
      "ns", te.cycles, "host");
  put(m, "sim.trigger_ns_per_cycle", te.trigger_s / cyc * 1e9, "ns", te.cycles,
      "host");
  put(m, "bench.stimulus_ns_per_cycle", te.stimulus_s / cyc * 1e9, "ns",
      te.cycles, "host");
  put(m, "sim.batch_eval_s", median(te.batch_eval_s), "s",
      te.batch_eval_s.size(), "host");
  put(m, "debug.scenario_overhead_s", median(te.campaign_overhead_s), "s",
      te.campaign_overhead_s.size(), "host");
  const EmulateStats& be = base.emulate;
  const double base_cycles =
      static_cast<double>(std::max<std::uint64_t>(1, be.prefix_cycles));
  put(m, "sim.evals_per_cycle", static_cast<double>(be.prefix_evals) / base_cycles,
      "count", 0, "count");
  const sim::BatchSimulator probe(s.offline->mapping.netlist);
  const double op_evals = static_cast<double>(be.prefix_evals) *
                          static_cast<double>(probe.program().ops.size());
  put(m, "sim.ops_skipped_ratio",
      op_evals > 0 ? static_cast<double>(be.prefix_skipped) / op_evals : 0.0,
      "ratio", 0, "count");

  // Trace reconciliation.  Layer self times plus the unattributed rest sum
  // to the traced wall time by construction (identity_residual is rounding
  // only).  The independent check compares the self time of the library
  // layers (not the shadow re-executions or the harness) with the untraced
  // pass's own timings of the same calls.
  const SelfTimes self = run.tracer.self_times(trace_first);
  const double wall = traced.wall_s;
  double layered = 0.0, library = 0.0;
  for (const auto& [layer, sec] : self.by_layer) {
    layered += sec;
    if (layer != "shadow" && layer != "bench") library += sec;
  }
  const double unattributed = wall - self.covered;
  rec->identity_residual = (layered + unattributed - wall) / wall;
  rec->library_s = library;
  rec->untraced_call_s = base.call_s;
  put(m, "trace.unattributed_frac", unattributed / wall, "frac", 0, "host");
  put(m, "trace.overhead_frac", wall / base.wall_s - 1.0, "frac", 0, "host");
  for (const char* layer : kLayers) {
    const auto it = self.by_layer.find(layer);
    put(m, std::string("trace.self_frac.") + layer,
        it == self.by_layer.end() ? 0.0 : it->second / wall, "frac", 0, "host");
  }
  return m;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

bool parse_args(int argc, char** argv, Args* a) {
  bool have_w = false, have_seed = false, have_s = false, have_t = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--short") {
      a->short_mode = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a->workload = v;
        have_w = true;
      } else if (k == "--seed") {
        a->seed = std::stoull(v);
        have_seed = true;
      } else if (k == "--seconds") {
        a->seconds = std::stod(v);
        have_s = true;
      } else if (k == "--trace") {
        if (v != "0" && v != "1") return false;
        a->trace = v == "1";
        have_t = true;
      } else if (k == "--out") {
        a->out_dir = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  const bool known = a->workload == "debug" || a->workload == "emulate";
  return have_w && have_seed && have_s && have_t && known && a->seconds > 0;
}

int run_main(int argc, char** argv) {
  Run run;
  if (!parse_args(argc, argv, &run.args)) {
    std::cerr << "usage: perfbench_driver --workload debug|emulate "
                 "--seed N --seconds S --trace 0|1 [--out DIR] [--short]\n";
    return 2;
  }
  set_log_level(LogLevel::kWarn);
  run.threads = nproc();
  run.cache_root = run.args.out_dir + "/cache";
  fs::create_directories(run.cache_root);

  // Set-up, repeated; the last one is kept.  Its cold compiles time only
  // setup_s; compile_cold_s comes from the pass's own rounds.
  Session s;
  std::unique_ptr<flow::PipelineResult> owned;
  CompileStats setup_compiles;
  std::vector<double> setups, gen;
  const std::size_t repeats = run.args.short_mode ? 1 : 3;
  for (std::size_t i = 0; i < repeats; ++i) {
    Stopwatch sw;
    double g = 0.0;
    if (!set_up(run, s, owned, setup_compiles, &g)) break;
    setups.push_back(sw.elapsed_seconds());
    gen.push_back(g);
  }

  const Budgets budgets = budgets_for(run.args);
  const std::size_t prefix_turns = budgets.debug.min * kTurnsPerEpisode;
  const std::size_t prefix_windows = budgets.windows.min;
  PassResult base, traced;
  std::size_t trace_first = 0;
  Reconcile rec;
  const bool set_up_ok = setups.size() == repeats;
  if (set_up_ok) {
    base = run_pass(run, s, budgets, kRounds, prefix_turns, prefix_windows);
  }
  const bool ran = set_up_ok;
  if (ran) {
    verify_turns(run, *s.offline, base.debug.prefix);
    if (run.args.trace) {
      // The same work again, traced, in one round: counts pinned to the
      // untraced pass.
      const Budgets again{Plan::exactly(base.compile.iterations),
                          Plan::exactly(base.debug.episodes),
                          Plan::exactly(base.emulate.windows),
                          Plan::exactly(base.emulate.campaigns)};
      run.tracer.set_enabled(true);
      trace_first = run.tracer.mark();
      traced = run_pass(run, s, again, 1, prefix_turns, prefix_windows);
      run.tracer.set_enabled(false);
    }
  }

  Metrics metrics;
  if (ran) {
    metrics = run.args.trace ? per_layer(run, s, base, traced, gen, trace_first,
                                         &rec)
                             : end_to_end(run, base, setups);
  }

  // Provenance and per-metric detail, then the result as the last line.
  std::ostringstream prov;
  prov << "{\"provenance\": {\"workload\": " << json_string(run.args.workload)
       << ", \"seed\": " << run.args.seed
       << ", \"seconds\": " << json_number(run.args.seconds)
       << ", \"trace\": " << (run.args.trace ? 1 : 0)
       << ", \"short\": " << (run.args.short_mode ? "true" : "false")
       << ", \"channel_width\": {";
  for (std::size_t d = 0; d < std::size(kDesigns); ++d) {
    prov << (d ? ", " : "") << json_string(kDesigns[d].name) << ": "
         << kDesigns[d].channel_width;
  }
  prov << "}, \"nproc\": " << nproc() << ", \"router_threads\": " << run.threads
       << ", \"campaign_threads\": 1, \"build_type\": "
       << json_string(PERFBENCH_BUILD_TYPE) << ", \"sim_backend\": "
       << json_string(sim::to_string(sim::default_sim_backend()))
       << ", \"setup_repeats\": " << setups.size()
       << ", \"compile_iterations\": " << base.compile.iterations
       << ", \"debug_episodes\": " << base.debug.episodes
       << ", \"emulate_windows\": " << base.emulate.windows
       << ", \"campaigns\": " << base.emulate.campaigns;
  if (run.args.trace && ran) {
    prov << ", \"trace_wall_s\": " << json_number(traced.wall_s)
         << ", \"untraced_wall_s\": " << json_number(base.wall_s)
         << ", \"reconcile\": {\"identity_residual\": "
         << json_number(rec.identity_residual)
         << ", \"library_layers_s\": " << json_number(rec.library_s)
         << ", \"untraced_calls_s\": " << json_number(rec.untraced_call_s)
         << ", \"library_over_untraced\": "
         << json_number(rec.library_s / rec.untraced_call_s)
         << ", \"derived\": {";
    bool first_split = true;
    for (const auto& [name, n] : run.tracer.derived()) {
      prov << (first_split ? "" : ", ") << json_string(name)
           << ": {\"splits\": " << n.splits << ", \"scaled\": " << n.scaled
           << "}";
      first_split = false;
    }
    prov << "}}"
         << ", \"spans\": " << run.tracer.spans().size();
  }
  prov << "}}";
  std::cout << prov.str() << "\n";

  std::ostringstream details;
  details << "{\"details\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    details << (first ? "" : ", ") << json_string(name)
            << ": {\"samples\": " << metric.samples
            << ", \"clock\": " << json_string(metric.clock) << "}";
    first = false;
  }
  details << "}}";
  std::cout << details.str() << "\n";

  if (run.args.trace && ran) {
    const std::string path = run.args.out_dir + "/trace-" + run.args.workload +
                             "-" + std::to_string(run.args.seed) + ".json";
    if (!run.tracer.write_chrome_trace(path, 200000)) {
      std::cerr << "perfbench: cannot write " << path << "\n";
    }
  }
  for (const std::string& f : run.outcome.failures) {
    std::cerr << "perfbench: check failed: " << f << "\n";
  }

  const bool correct = ran && run.outcome.failed == 0;
  std::ostringstream result;
  result << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << std::max<std::size_t>(1, run.outcome.attempted)
         << ", \"failed\": " << run.outcome.failed << ", \"metrics\": {";
  first = true;
  for (const auto& [name, metric] : metrics) {
    result << (first ? "" : ", ") << json_string(name)
           << ": {\"value\": " << json_number(metric.value)
           << ", \"unit\": " << json_string(metric.unit) << "}";
    first = false;
  }
  result << "}}";
  std::cout << result.str() << std::endl;
  fs::remove_all(run.cache_root);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 3;
  }
}
