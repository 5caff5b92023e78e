#include "flow/pipeline.h"

#include <exception>
#include <optional>
#include <utility>

#include "bitstream/builder.h"
#include "flow/artifacts.h"
#include "map/mappers.h"
#include "pnr/nets.h"
#include "pnr/pack.h"
#include "pnr/place.h"
#include "pnr/route.h"
#include "support/log.h"
#include "support/stopwatch.h"
#include "support/telemetry.h"

namespace fpgadbg::flow {

namespace {

using support::Result;
using support::Status;

std::uint64_t stage_key(const char* name, std::uint64_t input_hash,
                        std::uint64_t options_hash) {
  return hash_combine(hash_combine(fnv1a(std::string_view(name)), input_hash),
                      options_hash);
}

/// Converts a legacy CAD-library exception escaping a stage into a Status.
Status status_from_exception(const char* stage) {
  return support::status_from_current_exception().with_stage(stage);
}

/// Book-keeping for one run() or compile() call: the cache, the stage
/// reports and live progress — one unit per stage, the current stage name in
/// both the /statusz marker and a /progressz note, and running cache
/// hit/miss telemetry so a scrape shows whether the call is recomputing or
/// replaying.
struct StageContext {
  StageContext(const ArtifactCache& store, std::uint64_t total_stages)
      : cache(store), progress("flow.pipeline") {
    progress.set_total(total_stages);
    // Join key against the trace/journal/logs: the enclosing span's trace id
    // (0 when neither --trace nor the span ring is active).
    if (const auto tctx = telemetry::current_trace_context(); tctx.active()) {
      progress.field("trace_id", static_cast<double>(tctx.trace_id));
    }
  }
  // Clears the /statusz marker on every exit path, including error returns.
  ~StageContext() { telemetry::set_current_stage(""); }

  const ArtifactCache& cache;
  telemetry::MetricsRegistry& metrics = telemetry::metrics();
  telemetry::ProgressReporter progress;
  std::vector<StageReport> reports;
  std::size_t executed = 0;
  std::size_t from_cache = 0;
};

/// Runs one cached stage: cache lookup, load on hit, execute + encode +
/// store on miss.  `exec` computes the artifact (may throw the legacy
/// exceptions), `encode(value)` produces its serialized bytes, and
/// `load(hit)` is its inverse over a CacheHit — returning nullopt when the
/// payload is a well-formed artifact of an unrecognized (newer/older blob)
/// format version, which re-executes the stage instead of misparsing.  The
/// hit's content hash was already verified against the payload by the
/// store, so it is reused for downstream key chaining without re-hashing.
/// On success *content_hash_out carries the artifact's content hash.
template <typename T, typename Exec, typename Encode, typename Load>
Result<T> run_stage(StageContext& ctx, const char* name, std::uint64_t key,
                    std::uint64_t* content_hash_out, Exec exec, Encode encode,
                    Load load) {
  Stopwatch timer;
  telemetry::set_current_stage(name);
  ctx.progress.note("stage", name);
  auto finish = [&](bool hit, std::uint64_t hash, std::size_t bytes) {
    ctx.reports.push_back(StageReport{name, hit, key, hash, timer.elapsed_seconds(),
                                      bytes});
    if (hit) {
      ++ctx.from_cache;
    } else {
      ++ctx.executed;
    }
    *content_hash_out = hash;
    ctx.progress.advance(ctx.reports.size());
    ctx.progress.field("cache_hits", static_cast<double>(ctx.from_cache));
    ctx.progress.field("cache_misses", static_cast<double>(ctx.executed));
  };

  auto loaded = ctx.cache.load(name, key);
  if (!loaded.ok()) {
    return Status(loaded.status()).with_stage(name);
  }
  if (loaded.value().has_value()) {
    const CacheHit& hit = *loaded.value();
    Result<std::optional<T>> value = load(hit);
    if (!value.ok()) {
      return Status(value.status()).with_stage(name, hit.content_hash);
    }
    if (value.value().has_value()) {
      finish(/*hit=*/true, hit.content_hash, hit.payload.size());
      return *std::move(value.value());
    }
    // Unrecognized format version: fall through and re-execute.
  }

  std::optional<T> value;
  try {
    value.emplace(exec());
  } catch (...) {
    return status_from_exception(name);
  }
  ctx.metrics.counter("flow.stage.executions").add();

  const std::string bytes = encode(*value);
  const std::uint64_t hash = fnv1a(bytes);
  Status stored = ctx.cache.store(name, key, hash, bytes);
  if (!stored.ok()) return stored.with_stage(name, hash);
  finish(/*hit=*/false, hash, bytes.size());
  return *std::move(value);
}

/// Adapts a `ser(value, writer)` stream serializer into an encode callback.
template <typename Ser>
auto stream_encode(Ser ser) {
  return [ser](const auto& value) {
    ByteWriter w;
    ser(value, w);
    return w.take();
  };
}

/// Adapts a `deser(reader)` stream deserializer into a load callback (the
/// stream format has no version fan-out, so it never returns nullopt).
template <typename T, typename Deser>
auto stream_load(Deser deser) {
  return [deser](const CacheHit& hit) -> Result<std::optional<T>> {
    ByteReader reader(hit.payload);
    FPGADBG_ASSIGN_OR_RETURN(T value, deser(reader));
    return std::optional<T>(std::move(value));
  };
}

/// Content hashes the physical stages chain into their keys; pconf-build
/// extends the chain.
struct PhysicalHashes {
  std::uint64_t physical = 0;  ///< (upstream, netlist, pack)
  std::uint64_t place = 0;
  std::uint64_t route = 0;
};

/// The physical flow behind both run() and compile(): pack, the device and
/// rr-graph, net extraction, place, route, the report and the routed STA.
/// `netlist_hash` is the content hash of `net` (the pack key's input);
/// `upstream_hash` covers the other input the net extraction reads, the
/// trace outputs.  Place and route consume the device and net extraction
/// too; both derive from (upstream, netlist, pack) plus options, so chaining
/// those three content hashes covers every input.
Result<pnr::CompiledDesign> run_physical(
    StageContext& ctx, const pnr::CompileOptions& copt,
    map::MappedNetlist net, const std::vector<std::string>& trace_outputs,
    std::uint64_t upstream_hash, std::uint64_t netlist_hash,
    PhysicalHashes& hashes) {
  telemetry::MetricsRegistry& m = ctx.metrics;
  pnr::CompiledDesign design;
  design.netlist = std::move(net);
  const map::MappedNetlist& nl = design.netlist;
  Stopwatch stage;

  // --- pack ----------------------------------------------------------------
  std::uint64_t pack_hash = 0;
  {
    telemetry::TraceScope span("pnr.pack");
    const std::uint64_t key =
        stage_key("pack", netlist_hash, hash_arch_params(copt.arch));
    FPGADBG_ASSIGN_OR_RETURN(
        design.packing,
        run_stage<pnr::Packing>(
            ctx, "pack", key, &pack_hash,
            [&] { return pnr::pack(nl, copt.arch); },
            stream_encode(serialize_packing),
            stream_load<pnr::Packing>(deserialize_packing)));
  }
  m.histogram("pnr.pack_seconds").observe(stage.elapsed_seconds());

  // Derived physical state: a deterministic, cheap function of the packing
  // size and the architecture options.  The rr-graph is the one big piece —
  // it is cached as a zero-copy blob keyed on (arch params, device size),
  // OUTSIDE the counted stages (it is derived state, not a pipeline stage,
  // and its key ignores the user design entirely so every same-sized
  // compile shares one entry).
  try {
    const std::size_t clbs = pnr::device_clbs(design.packing, copt.device_slack);
    design.device = std::make_unique<arch::Device>(copt.arch, clbs);
    const std::uint64_t rr_key =
        stage_key("rr-graph", hash_arch_params(copt.arch),
                  static_cast<std::uint64_t>(clbs));
    auto loaded = ctx.cache.load("rr-graph", rr_key);
    if (!loaded.ok()) return Status(loaded.status()).with_stage("pack");
    if (loaded.value().has_value()) {
      auto rr = load_rr_graph_blob(*design.device, *loaded.value());
      if (!rr.ok()) return Status(rr.status()).with_stage("pack");
      if (rr.value().has_value()) design.rr = std::move(*rr.value());
    }
    if (!design.rr) {
      design.rr = std::make_unique<arch::RRGraph>(*design.device);
      if (ctx.cache.enabled()) {
        const std::string bytes = encode_rr_graph_blob(*design.rr);
        Status stored =
            ctx.cache.store("rr-graph", rr_key, fnv1a(bytes), bytes);
        if (!stored.ok()) return stored.with_stage("pack");
      }
    }
    design.frames =
        std::make_unique<arch::FrameGeometry>(*design.device, *design.rr);
    LOG_INFO << "compile: " << design.device->describe() << ", "
             << design.packing.num_clusters() << " clusters";
    design.nets = pnr::extract_nets(nl, trace_outputs);
  } catch (...) {
    return status_from_exception("pack");
  }
  hashes.physical =
      hash_combine(hash_combine(upstream_hash, netlist_hash), pack_hash);

  // --- place ---------------------------------------------------------------
  stage.restart();
  {
    telemetry::TraceScope span("pnr.place");
    const std::uint64_t key =
        stage_key("place", hashes.physical, hash_place_options(copt));
    FPGADBG_ASSIGN_OR_RETURN(
        design.placement,
        run_stage<pnr::Placement>(
            ctx, "place", key, &hashes.place,
            [&] {
              return pnr::place(nl, design.packing, design.nets,
                                *design.device, copt.place, copt.timing);
            },
            stream_encode(serialize_placement),
            stream_load<pnr::Placement>(deserialize_placement)));
  }
  design.report.place_seconds =
      m.histogram("pnr.place_seconds").observe(stage.elapsed_seconds());

  // --- route ---------------------------------------------------------------
  stage.restart();
  {
    telemetry::TraceScope span("pnr.route");
    const std::uint64_t key =
        stage_key("route", hash_combine(hashes.physical, hashes.place),
                  hash_route_options(copt));
    FPGADBG_ASSIGN_OR_RETURN(
        design.routing,
        run_stage<pnr::RouteResult>(
            ctx, "route", key, &hashes.route,
            [&] {
              return pnr::route(*design.rr, nl, design.packing, design.nets,
                                design.placement, copt.route, copt.timing);
            },
            stream_encode(serialize_route_result),
            stream_load<pnr::RouteResult>(deserialize_route_result)));
  }
  design.report.route_seconds =
      m.histogram("pnr.route_seconds").observe(stage.elapsed_seconds());

  design.report.device = design.device->describe();
  design.report.clbs_used = design.packing.num_clusters();
  design.report.luts = nl.lut_area();
  design.report.tcons = nl.count(map::MKind::kTcon);
  design.report.nets = design.nets.nets.size();
  design.report.route_success = design.routing.success;
  design.report.route_iterations = design.routing.iterations;
  design.report.wire_nodes_used = design.routing.wire_nodes_used;
  design.report.total_wirelength = design.routing.total_wirelength;
  // Routed-fidelity STA runs on cache hits too: the route artifact stores
  // routes, not timing, and the analysis is far cheaper than a replay.
  try {
    pnr::finalize_timing(design, copt.timing);
  } catch (...) {
    return status_from_exception("route");
  }
  return design;
}

}  // namespace

const char* stage_name(StageId id) {
  switch (id) {
    case StageId::kInstrument: return "instrument";
    case StageId::kTconMap: return "tcon-map";
    case StageId::kPack: return "pack";
    case StageId::kPlace: return "place";
    case StageId::kRoute: return "route";
    case StageId::kPconfBuild: return "pconf-build";
  }
  return "unknown";
}

Pipeline::Pipeline(debug::OfflineOptions options)
    : options_(std::move(options)), cache_(options_.cache_dir) {}

Result<PipelineResult> Pipeline::run(const netlist::Netlist& user) const {
  telemetry::MetricsRegistry& m = telemetry::metrics();
  telemetry::TraceScope offline_span("debug.offline");
  StageContext ctx(cache_, /*total_stages=*/6);
  PipelineResult result;
  debug::OfflineResult& offline = result.offline;
  Stopwatch total;
  Stopwatch stage;

  const std::uint64_t user_hash = netlist_content_hash(user);

  // --- instrument ----------------------------------------------------------
  std::uint64_t instrument_hash = 0;
  {
    telemetry::TraceScope span("offline.instrument");
    const std::uint64_t key =
        stage_key("instrument", user_hash,
                  hash_instrument_options(options_.instrument));
    FPGADBG_ASSIGN_OR_RETURN(
        offline.instrumented,
        run_stage<debug::Instrumented>(
            ctx, "instrument", key, &instrument_hash,
            [&] { return parameterize_signals(user, options_.instrument); },
            stream_encode(serialize_instrumented),
            stream_load<debug::Instrumented>(deserialize_instrumented)));
  }
  offline.instrument_seconds =
      m.histogram("offline.instrument_seconds").observe(stage.elapsed_seconds());
  m.counter("instrument.observable_signals")
      .add(offline.instrumented.num_observable());
  m.counter("instrument.lanes").add(offline.instrumented.lane_signals.size());
  m.counter("instrument.parameters")
      .add(offline.instrumented.netlist.params().size());
  LOG_INFO << "offline: instrumented " << offline.instrumented.num_observable()
           << " signals over " << offline.instrumented.lane_signals.size()
           << " lanes, " << offline.instrumented.netlist.params().size()
           << " parameters";

  // --- tcon-map ------------------------------------------------------------
  std::uint64_t map_hash = 0;
  stage.restart();
  {
    telemetry::TraceScope span("offline.map");
    const std::uint64_t key =
        stage_key("tcon-map", instrument_hash,
                  hash_map_options(options_.lut_size, options_.max_param_leaves));
    FPGADBG_ASSIGN_OR_RETURN(
        offline.mapping,
        run_stage<map::MapResult>(
            ctx, "tcon-map", key, &map_hash,
            [&] {
              return map::tcon_map(offline.instrumented.netlist,
                                   options_.lut_size,
                                   options_.max_param_leaves);
            },
            encode_map_result_blob, load_map_result));
  }
  offline.map_seconds =
      m.histogram("offline.map_seconds").observe(stage.elapsed_seconds());
  LOG_INFO << "offline: mapped to " << offline.mapping.stats.num_luts
           << " LUTs + " << offline.mapping.stats.num_tluts << " TLUTs + "
           << offline.mapping.stats.num_tcons << " TCONs, depth "
           << offline.mapping.stats.depth;

  // --- pack -> place -> route ------------------------------------------------
  PhysicalHashes hashes;
  Stopwatch pnr_timer;
  {
    telemetry::TraceScope span("offline.pnr");
    FPGADBG_ASSIGN_OR_RETURN(
        pnr::CompiledDesign design,
        run_physical(ctx, options_.compile, offline.mapping.netlist,
                     offline.instrumented.trace_outputs, instrument_hash,
                     map_hash, hashes));
    offline.compiled =
        std::make_unique<pnr::CompiledDesign>(std::move(design));
  }
  offline.pnr_seconds =
      m.histogram("offline.pnr_seconds").observe(pnr_timer.elapsed_seconds());

  // --- pconf-build -----------------------------------------------------------
  std::uint64_t pconf_hash = 0;
  stage.restart();
  {
    telemetry::TraceScope span("offline.bitstream");
    // Timing options join the key even though place/route CONTENT hashes
    // are chained: a timing-knob edit must invalidate this stage
    // deterministically, not only when the optimizers' outputs changed.
    const pnr::CompileOptions& copt = options_.compile;
    const std::uint64_t key = stage_key(
        "pconf-build",
        hash_combine(hash_combine(hashes.physical, hashes.place), hashes.route),
        hash_combine(hash_device_options(copt),
                     hash_timing_options(copt.timing)));
    FPGADBG_ASSIGN_OR_RETURN(
        PconfArtifact artifact,
        run_stage<PconfArtifact>(
            ctx, "pconf-build", key, &pconf_hash,
            [&] {
              bitstream::PconfBuildStats stats;
              bitstream::PConf pconf =
                  bitstream::build_pconf(*offline.compiled, &stats);
              return PconfArtifact{std::move(pconf), stats};
            },
            encode_pconf_blob, load_pconf));
    offline.pconf =
        std::make_unique<bitstream::PConf>(std::move(artifact.pconf));
    offline.pconf_stats = artifact.stats;
    // Index for the incremental SCG belongs to the offline budget; it is
    // derived state, so it is rebuilt on cache hits too.
    offline.pconf->prepare_incremental();
  }
  offline.bitstream_seconds =
      m.histogram("offline.bitstream_seconds").observe(stage.elapsed_seconds());
  LOG_INFO << "offline: generalized bitstream has "
           << offline.pconf->num_parameterized_bits()
           << " parameterized bits across "
           << offline.pconf->parameterized_frames().size() << " frames";

  offline.total_seconds =
      m.histogram("offline.total_seconds").observe(total.elapsed_seconds());
  result.stages = std::move(ctx.reports);
  result.stages_executed = ctx.executed;
  result.stages_from_cache = ctx.from_cache;
  return result;
}

Result<pnr::CompiledDesign> Pipeline::compile(
    map::MappedNetlist netlist,
    const std::vector<std::string>& trace_outputs) const {
  StageContext ctx(cache_, /*total_stages=*/3);
  ByteWriter netlist_bytes;
  serialize_mapped_netlist(netlist, netlist_bytes);
  ByteWriter trace_bytes;
  trace_bytes.str_vec(trace_outputs);
  PhysicalHashes hashes;
  return run_physical(ctx, options_.compile, std::move(netlist), trace_outputs,
                      trace_bytes.content_hash(),
                      netlist_bytes.content_hash(), hashes);
}

}  // namespace fpgadbg::flow
