// Staged-pipeline tests: cache hit/miss accounting, selective invalidation,
// and the no-throw error contract of Pipeline::run.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "flow/artifacts.h"
#include "flow/cache.h"
#include "flow/pipeline.h"
#include "genbench/genbench.h"
#include "map/mappers.h"
#include "netlist/blif.h"
#include "support/rng.h"
#include "support/telemetry.h"

namespace fpgadbg::flow {
namespace {

netlist::Netlist small_user(std::uint64_t seed) {
  genbench::CircuitSpec spec{"pipe" + std::to_string(seed), 8, 6, 4, 36, 3, 5,
                             seed};
  return genbench::generate(spec);
}

debug::OfflineOptions small_options() {
  debug::OfflineOptions options;
  options.instrument.trace_width = 6;
  return options;
}

/// Fresh per-test cache directory (removed on destruction).  ctest runs each
/// TEST as its own process, so pid-keyed paths cannot collide.
struct TempCacheDir {
  explicit TempCacheDir(const std::string& stem)
      : path("/tmp/fpgadbg_flow_" + std::to_string(::getpid()) + "_" + stem) {
    std::filesystem::remove_all(path);
  }
  ~TempCacheDir() { std::filesystem::remove_all(path); }
  std::string path;
};

std::uint64_t stage_executions() {
  return telemetry::metrics().snapshot().counter("flow.stage.executions");
}

/// An artifact's stream encoding, for byte-level equality checks.
template <typename Ser, typename T>
std::string stream_bytes(Ser serialize, const T& value) {
  ByteWriter out;
  serialize(value, out);
  return out.take();
}

TEST(Pipeline, ColdRunExecutesAllStagesAndReports) {
  TempCacheDir cache("cold");
  auto options = small_options();
  options.cache_dir = cache.path;
  Pipeline pipeline(options);
  auto result = pipeline.run(small_user(1));
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result.value().stages_executed, 6u);
  EXPECT_EQ(result.value().stages_from_cache, 0u);
  ASSERT_EQ(result.value().stages.size(), 6u);
  const char* const expected[] = {"instrument", "tcon-map",    "pack",
                                  "place",      "route",       "pconf-build"};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(result.value().stages[i].name, expected[i]);
    EXPECT_FALSE(result.value().stages[i].from_cache);
    EXPECT_NE(result.value().stages[i].key, 0u);
    EXPECT_GT(result.value().stages[i].artifact_bytes, 0u);
  }
}

TEST(Pipeline, WarmRunExecutesZeroStages) {
  TempCacheDir cache("warm");
  auto options = small_options();
  options.cache_dir = cache.path;
  Pipeline pipeline(options);

  auto cold = pipeline.run(small_user(2));
  ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  ASSERT_EQ(cold.value().stages_executed, 6u);

  const std::uint64_t executions_before = stage_executions();
  auto warm = pipeline.run(small_user(2));
  ASSERT_TRUE(warm.ok()) << warm.status().to_string();
  // The acceptance criterion: a warm re-run performs zero stage executions,
  // both in the report and in the global telemetry counter.
  EXPECT_EQ(warm.value().stages_executed, 0u);
  EXPECT_EQ(warm.value().stages_from_cache, 6u);
  EXPECT_EQ(stage_executions(), executions_before);

  // Cached results are bit-identical to computed ones.
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(warm.value().stages[i].key, cold.value().stages[i].key);
    EXPECT_EQ(warm.value().stages[i].content_hash,
              cold.value().stages[i].content_hash);
  }
  ASSERT_TRUE(warm.value().offline.pconf);
  ASSERT_TRUE(cold.value().offline.pconf);
  EXPECT_EQ(warm.value().offline.pconf->num_parameterized_bits(),
            cold.value().offline.pconf->num_parameterized_bits());
  EXPECT_EQ(warm.value().offline.compiled->placement.cluster_pos,
            cold.value().offline.compiled->placement.cluster_pos);
}

// A warm PConf borrows its BDD arena and function table from the mapped
// cache blob and derives the incremental SCG's parameter index at load:
// every incremental turn on it must equal the cold-built PConf's.
TEST(Pipeline, WarmBorrowedPConfSpecializesLikeTheColdBuild) {
  TempCacheDir cache("warm_scg");
  auto options = small_options();
  options.cache_dir = cache.path;
  Pipeline pipeline(options);
  auto cold = pipeline.run(small_user(9));
  ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  auto warm = pipeline.run(small_user(9));
  ASSERT_TRUE(warm.ok()) << warm.status().to_string();
  ASSERT_EQ(warm.value().stages_executed, 0u);
  const bitstream::PConf& c = *cold.value().offline.pconf;
  const bitstream::PConf& w = *warm.value().offline.pconf;
  EXPECT_FALSE(c.functions_borrowed());
  EXPECT_TRUE(w.functions_borrowed());
  EXPECT_TRUE(w.bdd().borrowed());

  const debug::Instrumented& inst = warm.value().offline.instrumented;
  BitVec prev = inst.select_values({});
  auto cs = c.specialize_values(prev);
  auto ws = w.specialize_values(prev);
  EXPECT_EQ(cs.memory, ws.memory);
  Rng rng(9);
  for (int turn = 0; turn < 40; ++turn) {
    const auto& lane =
        inst.lane_signals[rng.next_below(inst.lane_signals.size())];
    const BitVec values =
        inst.select_values({lane[rng.next_below(lane.size())]});
    auto cn = c.specialize_values_incremental(cs, prev, values);
    auto wn = w.specialize_values_incremental(ws, prev, values);
    EXPECT_EQ(wn.memory, cn.memory) << "turn " << turn;
    EXPECT_EQ(wn.bits_evaluated, cn.bits_evaluated) << "turn " << turn;
    EXPECT_EQ(wn.bits_changed, cn.bits_changed) << "turn " << turn;
    EXPECT_EQ(wn.changed_frames, cn.changed_frames) << "turn " << turn;
    cs = std::move(cn);
    ws = std::move(wn);
    prev = values;
  }
  // Reads never copy the borrowed table out.
  EXPECT_TRUE(w.functions_borrowed());
}

TEST(Pipeline, PlaceOptionChangeRerunsOnlyDownstream) {
  TempCacheDir cache("inval");
  auto options = small_options();
  options.cache_dir = cache.path;
  {
    auto cold = Pipeline(options).run(small_user(3));
    ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  }

  // Changing only a place option must leave instrument/tcon-map/pack as
  // cache hits and re-execute exactly place -> route -> pconf-build.
  options.compile.place.seed += 1;
  auto rerun = Pipeline(options).run(small_user(3));
  ASSERT_TRUE(rerun.ok()) << rerun.status().to_string();
  EXPECT_EQ(rerun.value().stages_from_cache, 3u);
  EXPECT_EQ(rerun.value().stages_executed, 3u);
  ASSERT_EQ(rerun.value().stages.size(), 6u);
  EXPECT_TRUE(rerun.value().stages[0].from_cache);   // instrument
  EXPECT_TRUE(rerun.value().stages[1].from_cache);   // tcon-map
  EXPECT_TRUE(rerun.value().stages[2].from_cache);   // pack
  EXPECT_FALSE(rerun.value().stages[3].from_cache);  // place
  EXPECT_FALSE(rerun.value().stages[4].from_cache);  // route
  EXPECT_FALSE(rerun.value().stages[5].from_cache);  // pconf-build
}

TEST(Pipeline, InputChangeInvalidatesEverything) {
  TempCacheDir cache("input");
  auto options = small_options();
  options.cache_dir = cache.path;
  Pipeline pipeline(options);
  ASSERT_TRUE(pipeline.run(small_user(4)).ok());
  auto other = pipeline.run(small_user(5));  // different circuit
  ASSERT_TRUE(other.ok()) << other.status().to_string();
  EXPECT_EQ(other.value().stages_executed, 6u);
  EXPECT_EQ(other.value().stages_from_cache, 0u);
}

TEST(Pipeline, BadOptionsComeBackAsStatusNotThrow) {
  auto options = small_options();
  options.instrument.trace_width = 0;  // rejected inside the instrument stage
  auto result = Pipeline(options).run(small_user(6));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().stage(), "instrument");
  EXPECT_FALSE(result.status().message().empty());
}

TEST(Pipeline, MalformedBlifPropagatesAsStatus) {
  // End-to-end error path without a single throw: parse failure surfaces as
  // a Status from try_read_blif; a (hypothetical) caller simply cannot reach
  // Pipeline::run without a netlist value.
  std::istringstream bad(".model m\n.inputs a\n.outputs y\n.names a y\nzz\n");
  auto parsed = netlist::try_read_blif(bad, "bad.blif");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), support::StatusCode::kParseError);
  EXPECT_EQ(parsed.status().file(), "bad.blif");
  EXPECT_GT(parsed.status().line(), 0);
}

TEST(Pipeline, CorruptCacheEntryIsReportedWithStage) {
  TempCacheDir cache("corrupt");
  auto options = small_options();
  options.cache_dir = cache.path;
  Pipeline pipeline(options);
  ASSERT_TRUE(pipeline.run(small_user(7)).ok());

  // Bit-flip a payload byte of every object a tcon-map index names; the
  // warm run must fail integrity verification instead of deserializing
  // garbage.
  for (const auto& entry :
       std::filesystem::directory_iterator(cache.path + "/index/tcon-map")) {
    char index[64];
    std::ifstream(entry.path(), std::ios::binary).read(index, sizeof index);
    std::uint64_t object_hash = 0;
    std::memcpy(&object_hash, index + 24, sizeof object_hash);
    char name[17];
    std::snprintf(name, sizeof name, "%016llx",
                  static_cast<unsigned long long>(object_hash));
    std::fstream f(cache.path + "/cas/" + name,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good()) << name;
    f.seekg(24);
    const int byte = f.get();
    f.seekp(24);
    f.put(static_cast<char>(byte ^ 0x5a));
  }
  auto warm = pipeline.run(small_user(7));
  ASSERT_FALSE(warm.ok());
  EXPECT_EQ(warm.status().code(), support::StatusCode::kCorruptArtifact);
  EXPECT_EQ(warm.status().stage(), "tcon-map");
}

TEST(Pipeline, CompileMatchesRunPhysicalStages) {
  // run() and compile() share one physical flow: compiling run()'s own
  // mapped netlist and trace outputs reproduces its pack, place and route
  // artifacts byte for byte, and the same report.
  const Pipeline pipeline(small_options());
  auto run = pipeline.run(small_user(8));
  ASSERT_TRUE(run.ok()) << run.status().to_string();
  const debug::OfflineResult& offline = run.value().offline;
  ASSERT_TRUE(offline.compiled && offline.compiled->report.route_success);
  auto compiled = pipeline.compile(offline.mapping.netlist,
                                   offline.instrumented.trace_outputs);
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
  const pnr::CompiledDesign& r = *offline.compiled;
  const pnr::CompiledDesign& c = compiled.value();
  EXPECT_EQ(stream_bytes(serialize_packing, c.packing),
            stream_bytes(serialize_packing, r.packing));
  EXPECT_EQ(stream_bytes(serialize_placement, c.placement),
            stream_bytes(serialize_placement, r.placement));
  EXPECT_EQ(stream_bytes(serialize_route_result, c.routing),
            stream_bytes(serialize_route_result, r.routing));
  EXPECT_EQ(c.report.clbs_used, r.report.clbs_used);
  EXPECT_EQ(c.report.total_wirelength, r.report.total_wirelength);
  EXPECT_EQ(c.report.critical_path_ns, r.report.critical_path_ns);
  EXPECT_EQ(c.report.max_frequency_mhz, r.report.max_frequency_mhz);
}

TEST(Pipeline, CachedCompileExecutesZeroStagesOnSecondCall) {
  // The conventional-mapper case: an ABC-mapped netlist has no tcon-map
  // artifact, so compile() keys pack/place/route on the netlist's and the
  // trace outputs' content hashes.
  TempCacheDir cache("compile");
  auto options = small_options();
  options.cache_dir = cache.path;
  const Pipeline pipeline(options);
  const debug::Instrumented inst =
      debug::parameterize_signals(small_user(12), options.instrument);
  const map::MapResult mapping = map::abc_map(inst.netlist);

  const std::uint64_t before = stage_executions();
  auto cold = pipeline.compile(mapping.netlist, inst.trace_outputs);
  ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  EXPECT_EQ(stage_executions() - before, 3u);
  const std::uint64_t after_cold = stage_executions();
  auto warm = pipeline.compile(mapping.netlist, inst.trace_outputs);
  ASSERT_TRUE(warm.ok()) << warm.status().to_string();
  EXPECT_EQ(stage_executions(), after_cold);
  EXPECT_EQ(stream_bytes(serialize_route_result, warm.value().routing),
            stream_bytes(serialize_route_result, cold.value().routing));
  EXPECT_EQ(warm.value().report.critical_path_ns,
            cold.value().report.critical_path_ns);
}

TEST(Pipeline, StreamAndBlobEncodingsAreBitIdentical) {
  // The cache keeps instrument/pack/place/route as ByteWriter streams and
  // tcon-map/pconf-build as zero-copy blobs.  The encoding must be invisible
  // in the results: a warm run that loads every stage agrees bit for bit
  // with the cold run that computed them.
  TempCacheDir cache("encodings");
  auto options = small_options();
  options.cache_dir = cache.path;
  auto cold = Pipeline(options).run(small_user(9));
  auto warm = Pipeline(options).run(small_user(9));
  ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  ASSERT_TRUE(warm.ok()) << warm.status().to_string();
  EXPECT_EQ(warm.value().stages_from_cache, 6u);
  const debug::OfflineResult& c = cold.value().offline;
  const debug::OfflineResult& w = warm.value().offline;
  ASSERT_TRUE(c.compiled && w.compiled && c.pconf && w.pconf);

  // Stream-encoded stages re-serialize to the same bytes.
  EXPECT_EQ(stream_bytes(serialize_instrumented, w.instrumented),
            stream_bytes(serialize_instrumented, c.instrumented));
  EXPECT_EQ(stream_bytes(serialize_packing, w.compiled->packing),
            stream_bytes(serialize_packing, c.compiled->packing));
  EXPECT_EQ(stream_bytes(serialize_placement, w.compiled->placement),
            stream_bytes(serialize_placement, c.compiled->placement));
  EXPECT_EQ(stream_bytes(serialize_route_result, w.compiled->routing),
            stream_bytes(serialize_route_result, c.compiled->routing));
  EXPECT_EQ(w.compiled->report.critical_path_ns,
            c.compiled->report.critical_path_ns);

  // Blob-encoded stages: the mapping re-encodes to the same blob, and the
  // warm PConf serves its function table zero-copy from the mapped object
  // with every function equal to the computed one.
  EXPECT_EQ(encode_map_result_blob(w.mapping),
            encode_map_result_blob(c.mapping));
  EXPECT_TRUE(w.pconf->functions_borrowed());
  EXPECT_FALSE(c.pconf->functions_borrowed());
  EXPECT_EQ(w.pconf->total_bits(), c.pconf->total_bits());
  ASSERT_EQ(w.pconf->num_parameterized_bits(),
            c.pconf->num_parameterized_bits());
  const bitstream::FunctionView got = w.pconf->functions();
  const bitstream::FunctionView want = c.pconf->functions();
  ASSERT_EQ(got.count, want.count);
  for (std::size_t i = 0; i < got.count; ++i) {
    EXPECT_EQ(got.bits[i], want.bits[i]) << i;
    EXPECT_EQ(got.refs[i], want.refs[i]) << i;
  }
}

TEST(Pipeline, CasBackendWarmRunExecutesZeroStages) {
  TempCacheDir root("cas_pipe");
  auto options = small_options();
  options.cache_dir = root.path;
  Pipeline pipeline(options);
  auto cold = pipeline.run(small_user(10));
  ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  EXPECT_EQ(cold.value().stages_executed, 6u);
  // On-disk layout: content-named objects plus one index per stage key,
  // and one for the derived rr-graph.
  ASSERT_TRUE(std::filesystem::exists(root.path + "/cas"));
  for (const char* stage : {"instrument", "tcon-map", "pack", "place", "route",
                            "pconf-build", "rr-graph"}) {
    const std::string dir = root.path + "/index/" + stage;
    ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
    EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                            std::filesystem::directory_iterator()),
              1)
        << dir;
  }
  auto warm = pipeline.run(small_user(10));
  ASSERT_TRUE(warm.ok()) << warm.status().to_string();
  EXPECT_EQ(warm.value().stages_executed, 0u);
  EXPECT_EQ(warm.value().stages_from_cache, 6u);
  EXPECT_EQ(warm.value().offline.compiled->placement.cluster_pos,
            cold.value().offline.compiled->placement.cluster_pos);
}

TEST(ArtifactCache, DisabledCacheAlwaysMisses) {
  ArtifactCache cache;
  EXPECT_FALSE(cache.enabled());
  auto load = cache.load("instrument", 42);
  ASSERT_TRUE(load.ok());
  EXPECT_FALSE(load.value().has_value());
  EXPECT_TRUE(cache.store("instrument", 42, 0, "bytes").ok());
  EXPECT_FALSE(cache.load("instrument", 42).value().has_value());
}

TEST(ArtifactCache, StoreThenLoadRoundTrips) {
  TempCacheDir dir("cachedir");
  ArtifactCache cache(dir.path);
  const std::string bytes = "artifact payload";
  ASSERT_TRUE(cache.store("place", 7, fnv1a(bytes), bytes).ok());
  auto load = cache.load("place", 7);
  ASSERT_TRUE(load.ok()) << load.status().to_string();
  ASSERT_TRUE(load.value().has_value());
  EXPECT_EQ(load.value()->payload, bytes);
  EXPECT_EQ(load.value()->content_hash, fnv1a(bytes));
  // A different key misses; a wrong-hash store is caught on load.
  EXPECT_FALSE(cache.load("place", 8).value().has_value());
  ASSERT_TRUE(cache.store("place", 9, 0xdeadbeef, bytes).ok());
  auto corrupt = cache.load("place", 9);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), support::StatusCode::kCorruptArtifact);
}

}  // namespace
}  // namespace fpgadbg::flow
