// Router determinism and cache-interaction tests.
//
// The parallel router promises bit-identical results for every thread
// count: nets are partitioned into spatially disjoint bounding-box bins, a
// bin's nets route sequentially in net order, and concurrent bins touch
// disjoint RR-node sets.  These tests pin that contract, plus the artifact
// cache's view of it: a warm run still reuses the cached route artifact
// (route_threads is not part of the options hash), while any cost-shaping
// RouteOptions change invalidates exactly route -> pconf-build.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>

#include "debug/signal_param.h"
#include "flow/pipeline.h"
#include "genbench/genbench.h"
#include "map/mappers.h"
#include "pnr/flow.h"

namespace fpgadbg::pnr {
namespace {

/// A placed design, ready to route repeatedly with different RouteOptions.
struct Placed {
  map::MappedNetlist net;
  Packing packing;
  NetExtraction nets;
  std::unique_ptr<arch::Device> device;
  std::unique_ptr<arch::RRGraph> rr;
  Placement placement;
};

Placed placed_design(std::uint64_t seed, std::size_t gates = 80) {
  genbench::CircuitSpec spec{"rd" + std::to_string(seed), 10, 8, 4, gates,
                             4,    6,
                             seed};
  auto nl = genbench::generate(spec);
  debug::InstrumentOptions opt;
  opt.trace_width = 6;
  debug::Instrumented inst = debug::parameterize_signals(nl, opt);
  map::MapResult mapping = map::tcon_map(inst.netlist);

  Placed p;
  p.net = std::move(mapping.netlist);
  p.packing = pack(p.net, arch::ArchParams{});
  p.device = std::make_unique<arch::Device>(
      arch::ArchParams{},
      device_clbs(p.packing, CompileOptions{}.device_slack));
  p.rr = std::make_unique<arch::RRGraph>(*p.device);
  p.nets = extract_nets(p.net, inst.trace_outputs);
  p.placement = place(p.net, p.packing, p.nets, *p.device, PlaceOptions{});
  return p;
}

RouteResult route_with_threads(const Placed& p, int threads) {
  RouteOptions options;
  options.route_threads = threads;
  return route(*p.rr, p.net, p.packing, p.nets, p.placement, options);
}

TEST(RouteDeterminism, BitIdenticalAcrossThreadCounts) {
  const Placed p = placed_design(21);
  const RouteResult r1 = route_with_threads(p, 1);
  ASSERT_TRUE(r1.success);

  for (const int threads : {2, 8}) {
    const RouteResult rt = route_with_threads(p, threads);
    EXPECT_EQ(rt.success, r1.success) << threads << " threads";
    EXPECT_EQ(rt.iterations, r1.iterations) << threads << " threads";
    EXPECT_EQ(rt.routes, r1.routes) << threads << " threads";
    EXPECT_EQ(rt.wire_nodes_used, r1.wire_nodes_used) << threads << " threads";
    EXPECT_EQ(rt.total_wirelength, r1.total_wirelength)
        << threads << " threads";
    // Even the search effort is deterministic: identical bins, identical
    // per-net searches, only their interleaving differs.
    EXPECT_EQ(rt.heap_pops, r1.heap_pops) << threads << " threads";
    EXPECT_EQ(rt.rerouted_nets, r1.rerouted_nets) << threads << " threads";
  }
}

TEST(RouteDeterminism, FullStackMatchesDijkstraRoutability) {
  const Placed p = placed_design(22);

  // Pre-PR baseline: sequential, heuristic-free, full rip-up, unbounded.
  RouteOptions baseline;
  baseline.astar_fac = 0.0;
  baseline.bb_margin = -1;
  baseline.incremental = false;
  baseline.route_threads = 1;
  const RouteResult rb =
      route(*p.rr, p.net, p.packing, p.nets, p.placement, baseline);

  const RouteResult rf = route_with_threads(p, 8);
  ASSERT_TRUE(rb.success);
  ASSERT_TRUE(rf.success);
  // A* with an admissible lookahead finds minimum-cost paths too, so the
  // negotiation converges in (almost) the same number of iterations.
  EXPECT_NEAR(rf.iterations, rb.iterations, 1);
  // The full stack does strictly less search work.
  EXPECT_LT(rf.heap_pops, rb.heap_pops);
}

/// Fresh per-test cache directory (removed on destruction).
struct TempCacheDir {
  explicit TempCacheDir(const std::string& stem)
      : path("/tmp/fpgadbg_route_" + std::to_string(::getpid()) + "_" + stem) {
    std::filesystem::remove_all(path);
  }
  ~TempCacheDir() { std::filesystem::remove_all(path); }
  std::string path;
};

TEST(RouteDeterminism, WarmCacheReusesRouteAcrossThreadCounts) {
  TempCacheDir cache("warm");
  genbench::CircuitSpec spec{"rdc1", 8, 6, 4, 36, 3, 5, 31};
  const auto user = genbench::generate(spec);

  debug::OfflineOptions options;
  options.instrument.trace_width = 6;
  options.cache_dir = cache.path;
  options.compile.route.route_threads = 1;
  {
    auto cold = flow::Pipeline(options).run(user);
    ASSERT_TRUE(cold.ok()) << cold.status().to_string();
    ASSERT_EQ(cold.value().stages_executed, 6u);
  }

  // Changing only the thread count must not invalidate the route artifact:
  // results are bit-identical, and route_threads is excluded from the hash.
  options.compile.route.route_threads = 8;
  auto warm = flow::Pipeline(options).run(user);
  ASSERT_TRUE(warm.ok()) << warm.status().to_string();
  EXPECT_EQ(warm.value().stages_executed, 0u);
  EXPECT_EQ(warm.value().stages_from_cache, 6u);
}

TEST(RouteDeterminism, TimingDrivenBitIdenticalAcrossThreadCounts) {
  // The criticality-blended node costs add a shared STA refreshed at the
  // sequential per-iteration barrier; thread count must still not leak into
  // the result.
  const Placed p = placed_design(23);
  TimingOptions timing;
  timing.timing_driven = true;

  auto route_threads = [&](int threads) {
    RouteOptions options;
    options.route_threads = threads;
    return route(*p.rr, p.net, p.packing, p.nets, p.placement, options,
                 timing);
  };
  const RouteResult r1 = route_threads(1);
  ASSERT_TRUE(r1.success);
  for (const int threads : {2, 8}) {
    const RouteResult rt = route_threads(threads);
    EXPECT_EQ(rt.success, r1.success) << threads << " threads";
    EXPECT_EQ(rt.iterations, r1.iterations) << threads << " threads";
    EXPECT_EQ(rt.routes, r1.routes) << threads << " threads";
    EXPECT_EQ(rt.total_wirelength, r1.total_wirelength)
        << threads << " threads";
    EXPECT_EQ(rt.heap_pops, r1.heap_pops) << threads << " threads";
    EXPECT_EQ(rt.rerouted_nets, r1.rerouted_nets) << threads << " threads";
  }
}

TEST(RouteDeterminism, DelayKnobInvalidatesExactlyPlaceRoutePconf) {
  // The delay model steers both optimizers, so editing one knob must re-run
  // place -> route -> pconf-build and nothing earlier — even though
  // pconf-build chains content hashes (a knob change whose place/route
  // outputs happen to be byte-identical must still miss deterministically).
  TempCacheDir cache("delay");
  genbench::CircuitSpec spec{"rdc3", 8, 6, 4, 36, 3, 5, 33};
  const auto user = genbench::generate(spec);

  debug::OfflineOptions options;
  options.instrument.trace_width = 6;
  options.cache_dir = cache.path;
  options.compile.timing.timing_driven = true;
  {
    auto cold = flow::Pipeline(options).run(user);
    ASSERT_TRUE(cold.ok()) << cold.status().to_string();
    ASSERT_EQ(cold.value().stages_executed, 6u);
  }

  options.compile.timing.delays.segment_ns *= 2.0;
  auto rerun = flow::Pipeline(options).run(user);
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

TEST(RouteDeterminism, RouteOptionChangeInvalidatesExactlyRouteAndPconf) {
  TempCacheDir cache("inval");
  genbench::CircuitSpec spec{"rdc2", 8, 6, 4, 36, 3, 5, 32};
  const auto user = genbench::generate(spec);

  debug::OfflineOptions options;
  options.instrument.trace_width = 6;
  options.cache_dir = cache.path;
  {
    auto cold = flow::Pipeline(options).run(user);
    ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  }

  // A cost-shaping route option invalidates route and everything after it —
  // and nothing before it.
  options.compile.route.astar_fac = 0.5;
  auto rerun = flow::Pipeline(options).run(user);
  ASSERT_TRUE(rerun.ok()) << rerun.status().to_string();
  EXPECT_EQ(rerun.value().stages_from_cache, 4u);
  EXPECT_EQ(rerun.value().stages_executed, 2u);
  ASSERT_EQ(rerun.value().stages.size(), 6u);
  EXPECT_TRUE(rerun.value().stages[0].from_cache);   // instrument
  EXPECT_TRUE(rerun.value().stages[1].from_cache);   // tcon-map
  EXPECT_TRUE(rerun.value().stages[2].from_cache);   // pack
  EXPECT_TRUE(rerun.value().stages[3].from_cache);   // place
  EXPECT_FALSE(rerun.value().stages[4].from_cache);  // route
  EXPECT_FALSE(rerun.value().stages[5].from_cache);  // pconf-build
}

}  // namespace
}  // namespace fpgadbg::pnr
