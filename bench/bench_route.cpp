// Router-stack benchmark: sequential heuristic-free Dijkstra (the pre-PR
// router) vs the layered PathFinder optimisations — A* lookahead, expansion
// bounding boxes, incremental rip-up, and bin-parallel net routing — on
// generated benchmarks of increasing size.  Verifies that every
// configuration is a drop-in replacement (same routability, negotiation
// converging within one iteration, bit-identical results across thread
// counts) and reports the wall-clock speedup ladder.  Emits
// BENCH_route.json.
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "debug/signal_param.h"
#include "genbench/genbench.h"
#include "map/mappers.h"
#include "pnr/flow.h"
#include "support/stopwatch.h"
#include "support/telemetry.h"

using namespace fpgadbg;

namespace {

struct Placed {
  std::string name;
  map::MappedNetlist net;
  pnr::Packing packing;
  pnr::NetExtraction nets;
  std::unique_ptr<arch::Device> device;
  std::unique_ptr<arch::RRGraph> rr;
  pnr::Placement placement;
};

Placed prepare(const genbench::CircuitSpec& spec, int channel_width) {
  Placed p;
  p.name = spec.name;
  const auto user = genbench::generate(spec);
  debug::InstrumentOptions inst_opt;
  inst_opt.trace_width = 8;
  const auto inst = debug::parameterize_signals(user, inst_opt);
  auto mapping = map::tcon_map(inst.netlist);
  p.net = std::move(mapping.netlist);
  // Random logic has no spatial locality, so routing demand grows with
  // design size: give each benchmark the channel width it needs (as VPR
  // does when it sizes W to ~1.3x the routable minimum).
  arch::ArchParams params;
  params.channel_width = channel_width;
  p.packing = pnr::pack(p.net, params);
  p.device = std::make_unique<arch::Device>(
      params,
      pnr::device_clbs(p.packing, pnr::CompileOptions{}.device_slack));
  p.rr = std::make_unique<arch::RRGraph>(*p.device);
  p.nets = pnr::extract_nets(p.net, inst.trace_outputs);
  p.placement =
      pnr::place(p.net, p.packing, p.nets, *p.device, pnr::PlaceOptions{});
  return p;
}

struct Timed {
  pnr::RouteResult result;
  double seconds = 0.0;
};

Timed timed_route(const Placed& p, const pnr::RouteOptions& options) {
  Stopwatch timer;
  Timed t;
  t.result = pnr::route(*p.rr, p.net, p.packing, p.nets, p.placement, options);
  t.seconds = timer.elapsed_seconds();
  return t;
}

pnr::RouteOptions baseline_options() {
  // The pre-PR router: sequential, heuristic-free Dijkstra, full rip-up of
  // every net on every iteration, no expansion bounding.
  pnr::RouteOptions o;
  o.astar_fac = 0.0;
  o.bb_margin = -1;
  o.incremental = false;
  o.route_threads = 1;
  return o;
}

void record(const std::string& metric, double value) {
  telemetry::metrics().histogram("bench.route." + metric).observe(value);
}

}  // namespace

int main() {
  std::printf("=== router stack: Dijkstra baseline vs A*/bbox/incremental/"
              "parallel ===\n\n");

  struct Case {
    genbench::CircuitSpec spec;
    int channel_width;
  };
  std::vector<Case> cases = {
      {{"route150", 12, 10, 8, 150, 4, 6, 301}, 32},
      {{"route400", 16, 12, 12, 400, 5, 6, 302}, 64},
      {{"route900", 20, 16, 16, 900, 6, 6, 303}, 96},
  };
  if (std::getenv("FPGADBG_QUICK")) cases.resize(2);

  std::printf("%-9s | %9s | %9s | %9s | %9s | %7s | %7s\n", "design",
              "dijkstra", "+astar", "+incr/bb", "+8thr", "speedup", "iters");

  bool all_ok = true;
  double final_speedup = 0.0;
  for (const auto& c : cases) {
    const auto& spec = c.spec;
    const Placed p = prepare(spec, c.channel_width);

    const Timed base = timed_route(p, baseline_options());

    pnr::RouteOptions astar = baseline_options();
    astar.astar_fac = 1.0;
    const Timed a = timed_route(p, astar);

    pnr::RouteOptions incr;  // defaults: A* + bbox + incremental
    incr.route_threads = 1;
    const Timed i = timed_route(p, incr);

    pnr::RouteOptions full;
    full.route_threads = 8;
    const Timed f = timed_route(p, full);

    const double speedup = base.seconds / std::max(1e-9, f.seconds);
    final_speedup = speedup;

    // Drop-in-replacement checks: identical routability, the negotiation
    // converges within one iteration of the baseline, and the threaded run
    // is bit-identical to the single-threaded one.
    const bool routable = base.result.success == f.result.success &&
                          i.result.success == f.result.success;
    const bool iters_close =
        std::abs(f.result.iterations - base.result.iterations) <= 1;
    const bool deterministic = f.result.routes == i.result.routes &&
                               f.result.total_wirelength ==
                                   i.result.total_wirelength &&
                               f.result.iterations == i.result.iterations;
    all_ok = all_ok && routable && iters_close && deterministic &&
             f.result.success;

    std::printf("%-9s | %8.3fs | %8.3fs | %8.3fs | %8.3fs | %6.2fx | %d/%d%s\n",
                p.name.c_str(), base.seconds, a.seconds, i.seconds, f.seconds,
                speedup, base.result.iterations, f.result.iterations,
                (routable && iters_close && deterministic) ? ""
                                                           : "  MISMATCH");

    record(spec.name + ".dijkstra_seconds", base.seconds);
    record(spec.name + ".astar_seconds", a.seconds);
    record(spec.name + ".incremental_seconds", i.seconds);
    record(spec.name + ".parallel8_seconds", f.seconds);
    record(spec.name + ".speedup", speedup);
    record(spec.name + ".heap_pops_baseline",
           static_cast<double>(base.result.heap_pops));
    record(spec.name + ".heap_pops_full",
           static_cast<double>(f.result.heap_pops));
    record(spec.name + ".rerouted_nets_full",
           static_cast<double>(f.result.rerouted_nets));
    record(spec.name + ".bbox_expansions_full",
           static_cast<double>(f.result.bbox_expansions));
  }

  std::printf("\nlargest benchmark full-stack speedup: %.2fx (acceptance: "
              ">= 3x)\n",
              final_speedup);
  std::printf("routability/determinism checks: %s\n",
              all_ok ? "all ok" : "MISMATCH");
  fpgadbg::bench::dump_metrics("route");
  return all_ok ? 0 : 1;
}
