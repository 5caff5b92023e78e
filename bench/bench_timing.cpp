// Timing-driven flow ladder: wirelength-driven baseline, criticality-driven
// placement, and full timing-driven place+route, measured by the routed-
// fidelity STA's modeled Fmax on generated benchmarks of increasing size.
//
// Acceptance: the full timing-driven flow improves modeled Fmax over the
// wirelength baseline on a majority of the designs while keeping every
// configuration routable.  Emits BENCH_timing.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "debug/signal_param.h"
#include "genbench/genbench.h"
#include "map/mappers.h"
#include "pnr/flow.h"
#include "pnr/nets.h"
#include "pnr/timing.h"
#include "support/stopwatch.h"
#include "support/telemetry.h"

using namespace fpgadbg;

namespace {

/// Everything up to (but not including) placement, shared by all three legs.
struct Prepared {
  std::string name;
  map::MappedNetlist net;
  pnr::Packing packing;
  pnr::NetExtraction nets;
  std::unique_ptr<arch::Device> device;
  std::unique_ptr<arch::RRGraph> rr;
};

Prepared prepare(const genbench::CircuitSpec& spec, int channel_width) {
  Prepared p;
  p.name = spec.name;
  const auto user = genbench::generate(spec);
  debug::InstrumentOptions inst_opt;
  inst_opt.trace_width = 8;
  const auto inst = debug::parameterize_signals(user, inst_opt);
  auto mapping = map::tcon_map(inst.netlist);
  p.net = std::move(mapping.netlist);
  arch::ArchParams params;
  params.channel_width = channel_width;
  p.packing = pnr::pack(p.net, params);
  // Not pnr::device_clbs: the published fmax_gain rows were measured with
  // this extra headroom, and the tighter library grid changes them.
  const std::size_t min_clbs =
      static_cast<std::size_t>(
          std::ceil(static_cast<double>(p.packing.num_clusters()) * 1.4)) +
      4;
  p.device = std::make_unique<arch::Device>(params, min_clbs);
  p.rr = std::make_unique<arch::RRGraph>(*p.device);
  p.nets = pnr::extract_nets(p.net, inst.trace_outputs);
  return p;
}

struct Leg {
  double fmax_mhz = 0.0;
  double critical_path_ns = 0.0;
  bool routed = false;
  std::size_t wirelength = 0;
  double seconds = 0.0;
};

/// Places and routes with per-stage timing modes, then reports the routed-
/// fidelity STA of the result (the same truth every leg is judged by).
Leg run_leg(const Prepared& p, bool timing_place, bool timing_route) {
  Stopwatch timer;
  pnr::TimingOptions place_timing;
  place_timing.timing_driven = timing_place;
  const pnr::Placement placement =
      pnr::place(p.net, p.packing, p.nets, *p.device, pnr::PlaceOptions{},
                 place_timing);
  pnr::TimingOptions route_timing;
  route_timing.timing_driven = timing_route;
  const pnr::RouteResult routing =
      pnr::route(*p.rr, p.net, p.packing, p.nets, placement,
                 pnr::RouteOptions{}, route_timing);

  Leg leg;
  leg.seconds = timer.elapsed_seconds();
  leg.routed = routing.success;
  leg.wirelength = routing.total_wirelength;
  pnr::TimingAnalyzer sta(p.net, p.nets);
  sta.use_routed_delays(*p.rr, routing.routes);
  sta.update();
  leg.fmax_mhz = sta.max_frequency_mhz();
  leg.critical_path_ns = sta.critical_path_ns();
  return leg;
}

void record(const std::string& metric, double value) {
  telemetry::metrics().histogram("bench.timing." + metric).observe(value);
}

}  // namespace

int main() {
  std::printf("=== timing-driven flow: STA-steered place/route vs wirelength "
              "baseline ===\n\n");

  struct Case {
    genbench::CircuitSpec spec;
    int channel_width;
  };
  std::vector<Case> cases = {
      {{"tim150", 12, 10, 8, 150, 4, 6, 701}, 32},
      {{"tim300", 14, 12, 10, 300, 5, 6, 702}, 48},
      {{"tim600", 18, 14, 14, 600, 5, 6, 703}, 72},
  };
  if (std::getenv("FPGADBG_QUICK")) cases.resize(2);

  std::printf("%-9s | %11s | %11s | %11s | %8s | %s\n", "design",
              "base MHz", "t-place MHz", "t-full MHz", "gain", "routed");

  int improved = 0;
  bool routable_ok = true;
  for (const auto& c : cases) {
    const Prepared p = prepare(c.spec, c.channel_width);

    const Leg base = run_leg(p, false, false);
    const Leg tplace = run_leg(p, true, false);
    const Leg tfull = run_leg(p, true, true);

    const double gain =
        base.fmax_mhz > 0.0 ? tfull.fmax_mhz / base.fmax_mhz : 0.0;
    if (tfull.fmax_mhz > base.fmax_mhz) ++improved;
    // Routability must not regress: every leg that the baseline routes, the
    // timing-driven legs route too.
    const bool routed_ok =
        (!base.routed || (tplace.routed && tfull.routed));
    routable_ok = routable_ok && routed_ok;

    std::printf("%-9s | %11.1f | %11.1f | %11.1f | %7.3fx | %s%s\n",
                p.name.c_str(), base.fmax_mhz, tplace.fmax_mhz,
                tfull.fmax_mhz, gain,
                tfull.routed ? "yes" : "NO",
                routed_ok ? "" : "  REGRESSION");

    record(c.spec.name + ".baseline_fmax_mhz", base.fmax_mhz);
    record(c.spec.name + ".timing_place_fmax_mhz", tplace.fmax_mhz);
    record(c.spec.name + ".timing_full_fmax_mhz", tfull.fmax_mhz);
    record(c.spec.name + ".fmax_gain", gain);
    record(c.spec.name + ".baseline_critical_path_ns", base.critical_path_ns);
    record(c.spec.name + ".timing_full_critical_path_ns",
           tfull.critical_path_ns);
    record(c.spec.name + ".baseline_wirelength",
           static_cast<double>(base.wirelength));
    record(c.spec.name + ".timing_full_wirelength",
           static_cast<double>(tfull.wirelength));
    record(c.spec.name + ".baseline_seconds", base.seconds);
    record(c.spec.name + ".timing_full_seconds", tfull.seconds);
  }

  const bool majority = improved * 2 > static_cast<int>(cases.size());
  std::printf("\ntiming-driven flow improves modeled Fmax on %d/%zu designs "
              "(acceptance: majority) — %s\n",
              improved, cases.size(), majority ? "ok" : "MISS");
  std::printf("routability: %s\n", routable_ok ? "no regressions" :
              "REGRESSION");
  fpgadbg::bench::dump_metrics("timing");
  return (majority && routable_ok) ? 0 : 1;
}
