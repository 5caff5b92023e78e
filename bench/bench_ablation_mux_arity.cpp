// Ablation A (DESIGN.md): multiplexer radix of the observation network.
//
// The paper's future work worries about routing congestion from the mux
// network.  Higher-radix trees need fewer mux stages and fewer parameters
// but wider TCON cuts; this sweep quantifies the trade-off on area, TCON
// count, parameters and routed wirelength.
#include <cstdio>

#include "debug/signal_param.h"
#include "flow/pipeline.h"
#include "genbench/genbench.h"
#include "map/mappers.h"

using namespace fpgadbg;

int main() {
  std::printf("=== Ablation A: mux radix of the observation network ===\n\n");
  genbench::CircuitSpec spec{"arity", 10, 8, 6, 80, 4, 5, 401};
  const auto user = genbench::generate(spec);

  std::printf("%-6s | %7s | %7s | %9s | %7s | %7s | %9s | %7s\n", "radix",
              "muxes", "params", "LUT area", "TLUTs", "TCONs", "wirelen",
              "routed");
  for (int radix : {2, 4, 8}) {
    debug::InstrumentOptions opt;
    opt.trace_width = 8;
    opt.mux_radix = radix;
    const auto inst = debug::parameterize_signals(user, opt);
    const std::size_t muxes =
        inst.netlist.num_logic_nodes() - user.num_logic_nodes();
    auto mapping = map::tcon_map(inst.netlist);
    const auto stats = mapping.stats;
    const auto design =
        flow::Pipeline(debug::OfflineOptions{})
            .compile(std::move(mapping.netlist), inst.trace_outputs)
            .take_or_raise();
    std::printf("%-6d | %7zu | %7zu | %9zu | %7zu | %7zu | %9zu | %7s\n",
                radix, muxes, inst.netlist.params().size(), stats.lut_area,
                stats.num_tluts, stats.num_tcons,
                design.report.total_wirelength,
                design.report.route_success ? "ok" : "FAIL");
  }
  std::printf("\nhigher radix: fewer mux nodes and parameters, at similar "
              "LUT area (TCONs stay free).\n");
  return 0;
}
