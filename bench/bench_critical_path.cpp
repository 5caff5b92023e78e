// Reproduces the paper's §V-B critical-path-delay claim on the routed
// design: "after adding the extra routing infrastructure, the critical path
// delay remains the same compared to the original circuit (without any
// debugging infrastructure)", while conventional mappers put the mux LUT
// levels on the path.  Table II measures depth; this harness weights the
// actual placed-and-routed netlist with a LUT/pin/wire delay model.
#include <cstdio>

#include "debug/signal_param.h"
#include "flow/pipeline.h"
#include "genbench/genbench.h"
#include "map/mappers.h"
#include "pnr/timing.h"

using namespace fpgadbg;

namespace {

pnr::CompiledDesign compile_variant(const netlist::Netlist& user,
                                    const debug::Instrumented* inst,
                                    bool param_aware) {
  const flow::Pipeline pipeline{debug::OfflineOptions{}};
  if (inst == nullptr) {
    auto mapping = map::abc_map(user);
    return pipeline.compile(std::move(mapping.netlist), {}).take_or_raise();
  }
  auto mapping = param_aware ? map::tcon_map(inst->netlist)
                             : map::abc_map(inst->netlist);
  return pipeline.compile(std::move(mapping.netlist), inst->trace_outputs)
      .take_or_raise();
}

}  // namespace

int main() {
  std::printf("=== SS V-B: critical path delay of the routed design ===\n\n");
  std::printf("%-9s | %12s | %12s | %12s | %10s\n", "design", "original ns",
              "proposed ns", "convent. ns", "prop/orig");

  const std::vector<genbench::CircuitSpec> specs = {
      {"cp40", 8, 6, 4, 40, 3, 5, 601},
      {"cp60", 10, 8, 6, 60, 4, 5, 602},
      {"cp90", 12, 8, 8, 90, 4, 6, 603},
  };
  for (const auto& spec : specs) {
    const auto user = genbench::generate(spec);
    debug::InstrumentOptions opt;
    opt.trace_width = 8;
    const auto inst = debug::parameterize_signals(user, opt);

    const auto orig = pnr::analyze_timing(compile_variant(user, nullptr, false));
    const auto prop = pnr::analyze_timing(compile_variant(user, &inst, true));
    const auto conv = pnr::analyze_timing(compile_variant(user, &inst, false));
    std::printf("%-9s | %12.2f | %12.2f | %12.2f | %9.2fx\n", spec.name.c_str(),
                orig.critical_path_ns, prop.critical_path_ns,
                conv.critical_path_ns,
                prop.critical_path_ns / orig.critical_path_ns);
  }
  std::printf("\nexpected shape (paper): proposed ~ original; conventional "
              "mapping lengthens the path with the mux LUT levels.\n");
  return 0;
}
