// Public mapper entry points.
//
// SimpleMap — a straightforward depth-oriented structural mapper (the paper's
//   "SM (SimpleMap)" baseline from the VTR tool family).
// AbcMap — a priority-cut mapper with area-flow recovery in the style of
//   ABC's `if` command (the paper's "ABC" baseline).
// TconMap — the parameter-aware mapper of the proposed flow: parameter
//   inputs are free, and cuts whose residual functions are wires under every
//   parameter assignment become TCONs (tuneable connections in the routing
//   fabric); the rest become TLUTs.  This is the mapper that shrinks the
//   instrumented design back to roughly the original circuit's area.
#pragma once

#include "map/cover.h"

namespace fpgadbg::map {

MapResult simple_map(const netlist::Netlist& nl, int lut_size = 6);
MapResult abc_map(const netlist::Netlist& nl, int lut_size = 6);
MapResult tcon_map(const netlist::Netlist& nl, int lut_size = 6,
                   int max_param_leaves = 4);

/// Fully customisable variant.
MapResult map_with(const netlist::Netlist& nl, const MapOptions& options,
                   const std::string& mapper_name);

}  // namespace fpgadbg::map
