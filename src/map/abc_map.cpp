#include "map/cover.h"
#include "map/mappers.h"

namespace fpgadbg::map {

MapResult abc_map(const netlist::Netlist& nl, int lut_size) {
  MapOptions options;
  options.lut_size = lut_size;
  // Priority cuts with area-flow recovery, following ABC's `if` mapper.
  options.cut_limit = 8;
  options.area_passes = 2;
  options.params_free = false;
  return cover_network(nl, options, "ABC");
}

MapResult map_with(const netlist::Netlist& nl, const MapOptions& options,
                   const std::string& mapper_name) {
  return cover_network(nl, options, mapper_name);
}

}  // namespace fpgadbg::map
