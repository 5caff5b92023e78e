// TPack: greedy clustering of LUT/TLUT cells into CLBs.
//
// Classic VPR-style packing: seed each cluster with the unclustered cell of
// highest connectivity, then greedily absorb cells that share the most nets
// with the cluster while the BLE count and distinct-input limits hold.
// TCON cells occupy no BLE (they live in the routing fabric), which is why
// the proposed flow needs ~4x fewer CLBs on instrumented designs (§V-C1).
#pragma once

#include <vector>

#include "arch/device.h"
#include "map/mapped_netlist.h"

namespace fpgadbg::pnr {

struct Cluster {
  std::vector<map::CellId> bles;  ///< LUT/TLUT cells packed here
};

struct Packing {
  std::vector<Cluster> clusters;
  /// Cluster index per cell; -1 for sources and TCONs.
  std::vector<int> cluster_of;

  std::size_t num_clusters() const { return clusters.size(); }
};

Packing pack(const map::MappedNetlist& mn, const arch::ArchParams& params);

/// The device-sizing rule: the CLB count a packing is placed on,
/// max(4, ceil(clusters * slack)).  `slack` is CompileOptions::device_slack.
std::size_t device_clbs(const Packing& packing, double slack);

}  // namespace fpgadbg::pnr
