#include "pnr/pack.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "support/error.h"

namespace fpgadbg::pnr {

using map::CellId;
using map::MappedNetlist;
using map::MKind;

Packing pack(const MappedNetlist& mn, const arch::ArchParams& params) {
  const int max_bles = params.cluster_size;
  const int max_inputs = params.effective_cluster_inputs();

  Packing packing;
  packing.cluster_of.assign(mn.num_cells(), -1);

  // Candidate cells: only LUT/TLUT occupy BLEs.
  std::vector<CellId> candidates;
  for (CellId id = 0; id < mn.num_cells(); ++id) {
    const MKind k = mn.cell(id).kind;
    if (k == MKind::kLut || k == MKind::kTlut) candidates.push_back(id);
  }

  // Connectivity: cell -> cells sharing a net (fanin or fanout).
  std::vector<std::vector<CellId>> adjacent(mn.num_cells());
  for (CellId id : candidates) {
    for (CellId in : mn.cell(id).data_inputs) {
      const MKind k = mn.cell(in).kind;
      if (k == MKind::kLut || k == MKind::kTlut) {
        adjacent[id].push_back(in);
        adjacent[in].push_back(id);
      }
    }
  }

  // Seed order: highest-degree first (stable for determinism).
  std::vector<CellId> order = candidates;
  std::stable_sort(order.begin(), order.end(), [&](CellId a, CellId b) {
    return adjacent[a].size() > adjacent[b].size();
  });

  // Distinct external inputs a cluster would need if `cells` were packed.
  auto cluster_inputs = [&](const std::vector<CellId>& cells) {
    std::set<CellId> internal(cells.begin(), cells.end());
    std::set<CellId> external;
    for (CellId c : cells) {
      for (CellId in : mn.cell(c).data_inputs) {
        if (!internal.count(in)) external.insert(in);
      }
    }
    return external.size();
  };

  std::vector<bool> packed(mn.num_cells(), false);
  for (CellId seed : order) {
    if (packed[seed]) continue;
    Cluster cluster;
    cluster.bles.push_back(seed);
    packed[seed] = true;

    while (static_cast<int>(cluster.bles.size()) < max_bles) {
      // Best unpacked neighbour: most connections into the cluster.
      CellId best = map::kNullCell;
      std::size_t best_links = 0;
      std::set<CellId> in_cluster(cluster.bles.begin(), cluster.bles.end());
      std::set<CellId> seen;
      for (CellId member : cluster.bles) {
        for (CellId n : adjacent[member]) {
          if (packed[n] || !seen.insert(n).second) continue;
          std::size_t links = 0;
          for (CellId nn : adjacent[n]) {
            if (in_cluster.count(nn)) ++links;
          }
          if (links > best_links) {
            best_links = links;
            best = n;
          }
        }
      }
      if (best == map::kNullCell) break;
      std::vector<CellId> trial = cluster.bles;
      trial.push_back(best);
      if (cluster_inputs(trial) >
          static_cast<std::size_t>(max_inputs)) {
        // Input-limited: mark as unattractive for this cluster by stopping.
        break;
      }
      cluster.bles.push_back(best);
      packed[best] = true;
    }

    const int index = static_cast<int>(packing.clusters.size());
    for (CellId c : cluster.bles) packing.cluster_of[c] = index;
    packing.clusters.push_back(std::move(cluster));
  }
  return packing;
}

std::size_t device_clbs(const Packing& packing, double slack) {
  return std::max<std::size_t>(
      4, static_cast<std::size_t>(std::ceil(
             static_cast<double>(packing.num_clusters()) * slack)));
}

}  // namespace fpgadbg::pnr
