#include <gtest/gtest.h>

#include "debug/signal_param.h"
#include "genbench/genbench.h"
#include "map/mappers.h"
#include "pnr/flow.h"
#include "testutil/compile.h"

namespace fpgadbg::pnr {
namespace {

using map::MappedNetlist;
using map::MKind;
using testutil::compile_mapped;

struct Prepared {
  debug::Instrumented inst;
  map::MapResult mapping;
};

Prepared prepared(std::uint64_t seed, bool param_aware) {
  genbench::CircuitSpec spec{"p" + std::to_string(seed), 8, 6, 4, 40, 3, 5,
                             seed};
  auto nl = genbench::generate(spec);
  debug::InstrumentOptions opt;
  opt.trace_width = 6;
  Prepared p{debug::parameterize_signals(nl, opt), {}};
  p.mapping = param_aware ? map::tcon_map(p.inst.netlist)
                          : map::abc_map(p.inst.netlist);
  return p;
}

TEST(Nets, ExtractionCoversAllDrivers) {
  const Prepared p = prepared(1, true);
  const auto nets = extract_nets(p.mapping.netlist, p.inst.trace_outputs);
  EXPECT_GT(nets.nets.size(), 0u);
  for (const PhysNet& net : nets.nets) {
    EXPECT_NE(p.mapping.netlist.cell(net.driver).kind, MKind::kTcon)
        << "TCONs are virtual and must not drive nets";
    EXPECT_FALSE(net.sinks.empty());
  }
}

TEST(Nets, BranchNetsAreGroupedAndTagged) {
  const Prepared p = prepared(2, true);
  const auto nets = extract_nets(p.mapping.netlist, p.inst.trace_outputs);
  std::size_t branches = 0;
  for (const PhysNet& net : nets.nets) {
    if (net.via_tcon != map::kNullCell) {
      ++branches;
      EXPECT_GE(net.exclusive_group, 0);
      EXPECT_EQ(p.mapping.netlist.cell(net.via_tcon).kind, MKind::kTcon);
      EXPECT_LT(net.via_input,
                p.mapping.netlist.cell(net.via_tcon).data_inputs.size());
      EXPECT_EQ(p.mapping.netlist.cell(net.via_tcon).data_inputs[net.via_input],
                net.driver);
    } else {
      EXPECT_EQ(net.exclusive_group, -1);
    }
  }
  EXPECT_GT(branches, 0u);
}

TEST(Nets, TraceLanesResolved) {
  const Prepared p = prepared(3, true);
  const auto nets = extract_nets(p.mapping.netlist, p.inst.trace_outputs);
  std::size_t trace_sinks = 0;
  for (const PhysNet& net : nets.nets) {
    for (const NetSink& sink : net.sinks) {
      if (sink.kind == SinkKind::kTraceBuffer) {
        ++trace_sinks;
        EXPECT_LT(sink.index, p.inst.trace_outputs.size());
      }
    }
  }
  EXPECT_GT(trace_sinks, 0u);
}

TEST(Pack, OnlyBleCellsArePacked) {
  const Prepared p = prepared(4, true);
  const Packing packing = pack(p.mapping.netlist, arch::ArchParams{});
  for (map::CellId id = 0; id < p.mapping.netlist.num_cells(); ++id) {
    const MKind k = p.mapping.netlist.cell(id).kind;
    if (k == MKind::kLut || k == MKind::kTlut) {
      EXPECT_GE(packing.cluster_of[id], 0) << "unpacked BLE cell";
    } else {
      EXPECT_EQ(packing.cluster_of[id], -1);
    }
  }
}

TEST(Pack, RespectsClusterCapacity) {
  const Prepared p = prepared(5, true);
  arch::ArchParams params;
  params.cluster_size = 4;
  const Packing packing = pack(p.mapping.netlist, params);
  for (const Cluster& c : packing.clusters) {
    EXPECT_LE(c.bles.size(), 4u);
    EXPECT_GE(c.bles.size(), 1u);
  }
}

TEST(Pack, TconFlowNeedsFewerClusters) {
  // Paper §V-C1: up to 4x fewer CLBs with parameterized resources.
  const Prepared conv = prepared(6, false);
  const Prepared prop = prepared(6, true);
  const Packing pc = pack(conv.mapping.netlist, arch::ArchParams{});
  const Packing pp = pack(prop.mapping.netlist, arch::ArchParams{});
  EXPECT_LT(pp.num_clusters(), pc.num_clusters());
}

TEST(Flow, CompilesAndRoutesProposed) {
  Prepared p = prepared(7, true);
  CompileOptions options;
  const CompiledDesign design =
      compile_mapped(p.mapping.netlist, p.inst.trace_outputs, options);
  EXPECT_TRUE(design.report.route_success)
      << "unroutable after " << design.report.route_iterations << " iters";
  EXPECT_GT(design.report.wire_nodes_used, 0u);
  EXPECT_GT(design.report.nets, 0u);
  EXPECT_EQ(design.report.clbs_used, design.packing.num_clusters());
}

TEST(Flow, CompilesAndRoutesConventional) {
  Prepared p = prepared(7, false);
  const CompiledDesign design =
      compile_mapped(p.mapping.netlist, p.inst.trace_outputs);
  EXPECT_TRUE(design.report.route_success);
}

TEST(Flow, ProposedUsesFewerWiresAndClbs) {
  // The §V-C1 comparison at test scale.
  Prepared conv = prepared(8, false);
  Prepared prop = prepared(8, true);
  const CompiledDesign dc =
      compile_mapped(conv.mapping.netlist, conv.inst.trace_outputs);
  const CompiledDesign dp =
      compile_mapped(prop.mapping.netlist, prop.inst.trace_outputs);
  ASSERT_TRUE(dc.report.route_success);
  ASSERT_TRUE(dp.report.route_success);
  EXPECT_LT(dp.report.clbs_used, dc.report.clbs_used);
  EXPECT_LT(dp.report.total_wirelength, dc.report.total_wirelength);
}

TEST(Route, NoOveruseOnSuccess) {
  Prepared p = prepared(9, true);
  const CompiledDesign design =
      compile_mapped(p.mapping.netlist, p.inst.trace_outputs);
  ASSERT_TRUE(design.report.route_success);
  // Recount occupancy from the routes: grouped nets may share, ungrouped
  // must not exceed capacity.
  std::unordered_map<arch::RRNodeId, std::set<int>> users;
  for (std::size_t n = 0; n < design.nets.nets.size(); ++n) {
    const int group = design.nets.nets[n].exclusive_group >= 0
                          ? design.nets.nets[n].exclusive_group
                          : -(static_cast<int>(n) + 2);
    for (arch::RREdgeId e : design.routing.routes[n]) {
      const auto& node = design.rr->node(design.rr->edge(e).to);
      if (node.kind == arch::RRKind::kChanX ||
          node.kind == arch::RRKind::kChanY) {
        users[design.rr->edge(e).to].insert(group);
      }
    }
  }
  for (const auto& [node, groups] : users) {
    EXPECT_LE(groups.size(),
              static_cast<std::size_t>(design.rr->node(node).capacity))
        << "wire overuse";
  }
}

TEST(Place, AllClustersGetDistinctPositions) {
  Prepared p = prepared(10, true);
  const CompiledDesign design =
      compile_mapped(p.mapping.netlist, p.inst.trace_outputs);
  std::set<std::pair<int, int>> positions;
  for (const auto& pos : design.placement.cluster_pos) {
    EXPECT_TRUE(positions.insert(pos).second) << "overlapping clusters";
    EXPECT_TRUE(design.device->is_clb(pos.first, pos.second));
  }
}

TEST(Place, DeterministicForSeed) {
  Prepared p = prepared(11, true);
  const auto nets = extract_nets(p.mapping.netlist, p.inst.trace_outputs);
  const Packing packing = pack(p.mapping.netlist, arch::ArchParams{});
  arch::Device dev(arch::ArchParams{},
                   device_clbs(packing, CompileOptions{}.device_slack));
  PlaceOptions options;
  options.seed = 99;
  const Placement a = place(p.mapping.netlist, packing, nets, dev, options);
  const Placement b = place(p.mapping.netlist, packing, nets, dev, options);
  EXPECT_EQ(a.cluster_pos, b.cluster_pos);
  EXPECT_EQ(a.total_hpwl, b.total_hpwl);
}

}  // namespace
}  // namespace fpgadbg::pnr
