#include "pnr/timing.h"

#include <gtest/gtest.h>

#include "debug/signal_param.h"
#include "genbench/genbench.h"
#include "map/mappers.h"
#include "pnr/flow.h"
#include "pnr/nets.h"
#include "testutil/compile.h"

namespace fpgadbg::pnr {
namespace {

CompiledDesign compiled(std::uint64_t seed, bool instrumented,
                        bool param_aware) {
  genbench::CircuitSpec spec{"t" + std::to_string(seed), 8, 6, 4, 40, 3, 5,
                             seed};
  auto nl = genbench::generate(spec);
  if (!instrumented) {
    auto mapping = map::abc_map(nl);
    return testutil::compile_mapped(std::move(mapping.netlist), {});
  }
  debug::InstrumentOptions opt;
  opt.trace_width = 6;
  const auto inst = debug::parameterize_signals(nl, opt);
  auto mapping = param_aware ? map::tcon_map(inst.netlist)
                             : map::abc_map(inst.netlist);
  return testutil::compile_mapped(std::move(mapping.netlist),
                                  inst.trace_outputs);
}

/// Index of the physical net driven by `driver` (there is at most one).
std::size_t net_of(const NetExtraction& nets, map::CellId driver) {
  for (std::size_t n = 0; n < nets.nets.size(); ++n) {
    if (nets.nets[n].driver == driver && !nets.nets[n].sinks.empty()) return n;
  }
  ADD_FAILURE() << "no net driven by cell " << driver;
  return 0;
}

TEST(Timing, PositiveCriticalPath) {
  const auto design = compiled(1, false, false);
  const TimingReport report = analyze_timing(design);
  EXPECT_GT(report.critical_path_ns, 0.0);
  EXPECT_GT(report.max_frequency_mhz, 0.0);
  EXPECT_FALSE(report.critical_path.empty());
  EXPECT_EQ(report.fidelity, TimingFidelity::kRouted);
}

TEST(Timing, ArrivalIsMonotoneAlongPath) {
  const auto design = compiled(2, false, false);
  const TimingReport report = analyze_timing(design);
  double last = -1.0;
  for (const std::string& name : report.critical_path) {
    const auto id = design.netlist.find(name);
    ASSERT_TRUE(id.has_value()) << name;
    EXPECT_GE(report.arrival_ns[*id], last);
    last = report.arrival_ns[*id];
  }
}

TEST(Timing, LongerLutDelayLengthensPath) {
  const auto design = compiled(3, false, false);
  DelayModel fast;
  DelayModel slow;
  slow.lut_ns = fast.lut_ns * 3;
  EXPECT_GT(analyze_timing(design, slow).critical_path_ns,
            analyze_timing(design, fast).critical_path_ns);
}

TEST(Timing, ProposedFlowPreservesCriticalPath) {
  // Paper §V-B: "after adding the extra routing infrastructure, the
  // critical path delay remains the same compared to the original circuit";
  // the conventional mappers lengthen it (the mux LUT levels are on the
  // path to the trace buffers).
  const auto original = analyze_timing(compiled(4, false, false));
  const auto proposed = analyze_timing(compiled(4, true, true));
  const auto conventional = analyze_timing(compiled(4, true, false));
  // Allow some placement noise on top of the original.
  EXPECT_LE(proposed.critical_path_ns, original.critical_path_ns * 1.6);
  EXPECT_GT(conventional.critical_path_ns, original.critical_path_ns);
  EXPECT_LE(proposed.critical_path_ns, conventional.critical_path_ns);
}

// ---------------------------------------------------------------------------
// Golden arrival / required / slack values on hand-built netlists.
//
// Preplace fidelity with the default DelayModel: wire(f) = 2*pin + fanout*f
// = 0.1 + 0.1*f ns, LUT cell delay 0.9 ns.
// ---------------------------------------------------------------------------

TEST(TimingGolden, ChainWithFanout) {
  //   a ─┐
  //       g1(AND) ──┬── g2(BUF) ── PO "out"
  //   b ─┘          └── PO "tap"
  map::MappedNetlist mn("golden");
  const auto a = mn.add_source(map::MKind::kInput, "a");
  const auto b = mn.add_source(map::MKind::kInput, "b");
  const auto g1 = mn.add_cell(map::MKind::kLut, "g1", {a, b}, {},
                              logic::TruthTable::from_bits(0x8, 2));
  const auto g2 = mn.add_cell(map::MKind::kLut, "g2", {g1}, {},
                              logic::TruthTable::var(1, 0));
  mn.add_output(g2, "out");
  mn.add_output(g1, "tap");
  const NetExtraction nets = extract_nets(mn, {});

  TimingAnalyzer sta(mn, nets);
  sta.update();

  // arrival: g1 = wire(1) + lut = 0.2 + 0.9; g2 = 1.1 + wire(2) + lut.
  EXPECT_NEAR(sta.arrival_ns()[g1], 1.1, 1e-9);
  EXPECT_NEAR(sta.arrival_ns()[g2], 2.3, 1e-9);
  // Tmax: g2's PO endpoint at 2.3 + wire(1) = 2.5.
  EXPECT_NEAR(sta.critical_path_ns(), 2.5, 1e-9);
  EXPECT_NEAR(sta.max_frequency_mhz(), 400.0, 1e-6);
  // Unconstrained: the implied clock is Tmax, worst slack 0 by construction.
  EXPECT_NEAR(sta.worst_slack_ns(), 0.0, 1e-9);
  // required: g2 = Tmax - wire(1) = 2.3; g1 = required(g2) - lut - wire(2).
  EXPECT_NEAR(sta.required_ns()[g2], 2.3, 1e-9);
  EXPECT_NEAR(sta.required_ns()[g1], 1.1, 1e-9);

  // Per-connection slack/criticality on g1's two branches: the g2 branch is
  // critical (slack 0), the "tap" PO branch has 1.1 ns to spare.
  const std::size_t n1 = net_of(nets, g1);
  ASSERT_EQ(nets.nets[n1].sinks.size(), 2u);
  for (std::size_t s = 0; s < 2; ++s) {
    const NetSink& sink = nets.nets[n1].sinks[s];
    if (sink.kind == SinkKind::kCellPin) {
      EXPECT_EQ(sink.cell, g2);
      EXPECT_NEAR(sta.connection_slack_ns(n1, s), 0.0, 1e-9);
      EXPECT_NEAR(sta.connection_criticality(n1, s), 1.0, 1e-9);
    } else {
      EXPECT_EQ(sink.kind, SinkKind::kPrimaryOutput);
      EXPECT_NEAR(sta.connection_slack_ns(n1, s), 1.1, 1e-9);
      EXPECT_NEAR(sta.connection_criticality(n1, s), 1.0 - 1.1 / 2.5, 1e-9);
    }
  }
  EXPECT_NEAR(sta.net_criticality(n1), 1.0, 1e-9);

  // The critical path report names the cells source -> endpoint.
  const TimingReport rep = sta.report();
  ASSERT_EQ(rep.critical_path.size(), 3u);
  EXPECT_EQ(rep.critical_path[1], "g1");
  EXPECT_EQ(rep.critical_path[2], "g2");
}

TEST(TimingGolden, LatchCaptureIsAnEndpointNotACycle) {
  // x ── g1 ──┬── g2 ── (latch D of q)   the D connection is a register
  //           └── PO "o"                 capture: a timing endpoint, not a
  //                                      through edge into the q source.
  map::MappedNetlist mn("latchy");
  const auto x = mn.add_source(map::MKind::kInput, "x");
  const auto q = mn.add_latch_source("q", 0);
  const auto g1 = mn.add_cell(map::MKind::kLut, "g1", {x}, {},
                              logic::TruthTable::var(1, 0));
  const auto g2 = mn.add_cell(map::MKind::kLut, "g2", {g1}, {},
                              logic::TruthTable::var(1, 0));
  mn.set_latch_input(0, g2);
  mn.add_output(g1, "o");
  const NetExtraction nets = extract_nets(mn, {});

  TimingAnalyzer sta(mn, nets);
  sta.update();

  // g1 = 0.2 + 0.9 = 1.1; g1 fans out to g2 and the PO, so its net wire is
  // 0.3: g2 = 1.1 + 0.3 + 0.9 = 2.3.  The latch D endpoint charges the
  // D net's wire on top: 2.3 + 0.2 = 2.5; the PO endpoint is 1.1 + 0.3.
  EXPECT_NEAR(sta.arrival_ns()[g2], 2.3, 1e-9);
  EXPECT_NEAR(sta.critical_path_ns(), 2.5, 1e-9);
  // The launch side of the register stays a clean source: arrival 0.
  EXPECT_NEAR(sta.arrival_ns()[q], 0.0, 1e-9);
  // g2 feeds only the latch: required = Tmax - D-net wire.
  EXPECT_NEAR(sta.required_ns()[g2], 2.3, 1e-9);

  // Registers form cycles in the netlist but NOT in the timing graph:
  // re-propagation must be idempotent.
  const double tmax = sta.critical_path_ns();
  sta.update();
  sta.update();
  EXPECT_DOUBLE_EQ(sta.critical_path_ns(), tmax);
}

TEST(TimingGolden, TconAddsNoCellDelay) {
  // A TCON between two LUTs is a parameterized wire: the flattened
  // connection g1 -> g2 carries one net's wire delay and no logic delay.
  map::MappedNetlist mn("tcony");
  const auto x = mn.add_source(map::MKind::kInput, "x");
  const auto p = mn.add_source(map::MKind::kParam, "p");
  const auto g1 = mn.add_cell(map::MKind::kLut, "g1", {x}, {},
                              logic::TruthTable::var(1, 0));
  const auto t = mn.add_cell(map::MKind::kTcon, "t", {g1}, {p},
                             logic::TruthTable::var(2, 0));
  const auto g2 = mn.add_cell(map::MKind::kLut, "g2", {t}, {},
                              logic::TruthTable::var(1, 0));
  mn.add_output(g2, "out");
  const NetExtraction nets = extract_nets(mn, {});

  TimingAnalyzer sta(mn, nets);
  sta.update();

  // x -> g1: 0.2 + 0.9 = 1.1; g1 -> g2 through the TCON is ONE edge with
  // one wire charge: 1.1 + 0.2 + 0.9 = 2.2; PO: + 0.2 = 2.4.  A mapper
  // that spent a LUT on the connection would add another 0.9.
  EXPECT_NEAR(sta.arrival_ns()[g2], 2.2, 1e-9);
  EXPECT_NEAR(sta.critical_path_ns(), 2.4, 1e-9);
}

// ---------------------------------------------------------------------------
// Invariants across fidelities and budgets.
// ---------------------------------------------------------------------------

TEST(Timing, CriticalityInUnitIntervalAtEveryFidelity) {
  const auto design = compiled(5, true, true);
  TimingAnalyzer sta(design.netlist, design.nets);
  const auto check_all = [&](TimingFidelity expect) {
    sta.update();
    EXPECT_EQ(sta.fidelity(), expect);
    EXPECT_GT(sta.critical_path_ns(), 0.0);
    bool saw_critical = false;
    for (std::size_t n = 0; n < design.nets.nets.size(); ++n) {
      for (std::size_t s = 0; s < design.nets.nets[n].sinks.size(); ++s) {
        const double c = sta.connection_criticality(n, s);
        EXPECT_GE(c, 0.0);
        EXPECT_LE(c, 1.0);
        if (c >= 1.0 - 1e-9) saw_critical = true;
      }
      EXPECT_GE(sta.net_criticality(n), 0.0);
      EXPECT_LE(sta.net_criticality(n), 1.0);
    }
    // Unless the worst path ends in a latch D pin (not a net connection),
    // some connection must sit at criticality 1.  All three designs here
    // route nets onto the critical endpoint.
    EXPECT_TRUE(saw_critical);
  };
  check_all(TimingFidelity::kPreplace);
  sta.use_placed_delays(design.packing, design.placement);
  check_all(TimingFidelity::kPlaced);
  sta.use_routed_delays(*design.rr, design.routing.routes);
  check_all(TimingFidelity::kRouted);
}

TEST(Timing, ClockBudgetShiftsSlackNotCriticality) {
  const auto design = compiled(6, false, false);
  TimingAnalyzer sta(design.netlist, design.nets);
  sta.use_routed_delays(*design.rr, design.routing.routes);
  sta.update();
  const double tmax = sta.critical_path_ns();

  sta.set_clock_budget_ns(tmax + 1.0);
  sta.update();
  EXPECT_NEAR(sta.worst_slack_ns(), 1.0, 1e-9);
  // Criticality normalizes against the implied clock, not the budget: the
  // worst connection stays at 1 and everything stays in [0, 1].
  double worst_crit = 0.0;
  for (std::size_t n = 0; n < design.nets.nets.size(); ++n) {
    worst_crit = std::max(worst_crit, sta.net_criticality(n));
    EXPECT_LE(sta.net_criticality(n), 1.0);
  }
  EXPECT_NEAR(worst_crit, 1.0, 1e-9);

  sta.set_clock_budget_ns(tmax - 1.0);
  sta.update();
  EXPECT_NEAR(sta.worst_slack_ns(), -1.0, 1e-9);
}

TEST(Timing, RoutedFidelityMatchesFlowReport) {
  // One timing truth: the CompileReport fields are exactly the routed STA.
  const auto design = compiled(7, true, true);
  const TimingReport rep = analyze_timing(design);
  EXPECT_DOUBLE_EQ(design.report.critical_path_ns, rep.critical_path_ns);
  EXPECT_DOUBLE_EQ(design.report.max_frequency_mhz, rep.max_frequency_mhz);
  EXPECT_DOUBLE_EQ(design.report.worst_slack_ns, rep.worst_slack_ns);
  EXPECT_FALSE(design.report.timing_driven);
}

TEST(Timing, TimingDrivenFlowRoutes) {
  // The blended costs must not break routability; the report records the
  // mode and still carries a positive routed-fidelity critical path.
  genbench::CircuitSpec spec{"td", 8, 6, 4, 40, 3, 5, 11};
  auto nl = genbench::generate(spec);
  auto mapping = map::tcon_map(nl);
  CompileOptions opt;
  opt.timing.timing_driven = true;
  const auto design =
      testutil::compile_mapped(std::move(mapping.netlist), {}, opt);
  EXPECT_TRUE(design.report.route_success);
  EXPECT_TRUE(design.report.timing_driven);
  EXPECT_GT(design.report.critical_path_ns, 0.0);
  EXPECT_GT(design.report.max_frequency_mhz, 0.0);
}

}  // namespace
}  // namespace fpgadbg::pnr
