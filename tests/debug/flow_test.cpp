#include <gtest/gtest.h>

#include "debug/flow.h"
#include "debug/session.h"
#include "genbench/genbench.h"
#include "sim/equivalence.h"
#include "sim/simulator.h"
#include "support/rng.h"

namespace fpgadbg::debug {
namespace {

using netlist::Netlist;

Netlist small_user(std::uint64_t seed) {
  genbench::CircuitSpec spec{"flow" + std::to_string(seed), 8, 6, 4, 36, 3, 5,
                             seed};
  return genbench::generate(spec);
}

OfflineOptions small_options() {
  OfflineOptions options;
  options.instrument.trace_width = 6;
  return options;
}

TEST(OfflineFlow, ProducesAllArtifacts) {
  const auto offline = run_offline(small_user(1), small_options());
  EXPECT_GT(offline.instrumented.num_observable(), 0u);
  EXPECT_GT(offline.mapping.stats.num_tcons, 0u);
  ASSERT_TRUE(offline.compiled);
  EXPECT_TRUE(offline.compiled->report.route_success);
  ASSERT_TRUE(offline.pconf);
  EXPECT_GT(offline.pconf->num_parameterized_bits(), 0u);
  EXPECT_GT(offline.total_seconds, 0.0);
}

TEST(OfflineFlow, MappedDutIsEquivalentToInstrumented) {
  const auto offline = run_offline(small_user(3), small_options());
  Rng rng(3);
  const auto report = sim::check_equivalence(offline.instrumented.netlist,
                                             offline.mapping.netlist, 300, rng);
  EXPECT_TRUE(report.equivalent) << report.first_mismatch;
}

TEST(Session, ObserveRetargetsLanes) {
  const auto offline = run_offline(small_user(4), small_options());
  DebugSession session(offline);

  const std::string sig = offline.instrumented.lane_signals[2][1];
  const auto report = session.observe({sig});
  EXPECT_NE(std::find(report.observed.begin(), report.observed.end(), sig),
            report.observed.end());
  EXPECT_GT(report.frames_reconfigured, 0u);
  EXPECT_GT(report.scg_eval_seconds, 0.0);
  EXPECT_GT(report.reconfig_seconds, 0.0);
}

TEST(Session, TraceMatchesGoldenSimulation) {
  const Netlist user = small_user(5);
  const auto offline = run_offline(user, small_options());
  DebugSession session(offline);

  // Choose 3 signals and watch them for 64 cycles; a golden NetlistSimulator
  // of the ORIGINAL user circuit must agree with every captured sample.
  std::vector<std::string> want;
  for (netlist::NodeId id : user.topo_order()) {
    want.push_back(user.name(id));
    if (want.size() == 3) break;
  }
  const auto report = session.observe(want);
  session.reset();

  sim::NetlistSimulator golden(user);
  Rng rng(55);
  for (int cycle = 0; cycle < 64; ++cycle) {
    std::vector<bool> inputs;
    for (std::size_t i = 0; i < user.inputs().size(); ++i) {
      inputs.push_back(rng.next_bool());
    }
    golden.set_inputs(inputs);
    golden.eval();
    const BitVec& sample = session.step(inputs);
    for (std::size_t lane = 0; lane < session.num_lanes(); ++lane) {
      const auto id = user.find(report.observed[lane]);
      ASSERT_TRUE(id.has_value());
      EXPECT_EQ(sample.get(lane), golden.value(*id))
          << "cycle " << cycle << " lane " << lane << " signal "
          << report.observed[lane];
    }
    golden.step();
  }
  EXPECT_EQ(session.trace().samples_stored(), 64u);
}

TEST(Session, ReobservationWithoutRecompile) {
  const auto offline = run_offline(small_user(6), small_options());
  DebugSession session(offline);
  // Many debugging turns: each must cost frames + microseconds, never a
  // recompile.  Cross-check cumulative accounting.
  const auto& lanes = offline.instrumented.lane_signals;
  double eval = 0.0, reconf = 0.0;
  for (int turn = 0; turn < 8; ++turn) {
    const auto& lane = lanes[static_cast<std::size_t>(turn) % lanes.size()];
    const auto rep =
        session.observe({lane[static_cast<std::size_t>(turn) % lane.size()]});
    eval += rep.scg_eval_seconds;
    reconf += rep.reconfig_seconds;
    EXPECT_LT(rep.frames_reconfigured,
              offline.pconf->total_bits() / arch::FrameGeometry::kFrameBits)
        << "turn must be partial, not full";
  }
  const auto summary = session.summary();
  EXPECT_EQ(summary.turns, 9u);  // constructor turn + 8
  EXPECT_NEAR(summary.total_eval_seconds + summary.total_reconfig_seconds,
              eval + reconf, 1.0)
      << "summary accounting drifted";
  EXPECT_GT(summary.conventional_recompile_seconds,
            summary.total_eval_seconds);
}

TEST(Session, TriggerStopsRun) {
  const auto offline = run_offline(small_user(7), small_options());
  DebugSession session(offline);
  session.observe({});
  session.reset();
  Rng rng(77);
  // Trigger on lane 0 high with 3 post-trigger samples.
  std::string cond(session.num_lanes(), 'x');
  cond[0] = '1';
  sim::Trigger trigger(cond, 3);
  const auto [cycles, fired] = session.run(
      trigger,
      [&](std::uint64_t) {
        std::vector<bool> in;
        for (std::size_t i = 0;
             i < offline.instrumented.netlist.inputs().size(); ++i) {
          in.push_back(rng.next_bool());
        }
        return in;
      },
      500);
  if (fired) {
    EXPECT_LE(cycles, 500u);
    EXPECT_GE(session.trace().samples_stored(), 1u);
  }
}

TEST(Session, BugLocalizationRoundTrip) {
  // Inject an inversion into one gate of the user circuit, run the full
  // offline flow on the buggy design, then use debugging turns to find a
  // signal whose observed trace diverges from the golden model — the
  // paper's end-to-end use case.
  const Netlist golden_nl = small_user(8);
  Netlist buggy = golden_nl;  // value copy
  // Flip one mid-circuit gate's function.
  netlist::NodeId victim = netlist::kNullNode;
  for (netlist::NodeId id : buggy.topo_order()) {
    if (buggy.name(id) == "g20") victim = id;
  }
  ASSERT_NE(victim, netlist::kNullNode);
  buggy.rewrite_logic(victim, buggy.fanins(victim), ~buggy.function(victim));

  const auto offline = run_offline(buggy, small_options());
  DebugSession session(offline);
  sim::NetlistSimulator golden(golden_nl);

  // Sweep all observable signals lane-window by lane-window and find
  // mismatching signals; the earliest (topologically) mismatching signal
  // should be the victim itself.
  std::vector<std::string> mismatching;
  const auto& lanes = offline.instrumented.lane_signals;
  std::size_t max_index = 0;
  for (const auto& lane : lanes) max_index = std::max(max_index, lane.size());

  for (std::size_t index = 0; index < max_index; ++index) {
    std::vector<std::string> window;
    for (const auto& lane : lanes) {
      if (index < lane.size()) window.push_back(lane[index]);
    }
    // Signals may repeat across lanes (replication); dedupe.
    std::sort(window.begin(), window.end());
    window.erase(std::unique(window.begin(), window.end()), window.end());
    // Greedy: observe as many of the window as matching allows.
    std::vector<std::string> selected;
    for (const auto& s : window) {
      std::vector<std::string> trial = selected;
      trial.push_back(s);
      try {
        (void)offline.instrumented.select_signals(trial);
        selected = std::move(trial);
      } catch (const Error&) {
        // lane conflict: postpone to a later window
      }
    }
    if (selected.empty()) continue;
    const auto rep = session.observe(selected);
    session.reset();
    golden.reset();
    Rng rng(99);  // same stimulus every window
    for (int cycle = 0; cycle < 32; ++cycle) {
      std::vector<bool> inputs;
      for (std::size_t i = 0; i < golden_nl.inputs().size(); ++i) {
        inputs.push_back(rng.next_bool());
      }
      golden.set_inputs(inputs);
      golden.eval();
      const BitVec& sample = session.step(inputs);
      for (std::size_t lane = 0; lane < session.num_lanes(); ++lane) {
        const std::string& name = rep.observed[lane];
        const auto id = golden_nl.find(name);
        if (!id) continue;
        if (sample.get(lane) != golden.value(*id)) {
          mismatching.push_back(name);
        }
      }
      golden.step();
    }
  }
  std::sort(mismatching.begin(), mismatching.end());
  mismatching.erase(std::unique(mismatching.begin(), mismatching.end()),
                    mismatching.end());
  // The buggy gate must be exposed.
  EXPECT_NE(std::find(mismatching.begin(), mismatching.end(), "g20"),
            mismatching.end())
      << "bug not observable through the debug infrastructure";
}

}  // namespace
}  // namespace fpgadbg::debug
