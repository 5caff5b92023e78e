// Index-addressed debug turns: the name -> placements index, the
// parameter-value selection the session drives the SCG and the DUT with, and
// the one-evaluation emulation cycle, each checked against the name-keyed
// and full-evaluation references.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "debug/flow.h"
#include "debug/session.h"
#include "flow/artifacts.h"
#include "genbench/genbench.h"
#include "sim/simulator.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/telemetry.h"

namespace fpgadbg::debug {
namespace {

using netlist::Netlist;

Netlist small_user(std::uint64_t seed, std::size_t gates = 36) {
  genbench::CircuitSpec spec{"idx" + std::to_string(seed), 8, 6, 4, gates, 3,
                             5, seed};
  return genbench::generate(spec);
}

OfflineOptions small_options() {
  OfflineOptions options;
  options.instrument.trace_width = 6;
  return options;
}

/// The lookup the name index replaces: scan every lane for the signal.
std::vector<std::pair<std::size_t, std::size_t>> linear_locate_all(
    const Instrumented& inst, const std::string& signal) {
  std::vector<std::pair<std::size_t, std::size_t>> found;
  for (std::size_t l = 0; l < inst.lane_signals.size(); ++l) {
    const auto& lane = inst.lane_signals[l];
    const auto it = std::find(lane.begin(), lane.end(), signal);
    if (it != lane.end()) {
      found.emplace_back(l, static_cast<std::size_t>(it - lane.begin()));
    }
  }
  return found;
}

std::string error_of(const std::function<void()>& call) {
  try {
    call();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(SignalIndex, MatchesLinearScanForEveryObservableSignal) {
  for (int replication : {1, 3}) {
    for (int radix : {2, 4}) {
      InstrumentOptions opt;
      opt.trace_width = 5;
      opt.replication = replication;
      opt.mux_radix = radix;
      const Instrumented inst = parameterize_signals(small_user(3, 60), opt);
      std::size_t checked = 0;
      for (const auto& lane : inst.lane_signals) {
        for (const std::string& signal : lane) {
          EXPECT_EQ(inst.locate_all(signal), linear_locate_all(inst, signal))
              << signal << " replication " << replication << " radix "
              << radix;
          ++checked;
        }
      }
      EXPECT_EQ(checked, inst.num_observable());
      EXPECT_TRUE(inst.locate_all("no_such_signal").empty());
    }
  }
}

TEST(SignalIndex, SurvivesCopiesAndArtifactRoundTrip) {
  const Instrumented inst = parameterize_signals(small_user(4), {});
  flow::ByteWriter w;
  flow::serialize_instrumented(inst, w);
  flow::ByteReader r(w.bytes());
  auto loaded = flow::deserialize_instrumented(r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  const std::string signal = inst.lane_signals[1][0];
  for (const Instrumented& other : {Instrumented(inst), loaded.value()}) {
    EXPECT_EQ(other.locate_all(signal), inst.locate_all(signal));
    EXPECT_EQ(other.param_names(), inst.param_names());
    EXPECT_EQ(other.select_values({signal}), inst.select_values({signal}));
  }
}

TEST(SignalIndex, RejectsUnknownAndUnmatchableNamesWithTheSameErrors) {
  InstrumentOptions opt;
  opt.trace_width = 4;
  opt.replication = 1;
  const Instrumented inst = parameterize_signals(small_user(5), opt);
  EXPECT_EQ(error_of([&] { (void)inst.select_signals({"no_such_signal"}); }),
            "signal is not observable: no_such_signal");
  EXPECT_EQ(error_of([&] { (void)inst.select_values({"no_such_signal"}); }),
            "signal is not observable: no_such_signal");
  // Without replication two signals of one lane can never be shown
  // together.
  ASSERT_GE(inst.lane_signals[0].size(), 2u);
  const std::vector<std::string> clash = {inst.lane_signals[0][0],
                                          inst.lane_signals[0][1]};
  const std::string expect = "no conflict-free lane assignment: signal " +
                             clash[1] +
                             " cannot be observed together with the others";
  EXPECT_EQ(error_of([&] { (void)inst.select_signals(clash); }), expect);
  EXPECT_EQ(error_of([&] { (void)inst.select_values(clash); }), expect);
}

TEST(SignalIndex, ValuesAndAssignmentsAgree) {
  const Instrumented inst = parameterize_signals(small_user(6), {});
  ASSERT_EQ(inst.num_params(), inst.netlist.params().size());
  for (std::size_t k = 0; k < inst.num_params(); ++k) {
    EXPECT_EQ(inst.param_names()[k],
              inst.netlist.name(inst.netlist.params()[k]));
  }
  const std::vector<std::string> want = {inst.lane_signals[0][1],
                                         inst.lane_signals[2][0]};
  const BitVec values = inst.select_values(want);
  const auto assignment = inst.select_signals(want);
  ASSERT_EQ(assignment.size(), inst.num_params());
  for (std::size_t k = 0; k < inst.num_params(); ++k) {
    EXPECT_EQ(assignment.at(inst.param_names()[k]), values.get(k));
  }
  EXPECT_EQ(inst.observed_under(assignment),
            inst.observed_under_values(values));
}

const SessionEvent* last_event(const SessionJournal& journal,
                               SessionEventKind kind) {
  const auto& events = journal.events();
  for (auto it = events.rbegin(); it != events.rend(); ++it) {
    if (it->kind == kind) return &*it;
  }
  return nullptr;
}

// 300 random sweep and reselect turns: every turn the session reports must
// equal a name-keyed replay of the same requests (full-memory frame diff)
// and a full specialization of the same assignment.
TEST(IndexTurn, RandomTurnsMatchTheNameKeyedReplay) {
  const auto offline = run_offline(small_user(11, 60), small_options());
  const Instrumented& inst = offline.instrumented;
  const bitstream::PConf& pconf = *offline.pconf;
  DebugSession session(offline);
  const std::size_t lanes = inst.lane_signals.size();
  std::vector<std::size_t> choice(lanes, 0);
  auto prev_a = inst.select_signals({});
  auto prev = pconf.specialize(prev_a);
  ASSERT_NE(session.configuration(), nullptr);
  EXPECT_EQ(*session.configuration(), prev.memory);
  Rng rng(0x7e57);
  for (int turn = 0; turn < 300; ++turn) {
    if (turn % 8 == 0) {
      for (std::size_t l = 0; l < lanes; ++l) {
        choice[l] = rng.next_below(inst.lane_signals[l].size());
      }
    } else {
      const std::size_t l = rng.next_below(lanes);
      choice[l] = rng.next_below(inst.lane_signals[l].size());
    }
    std::vector<std::string> request;
    std::set<std::string> seen;
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::string& s = inst.lane_signals[l][choice[l]];
      if (seen.insert(s).second) request.push_back(s);
    }

    const TurnReport report = session.observe(request);
    const auto a = inst.select_signals(request);
    const auto spec = pconf.specialize_incremental(prev, prev_a, a);
    const auto frames = prev.memory.changed_frames(spec.memory);
    EXPECT_EQ(report.observed, inst.observed_under(a)) << "turn " << turn;
    EXPECT_EQ(report.frames_reconfigured, frames.size()) << "turn " << turn;
    EXPECT_EQ(report.bits_changed, prev.memory.bit_distance(spec.memory))
        << "turn " << turn;
    EXPECT_EQ(spec.changed_frames, frames) << "turn " << turn;
    const SessionEvent* icap =
        last_event(session.journal(), SessionEventKind::kIcapWrite);
    ASSERT_NE(icap, nullptr);
    EXPECT_EQ(icap->frame_ids,
              std::vector<std::uint64_t>(frames.begin(), frames.end()))
        << "turn " << turn;
    ASSERT_NE(session.configuration(), nullptr);
    EXPECT_EQ(*session.configuration(), pconf.specialize(a).memory)
        << "turn " << turn;
    EXPECT_EQ(*session.configuration(), spec.memory) << "turn " << turn;
    // The ledger's parts are timed inside the turn's wall time.
    EXPECT_LE(report.select_seconds + report.scg_eval_seconds +
                  report.frame_diff_seconds + report.retarget_seconds,
              report.wall_seconds);
    prev = spec;
    prev_a = a;
  }
}

TEST(IndexTurn, SessionRejectsUnobservableSignals) {
  const auto offline = run_offline(small_user(12), small_options());
  DebugSession session(offline);
  EXPECT_EQ(error_of([&] { (void)session.observe({"no_such_signal"}); }),
            "signal is not observable: no_such_signal");
}

// One emulated cycle is one DUT evaluation, and the captured window still
// equals the instrumented netlist's trace outputs on both engines.
TEST(SessionStep, WindowMatchesNetlistReferenceOnBothBackends) {
  const auto offline = run_offline(small_user(13, 60), small_options());
  const Instrumented& inst = offline.instrumented;
  const map::MappedNetlist& mn = offline.mapping.netlist;
  const Netlist& nl = inst.netlist;
  std::vector<std::size_t> lane_out;
  for (const std::string& name : inst.trace_outputs) {
    const auto& names = nl.output_names();
    lane_out.push_back(static_cast<std::size_t>(
        std::find(names.begin(), names.end(), name) - names.begin()));
  }
  for (sim::SimBackend backend :
       {sim::SimBackend::kInterpreted, sim::SimBackend::kCompiled}) {
    DebugSession session(offline, {}, 1024, backend);
    const std::vector<std::string> want = {inst.lane_signals[0][1],
                                           inst.lane_signals[3][2]};
    session.observe(want);
    sim::NetlistSimulator ref(nl);
    const auto assignment = inst.select_signals(want);
    for (netlist::NodeId p : nl.params()) {
      ref.set_param(p, assignment.at(nl.name(p)));
    }
    Rng rng(0x5eed);
    for (int c = 0; c < 256; ++c) {
      std::vector<bool> inputs(mn.inputs().size());
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        inputs[i] = rng.next_bool();
        ref.set_input(mn.cell(mn.inputs()[i]).name, inputs[i]);
      }
      const BitVec sample = session.step(inputs);
      ref.eval();
      for (std::size_t l = 0; l < lane_out.size(); ++l) {
        ASSERT_EQ(sample.get(l), ref.output(lane_out[l]))
            << sim::to_string(backend) << " cycle " << c << " lane " << l;
      }
      ref.step();
    }
    EXPECT_EQ(session.trace().samples_stored(), 256u);
  }
}

TEST(SessionStep, OneCompiledEvaluationPerCycle) {
  const auto offline = run_offline(small_user(14), small_options());
  DebugSession session(offline, {}, 1024, sim::SimBackend::kCompiled);
  telemetry::Counter& evals = telemetry::metrics().counter("sim.evals");
  const std::vector<bool> inputs(offline.mapping.netlist.inputs().size(),
                                 true);
  const std::uint64_t before = evals.value();
  for (int c = 0; c < 100; ++c) session.step(inputs);
  EXPECT_EQ(evals.value() - before, 100u);
}

}  // namespace
}  // namespace fpgadbg::debug
