// The parameter-folded program behind MappedSimulator's compiled backend:
// on instrumented, TCON-mapped designs it must agree cell for cell with the
// interpreted oracle under every parameter assignment, carry latch state
// across re-folds, evaluate once per step and be smaller than the
// free-parameter program that CompiledSimulator runs when driven directly.
#include "sim/sim_program.h"

#include <gtest/gtest.h>

#include "debug/signal_param.h"
#include "genbench/genbench.h"
#include "map/mappers.h"
#include "sim/compiled_simulator.h"
#include "sim/mapped_simulator.h"
#include "support/rng.h"
#include "support/telemetry.h"

namespace fpgadbg::sim {
namespace {

using logic::TruthTable;
using map::CellId;
using map::MappedNetlist;
using map::MKind;

/// A genbench circuit with latches, instrumented and TCON-mapped.
MappedNetlist instrumented_design(std::uint64_t seed, int mux_radix = 2) {
  genbench::CircuitSpec spec{"fold" + std::to_string(seed), 10, 8, 6, 120, 6,
                             5, seed};
  debug::InstrumentOptions options;
  options.trace_width = 8;
  options.mux_radix = mux_radix;
  const auto inst = debug::parameterize_signals(genbench::generate(spec),
                                                options);
  return map::tcon_map(inst.netlist).netlist;
}

void set_params(MappedSimulator& a, MappedSimulator& b, const MappedNetlist& mn,
                Rng& rng) {
  for (CellId p : mn.params()) {
    const bool bit = rng.next_bool();
    a.set_param(p, bit);
    b.set_param(p, bit);
  }
}

/// Steps both simulators `cycles` times on the same random inputs and
/// checks every output and every cell's value after each step.
void expect_lockstep(MappedSimulator& comp, MappedSimulator& oracle,
                     const MappedNetlist& mn, int cycles, Rng& rng) {
  std::vector<bool> inputs(mn.inputs().size());
  for (int c = 0; c < cycles; ++c) {
    for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = rng.next_bool();
    comp.set_inputs(inputs);
    oracle.set_inputs(inputs);
    comp.step();
    oracle.step();
    ASSERT_EQ(comp.output_values(), oracle.output_values()) << "cycle " << c;
    for (CellId id = 0; id < mn.num_cells(); ++id) {
      ASSERT_EQ(comp.value(id), oracle.value(id))
          << "cycle " << c << " cell " << mn.cell(id).name;
    }
  }
}

TEST(FoldedProgram, MatchesInterpreterOverRandomAssignments) {
  for (const int radix : {2, 8}) {
    const MappedNetlist mn = instrumented_design(31, radix);
    ASSERT_GT(mn.count(MKind::kTcon), 0u);
    MappedSimulator comp(mn, SimBackend::kCompiled);
    MappedSimulator oracle(mn, SimBackend::kInterpreted);
    Rng rng(5 + static_cast<std::uint64_t>(radix));
    for (int assignment = 0; assignment < 32; ++assignment) {
      set_params(comp, oracle, mn, rng);
      expect_lockstep(comp, oracle, mn, 512, rng);
      if (HasFatalFailure()) return;
      // Under fixed selects every TCON is a wire: an alias, not an op.
      for (CellId id = 0; id < mn.num_cells(); ++id) {
        if (mn.cell(id).kind != MKind::kTcon) continue;
        EXPECT_NE(comp.program()->alias[id], id) << mn.cell(id).name;
        EXPECT_EQ(comp.program()->op_of_node[id], kNoOp) << mn.cell(id).name;
      }
    }
  }
}

TEST(FoldedProgram, ParameterChangeMidRunKeepsLatchState) {
  const MappedNetlist mn = instrumented_design(32);
  ASSERT_FALSE(mn.latches().empty());
  MappedSimulator comp(mn, SimBackend::kCompiled);
  MappedSimulator oracle(mn, SimBackend::kInterpreted);
  Rng rng(41);
  set_params(comp, oracle, mn, rng);
  expect_lockstep(comp, oracle, mn, 100, rng);
  const MappedSimulator::Snapshot before = comp.snapshot();
  set_params(comp, oracle, mn, rng);
  comp.eval();  // re-folds
  const MappedSimulator::Snapshot after = comp.snapshot();
  EXPECT_EQ(after.latch_state, before.latch_state);
  EXPECT_EQ(after.cycle, before.cycle);
  expect_lockstep(comp, oracle, mn, 200, rng);
}

TEST(FoldedProgram, SnapshotRestoreAcrossRefold) {
  const MappedNetlist mn = instrumented_design(33);
  MappedSimulator comp(mn, SimBackend::kCompiled);
  MappedSimulator oracle(mn, SimBackend::kInterpreted);
  Rng rng(43);
  set_params(comp, oracle, mn, rng);
  expect_lockstep(comp, oracle, mn, 64, rng);
  const MappedSimulator::Snapshot snap = comp.snapshot();

  // Record a stretch under the snapshot's parameters.
  const std::vector<bool> assignment = [&] {
    std::vector<bool> v;
    for (CellId p : mn.params()) v.push_back(comp.value(p));
    return v;
  }();
  Rng replay_rng(44);
  std::vector<std::vector<bool>> recorded;
  std::vector<bool> inputs(mn.inputs().size());
  for (int c = 0; c < 64; ++c) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      inputs[i] = replay_rng.next_bool();
    }
    comp.set_inputs(inputs);
    oracle.set_inputs(inputs);
    comp.step();
    oracle.step();
    recorded.push_back(comp.output_values());
  }

  // Re-fold onto other parameters, run, then restore under them: the
  // restored state must match the oracle restored the same way.
  set_params(comp, oracle, mn, rng);
  expect_lockstep(comp, oracle, mn, 32, rng);
  comp.restore(snap);
  oracle.restore(snap);
  expect_lockstep(comp, oracle, mn, 32, rng);

  // Back to the original parameters (another re-fold) and the snapshot:
  // the recorded stretch replays exactly.
  comp.set_params(assignment);
  comp.restore(snap);
  Rng again(44);
  for (int c = 0; c < 64; ++c) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      inputs[i] = again.next_bool();
    }
    comp.set_inputs(inputs);
    comp.step();
    ASSERT_EQ(comp.output_values(), recorded[static_cast<std::size_t>(c)])
        << "cycle " << c;
  }
}

TEST(FoldedProgram, OneEvaluationPerStep) {
  const MappedNetlist mn = instrumented_design(34);
  MappedSimulator comp(mn, SimBackend::kCompiled);
  telemetry::Counter& evals = telemetry::metrics().counter("sim.evals");
  telemetry::Histogram& refolds =
      telemetry::metrics().histogram("sim.refold_seconds");
  Rng rng(45);
  std::vector<bool> inputs(mn.inputs().size());
  for (int c = 0; c < 64; ++c) {
    if (c % 8 == 0) {
      for (CellId p : mn.params()) comp.set_param(p, rng.next_bool());
    }
    for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = rng.next_bool();
    comp.set_inputs(inputs);
    const std::uint64_t evals_before = evals.value();
    comp.step();
    EXPECT_EQ(evals.value(), evals_before + 1) << "cycle " << c;
  }
  // Setting the values the program is already folded on re-folds nothing.
  const std::uint64_t folds = refolds.summary().count;
  for (CellId p : mn.params()) comp.set_param(p, comp.value(p));
  comp.step();
  EXPECT_EQ(refolds.summary().count, folds);
}

TEST(FoldedProgram, SmallerThanTheFreeParameterProgram) {
  const MappedNetlist mn = instrumented_design(35);
  MappedSimulator comp(mn, SimBackend::kCompiled);
  const CompiledSimulator direct(mn);
  EXPECT_EQ(direct.program().ops.size(), comp.unfolded_ops());
  EXPECT_EQ(lower_program(mn).ops.size(), comp.unfolded_ops());
  EXPECT_LT(comp.program()->ops.size(), comp.unfolded_ops());
  EXPECT_GE(comp.aliased_cells(), mn.count(MKind::kTcon));
  // The free-parameter program aliases nothing.
  for (CellId id = 0; id < mn.num_cells(); ++id) {
    EXPECT_EQ(direct.program().alias[id], id);
  }
}

TEST(FoldedProgram, PropagatesConstantsThroughTheCone) {
  // A hand-built cone: a wide 8:1 TCON, a TLUT that is constant under some
  // parameters and an inverter under others, a LUT fed by that TLUT (folds
  // to a constant or to a wire), and a latch whose D pin is a TCON.
  MappedNetlist mn("cone");
  std::vector<CellId> in;
  for (int i = 0; i < 8; ++i) {
    in.push_back(mn.add_source(MKind::kInput, "i" + std::to_string(i)));
  }
  std::vector<CellId> sel;
  for (int i = 0; i < 3; ++i) {
    sel.push_back(mn.add_source(MKind::kParam, "s" + std::to_string(i)));
  }
  const CellId q = mn.add_latch_source("q", 1);
  // mux8: f = data[sel], 8 data + 3 select variables.
  TruthTable mux8(11);
  for (std::size_t x = 0; x < mux8.num_bits(); ++x) {
    mux8.set_bit(x, (x >> (x >> 8)) & 1);
  }
  const CellId wide = mn.add_cell(MKind::kTcon, "wide", in, sel, mux8);
  // tl(a; s0, s1) = s1 ? (s0 ? 1 : 0) : ~a.
  TruthTable tl(3);
  for (std::size_t x = 0; x < 8; ++x) {
    const bool a = x & 1, s0 = (x >> 1) & 1, s1 = (x >> 2) & 1;
    tl.set_bit(x, s1 ? s0 : !a);
  }
  const CellId tlut =
      mn.add_cell(MKind::kTlut, "tl", {in[0]}, {sel[0], sel[1]}, tl);
  const CellId gate = mn.add_cell(MKind::kLut, "and", {tlut, in[1]}, {},
                                  TruthTable::from_bits(0b1000, 2));
  const CellId pick = mn.add_cell(MKind::kTcon, "pick", {q, in[2]}, {sel[2]},
                                  TruthTable::from_bits(0b11001010, 3));
  mn.set_latch_input(0, pick);
  const CellId mix = mn.add_cell(MKind::kLut, "mix", {wide, gate, q}, {},
                                 TruthTable::from_bits(0b10010110, 3));
  mn.add_output(mix, "mix");
  mn.add_output(gate, "gate");
  mn.add_output(wide, "wide");

  MappedSimulator comp(mn, SimBackend::kCompiled);
  MappedSimulator oracle(mn, SimBackend::kInterpreted);
  Rng rng(46);
  for (int assignment = 0; assignment < 8; ++assignment) {
    std::vector<bool> values;
    for (int b = 0; b < 3; ++b) values.push_back((assignment >> b) & 1);
    comp.set_params(values);
    oracle.set_params(values);
    expect_lockstep(comp, oracle, mn, 32, rng);
    if (HasFatalFailure()) return;
    const SimProgram& prog = *comp.program();
    EXPECT_EQ(prog.alias[wide], in[static_cast<std::size_t>(assignment)]);
    EXPECT_EQ(prog.alias[pick], values[2] ? in[2] : q);
    if (values[1]) {
      // tl is constant: `and` is 0 or a wire to i1.
      EXPECT_EQ(prog.alias[gate], values[0] ? in[1] : gate);
    } else {
      EXPECT_EQ(prog.alias[tlut], tlut);  // an inverter op
    }
  }
}

}  // namespace
}  // namespace fpgadbg::sim
