// Functional simulation of a technology-mapped netlist.
//
// Evaluates LUTs, TLUTs and TCONs exactly as configured hardware would:
// parameter inputs are quasi-static values that change only between
// debugging turns, data inputs toggle every cycle.
//
// Two engines sit behind the same API, selected by SimBackend: the original
// per-cell interpreter (the oracle) and the compiled levelized engine
// (CompiledSimulator), the default.  The compiled engine runs the program
// folded on the current parameter values (ParamFolding): under fixed
// selects the trace-mux TCONs are wires, so a cycle evaluates only the user
// logic.  set_param() records the value; the first eval()/step() after a
// change re-folds the parameter cone and swaps the program in, keeping the
// latch state and cycle count.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "map/mapped_netlist.h"
#include "sim/compiled_simulator.h"
#include "sim/sim_backend.h"
#include "sim/sim_program.h"
#include "support/bitvec.h"

namespace fpgadbg::sim {

class MappedSimulator {
 public:
  explicit MappedSimulator(const map::MappedNetlist& mn,
                           SimBackend backend = default_sim_backend());

  const map::MappedNetlist& netlist() const { return mn_; }
  SimBackend backend() const { return backend_; }

  void reset();
  void set_input(map::CellId id, bool value);
  void set_input(const std::string& name, bool value);
  void set_inputs(const std::vector<bool>& values);
  void set_param(map::CellId id, bool value);
  void set_params(const std::vector<bool>& values);

  void eval();
  void step();

  bool value(map::CellId id) const {
    return engine_ ? engine_->value(id) : values_[id] != 0;
  }
  bool output(std::size_t index) const;
  std::vector<bool> output_values() const;

  std::uint64_t cycle() const { return engine_ ? engine_->cycle() : cycle_; }

  /// The compiled engine's program, folded on the parameter values of the
  /// last eval()/step(); null on the interpreted backend.
  const SimProgram* program() const {
    return engine_ ? &engine_->program() : nullptr;
  }
  /// Ops of the same design lowered with free parameters, and cells the
  /// current fold turned into aliases (0 on the interpreted backend).
  std::size_t unfolded_ops() const {
    return folding_ ? folding_->unfolded_ops() : 0;
  }
  std::size_t aliased_cells() const {
    return folding_ ? folding_->aliased_cells() : 0;
  }

  /// Sequential state snapshot (latch contents + cycle counter).  Emulators
  /// support state readback/restore so a debug run can rewind to just before
  /// a trigger and re-run with different observation parameters.
  struct Snapshot {
    std::vector<std::uint8_t> latch_state;
    std::uint64_t cycle = 0;
  };
  Snapshot snapshot() const;
  void restore(const Snapshot& snapshot);

 private:
  /// Re-folds the program on bound_ and swaps it into the engine.
  void refold();
  /// Publishes the current program's size as sim.program_* gauges.
  void note_program() const;

  const map::MappedNetlist& mn_;
  SimBackend backend_;
  /// Compiled path (engaged when backend_ == kCompiled).
  std::unique_ptr<ParamFolding> folding_;
  std::optional<CompiledSimulator> engine_;
  BitVec bound_;   ///< parameter values set, by mn.params() index
  BitVec folded_;  ///< parameter values the engine's program is folded on
  /// Interpreter path state (kInterpreted only).
  std::vector<map::CellId> topo_;
  std::vector<std::uint8_t> values_;
  std::vector<std::uint8_t> latch_state_;
  std::uint64_t cycle_ = 0;
};

}  // namespace fpgadbg::sim
