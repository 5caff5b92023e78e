// Online specialisation stage: the interactive debugging session.
//
// Per debugging turn the designer picks a set of internal signals; the
// session evaluates the PConf's Boolean functions (SCG), derives the frame
// diff against the currently loaded configuration, charges the HWICAP
// partial-reconfiguration model, and retargets the emulated DUT's trace
// lanes — all WITHOUT recompiling anything.  Emulation itself runs on the
// mapped netlist simulator with trace-buffer capture and triggers.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bitstream/churn.h"
#include "bitstream/icap.h"
#include "debug/coverage.h"
#include "debug/flow.h"
#include "debug/journal.h"
#include "debug/scenario_batch.h"
#include "sim/mapped_simulator.h"
#include "sim/sim_backend.h"
#include "sim/trace_buffer.h"
#include "sim/trigger.h"

namespace fpgadbg::debug {

struct TurnReport {
  std::vector<std::string> observed;     ///< signal shown per lane
  std::size_t bits_changed = 0;          ///< configuration bits rewritten
  std::size_t frames_reconfigured = 0;   ///< DPR frame count
  double scg_eval_seconds = 0.0;         ///< measured Boolean evaluation time
  double reconfig_seconds = 0.0;         ///< modeled HWICAP transfer time
  double turn_seconds = 0.0;             ///< eval + reconfig
  // The measured ledger of the turn: each part is timed inside observe(),
  // so the parts never add up to more than wall_seconds.
  double select_seconds = 0.0;      ///< signal matching -> parameter values
  double frame_diff_seconds = 0.0;  ///< frame list -> ICAP model and churn
  double retarget_seconds = 0.0;    ///< parameter values -> emulated DUT
  double wall_seconds = 0.0;        ///< the whole observe() call
};

struct SessionSummary {
  std::size_t turns = 0;
  std::size_t cycles_emulated = 0;
  double total_eval_seconds = 0.0;
  double total_reconfig_seconds = 0.0;
  /// What the conventional flow would have paid instead: one full
  /// recompilation (offline map+P&R time) per signal-set change.
  double conventional_recompile_seconds = 0.0;
};

class DebugSession {
 public:
  /// `offline` must outlive the session.  `backend` selects the emulation
  /// engine behind the DUT (compiled levelized program by default).
  DebugSession(const OfflineResult& offline,
               bitstream::IcapModel icap = {},
               std::size_t trace_depth = 1024,
               sim::SimBackend backend = sim::default_sim_backend());
  ~DebugSession();

  std::size_t num_lanes() const { return lanes_; }
  const sim::TraceBuffer& trace() const { return trace_; }
  const std::vector<std::string>& observed() const { return observed_; }
  /// The configuration the last turn loaded; null without a PConf.
  const bitstream::ConfigMemory* configuration() const {
    return current_spec_ ? &current_spec_->memory : nullptr;
  }
  sim::MappedSimulator& dut() { return sim_; }

  /// The session flight recorder.  Enabled by default (in-memory ring only);
  /// attach a JSONL sink with journal().set_sink() to persist it, or
  /// journal().set_enabled(false) to drop the recording entirely.
  SessionJournal& journal() { return journal_; }
  const SessionJournal& journal() const { return journal_; }

  /// Which parameterized signals have ever been observed, with the per-turn
  /// coverage curve and hierarchical rollup.
  const CoverageTracker& coverage() const { return coverage_; }

  /// Per-frame reconfiguration write counts (the churn heatmap).
  const bitstream::FrameChurn& churn() const { return churn_; }

  /// One debugging turn: select new signals (others default to index 0).
  TurnReport observe(const std::vector<std::string>& signals);

  /// Reset the emulated DUT and clear the trace window.
  void reset();

  /// One emulation cycle: drive inputs, evaluate and clock (one DUT
  /// evaluation), capture the cycle's trace sample.  Returns the sample.
  const BitVec& step(const std::vector<bool>& inputs);

  /// Runs until the trigger stops capture or max_cycles elapse; inputs come
  /// from the generator (called once per cycle).  Returns the cycle count
  /// executed and whether the trigger fired.
  std::pair<std::uint64_t, bool> run(
      sim::Trigger& trigger,
      const std::function<std::vector<bool>(std::uint64_t)>& input_source,
      std::uint64_t max_cycles);

  SessionSummary summary() const { return summary_; }

  /// Batched scenario campaign over this session's mapped design: drives
  /// S independent stimulus universes (optionally fault-injected) through
  /// the structure-of-arrays engine, 64 x blocks scenarios per pass.  This
  /// is the entry point equivalence and `fpgadbg campaign` consumers use to
  /// sweep thousands of scenarios without touching the interactive DUT
  /// state of the session.
  ScenarioBatchResult run_scenario_batch(
      const ScenarioBatchOptions& options) const;

  /// Emulation-state rewind: capture the DUT's sequential state, run ahead,
  /// then restore and re-run (typically after re-parameterizing onto a
  /// deeper signal set) — the classic "replay the failure with better
  /// visibility" move.  The trace window is not part of the snapshot.
  sim::MappedSimulator::Snapshot snapshot() const;
  void restore(const sim::MappedSimulator::Snapshot& snap);

 private:
  /// Emits the pending kCycleBatch event (if any cycles accumulated).
  void flush_cycle_batch() const;
  void journal_event(SessionEvent event) const;

  const OfflineResult& offline_;
  bitstream::IcapModel icap_;
  sim::MappedSimulator sim_;
  std::size_t lanes_;
  sim::TraceBuffer trace_;
  std::vector<map::CellId> lane_cells_;  ///< trace output cell per lane
  /// The session's parameter index space is the instrumentation's
  /// (Instrumented::param_names()); the PConf's must match it.  DUT cell of
  /// each parameter, for the retarget.
  std::vector<map::CellId> param_cells_;
  std::vector<std::string> observed_;
  /// Last specialization + its parameter values: enables the incremental
  /// SCG (only parameter-touched bits are re-evaluated on later turns).
  std::optional<bitstream::PConf::Specialization> current_spec_;
  BitVec current_values_;
  SessionSummary summary_;
  BitVec last_sample_;
  /// Flight recorder + analytics.  Mutable: const entry points (snapshot)
  /// still journal, and step() batches cycles through pending_cycles_.
  mutable SessionJournal journal_;
  mutable std::uint64_t pending_cycles_ = 0;
  CoverageTracker coverage_;
  bitstream::FrameChurn churn_;
};

}  // namespace fpgadbg::debug
