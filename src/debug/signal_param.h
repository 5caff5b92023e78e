// Signal parameterisation (paper §IV-A.2).
//
// Instruments a user circuit so that EVERY observable internal signal is
// multiplexed toward trace-buffer inputs.  The multiplexer select lines are
// not regular inputs: they are annotated as *parameters*, i.e. inputs that
// change only between debugging turns.  Downstream, TconMap folds the whole
// network into tuneable routing (TCONs) so it costs (almost) no LUTs, and
// the PConf machinery turns a new signal selection into a Boolean-function
// evaluation plus partial reconfiguration instead of a recompile.
//
// Structure (paper Fig. 6): per trace lane, a binary mux tree with shared
// select parameters per tree level.  Lane l observes signal index j when its
// select parameters spell out j in binary (LSB = level-0 select).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.h"
#include "support/bitvec.h"
#include "support/status.h"

namespace fpgadbg::debug {

struct InstrumentOptions {
  /// Number of trace-buffer inputs (lanes); one signal per lane is visible
  /// per debugging turn.
  std::size_t trace_width = 64;
  bool observe_logic = true;
  bool observe_latch_outputs = true;
  /// Cap on observed signals (0 = all observable).  The paper's future-work
  /// "critical signal selection" corresponds to lowering this.
  std::size_t max_observed = 0;
  /// Explicit observation list (e.g. from select_critical_signals); when
  /// non-empty only these signals are instrumented, in the given order.
  std::vector<std::string> observe_list;
  /// Mux radix per tree level; 2 = binary trees (default).  Higher radixes
  /// trade parameters for shallower trees (ablation B).
  int mux_radix = 2;
  /// Number of distinct lanes each signal is wired into.  1 = plain
  /// round-robin (two signals hashed to the same lane can never be watched
  /// together); higher values make the observability network a concentrator
  /// so that (almost) any W-subset of signals is simultaneously observable —
  /// the flexibility the paper's "dynamically change the small set of
  /// observed signals" requires.  Costs replication x more muxes, which is
  /// exactly the overhead the conventional mappers pay in Table I.
  int replication = 3;
};

struct Instrumented {
  netlist::Netlist netlist;  ///< user circuit + parameterized mux network

  /// Observable signal names per lane, in selection-index order.
  std::vector<std::vector<std::string>> lane_signals;
  /// Select parameter names per lane, LSB-first (level order).
  std::vector<std::vector<std::string>> lane_params;
  /// Name of each lane's trace output (feeds the trace buffer).
  std::vector<std::string> trace_outputs;

  /// Builds the derived lookup tables the selection calls use (a name ->
  /// placements index over lane_signals and the parameter numbering of
  /// lane_params).  Never serialized: parameterize_signals and the artifact
  /// loader call it; call it again after editing the lane tables by hand.
  void index_signals();

  std::size_t num_observable() const;

  /// Parameter index space: lane_params flattened lane by lane, LSB first
  /// (the order parameterize_signals adds them to netlist.params()).
  std::size_t num_params() const { return param_names_.size(); }
  const std::vector<std::string>& param_names() const { return param_names_; }

  /// First (lane, index) of a signal, or (npos, npos) if unobservable.
  std::pair<std::size_t, std::size_t> locate(const std::string& signal) const;
  /// All (lane, index) placements of a signal (replication >= 1 entries),
  /// ascending by lane.
  std::vector<std::pair<std::size_t, std::size_t>> locate_all(
      const std::string& signal) const;

  /// Parameter values (bit k = parameter k) that make the requested signals
  /// simultaneously visible, one per lane.  Lanes are chosen by bipartite
  /// matching over each signal's replicated placements; lanes not used
  /// keep index 0.  Throws if a name is unobservable or no conflict-free
  /// lane assignment exists.  Costs time in the number of requested signals
  /// and their placements, not in the number of observable signals.
  BitVec select_values(const std::vector<std::string>& signals) const;

  /// The signal each lane shows under parameter values.
  std::vector<std::string> observed_under_values(const BitVec& values) const;
  /// The same, as signal ids.
  std::vector<std::uint32_t> observed_ids_under_values(
      const BitVec& values) const;

  /// Signal ids: every observable signal once, numbered in the order a
  /// lane-by-lane scan of lane_signals first meets them.
  std::size_t num_signals() const {
    return place_begin_.empty() ? 0 : place_begin_.size() - 1;
  }
  const std::string& signal_name(std::uint32_t id) const {
    const Placement& p = placements_[place_begin_[id]];
    return lane_signals[p.lane][p.index];
  }

  /// Name-keyed adapters over select_values / observed_under_values: the
  /// assignment names every parameter; names observed_under does not know
  /// are ignored and missing ones read as false.
  std::unordered_map<std::string, bool> select_signals(
      const std::vector<std::string>& signals) const;
  std::vector<std::string> observed_under(
      const std::unordered_map<std::string, bool>& params) const;

 private:
  /// Placement (lane, index) of a signal in the lane tables.
  struct Placement {
    std::uint32_t lane;
    std::uint32_t index;
  };
  /// Id of an observable signal name (ids follow first appearance).
  std::unordered_map<std::string, std::uint32_t> signal_id_;
  /// CSR: signal id s lives at placements_[place_begin_[s] ..
  /// place_begin_[s+1]), ascending by lane.
  std::vector<std::uint32_t> place_begin_;
  std::vector<Placement> placements_;
  /// Signal id of lane l's index i: lane_signal_ids_[lane_begin_[l] + i].
  std::vector<std::uint32_t> lane_begin_;
  std::vector<std::uint32_t> lane_signal_ids_;
  /// Lane l's select bit b is parameter lane_param_begin_[l] + b.
  std::vector<std::uint32_t> lane_param_begin_;
  std::vector<std::string> param_names_;
};

/// Runs the signal parameterisation pass.  The returned netlist contains the
/// original circuit unchanged (same names) plus the mux network; its
/// params() are exactly the inserted select lines.
Instrumented parameterize_signals(const netlist::Netlist& nl,
                                  const InstrumentOptions& options = {});

/// Result form of parameterize_signals: invalid options or an
/// uninstrumentable netlist come back as a Status instead of throwing.
support::Result<Instrumented> try_parameterize_signals(
    const netlist::Netlist& nl, const InstrumentOptions& options = {});

}  // namespace fpgadbg::debug
