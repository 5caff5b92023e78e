#include "debug/session.h"

#include <algorithm>

#include "support/error.h"
#include "support/log.h"
#include "support/stopwatch.h"
#include "support/telemetry.h"

namespace fpgadbg::debug {

using map::CellId;
using map::MappedNetlist;

DebugSession::DebugSession(const OfflineResult& offline,
                           bitstream::IcapModel icap, std::size_t trace_depth,
                           sim::SimBackend backend)
    : offline_(offline),
      icap_(icap),
      sim_(offline.mapping.netlist, backend),
      lanes_(offline.instrumented.trace_outputs.size()),
      trace_(lanes_, trace_depth),
      last_sample_(lanes_) {
  const MappedNetlist& mn = offline_.mapping.netlist;
  lane_cells_.resize(lanes_);
  for (std::size_t l = 0; l < lanes_; ++l) {
    const auto& names = mn.output_names();
    const auto it = std::find(names.begin(), names.end(),
                              offline_.instrumented.trace_outputs[l]);
    FPGADBG_REQUIRE(it != names.end(), "trace output missing after mapping");
    lane_cells_[l] =
        mn.outputs()[static_cast<std::size_t>(it - names.begin())];
  }
  const Instrumented& inst = offline_.instrumented;
  param_cells_.reserve(inst.num_params());
  for (const std::string& name : inst.param_names()) {
    const auto cell = mn.find(name);
    FPGADBG_REQUIRE(cell && mn.cell(*cell).kind == map::MKind::kParam,
                    "select parameter missing after mapping: " + name);
    param_cells_.push_back(*cell);
  }
  FPGADBG_REQUIRE(!offline_.pconf ||
                      offline_.pconf->param_names() == inst.param_names(),
                  "PConf parameters differ from the instrumentation's");
  {
    // The coverage universe: every signal wired into any lane, listed in
    // signal-id order so the tracker's ids are the instrumentation's.
    std::vector<std::string> observable;
    observable.reserve(inst.num_signals());
    for (std::uint32_t id = 0; id < inst.num_signals(); ++id) {
      observable.push_back(inst.signal_name(id));
    }
    coverage_ = CoverageTracker(observable);
  }
  if (journal_.enabled()) {
    SessionEvent e;
    e.kind = SessionEventKind::kSessionStart;
    e.count = lanes_;
    journal_event(std::move(e));
  }
  // Default observation: lane index 0 everywhere.
  observe({});
}

DebugSession::~DebugSession() {
  // The final partial cycle batch still belongs in the record.
  flush_cycle_batch();
}

void DebugSession::journal_event(SessionEvent event) const {
  event.turn = summary_.turns;
  event.cycle = summary_.cycles_emulated;
  // Stamp the active causal context (the observe() turn span, in practice)
  // so the recorded event joins against its trace spans and log lines.
  const telemetry::TraceContext ctx = telemetry::current_trace_context();
  event.trace_id = ctx.trace_id;
  event.span_id = ctx.span_id;
  journal_.append(std::move(event));
}

void DebugSession::flush_cycle_batch() const {
  if (pending_cycles_ == 0) return;
  if (journal_.enabled()) {
    SessionEvent e;
    e.kind = SessionEventKind::kCycleBatch;
    e.count = pending_cycles_;
    journal_event(std::move(e));
  }
  pending_cycles_ = 0;
}

TurnReport DebugSession::observe(const std::vector<std::string>& signals) {
  Stopwatch wall;
  telemetry::MetricsRegistry& m = telemetry::metrics();
  telemetry::TraceScope turn_span("debug.turn");
  flush_cycle_batch();
  if (journal_.enabled()) {
    SessionEvent e;
    e.kind = SessionEventKind::kTurnStart;
    e.signals = signals;
    journal_event(std::move(e));
  }
  TurnReport report;
  Stopwatch part;
  const Instrumented& inst = offline_.instrumented;
  BitVec values = inst.select_values(signals);
  const std::vector<std::uint32_t> observed_ids =
      inst.observed_ids_under_values(values);
  report.observed.reserve(observed_ids.size());
  for (std::uint32_t id : observed_ids) {
    report.observed.push_back(inst.signal_name(id));
  }
  report.select_seconds = part.elapsed_seconds();

  if (offline_.pconf) {
    const bool full = !current_spec_;
    {
      telemetry::TraceScope scg_span("debug.scg");
      // Incremental SCG after the first load: re-evaluate only the
      // functions of changed parameters, updating the loaded configuration
      // in place; the result lists the flipped bits' frames.  The first
      // load evaluates everything.
      current_spec_ =
          full ? offline_.pconf->specialize_values(values)
               : offline_.pconf->specialize_values_incremental(
                     std::move(*current_spec_), current_values_, values);
    }
    const bitstream::PConf::Specialization& spec = *current_spec_;
    report.scg_eval_seconds = spec.eval_seconds;
    part.restart();
    {
      telemetry::TraceScope dpr_span("debug.dpr");
      if (full) {
        report.frames_reconfigured = spec.memory.num_frames();
        report.bits_changed = spec.memory.bits().count();
        report.reconfig_seconds = icap_.full_seconds(spec.memory.num_frames());
        churn_.record_full(spec.memory.num_frames());
      } else {
        report.frames_reconfigured = spec.changed_frames.size();
        report.bits_changed = spec.bits_changed;
        report.reconfig_seconds =
            icap_.partial_seconds(spec.changed_frames.size());
        churn_.record_partial(spec.changed_frames);
      }
    }
    report.frame_diff_seconds = part.elapsed_seconds();
    m.counter("debug.bits_changed").add(report.bits_changed);
    m.histogram("debug.reconfig_seconds").observe(report.reconfig_seconds);
    if (journal_.enabled()) {
      SessionEvent scg;
      scg.kind = SessionEventKind::kScgEval;
      scg.bits_changed = report.bits_changed;
      scg.bits_evaluated = spec.bits_evaluated;
      scg.incremental = !full;
      scg.scg_eval_seconds = report.scg_eval_seconds;
      journal_event(std::move(scg));
      SessionEvent icap;
      icap.kind = SessionEventKind::kIcapWrite;
      icap.frames = report.frames_reconfigured;
      icap.full = full;
      icap.reconfig_seconds = report.reconfig_seconds;
      icap.frame_ids.assign(spec.changed_frames.begin(),
                            spec.changed_frames.end());
      journal_event(std::move(icap));
    }
  }
  m.counter("debug.turns").add(1);
  report.turn_seconds =
      m.histogram("debug.turn_seconds")
          .observe(report.scg_eval_seconds + report.reconfig_seconds);
  LOG_INFO << "debug turn " << summary_.turns + 1 << ": "
           << report.bits_changed << " bits over "
           << report.frames_reconfigured << " frames, SCG "
           << report.scg_eval_seconds * 1e6 << " us, reconfig "
           << report.reconfig_seconds * 1e6 << " us";

  // Apply the parameters to the emulated DUT (the effect the partial
  // reconfiguration has on real hardware).
  part.restart();
  for (std::size_t k = 0; k < param_cells_.size(); ++k) {
    sim_.set_param(param_cells_[k], values.get(k));
  }
  report.retarget_seconds = part.elapsed_seconds();
  current_values_ = std::move(values);
  observed_ = report.observed;

  const double coverage = coverage_.note_turn_ids(observed_ids);
  m.gauge("debug.coverage.observed")
      .set(static_cast<double>(coverage_.observed()));
  m.gauge("debug.coverage.observable")
      .set(static_cast<double>(coverage_.observable()));
  m.gauge("debug.coverage.fraction").set(coverage);
  if (journal_.enabled()) {
    SessionEvent e;
    e.kind = SessionEventKind::kTurnEnd;
    e.signals = report.observed;
    e.bits_changed = report.bits_changed;
    e.frames = report.frames_reconfigured;
    e.turn_seconds = report.turn_seconds;
    e.coverage = coverage;
    journal_event(std::move(e));
  }

  ++summary_.turns;
  summary_.total_eval_seconds += report.scg_eval_seconds;
  summary_.total_reconfig_seconds += report.reconfig_seconds;
  summary_.conventional_recompile_seconds +=
      offline_.map_seconds + offline_.pnr_seconds +
      offline_.bitstream_seconds;
  report.wall_seconds = wall.elapsed_seconds();
  return report;
}

ScenarioBatchResult DebugSession::run_scenario_batch(
    const ScenarioBatchOptions& options) const {
  // The campaign runs on its own SoA engine over the session's mapped
  // design; the interactive DUT (sim_) and its trace window are untouched.
  return debug::run_scenario_batch(offline_.mapping.netlist, options);
}

void DebugSession::reset() {
  flush_cycle_batch();
  sim_.reset();
  trace_.clear();
  if (journal_.enabled()) {
    SessionEvent e;
    e.kind = SessionEventKind::kReset;
    journal_event(std::move(e));
  }
}

const BitVec& DebugSession::step(const std::vector<bool>& inputs) {
  sim_.set_inputs(inputs);
  // step() evaluates once and then clocks; both engines leave the cycle's
  // combinational values in place, so the sample needs no second eval.
  sim_.step();
  for (std::size_t l = 0; l < lanes_; ++l) {
    last_sample_.set(l, sim_.value(lane_cells_[l]));
  }
  trace_.capture(last_sample_);
  ++summary_.cycles_emulated;
  ++pending_cycles_;
  static telemetry::Counter& cycles =
      telemetry::metrics().counter("debug.cycles_emulated");
  cycles.add(1);
  return last_sample_;
}

namespace {

/// Newest samples of the frozen window, '0'/'1' per lane (lane 0 first),
/// oldest of the kept tail first.  Bounded so a deep trace buffer does not
/// balloon the journal.
constexpr std::size_t kMaxJournaledSamples = 64;

std::vector<std::string> tail_samples(const sim::TraceBuffer& trace) {
  const std::size_t n = trace.samples_stored();
  const std::size_t keep = n < kMaxJournaledSamples ? n : kMaxJournaledSamples;
  std::vector<std::string> out;
  out.reserve(keep);
  for (std::size_t age = keep; age-- > 0;) {
    const BitVec& sample = trace.sample_back(age);
    std::string bits(sample.size(), '0');
    for (std::size_t l = 0; l < sample.size(); ++l) {
      if (sample.get(l)) bits[l] = '1';
    }
    out.push_back(std::move(bits));
  }
  return out;
}

}  // namespace

std::pair<std::uint64_t, bool> DebugSession::run(
    sim::Trigger& trigger,
    const std::function<std::vector<bool>(std::uint64_t)>& input_source,
    std::uint64_t max_cycles) {
  auto finish = [&](std::uint64_t cycles_run, bool fired) {
    flush_cycle_batch();
    if (fired && journal_.enabled()) {
      SessionEvent fire;
      fire.kind = SessionEventKind::kTriggerFire;
      fire.count = trigger.fire_cycle();
      journal_event(std::move(fire));
      SessionEvent window;
      window.kind = SessionEventKind::kTraceWindow;
      window.count = trace_.samples_stored();
      window.samples = tail_samples(trace_);
      journal_event(std::move(window));
    }
    return std::pair<std::uint64_t, bool>{cycles_run, fired};
  };
  for (std::uint64_t c = 0; c < max_cycles; ++c) {
    const BitVec& sample = step(input_source(c));
    if (!trigger.observe(sample)) {
      return finish(c + 1, true);
    }
  }
  return finish(max_cycles, trigger.fired());
}

sim::MappedSimulator::Snapshot DebugSession::snapshot() const {
  flush_cycle_batch();
  auto snap = sim_.snapshot();
  if (journal_.enabled()) {
    SessionEvent e;
    e.kind = SessionEventKind::kSnapshot;
    e.count = snap.cycle;
    journal_event(std::move(e));
  }
  return snap;
}

void DebugSession::restore(const sim::MappedSimulator::Snapshot& snap) {
  flush_cycle_batch();
  sim_.restore(snap);
  if (journal_.enabled()) {
    SessionEvent e;
    e.kind = SessionEventKind::kRestore;
    e.count = snap.cycle;
    journal_event(std::move(e));
  }
}

}  // namespace fpgadbg::debug
