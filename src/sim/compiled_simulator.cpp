#include "sim/compiled_simulator.h"

#include <algorithm>

#include "sim/sim_kernels.h"
#include "support/error.h"
#include "support/telemetry.h"

namespace fpgadbg::sim {

using kernels::apply_fault_word;
using kernels::broadcast;
using kernels::eval_op_word;

CompiledSimulator::CompiledSimulator(const netlist::Netlist& nl,
                                     CompiledSimOptions options)
    : prog_(lower_program(nl)), opts_(options) {
  init();
}

CompiledSimulator::CompiledSimulator(const map::MappedNetlist& mn,
                                     CompiledSimOptions options)
    : prog_(lower_program(mn)), opts_(options) {
  init();
}

CompiledSimulator::CompiledSimulator(SimProgram program,
                                     CompiledSimOptions options)
    : prog_(std::move(program)), opts_(options) {
  init();
}

void CompiledSimulator::swap_program(SimProgram& program) {
  FPGADBG_REQUIRE(program.num_design_nodes == prog_.num_design_nodes &&
                      program.inputs == prog_.inputs &&
                      program.params == prog_.params &&
                      program.outputs == prog_.outputs &&
                      program.latches.size() == prog_.latches.size(),
                  "swap_program: the program lowers a different design");
  FPGADBG_REQUIRE(faults_.empty(),
                  "swap_program: clear the injected faults first");
  std::swap(prog_, program);
  // Design slots keep their words; temporaries are rewritten by the full
  // eval before anything reads them.
  values_.resize(prog_.num_slots, 0);
  if (opts_.event_driven) dirty_.assign(prog_.num_slots, 0);
  op_has_fault_.assign(prog_.ops.size(), 0);
  full_eval_pending_ = true;
}

void CompiledSimulator::init() {
  if (opts_.num_threads == 0) {
    pool_ = &ThreadPool::global();
  } else if (opts_.num_threads > 1) {
    own_pool_ = std::make_unique<ThreadPool>(opts_.num_threads);
    pool_ = own_pool_.get();
  }
  if (pool_ && pool_->size() <= 1) pool_ = nullptr;
  values_.assign(prog_.num_slots, 0);
  latch_words_.resize(prog_.latches.size());
  if (opts_.event_driven) dirty_.assign(prog_.num_slots, 0);
  op_has_fault_.assign(prog_.ops.size(), 0);
  reset();
}

void CompiledSimulator::reset() {
  cycle_ = 0;
  for (std::size_t i = 0; i < prog_.latches.size(); ++i) {
    latch_words_[i] = broadcast(prog_.latches[i].init != 0);
    values_[prog_.latches[i].out_slot] = latch_words_[i];
  }
  full_eval_pending_ = true;
}

void CompiledSimulator::set_source_word(std::uint32_t slot,
                                        std::uint64_t word) {
  if (word != 0 && word != ~0ULL) uniform_ = false;
  if (opts_.event_driven && values_[slot] != word) dirty_[slot] = 1;
  values_[slot] = word;
}

void CompiledSimulator::set_input(std::uint32_t id, bool value) {
  set_input_word(id, broadcast(value));
}

void CompiledSimulator::set_inputs(const std::vector<bool>& values) {
  FPGADBG_REQUIRE(values.size() == prog_.inputs.size(),
                  "set_inputs size mismatch");
  for (std::size_t i = 0; i < values.size(); ++i) {
    set_source_word(prog_.inputs[i], broadcast(values[i]));
  }
}

void CompiledSimulator::set_param(std::uint32_t id, bool value) {
  set_param_word(id, broadcast(value));
}

void CompiledSimulator::set_params(const std::vector<bool>& values) {
  FPGADBG_REQUIRE(values.size() == prog_.params.size(),
                  "set_params size mismatch");
  for (std::size_t i = 0; i < values.size(); ++i) {
    set_source_word(prog_.params[i], broadcast(values[i]));
  }
}

void CompiledSimulator::set_input_word(std::uint32_t id, std::uint64_t word) {
  FPGADBG_REQUIRE(id < prog_.num_design_nodes &&
                      prog_.node_kind[id] == SimProgram::SlotKind::kInput,
                  "set_input target is not an input");
  set_source_word(id, word);
}

void CompiledSimulator::set_param_word(std::uint32_t id, std::uint64_t word) {
  FPGADBG_REQUIRE(id < prog_.num_design_nodes &&
                      prog_.node_kind[id] == SimProgram::SlotKind::kParam,
                  "set_param target is not a parameter");
  set_source_word(id, word);
}

void CompiledSimulator::run_ops(std::size_t begin, std::size_t end,
                                bool full) {
  const SimOp* ops = prog_.ops.data();
  const std::uint32_t* arena = prog_.fanins.data();
  std::uint64_t* vals = values_.data();
  const bool event = opts_.event_driven;
  const bool uniform = uniform_;
  std::uint8_t* dirty = event ? dirty_.data() : nullptr;
  const std::uint8_t* op_fault = op_has_fault_.data();
  const bool have_faults = !faults_by_op_.empty();
  std::uint64_t skipped = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const SimOp& op = ops[i];
    const std::uint32_t* f = arena + op.fanin_begin;
    const std::uint32_t k = op.fanin_count;
    const bool faulted = have_faults && op_fault[i];
    if (event && !full && !faulted) {
      std::uint8_t any = 0;
      for (std::uint32_t j = 0; j < k; ++j) any |= dirty[f[j]];
      if (!any) {
        dirty[op.out] = 0;
        ++skipped;
        continue;
      }
    }
    std::uint64_t r;
    if (uniform) {
      // Broadcast fast path: every lane agrees, so one mask lookup via the
      // fanin bit pattern replaces the full Shannon walk (the scalar
      // debug-session workload never leaves this path).
      std::uint32_t idx = 0;
      for (std::uint32_t j = 0; j < k; ++j) {
        idx |= static_cast<std::uint32_t>(vals[f[j]] & 1) << j;
      }
      r = broadcast((op.mask >> idx) & 1);
    } else {
      std::uint64_t w[SimProgram::kMaxOpArity];
      for (std::uint32_t j = 0; j < k; ++j) w[j] = vals[f[j]];
      r = eval_op_word(op.mask, k, w);
    }
    if (faulted) {
      for (const Fault& fl : faults_by_op_.find(static_cast<std::uint32_t>(i))
                                 ->second) {
        r = apply_fault_word(fl, r, cycle_);
      }
    }
    if (event) {
      dirty[op.out] = vals[op.out] != r;
      vals[op.out] = r;
    } else {
      vals[op.out] = r;
    }
  }
  if (skipped != 0) {
    // One relaxed add per chunk; the per-op loop stays atomic-free.
    static telemetry::Counter& skip_counter =
        telemetry::metrics().counter("sim.ops_skipped");
    skip_counter.add(skipped);
  }
}

void CompiledSimulator::sweep_level(std::size_t begin, std::size_t end,
                                    bool full) {
  telemetry::TraceScope span("sim.level_sweep", "sim");
  const std::size_t width = end - begin;
  if (pool_ != nullptr && width >= opts_.parallel_min_level_width) {
    static telemetry::Counter& parallel_sweeps =
        telemetry::metrics().counter("sim.parallel_sweeps");
    parallel_sweeps.add(1);
    // Chunked dispatch: ops only read slots written by strictly lower
    // levels plus their own output slot, so chunks never race.
    const std::size_t chunks = std::min(width, pool_->size() * 4);
    const std::size_t chunk = (width + chunks - 1) / chunks;
    pool_->parallel_for(chunks, [&](std::size_t c) {
      // Parent-links to sim.level_sweep via the pool's context capture;
      // "sim" category keeps it off the hot path outside full tracing.
      telemetry::TraceScope chunk_span("sim.level_chunk", "sim");
      const std::size_t b = begin + c * chunk;
      run_ops(b, std::min(end, b + chunk), full);
    });
  } else {
    run_ops(begin, end, full);
  }
}

void CompiledSimulator::eval() {
  telemetry::TraceScope span("sim.eval", "sim");
  static telemetry::Counter& evals = telemetry::metrics().counter("sim.evals");
  evals.add(1);
  const bool event = opts_.event_driven;
  const bool full = full_eval_pending_ || !event;
  for (std::size_t i = 0; i < prog_.latches.size(); ++i) {
    set_source_word(prog_.latches[i].out_slot, latch_words_[i]);
  }
  for (std::size_t l = 0; l + 1 < prog_.level_begin.size(); ++l) {
    sweep_level(prog_.level_begin[l], prog_.level_begin[l + 1], full);
  }
  if (event) {
    for (std::uint32_t id : prog_.inputs) dirty_[id] = 0;
    for (std::uint32_t id : prog_.params) dirty_[id] = 0;
    for (const SimLatch& latch : prog_.latches) dirty_[latch.out_slot] = 0;
  }
  full_eval_pending_ = false;
}

void CompiledSimulator::step() {
  eval();
  for (std::size_t i = 0; i < prog_.latches.size(); ++i) {
    latch_words_[i] = values_[prog_.latches[i].in_slot];
  }
  ++cycle_;
}

bool CompiledSimulator::output(std::size_t index) const {
  return output_word(index) & 1;
}

std::uint64_t CompiledSimulator::output_word(std::size_t index) const {
  FPGADBG_REQUIRE(index < prog_.outputs.size(), "output index out of range");
  return word(prog_.outputs[index]);
}

std::vector<bool> CompiledSimulator::output_values() const {
  std::vector<bool> out;
  out.reserve(prog_.outputs.size());
  for (std::uint32_t id : prog_.outputs) out.push_back(value(id));
  return out;
}

void CompiledSimulator::inject_fault(const Fault& fault) {
  FPGADBG_REQUIRE(fault.node < prog_.num_design_nodes,
                  "fault node out of range");
  faults_.push_back(fault);
  const std::uint32_t op = prog_.op_of_node[fault.node];
  if (op != kNoOp) {
    faults_by_op_[op].push_back(fault);
    op_has_fault_[op] = 1;
  }
  full_eval_pending_ = true;
}

void CompiledSimulator::clear_faults() {
  faults_.clear();
  faults_by_op_.clear();
  std::fill(op_has_fault_.begin(), op_has_fault_.end(), 0);
  full_eval_pending_ = true;
}

void CompiledSimulator::restore(const Snapshot& snapshot) {
  FPGADBG_REQUIRE(snapshot.version == kSnapshotVersion,
                  "snapshot from an incompatible engine version");
  FPGADBG_REQUIRE(snapshot.lanes == kLanes,
                  "snapshot was taken at a different batch width");
  FPGADBG_REQUIRE(snapshot.latch_words.size() == latch_words_.size(),
                  "snapshot is for a different design");
  latch_words_ = snapshot.latch_words;
  cycle_ = snapshot.cycle;
  for (std::size_t i = 0; i < prog_.latches.size(); ++i) {
    const std::uint64_t w = latch_words_[i];
    if (w != 0 && w != ~0ULL) uniform_ = false;
    values_[prog_.latches[i].out_slot] = w;
  }
  full_eval_pending_ = true;
}

}  // namespace fpgadbg::sim
