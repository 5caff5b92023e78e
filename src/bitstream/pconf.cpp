#include "bitstream/pconf.h"

#include <algorithm>
#include <bit>

#include "support/error.h"
#include "support/stopwatch.h"
#include "support/telemetry.h"

namespace fpgadbg::bitstream {

namespace {

/// One batched registry update per SCG invocation (the per-bit loops stay
/// free of atomics).  `path` counts the kind of specialization.
void record_scg(telemetry::Counter& path, std::size_t bits_evaluated,
                std::size_t bdd_nodes_visited, double eval_seconds) {
  telemetry::MetricsRegistry& m = telemetry::metrics();
  static telemetry::Counter& bits = m.counter("scg.bits_reevaluated");
  static telemetry::Counter& nodes = m.counter("scg.bdd_nodes_visited");
  static telemetry::Histogram& seconds = m.histogram("scg.eval_seconds");
  path.add(1);
  bits.add(bits_evaluated);
  nodes.add(bdd_nodes_visited);
  seconds.observe(eval_seconds);
}

}  // namespace

PConf::PConf(std::size_t total_bits, std::vector<std::string> param_names)
    : constant_(total_bits),
      param_names_(std::move(param_names)),
      bdd_(static_cast<int>(param_names_.size())) {
  for (std::size_t i = 0; i < param_names_.size(); ++i) {
    const auto [it, inserted] =
        param_index_.emplace(param_names_[i], static_cast<int>(i));
    FPGADBG_REQUIRE(inserted, "duplicate parameter name: " + param_names_[i]);
  }
}

int PConf::param_index(const std::string& name) const {
  const auto it = param_index_.find(name);
  FPGADBG_REQUIRE(it != param_index_.end(), "unknown parameter: " + name);
  return it->second;
}

void PConf::sync_functions() const {
  if (!map_dirty_) return;
  fn_bits_owned_.clear();
  fn_refs_owned_.clear();
  fn_bits_owned_.reserve(build_map_.size());
  fn_refs_owned_.reserve(build_map_.size());
  std::vector<std::size_t> bits;
  bits.reserve(build_map_.size());
  for (const auto& [bit, f] : build_map_) bits.push_back(bit);
  std::sort(bits.begin(), bits.end());
  for (std::size_t bit : bits) {
    fn_bits_owned_.push_back(bit);
    fn_refs_owned_.push_back(build_map_.at(bit));
  }
  build_map_.clear();
  map_dirty_ = false;
}

void PConf::thaw_functions() {
  if (map_dirty_) return;
  const FunctionView view = functions();
  build_map_.clear();
  build_map_.reserve(view.count);
  for (std::size_t i = 0; i < view.count; ++i) {
    build_map_.emplace(static_cast<std::size_t>(view.bits[i]), view.refs[i]);
  }
  fn_bits_owned_.clear();
  fn_refs_owned_.clear();
  fn_bits_b_ = nullptr;
  fn_refs_b_ = nullptr;
  fn_count_b_ = 0;
  fn_backing_.reset();
  map_dirty_ = true;
  index_built_ = false;
}

FunctionView PConf::functions() const {
  sync_functions();
  if (fn_backing_) return FunctionView{fn_bits_b_, fn_refs_b_, fn_count_b_};
  return FunctionView{fn_bits_owned_.data(), fn_refs_owned_.data(),
                      fn_bits_owned_.size()};
}

bool PConf::is_parameterized(std::size_t bit) const {
  if (map_dirty_) return build_map_.contains(bit);
  const FunctionView view = functions();
  const std::uint64_t* end = view.bits + view.count;
  const std::uint64_t* it = std::lower_bound(view.bits, end, bit);
  return it != end && *it == bit;
}

support::Status PConf::adopt_functions(const std::uint64_t* bits,
                                       const std::uint32_t* refs,
                                       std::size_t count,
                                       std::shared_ptr<const void> backing) {
  using support::Status;
  for (std::size_t i = 0; i < count; ++i) {
    if (bits[i] >= total_bits()) {
      return Status::corrupt_artifact(
          "PConf function table: bit address out of range");
    }
    if (i > 0 && bits[i] <= bits[i - 1]) {
      return Status::corrupt_artifact(
          "PConf function table: bit addresses not strictly ascending");
    }
    // Constant functions are folded into the constant plane at build time,
    // so every stored ref must name a decision node.
    if (refs[i] < 2 || refs[i] >= bdd_.size()) {
      return Status::corrupt_artifact(
          "PConf function table: BDD ref out of range");
    }
  }
  build_map_.clear();
  map_dirty_ = false;
  fn_bits_owned_.clear();
  fn_refs_owned_.clear();
  fn_bits_b_ = bits;
  fn_refs_b_ = refs;
  fn_count_b_ = count;
  fn_backing_ = std::move(backing);
  index_built_ = false;
  return Status();
}

void PConf::set_constant(std::size_t bit, bool value) {
  FPGADBG_REQUIRE(bit < total_bits(), "bit address out of range");
  FPGADBG_REQUIRE(!is_parameterized(bit), "bit is already parameterized");
  constant_.set(bit, value);
}

void PConf::set_function(std::size_t bit, logic::BddRef f) {
  FPGADBG_REQUIRE(bit < total_bits(), "bit address out of range");
  if (bdd_.is_const(f)) {
    constant_.set(bit, bdd_.const_value(f));
    if (is_parameterized(bit)) {
      thaw_functions();
      build_map_.erase(bit);
    }
    return;
  }
  thaw_functions();
  build_map_[bit] = f;
}

std::vector<std::size_t> PConf::parameterized_frames() const {
  std::vector<bool> touched(constant_.num_frames(), false);
  const FunctionView view = functions();
  for (std::size_t i = 0; i < view.count; ++i) {
    touched[view.bits[i] / arch::FrameGeometry::kFrameBits] = true;
  }
  std::vector<std::size_t> frames;
  for (std::size_t i = 0; i < touched.size(); ++i) {
    if (touched[i]) frames.push_back(i);
  }
  return frames;
}

BitVec PConf::values_from(
    const std::unordered_map<std::string, bool>& assignment) const {
  BitVec values(param_names_.size());
  for (const auto& [name, value] : assignment) {
    const auto it = param_index_.find(name);
    FPGADBG_REQUIRE(it != param_index_.end(), "unknown parameter: " + name);
    values.set(static_cast<std::size_t>(it->second), value);
  }
  return values;
}

PConf::Specialization PConf::specialize_values(const BitVec& values) const {
  FPGADBG_REQUIRE(values.size() == num_params(),
                  "parameter values have the wrong width");
  telemetry::TraceScope span("scg.specialize_full", "scg");
  Specialization result;
  Stopwatch timer;
  result.memory = constant_;
  std::size_t visited = 0;
  const FunctionView view = functions();
  for (std::size_t i = 0; i < view.count; ++i) {
    result.memory.set(view.bits[i], bdd_.evaluate(view.refs[i], values, &visited));
    ++result.bits_evaluated;
  }
  result.eval_seconds = timer.elapsed_seconds();
  static telemetry::Counter& specializations =
      telemetry::metrics().counter("scg.full_specializations");
  record_scg(specializations, result.bits_evaluated, visited,
             result.eval_seconds);
  return result;
}

PConf::Specialization PConf::specialize(
    const std::unordered_map<std::string, bool>& assignment) const {
  return specialize_values(values_from(assignment));
}

std::vector<PConf::Specialization> PConf::specialize_batch(
    const std::vector<std::unordered_map<std::string, bool>>& assignments)
    const {
  FPGADBG_REQUIRE(assignments.size() <= 64,
                  "specialize_batch handles at most 64 assignments");
  telemetry::TraceScope span("scg.specialize_batch", "scg");
  Stopwatch timer;
  const std::size_t batch = assignments.size();
  // Transpose the assignments: bit k of var_words[v] = value of parameter v
  // under assignments[k].
  std::vector<std::uint64_t> var_words(param_names_.size(), 0);
  for (std::size_t k = 0; k < batch; ++k) {
    for (const auto& [name, value] : assignments[k]) {
      const auto it = param_index_.find(name);
      FPGADBG_REQUIRE(it != param_index_.end(), "unknown parameter: " + name);
      if (value) {
        var_words[static_cast<std::size_t>(it->second)] |= 1ULL << k;
      }
    }
  }

  std::vector<Specialization> results(batch);
  for (auto& r : results) r.memory = constant_;
  // One memo across every parameterized bit: the SCG's functions share BDD
  // structure heavily, so most walks hit the cache.
  std::unordered_map<logic::BddRef, std::uint64_t> memo;
  const FunctionView view = functions();
  for (std::size_t i = 0; i < view.count; ++i) {
    const std::uint64_t word = bdd_.evaluate_word(view.refs[i], var_words, memo);
    for (std::size_t k = 0; k < batch; ++k) {
      results[k].memory.set(view.bits[i], (word >> k) & 1);
      ++results[k].bits_evaluated;
    }
  }
  const double per_spec =
      batch == 0 ? 0.0 : timer.elapsed_seconds() / static_cast<double>(batch);
  for (auto& r : results) r.eval_seconds = per_spec;
  if (batch != 0) {
    static telemetry::Counter& specializations =
        telemetry::metrics().counter("scg.batch_specializations");
    record_scg(specializations, view.count * batch,
               /*bdd_nodes_visited=*/0, timer.elapsed_seconds());
  }
  return results;
}

const logic::BddManager::SupportIndex& PConf::functions_by_param() const {
  if (!index_built_) {
    const FunctionView view = functions();
    fn_by_param_ = bdd_.support_index(view.refs, view.count);
    // The manager has at least one variable per parameter; rows past the
    // parameters are dropped (parameter values never reach them).
    fn_by_param_.begin.resize(num_params() + 1);
    index_built_ = true;
  }
  return fn_by_param_;
}

PConf::Specialization PConf::specialize_values_incremental(
    Specialization previous, const BitVec& previous_values,
    const BitVec& values) const {
  FPGADBG_REQUIRE(previous.memory.total_bits() == total_bits(),
                  "previous specialization has the wrong geometry");
  FPGADBG_REQUIRE(previous_values.size() == num_params() &&
                      values.size() == num_params(),
                  "parameter values have the wrong width");
  telemetry::TraceScope span("scg.specialize_incremental", "scg");
  Specialization result;
  Stopwatch timer;
  result.memory = std::move(previous.memory);
  const logic::BddManager::SupportIndex& index = functions_by_param();
  const FunctionView view = functions();
  // Per-turn stamps: a function that depends on several changed parameters
  // is evaluated once; a frame is listed once however many of its bits flip.
  BitVec evaluated(view.count);
  BitVec frame_changed(result.memory.num_frames());
  std::size_t visited = 0;
  for (std::size_t w = 0; w < values.word_count(); ++w) {
    for (std::uint64_t diff = values.word(w) ^ previous_values.word(w);
         diff != 0; diff &= diff - 1) {
      const std::size_t p =
          w * 64 + static_cast<std::size_t>(std::countr_zero(diff));
      for (std::uint32_t k = index.begin[p]; k < index.begin[p + 1]; ++k) {
        const std::uint32_t fn = index.items[k];
        if (evaluated.get(fn)) continue;
        evaluated.set(fn, true);
        ++result.bits_evaluated;
        const std::size_t bit = view.bits[fn];
        const bool value = bdd_.evaluate(view.refs[fn], values, &visited);
        if (value == result.memory.get(bit)) continue;
        result.memory.set(bit, value);
        ++result.bits_changed;
        frame_changed.set(bit / arch::FrameGeometry::kFrameBits, true);
      }
    }
  }
  for (std::size_t f = frame_changed.find_first(); f < frame_changed.size();
       f = frame_changed.find_next(f + 1)) {
    result.changed_frames.push_back(f);
  }
  result.eval_seconds = timer.elapsed_seconds();
  static telemetry::Counter& specializations =
      telemetry::metrics().counter("scg.incremental_specializations");
  record_scg(specializations, result.bits_evaluated, visited,
             result.eval_seconds);
  return result;
}

PConf::Specialization PConf::specialize_incremental(
    const Specialization& previous,
    const std::unordered_map<std::string, bool>& previous_assignment,
    const std::unordered_map<std::string, bool>& assignment) const {
  return specialize_values_incremental(
      previous, values_from(previous_assignment), values_from(assignment));
}

}  // namespace fpgadbg::bitstream
