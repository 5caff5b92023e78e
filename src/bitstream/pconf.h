// Parameterized configurations (PConf).
//
// "A PConf is an FPGA configuration bitstream with some of its bits
// expressed as Boolean functions of parameters.  They can be used to
// efficiently and quickly generate specialized configuration bitstreams by
// evaluating the Boolean functions."  (paper §I)
//
// Constant bits live in a dense ConfigMemory; parameterized bits are a
// sparse map from bit address to a BDD over the parameter variables.  The
// Specialized Configuration Generator (the online half, normally running on
// the embedded processor next to the HWICAP) evaluates every parameterized
// bit for a concrete parameter assignment.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bitstream/config_memory.h"
#include "logic/bdd.h"
#include "support/status.h"

namespace fpgadbg::bitstream {

/// Read view over the parameterized-bit table: parallel arrays sorted by
/// ascending bit address.  `bits[i]` is a configuration bit address and
/// `refs[i]` the BDD of its Boolean function.  The view stays valid until
/// the next mutating PConf call.
struct FunctionView {
  const std::uint64_t* bits = nullptr;
  const std::uint32_t* refs = nullptr;
  std::size_t count = 0;
};

class PConf {
 public:
  PConf(std::size_t total_bits, std::vector<std::string> param_names);

  std::size_t total_bits() const { return constant_.total_bits(); }
  std::size_t num_params() const { return param_names_.size(); }
  const std::vector<std::string>& param_names() const { return param_names_; }
  int param_index(const std::string& name) const;

  logic::BddManager& bdd() { return bdd_; }
  const logic::BddManager& bdd() const { return bdd_; }

  /// Sets a constant configuration bit.
  void set_constant(std::size_t bit, bool value);
  /// Declares a bit as the Boolean function `f` of the parameters.
  /// A constant BDD is folded into the constant plane immediately.
  void set_function(std::size_t bit, logic::BddRef f);

  /// The constant bit plane (every non-parameterized bit).  The mutable
  /// overload exists for artifact deserialization, which restores the plane
  /// wholesale instead of replaying set_constant bit by bit.
  const ConfigMemory& constants() const { return constant_; }
  ConfigMemory& constants() { return constant_; }

  std::size_t num_parameterized_bits() const {
    return map_dirty_ ? build_map_.size() : flat_count();
  }
  /// Flat sorted view of the parameterized bits.  Folds any pending
  /// build-side mutations into the flat arrays first (cheap and idempotent
  /// once built).
  FunctionView functions() const;
  /// True when `bit` currently has a Boolean function attached.
  bool is_parameterized(std::size_t bit) const;

  // --- zero-copy function-table adoption -----------------------------------
  /// Replaces the function table with arrays that BORROW from `backing`
  /// (typically the same mmap'd blob whose arena bdd().adopt_arena took).
  /// Validates that bit addresses are strictly ascending and in range and
  /// that every ref names a decision node of the current BDD manager;
  /// violations are rejected as kCorruptArtifact.  Reads afterwards walk
  /// the mapping directly; the first mutation copies out (copy-on-write).
  support::Status adopt_functions(const std::uint64_t* bits,
                                  const std::uint32_t* refs, std::size_t count,
                                  std::shared_ptr<const void> backing);

  /// True when the function table borrows from a mapped artifact.
  bool functions_borrowed() const { return fn_backing_ != nullptr; }

  /// Frames containing at least one parameterized bit — the only frames a
  /// specialization can ever touch.
  std::vector<std::size_t> parameterized_frames() const;

  struct Specialization {
    ConfigMemory memory;
    std::size_t bits_evaluated = 0;
    double eval_seconds = 0.0;  ///< measured SCG evaluation time
    /// Incremental specializations only (a full one leaves them empty):
    /// the bits that differ from the previous specialization and the
    /// frames holding them, ascending — the partial reconfiguration.
    std::size_t bits_changed = 0;
    std::vector<std::size_t> changed_frames;
  };

  /// The Specialized Configuration Generator: evaluate all parameterized
  /// bits under `values` (one bit per parameter, param_names() order).
  Specialization specialize_values(const BitVec& values) const;

  /// Incremental SCG: given the previous specialization and its values,
  /// re-evaluate ONLY the functions that depend on a changed parameter,
  /// each once, and record every bit that flips.  The embedded-processor
  /// optimization behind the paper's microsecond-scale turns on large
  /// PConfs.  The memory is bit-identical to specialize_values(values).
  /// Pass `previous` as an rvalue to update its memory in place.
  Specialization specialize_values_incremental(Specialization previous,
                                               const BitVec& previous_values,
                                               const BitVec& values) const;

  /// Name-keyed adapters over specialize_values*(values_from(...)).
  Specialization specialize(
      const std::unordered_map<std::string, bool>& assignment) const;
  Specialization specialize_incremental(
      const Specialization& previous,
      const std::unordered_map<std::string, bool>& previous_assignment,
      const std::unordered_map<std::string, bool>& assignment) const;

  /// Word-parallel SCG: specialize up to 64 assignments in one pass.  Lane
  /// k of every Boolean evaluation corresponds to assignments[k], so each
  /// parameterized bit costs ONE memoized BDD walk for the whole batch
  /// instead of one walk per assignment.  Results are bit-identical to
  /// calling specialize() per assignment; eval_seconds reports the
  /// amortized (total / batch) cost per specialization.
  std::vector<Specialization> specialize_batch(
      const std::vector<std::unordered_map<std::string, bool>>& assignments)
      const;

  /// Builds the parameter -> functions index the incremental SCG uses.
  /// Derived state (never serialized): the offline stage calls it after a
  /// build or a cache load so no online turn pays the one-time cost; safe
  /// (and idempotent) to call any time.
  void prepare_incremental() const { (void)functions_by_param(); }

 private:
  /// Parameter values in index space (bit i = parameter i) of a name-keyed
  /// assignment.  Unknown names are rejected; missing names read as false.
  BitVec values_from(
      const std::unordered_map<std::string, bool>& assignment) const;
  /// CSR table: row p lists, ascending, the function slots (indices into
  /// functions()) whose BDD support contains parameter p.  Built lazily.
  const logic::BddManager::SupportIndex& functions_by_param() const;

  std::size_t flat_count() const {
    return fn_backing_ ? fn_count_b_ : fn_bits_owned_.size();
  }
  /// Folds build_map_ into the sorted flat arrays (no-op when clean).
  void sync_functions() const;
  /// Copy-on-write: moves the flat table (owned or borrowed) back into
  /// build_map_ so mutation can proceed.
  void thaw_functions();
  ConfigMemory constant_;
  std::vector<std::string> param_names_;
  std::unordered_map<std::string, int> param_index_;
  logic::BddManager bdd_;
  // Function table, dual-store.  Build-time mutation goes through
  // build_map_ (map_dirty_ = true); the first read folds it into the
  // sorted flat arrays below and clears it.  Warm loads skip the map
  // entirely: the flat arrays borrow from fn_backing_ (an mmap'd blob)
  // until the first mutation thaws them back into the map.
  mutable std::unordered_map<std::size_t, logic::BddRef> build_map_;
  mutable bool map_dirty_ = false;
  mutable std::vector<std::uint64_t> fn_bits_owned_;
  mutable std::vector<std::uint32_t> fn_refs_owned_;
  const std::uint64_t* fn_bits_b_ = nullptr;
  const std::uint32_t* fn_refs_b_ = nullptr;
  std::size_t fn_count_b_ = 0;
  std::shared_ptr<const void> fn_backing_;
  mutable logic::BddManager::SupportIndex fn_by_param_;
  mutable bool index_built_ = false;
};

}  // namespace fpgadbg::bitstream
