// Lowered simulation programs.
//
// A SimProgram is the compiled form of a Netlist or MappedNetlist: every
// combinational node becomes one or more flat LUT ops — a packed 64-bit mask
// over at most six fanins — stored in one contiguous arena and bucketed by
// logic level.  Functions wider than six inputs are Shannon-split into a
// LUT6 cascade (cofactor subtrees joined by 2:1 mux ops) at lowering time,
// so the evaluator never sees an op it cannot execute branch-free.
//
// Slots [0, num_design_nodes) mirror the source design's node/cell ids
// one-to-one; cascade temporaries occupy the slots above.  Ops within one
// level never read each other's outputs, which is what lets the evaluator
// sweep a level with ThreadPool::parallel_for.
//
// A mapped netlist lowers with its parameters either free (lower_program:
// parameter cells are ordinary sources, so one program serves every
// assignment, 64 of them per word) or bound (ParamFolding: each cell's
// function is cofactored on the current parameter values and constants are
// propagated).  Under bound parameters a trace-mux TCON reduces to a single
// data input and becomes an alias of that input's slot, so the folded
// program evaluates only the user logic.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "map/mapped_netlist.h"
#include "netlist/netlist.h"
#include "support/bitvec.h"

namespace fpgadbg::sim {

inline constexpr std::uint32_t kNoOp = 0xffffffffu;

/// One flat LUT evaluation: out <- mask(fanins[fanin_begin .. +fanin_count)).
struct SimOp {
  std::uint64_t mask = 0;         ///< truth table, low 2^fanin_count bits
  std::uint32_t out = 0;          ///< destination value slot
  std::uint32_t fanin_begin = 0;  ///< index into SimProgram::fanins
  std::uint32_t fanin_count = 0;  ///< at most kMaxOpArity
};

struct SimLatch {
  std::uint32_t in_slot = 0;   ///< combinational driver (D pin)
  std::uint32_t out_slot = 0;  ///< sequential source (Q pin)
  std::uint8_t init = 0;       ///< reset value (unknown/don't-care reset to 0)
};

struct SimProgram {
  static constexpr std::uint32_t kMaxOpArity = 6;

  enum class SlotKind : std::uint8_t {
    kConst0,
    kInput,
    kParam,
    kLatchOut,
    kLogic,
  };

  std::vector<SimOp> ops;                  ///< bucketed by level, ascending
  std::vector<std::uint32_t> fanins;       ///< flat fanin arena (slot ids)
  std::vector<std::uint32_t> level_begin;  ///< ops of level l:
                                           ///< [level_begin[l], level_begin[l+1])
  std::size_t num_slots = 0;         ///< design slots + cascade temporaries
  std::size_t num_design_nodes = 0;  ///< slots [0, n) == design node ids

  std::vector<SlotKind> node_kind;        ///< per design node id
  std::vector<std::uint32_t> op_of_node;  ///< design id -> op computing it
                                          ///< (kNoOp for sources and aliases)
  /// Design id -> slot holding its value: the identity, except for cells a
  /// parameter-bound lowering reduced to a copy of another slot.  Readers of
  /// a design value go through it; ops and latches already name the slot.
  std::vector<std::uint32_t> alias;
  std::vector<std::uint32_t> inputs;      ///< design ids, declaration order
  std::vector<std::uint32_t> params;
  std::vector<std::uint32_t> outputs;
  std::vector<SimLatch> latches;

  std::size_t num_levels() const {
    return level_begin.empty() ? 0 : level_begin.size() - 1;
  }
};

SimProgram lower_program(const netlist::Netlist& nl);
/// Free-parameter lowering: parameter cells stay sources.
SimProgram lower_program(const map::MappedNetlist& mn);

namespace detail {
struct ProgramBuilder;
}

/// Parameter-bound lowering of a mapped netlist.  The parameter cone (cells
/// with a parameter in their transitive fanin) is re-lowered on every fold;
/// every other cell is lowered once, at construction, exactly as
/// lower_program does.  `mn` must outlive the folding.
class ParamFolding {
 public:
  explicit ParamFolding(const map::MappedNetlist& mn);
  ~ParamFolding();

  /// Index of parameter cell `id` in mn.params() (kNoOp for other cells).
  std::uint32_t param_index(map::CellId id) const { return param_index_[id]; }

  /// The program under parameter values `values` (bit k = mn.params()[k]).
  /// Cone cells are cofactored on the parameters and on constant fanins;
  /// a cell left with one fanin as identity becomes an alias of that fanin's
  /// slot, a constant cell a fanin-free op.
  SimProgram fold(const BitVec& values);

  /// Ops lower_program(mn) emits for the same netlist.
  std::size_t unfolded_ops() const { return unfolded_ops_; }
  /// Cells the last fold() made aliases.
  std::size_t aliased_cells() const { return aliased_; }

 private:
  const map::MappedNetlist& mn_;
  std::vector<std::uint32_t> param_index_;
  std::vector<map::CellId> cone_;  ///< logic cells of the cone, topo order
  std::size_t unfolded_ops_ = 0;
  std::size_t aliased_ = 0;
  /// The parameter-free part, lowered once; fold() starts from a copy.
  std::unique_ptr<detail::ProgramBuilder> base_;
  /// Per cell: the slot holding its value, or a constant (fixed outside the
  /// cone, rewritten by each fold inside it).
  std::vector<std::uint32_t> resolved_;
  std::vector<std::uint64_t> table_, spare_;  ///< scratch truth tables
};

}  // namespace fpgadbg::sim
