#include "sim/sim_program.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "support/error.h"

namespace fpgadbg::sim {

using logic::TruthTable;

namespace {

// 2:1 mux over (lo, hi, sel): out = sel ? hi : lo.
constexpr std::uint64_t kMuxMask = 0xCA;

}  // namespace

namespace detail {

/// Accumulates ops with their levels; ops are bucket-sorted by level once
/// all nodes are lowered.
struct ProgramBuilder {
  SimProgram prog;
  std::vector<std::uint32_t> slot_level;  // per slot, sources at 0
  std::vector<std::uint32_t> op_level;    // parallel to prog.ops

  std::uint32_t new_temp_slot() {
    const auto slot = static_cast<std::uint32_t>(prog.num_slots++);
    slot_level.push_back(0);
    return slot;
  }

  /// Emits one flat op writing `out`; returns `out`.
  std::uint32_t emit(std::uint64_t mask, const std::uint32_t* fanin_slots,
                     std::uint32_t fanin_count, std::uint32_t out) {
    SimOp op;
    op.mask = mask;
    op.out = out;
    op.fanin_begin = static_cast<std::uint32_t>(prog.fanins.size());
    op.fanin_count = fanin_count;
    std::uint32_t level = 0;
    for (std::uint32_t j = 0; j < fanin_count; ++j) {
      prog.fanins.push_back(fanin_slots[j]);
      level = std::max(level, slot_level[fanin_slots[j]]);
    }
    slot_level[out] = level + 1;
    prog.ops.push_back(op);
    op_level.push_back(level + 1);
    return out;
  }

  /// Lowers `tt` restricted to its first `arity` variables over
  /// `fanin_slots[0..arity)`.  Functions wider than kMaxOpArity are Shannon-
  /// split on their top variable into a LUT6 cascade with a mux op on top.
  std::uint32_t lower_function(const TruthTable& tt,
                               const std::vector<std::uint32_t>& fanin_slots,
                               std::uint32_t arity, std::uint32_t out) {
    if (arity <= SimProgram::kMaxOpArity) {
      // After cofactoring, tt depends only on variables [0, arity); word 0
      // of the table is exactly the mask over those variables.
      const std::uint64_t mask =
          tt.num_vars() == 0 ? (tt.bit(0) ? 1 : 0) : tt.words()[0];
      return emit(mask, fanin_slots.data(), arity, out);
    }
    const int split = static_cast<int>(arity) - 1;
    const std::uint32_t lo =
        lower_function(tt.cofactor0(split), fanin_slots, arity - 1,
                       new_temp_slot());
    const std::uint32_t hi =
        lower_function(tt.cofactor1(split), fanin_slots, arity - 1,
                       new_temp_slot());
    const std::uint32_t mux_fanins[3] = {lo, hi,
                                         fanin_slots[static_cast<std::size_t>(split)]};
    return emit(kMuxMask, mux_fanins, 3, out);
  }

  /// Bucket-sorts ops by level and fills level_begin.
  void finish() {
    std::uint32_t max_level = 0;
    for (std::uint32_t l : op_level) max_level = std::max(max_level, l);
    // Counting sort: level l ops land in [level_begin[l], level_begin[l+1]).
    // Level 0 holds no ops (sources are not ops), so bucket by level - 1.
    std::vector<std::uint32_t> count(max_level + 1, 0);
    for (std::uint32_t l : op_level) ++count[l];
    std::vector<std::uint32_t> begin(max_level + 2, 0);
    for (std::uint32_t l = 1; l <= max_level; ++l) {
      begin[l + 1] = begin[l] + count[l];
    }
    prog.level_begin.assign(begin.begin() + 1, begin.end());
    std::vector<SimOp> sorted(prog.ops.size());
    std::vector<std::uint32_t> cursor(begin.begin() + 1, begin.end());
    for (std::size_t i = 0; i < prog.ops.size(); ++i) {
      sorted[cursor[op_level[i] - 1]++] = prog.ops[i];
    }
    prog.ops = std::move(sorted);
    // Re-derive op_of_node from the sorted order.
    std::fill(prog.op_of_node.begin(), prog.op_of_node.end(), kNoOp);
    for (std::size_t i = 0; i < prog.ops.size(); ++i) {
      if (prog.ops[i].out < prog.num_design_nodes) {
        prog.op_of_node[prog.ops[i].out] = static_cast<std::uint32_t>(i);
      }
    }
  }
};

}  // namespace detail

namespace {

using detail::ProgramBuilder;

/// Design slots of a mapped netlist, before any cell is lowered.
ProgramBuilder begin_mapped(const map::MappedNetlist& mn) {
  using map::MKind;
  ProgramBuilder b;
  b.prog.num_slots = mn.num_cells();
  b.prog.num_design_nodes = mn.num_cells();
  b.slot_level.assign(mn.num_cells(), 0);
  b.prog.node_kind.resize(mn.num_cells());
  b.prog.op_of_node.assign(mn.num_cells(), kNoOp);
  b.prog.alias.resize(mn.num_cells());
  std::iota(b.prog.alias.begin(), b.prog.alias.end(), 0u);
  for (map::CellId id = 0; id < mn.num_cells(); ++id) {
    switch (mn.cell(id).kind) {
      case MKind::kConst0:
        b.prog.node_kind[id] = SimProgram::SlotKind::kConst0;
        break;
      case MKind::kInput:
        b.prog.node_kind[id] = SimProgram::SlotKind::kInput;
        break;
      case MKind::kParam:
        b.prog.node_kind[id] = SimProgram::SlotKind::kParam;
        break;
      case MKind::kLatchOut:
        b.prog.node_kind[id] = SimProgram::SlotKind::kLatchOut;
        break;
      case MKind::kLut:
      case MKind::kTlut:
      case MKind::kTcon:
        b.prog.node_kind[id] = SimProgram::SlotKind::kLogic;
        break;
    }
  }
  b.prog.inputs = mn.inputs();
  b.prog.params = mn.params();
  b.prog.outputs = mn.outputs();
  for (const auto& latch : mn.latches()) {
    b.prog.latches.push_back(SimLatch{
        latch.input, latch.output,
        static_cast<std::uint8_t>(latch.init_value == 1 ? 1 : 0)});
  }
  return b;
}

/// Fanin slots of a mapped cell in truth-table variable order.
void cell_fanins(const map::MCell& cell, std::vector<std::uint32_t>& out) {
  out.assign(cell.data_inputs.begin(), cell.data_inputs.end());
  out.insert(out.end(), cell.param_inputs.begin(), cell.param_inputs.end());
}

/// Ops lower_function emits for a function of `arity` variables.
std::size_t cascade_ops(std::size_t arity) {
  return arity <= SimProgram::kMaxOpArity ? 1 : 2 * cascade_ops(arity - 1) + 1;
}

// --- word-level truth-table helpers for the fold ---------------------------

/// Bits of a 64-bit table word where variable v (v < 6) is 0.
constexpr std::uint64_t kVarLow[6] = {
    0x5555555555555555ULL, 0x3333333333333333ULL, 0x0F0F0F0F0F0F0F0FULL,
    0x00FF00FF00FF00FFULL, 0x0000FFFF0000FFFFULL, 0x00000000FFFFFFFFULL};

/// The meaningful bits of word 0 of an n-variable table.
constexpr std::uint64_t low_mask(int n) {
  return n >= 6 ? ~0ULL : (1ULL << (1u << n)) - 1;
}

std::size_t table_words(int n) {
  return n <= 6 ? 1 : std::size_t{1} << (n - 6);
}

/// Restricts the n-variable table `w` by fixing the variables in `fixed` to
/// the bits of `fixed_values`; the other variables, in ascending order,
/// become variables 0.. of `out`.
void restrict_table(const std::uint64_t* w, int n, std::uint32_t fixed,
                    std::uint32_t fixed_values,
                    std::vector<std::uint64_t>& out) {
  const std::uint32_t all = (1u << n) - 1;
  const std::uint32_t keep = all & ~fixed;
  const int k = std::popcount(keep);
  out.assign(table_words(k), 0);
  if (keep == (1u << k) - 1) {
    // The fixed variables are the top ones (parameters come last): the
    // result is one contiguous slice of the table.
    const std::size_t first = fixed_values & fixed;
    if (k >= 6) {
      std::copy_n(w + first / 64, out.size(), out.begin());
    } else {
      out[0] = (w[first / 64] >> (first % 64)) & low_mask(k);
    }
    return;
  }
  int pos[logic::TruthTable::kMaxVars];
  for (int v = 0, j = 0; v < n; ++v) {
    if ((keep >> v) & 1) pos[j++] = v;
  }
  for (std::size_t y = 0; y < (std::size_t{1} << k); ++y) {
    std::size_t x = fixed_values & fixed;
    for (int j = 0; j < k; ++j) x |= ((y >> j) & 1) << pos[j];
    if ((w[x / 64] >> (x % 64)) & 1) out[y / 64] |= 1ULL << (y % 64);
  }
}

/// Variables (bit v) the n-variable table `w` depends on.
std::uint32_t table_support(const std::vector<std::uint64_t>& w, int n) {
  std::uint32_t support = 0;
  for (int v = 0; v < n; ++v) {
    bool depends = false;
    if (v < 6) {
      const unsigned shift = 1u << v;
      const std::uint64_t m = kVarLow[v] & low_mask(n);
      for (std::uint64_t word : w) {
        if ((word ^ (word >> shift)) & m) {
          depends = true;
          break;
        }
      }
    } else {
      const std::size_t stride = std::size_t{1} << (v - 6);
      for (std::size_t i = 0; i < w.size() && !depends; ++i) {
        depends = !(i & stride) && w[i] != w[i | stride];
      }
    }
    if (depends) support |= 1u << v;
  }
  return support;
}

/// resolved_ markers of cells folded to a constant.
constexpr std::uint32_t kConst0Slot = 0xfffffffeu;
constexpr std::uint32_t kConst1Slot = 0xfffffffdu;

}  // namespace

SimProgram lower_program(const netlist::Netlist& nl) {
  using netlist::NodeKind;
  ProgramBuilder b;
  b.prog.num_slots = nl.num_nodes();
  b.prog.num_design_nodes = nl.num_nodes();
  b.slot_level.assign(nl.num_nodes(), 0);
  b.prog.node_kind.resize(nl.num_nodes());
  b.prog.op_of_node.assign(nl.num_nodes(), kNoOp);
  b.prog.alias.resize(nl.num_nodes());
  std::iota(b.prog.alias.begin(), b.prog.alias.end(), 0u);
  for (netlist::NodeId id = 0; id < nl.num_nodes(); ++id) {
    switch (nl.kind(id)) {
      case NodeKind::kConst0:
        b.prog.node_kind[id] = SimProgram::SlotKind::kConst0;
        break;
      case NodeKind::kInput:
        b.prog.node_kind[id] = SimProgram::SlotKind::kInput;
        break;
      case NodeKind::kParam:
        b.prog.node_kind[id] = SimProgram::SlotKind::kParam;
        break;
      case NodeKind::kLatchOut:
        b.prog.node_kind[id] = SimProgram::SlotKind::kLatchOut;
        break;
      case NodeKind::kLogic:
        b.prog.node_kind[id] = SimProgram::SlotKind::kLogic;
        break;
    }
  }
  b.prog.inputs = nl.inputs();
  b.prog.params = nl.params();
  b.prog.outputs = nl.outputs();
  for (const auto& latch : nl.latches()) {
    b.prog.latches.push_back(SimLatch{
        latch.input, latch.output,
        static_cast<std::uint8_t>(latch.init_value == 1 ? 1 : 0)});
  }
  std::vector<std::uint32_t> fanin_slots;
  for (netlist::NodeId id : nl.topo_order()) {
    const auto& node = nl.node(id);
    fanin_slots.assign(node.fanins.begin(), node.fanins.end());
    b.lower_function(node.function, fanin_slots,
                     static_cast<std::uint32_t>(fanin_slots.size()), id);
  }
  b.finish();
  return std::move(b.prog);
}

SimProgram lower_program(const map::MappedNetlist& mn) {
  ProgramBuilder b = begin_mapped(mn);
  std::vector<std::uint32_t> fanin_slots;
  for (map::CellId id : mn.topo_order()) {
    cell_fanins(mn.cell(id), fanin_slots);
    b.lower_function(mn.cell(id).function, fanin_slots,
                     static_cast<std::uint32_t>(fanin_slots.size()), id);
  }
  b.finish();
  return std::move(b.prog);
}

ParamFolding::ParamFolding(const map::MappedNetlist& mn)
    : mn_(mn), base_(std::make_unique<ProgramBuilder>(begin_mapped(mn))) {
  param_index_.assign(mn.num_cells(), kNoOp);
  for (std::size_t k = 0; k < mn.params().size(); ++k) {
    param_index_[mn.params()[k]] = static_cast<std::uint32_t>(k);
  }
  // Outside the cone a cell is its own slot, or the constant it is; fold()
  // rewrites the cone's entries.
  resolved_.resize(mn.num_cells());
  for (map::CellId id = 0; id < mn.num_cells(); ++id) {
    resolved_[id] =
        mn.cell(id).kind == map::MKind::kConst0 ? kConst0Slot : id;
  }
  std::vector<std::uint8_t> in_cone(mn.num_cells(), 0);
  std::vector<std::uint32_t> fanin_slots;
  for (map::CellId id : mn.topo_order()) {
    const map::MCell& cell = mn.cell(id);
    cell_fanins(cell, fanin_slots);
    bool cone = false;
    for (std::uint32_t in : fanin_slots) {
      cone = cone || in_cone[in] || param_index_[in] != kNoOp;
    }
    if (!cone) {
      base_->lower_function(cell.function, fanin_slots,
                            static_cast<std::uint32_t>(fanin_slots.size()),
                            id);
      continue;
    }
    FPGADBG_REQUIRE(cell.function.num_vars() ==
                        static_cast<int>(fanin_slots.size()),
                    "cell function arity differs from its fanin count: " +
                        cell.name);
    in_cone[id] = 1;
    cone_.push_back(id);
    unfolded_ops_ += cascade_ops(fanin_slots.size());
  }
  unfolded_ops_ += base_->prog.ops.size();
}

ParamFolding::~ParamFolding() = default;

SimProgram ParamFolding::fold(const BitVec& values) {
  FPGADBG_REQUIRE(values.size() == mn_.params().size(),
                  "parameter values have the wrong width");
  ProgramBuilder b = *base_;
  aliased_ = 0;
  std::uint32_t slots[logic::TruthTable::kMaxVars];
  std::vector<std::uint32_t> wide_fanins;
  auto resolve = [&](map::CellId in) -> std::uint32_t {
    const std::uint32_t p = param_index_[in];
    if (p == kNoOp) return resolved_[in];
    return values.get(p) ? kConst1Slot : kConst0Slot;
  };
  for (map::CellId id : cone_) {
    const map::MCell& cell = mn_.cell(id);
    const int n = cell.function.num_vars();
    const int d = static_cast<int>(cell.data_inputs.size());
    // Cofactor on every constant fanin (the parameters, and cone cells
    // already folded to constants); the free fanins keep their order.
    std::uint32_t fixed = 0, fixed_values = 0;
    int k = 0;
    for (int v = 0; v < n; ++v) {
      const std::uint32_t r =
          resolve(v < d ? cell.data_inputs[static_cast<std::size_t>(v)]
                        : cell.param_inputs[static_cast<std::size_t>(v - d)]);
      if (r == kConst0Slot || r == kConst1Slot) {
        fixed |= 1u << v;
        if (r == kConst1Slot) fixed_values |= 1u << v;
      } else {
        slots[k++] = r;
      }
    }
    restrict_table(cell.function.words().data(), n, fixed, fixed_values,
                   table_);
    // Then drop the free fanins the function no longer depends on.
    const std::uint32_t support = table_support(table_, k);
    const int m = std::popcount(support);
    if (m != k) {
      std::swap(table_, spare_);
      restrict_table(spare_.data(), k, ((1u << k) - 1) & ~support, 0, table_);
      for (int v = 0, j = 0; v < k; ++v) {
        if ((support >> v) & 1) slots[j++] = slots[v];
      }
    }
    const std::uint64_t mask = table_[0] & low_mask(m);
    if (m == 1 && mask == 0b10) {
      // A single fanin passed through: a wire, no op.
      resolved_[id] = slots[0];
      b.prog.alias[id] = slots[0];
      ++aliased_;
    } else if (m <= static_cast<int>(SimProgram::kMaxOpArity)) {
      resolved_[id] = m == 0 ? (mask ? kConst1Slot : kConst0Slot) : id;
      b.emit(mask, slots, static_cast<std::uint32_t>(m), id);
    } else {
      resolved_[id] = id;
      wide_fanins.assign(slots, slots + m);
      b.lower_function(TruthTable::from_words(m, table_), wide_fanins,
                       static_cast<std::uint32_t>(m), id);
    }
  }
  for (SimLatch& latch : b.prog.latches) {
    latch.in_slot = b.prog.alias[latch.in_slot];
  }
  b.finish();
  return std::move(b.prog);
}

}  // namespace fpgadbg::sim
