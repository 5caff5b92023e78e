#include "bitstream/builder.h"

#include <algorithm>

#include "support/error.h"

namespace fpgadbg::bitstream {

using logic::BddManager;
using logic::BddRef;
using logic::TruthTable;
using map::CellId;
using map::MappedNetlist;
using map::MKind;

namespace {

/// Builds activation conditions: cond(cell) = BDD over global parameter
/// variables that is true exactly when the signal produced by `cell` is
/// steered through its TCON consumers to a real (non-TCON) consumer.
class ConditionBuilder {
 public:
  ConditionBuilder(const MappedNetlist& mn, BddManager& bdd,
                   const std::vector<int>& param_var)
      : mn_(mn), bdd_(bdd), param_var_(param_var) {
    readers_.resize(mn.num_cells());
    direct_consumer_.assign(mn.num_cells(), false);
    for (CellId id = 0; id < mn.num_cells(); ++id) {
      for (CellId in : mn_.cell(id).data_inputs) {
        readers_[in].push_back(id);
        if (mn_.cell(id).kind != MKind::kTcon) direct_consumer_[in] = true;
      }
    }
    for (CellId out : mn_.outputs()) direct_consumer_[out] = true;
    for (const auto& latch : mn_.latches()) direct_consumer_[latch.input] = true;
    memo_.assign(mn.num_cells(), kUnset);
  }

  /// Condition under which TCON `t` selects its data input number `index`.
  BddRef select_condition(CellId t, std::size_t index) {
    const auto& cell = mn_.cell(t);
    FPGADBG_ASSERT(cell.kind == MKind::kTcon, "select_condition on non-TCON");
    const int nd = static_cast<int>(cell.data_inputs.size());
    const int np = static_cast<int>(cell.param_inputs.size());
    // Truth table over the cell's local parameters: true where the residual
    // function is the projection of input `index`.
    TruthTable local(np);
    const TruthTable proj =
        TruthTable::var(cell.function.num_vars(), static_cast<int>(index));
    for (std::uint64_t pa = 0; pa < (1ULL << np); ++pa) {
      TruthTable residual = cell.function;
      for (int p = 0; p < np; ++p) {
        residual = ((pa >> p) & 1) ? residual.cofactor1(nd + p)
                                   : residual.cofactor0(nd + p);
      }
      local.set_bit(pa, residual == proj);
    }
    // Map local parameter positions onto global BDD variables.
    std::vector<int> var_map;
    var_map.reserve(static_cast<std::size_t>(np));
    for (CellId p : cell.param_inputs) {
      var_map.push_back(param_var_[p]);
    }
    if (np == 0) return local.bit(0) ? bdd_.one() : bdd_.zero();
    return bdd_.from_truth_table(local, var_map);
  }

  /// Activation condition of the signal produced by `cell`.
  BddRef condition(CellId cell) {
    if (memo_[cell] != kUnset) return memo_[cell];
    memo_[cell] = bdd_.zero();  // cycle guard (graphs are acyclic anyway)
    BddRef cond = direct_consumer_[cell] ? bdd_.one() : bdd_.zero();
    if (cond != bdd_.one()) {
      for (CellId r : readers_[cell]) {
        if (mn_.cell(r).kind != MKind::kTcon) continue;
        const auto& inputs = mn_.cell(r).data_inputs;
        for (std::size_t i = 0; i < inputs.size(); ++i) {
          if (inputs[i] != cell) continue;
          const BddRef step =
              bdd_.bdd_and(select_condition(r, i), condition(r));
          cond = bdd_.bdd_or(cond, step);
        }
        if (cond == bdd_.one()) break;
      }
    }
    memo_[cell] = cond;
    return cond;
  }

 private:
  static constexpr BddRef kUnset = 0xffffffffu;

  const MappedNetlist& mn_;
  BddManager& bdd_;
  const std::vector<int>& param_var_;
  std::vector<std::vector<CellId>> readers_;
  std::vector<bool> direct_consumer_;
  std::vector<BddRef> memo_;
};

}  // namespace

PConf build_pconf(const pnr::CompiledDesign& design, PconfBuildStats* stats) {
  const MappedNetlist& mn = design.netlist;
  const arch::FrameGeometry& frames = *design.frames;
  const arch::ArchParams& arch_params = design.device->params();
  const int K = arch_params.lut_size;

  std::vector<std::string> param_names;
  std::vector<int> param_var(mn.num_cells(), -1);
  for (std::size_t i = 0; i < mn.params().size(); ++i) {
    param_names.push_back(mn.cell(mn.params()[i]).name);
    param_var[mn.params()[i]] = static_cast<int>(i);
  }

  PConf pconf(frames.total_bits(), std::move(param_names));
  PconfBuildStats local;
  PconfBuildStats& st = stats ? *stats : local;
  st = PconfBuildStats{};

  // --- LUT and TLUT table bits -------------------------------------------
  for (std::size_t c = 0; c < design.packing.clusters.size(); ++c) {
    const auto [x, y] = design.placement.cluster_pos[c];
    const auto& bles = design.packing.clusters[c].bles;
    for (std::size_t b = 0; b < bles.size(); ++b) {
      const auto& cell = mn.cell(bles[b]);
      const int nd = static_cast<int>(cell.data_inputs.size());
      const int np = static_cast<int>(cell.param_inputs.size());
      const std::uint64_t data_mask = nd >= 64 ? ~0ULL : ((1ULL << nd) - 1);
      if (cell.kind == MKind::kLut) {
        ++st.lut_cells;
        for (int bit = 0; bit < (1 << K); ++bit) {
          const bool value = cell.function.evaluate(
              static_cast<std::uint64_t>(bit) & data_mask);
          pconf.set_constant(frames.lut_bit(x, y, static_cast<int>(b), bit),
                             value);
        }
      } else {
        FPGADBG_ASSERT(cell.kind == MKind::kTlut, "unexpected BLE cell kind");
        ++st.tlut_cells;
        std::vector<int> var_map;
        for (CellId p : cell.param_inputs) var_map.push_back(param_var[p]);
        for (int bit = 0; bit < (1 << K); ++bit) {
          // The table bit as a function of the cell's parameters.
          TruthTable local_fn(np);
          for (std::uint64_t pa = 0; pa < (1ULL << np); ++pa) {
            const std::uint64_t assignment =
                (static_cast<std::uint64_t>(bit) & data_mask) |
                (pa << nd);
            local_fn.set_bit(pa, cell.function.evaluate(assignment));
          }
          const std::size_t addr =
              frames.lut_bit(x, y, static_cast<int>(b), bit);
          if (local_fn.is_const0() || local_fn.is_const1()) {
            pconf.set_constant(addr, local_fn.is_const1());
          } else {
            pconf.set_function(addr,
                               pconf.bdd().from_truth_table(local_fn, var_map));
            ++st.parameterized_lut_bits;
          }
        }
      }
    }
  }

  // --- FF enables ----------------------------------------------------------
  for (const auto& latch : mn.latches()) {
    const int cl = design.packing.cluster_of[latch.input];
    if (cl < 0) continue;  // latch fed by a source: no BLE FF to flag
    const auto [x, y] = design.placement.cluster_pos[static_cast<std::size_t>(cl)];
    const auto& bles = design.packing.clusters[static_cast<std::size_t>(cl)].bles;
    const auto it = std::find(bles.begin(), bles.end(), latch.input);
    if (it != bles.end()) {
      pconf.set_constant(
          frames.ff_bit(x, y, static_cast<int>(it - bles.begin())), true);
    }
  }

  // --- routing switches ----------------------------------------------------
  ConditionBuilder conditions(mn, pconf.bdd(), param_var);
  // A switch may carry several exclusive alternatives: OR their conditions.
  std::unordered_map<std::size_t, BddRef> switch_fn;
  for (std::size_t n = 0; n < design.nets.nets.size(); ++n) {
    const auto& net = design.nets.nets[n];
    // A branch net entering TCON `t` at input `i` is configured exactly when
    // the parameters select input i AND t's own output is steered onward.
    BddRef cond = pconf.bdd().one();
    if (net.via_tcon != map::kNullCell) {
      cond = pconf.bdd().bdd_and(
          conditions.select_condition(net.via_tcon, net.via_input),
          conditions.condition(net.via_tcon));
    }
    for (arch::RREdgeId e : design.routing.routes[n]) {
      const std::size_t bit = frames.switch_bit(e);
      auto [it, inserted] = switch_fn.try_emplace(bit, cond);
      if (!inserted) {
        it->second = pconf.bdd().bdd_or(it->second, cond);
      }
    }
  }
  for (const auto& [bit, fn] : switch_fn) {
    if (pconf.bdd().is_const(fn)) {
      pconf.set_constant(bit, pconf.bdd().const_value(fn));
      ++st.constant_switch_bits;
    } else {
      pconf.set_function(bit, fn);
      ++st.parameterized_switch_bits;
    }
  }

  return pconf;
}

}  // namespace fpgadbg::bitstream
