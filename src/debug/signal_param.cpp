#include "debug/signal_param.h"

#include <algorithm>
#include <bit>

#include "support/error.h"

namespace fpgadbg::debug {

using netlist::Netlist;
using netlist::NodeId;
using netlist::NodeKind;
using logic::TruthTable;

namespace {

/// Truth table of a radix-r multiplexer with binary-encoded select:
/// vars [0, r) are data, vars [r, r+s) are select bits (LSB first);
/// f = data[sel].
TruthTable mux_tt(int radix, int sel_bits) {
  const int total = radix + sel_bits;
  TruthTable f = TruthTable::zero(total);
  for (int j = 0; j < radix; ++j) {
    TruthTable sel_eq = TruthTable::one(total);
    for (int b = 0; b < sel_bits; ++b) {
      const TruthTable sb = TruthTable::var(total, radix + b);
      sel_eq = sel_eq & (((j >> b) & 1) ? sb : ~sb);
    }
    f = f | (sel_eq & TruthTable::var(total, j));
  }
  return f;
}

}  // namespace

void Instrumented::index_signals() {
  signal_id_.clear();
  place_begin_.clear();
  placements_.clear();
  lane_begin_.assign(1, 0);
  lane_signal_ids_.clear();
  lane_param_begin_.assign(1, 0);
  param_names_.clear();
  // Placements grouped by signal id, each group in lane order: the order a
  // lane-by-lane scan meets them (first occurrence per lane).
  std::vector<std::vector<Placement>> by_signal;
  for (std::size_t l = 0; l < lane_signals.size(); ++l) {
    for (std::size_t i = 0; i < lane_signals[l].size(); ++i) {
      const auto [it, inserted] = signal_id_.try_emplace(
          lane_signals[l][i], static_cast<std::uint32_t>(by_signal.size()));
      if (inserted) by_signal.emplace_back();
      lane_signal_ids_.push_back(it->second);
      auto& group = by_signal[it->second];
      if (!group.empty() && group.back().lane == l) continue;
      group.push_back(Placement{static_cast<std::uint32_t>(l),
                                static_cast<std::uint32_t>(i)});
    }
    lane_begin_.push_back(static_cast<std::uint32_t>(lane_signal_ids_.size()));
  }
  place_begin_.reserve(by_signal.size() + 1);
  place_begin_.push_back(0);
  for (const auto& group : by_signal) {
    placements_.insert(placements_.end(), group.begin(), group.end());
    place_begin_.push_back(static_cast<std::uint32_t>(placements_.size()));
  }
  for (const auto& lane : lane_params) {
    param_names_.insert(param_names_.end(), lane.begin(), lane.end());
    lane_param_begin_.push_back(
        static_cast<std::uint32_t>(param_names_.size()));
  }
}

std::size_t Instrumented::num_observable() const {
  std::size_t n = 0;
  for (const auto& lane : lane_signals) n += lane.size();
  return n;
}

std::pair<std::size_t, std::size_t> Instrumented::locate(
    const std::string& signal) const {
  const auto all = locate_all(signal);
  if (all.empty()) {
    return {static_cast<std::size_t>(-1), static_cast<std::size_t>(-1)};
  }
  return all.front();
}

std::vector<std::pair<std::size_t, std::size_t>> Instrumented::locate_all(
    const std::string& signal) const {
  std::vector<std::pair<std::size_t, std::size_t>> found;
  const auto it = signal_id_.find(signal);
  if (it == signal_id_.end()) return found;
  for (std::uint32_t k = place_begin_[it->second];
       k < place_begin_[it->second + 1]; ++k) {
    found.emplace_back(placements_[k].lane, placements_[k].index);
  }
  return found;
}

BitVec Instrumented::select_values(
    const std::vector<std::string>& signals) const {
  FPGADBG_REQUIRE(lane_param_begin_.size() == lane_params.size() + 1,
                  "Instrumented::index_signals() was not called");
  // Bipartite matching (Kuhn's augmenting paths): signals on the left,
  // lanes on the right; an edge wherever a replica of the signal lives.
  std::vector<std::uint32_t> ids;
  ids.reserve(signals.size());
  for (const std::string& signal : signals) {
    const auto it = signal_id_.find(signal);
    if (it == signal_id_.end()) {
      throw Error("signal is not observable: " + signal);
    }
    ids.push_back(it->second);
  }

  const std::size_t lanes = lane_signals.size();
  std::vector<int> lane_match(lanes, -1);
  std::vector<std::uint32_t> lane_index(lanes, 0);
  // visited[lane] == stamp: lane already tried for the current signal.
  std::vector<std::size_t> visited(lanes, 0);
  std::size_t stamp = 0;
  auto try_assign = [&](auto&& self, std::size_t sig) -> bool {
    const std::uint32_t id = ids[sig];
    for (std::uint32_t k = place_begin_[id]; k < place_begin_[id + 1]; ++k) {
      const Placement& p = placements_[k];
      if (visited[p.lane] == stamp) continue;
      visited[p.lane] = stamp;
      if (lane_match[p.lane] < 0 ||
          self(self, static_cast<std::size_t>(lane_match[p.lane]))) {
        lane_match[p.lane] = static_cast<int>(sig);
        lane_index[p.lane] = p.index;
        return true;
      }
    }
    return false;
  };
  for (std::size_t sig = 0; sig < signals.size(); ++sig) {
    ++stamp;
    if (!try_assign(try_assign, sig)) {
      throw Error("no conflict-free lane assignment: signal " + signals[sig] +
                  " cannot be observed together with the others");
    }
  }

  BitVec values(num_params());
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    if (lane_match[lane] < 0) continue;
    const std::uint32_t first = lane_param_begin_[lane];
    for (std::uint32_t b = 0; first + b < lane_param_begin_[lane + 1]; ++b) {
      values.set(first + b, ((lane_index[lane] >> b) & 1) != 0);
    }
  }
  return values;
}

std::vector<std::string> Instrumented::observed_under_values(
    const BitVec& values) const {
  std::vector<std::string> observed;
  observed.reserve(lane_signals.size());
  for (std::uint32_t id : observed_ids_under_values(values)) {
    observed.push_back(signal_name(id));
  }
  return observed;
}

std::vector<std::uint32_t> Instrumented::observed_ids_under_values(
    const BitVec& values) const {
  FPGADBG_REQUIRE(values.size() == num_params(),
                  "parameter values have the wrong width");
  std::vector<std::uint32_t> observed;
  observed.reserve(lane_signals.size());
  for (std::size_t l = 0; l < lane_signals.size(); ++l) {
    std::size_t index = 0;
    const std::uint32_t first = lane_param_begin_[l];
    for (std::uint32_t b = 0; first + b < lane_param_begin_[l + 1]; ++b) {
      if (values.get(first + b)) index |= std::size_t{1} << b;
    }
    // Padded slots duplicate signal 0.
    if (index >= lane_signals[l].size()) index = 0;
    observed.push_back(lane_signal_ids_[lane_begin_[l] + index]);
  }
  return observed;
}

std::unordered_map<std::string, bool> Instrumented::select_signals(
    const std::vector<std::string>& signals) const {
  const BitVec values = select_values(signals);
  std::unordered_map<std::string, bool> assignment;
  for (std::size_t k = 0; k < param_names_.size(); ++k) {
    assignment[param_names_[k]] = values.get(k);
  }
  return assignment;
}

std::vector<std::string> Instrumented::observed_under(
    const std::unordered_map<std::string, bool>& params) const {
  BitVec values(num_params());
  for (std::size_t k = 0; k < param_names_.size(); ++k) {
    const auto it = params.find(param_names_[k]);
    values.set(k, it != params.end() && it->second);
  }
  return observed_under_values(values);
}

Instrumented parameterize_signals(const Netlist& nl,
                                  const InstrumentOptions& options) {
  FPGADBG_REQUIRE(options.trace_width > 0, "trace_width must be positive");
  FPGADBG_REQUIRE(options.mux_radix >= 2 && options.mux_radix <= 8 &&
                      std::has_single_bit(
                          static_cast<unsigned>(options.mux_radix)),
                  "mux_radix must be a power of two in [2, 8]");
  FPGADBG_REQUIRE(nl.params().empty(),
                  "input netlist is already parameterised");

  Instrumented result;
  result.netlist = nl;  // user circuit copied unchanged
  Netlist& out = result.netlist;

  // Collect observable signals in a deterministic order.
  std::vector<NodeId> observable;
  if (!options.observe_list.empty()) {
    for (const std::string& name : options.observe_list) {
      const auto id = nl.find(name);
      FPGADBG_REQUIRE(id.has_value(), "observe_list names unknown signal: " + name);
      const NodeKind k = nl.kind(*id);
      FPGADBG_REQUIRE(k == NodeKind::kLogic || k == NodeKind::kLatchOut,
                      "observe_list signal is not observable: " + name);
      observable.push_back(*id);
    }
  } else {
    for (NodeId id = 0; id < nl.num_nodes(); ++id) {
      const NodeKind k = nl.kind(id);
      if ((k == NodeKind::kLogic && options.observe_logic) ||
          (k == NodeKind::kLatchOut && options.observe_latch_outputs)) {
        observable.push_back(id);
      }
    }
  }
  if (options.max_observed > 0 && observable.size() > options.max_observed) {
    observable.resize(options.max_observed);
  }
  FPGADBG_REQUIRE(!observable.empty(), "nothing to observe");

  const std::size_t lanes = std::min(options.trace_width, observable.size());
  result.lane_signals.resize(lanes);
  result.lane_params.resize(lanes);

  // Concentrator-style assignment: each signal lands in `replication`
  // distinct lanes, spread deterministically.
  const std::size_t repl = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(1, options.replication)), lanes);
  std::vector<std::vector<NodeId>> lane_nodes(lanes);
  for (std::size_t i = 0; i < observable.size(); ++i) {
    std::size_t lane = i % lanes;
    for (std::size_t k = 0; k < repl; ++k) {
      // Skip lanes already holding this signal (the stride may wrap).
      while (std::find(lane_nodes[lane].begin(), lane_nodes[lane].end(),
                       observable[i]) != lane_nodes[lane].end()) {
        lane = (lane + 1) % lanes;
      }
      lane_nodes[lane].push_back(observable[i]);
      result.lane_signals[lane].push_back(nl.name(observable[i]));
      // Next replica: a large odd stride decorrelates replica groups.
      lane = (lane + 1 + (i * 2654435761u) % (lanes > 1 ? lanes - 1 : 1)) %
             lanes;
    }
  }

  const int radix = options.mux_radix;
  const int sel_bits_per_level = std::countr_zero(static_cast<unsigned>(radix));

  for (std::size_t l = 0; l < lanes; ++l) {
    std::vector<NodeId> current = lane_nodes[l];
    int level = 0;
    std::size_t mux_counter = 0;
    while (current.size() > 1) {
      // Shared select parameters for this tree level.
      std::vector<NodeId> sel;
      for (int b = 0; b < sel_bits_per_level; ++b) {
        const std::string pname = "dbgsel_l" + std::to_string(l) + "_v" +
                                  std::to_string(level) + "_b" +
                                  std::to_string(b);
        sel.push_back(out.add_param(pname));
        result.lane_params[l].push_back(pname);
      }
      // Pad to a multiple of the radix with duplicates of the lane's first
      // signal (unreachable indices simply alias signal 0).
      while (current.size() % static_cast<std::size_t>(radix) != 0) {
        current.push_back(lane_nodes[l][0]);
      }
      std::vector<NodeId> next;
      next.reserve(current.size() / static_cast<std::size_t>(radix));
      const TruthTable tt = mux_tt(radix, sel_bits_per_level);
      for (std::size_t j = 0; j < current.size();
           j += static_cast<std::size_t>(radix)) {
        std::vector<NodeId> fanins(current.begin() + static_cast<std::ptrdiff_t>(j),
                                   current.begin() +
                                       static_cast<std::ptrdiff_t>(
                                           j + static_cast<std::size_t>(radix)));
        fanins.insert(fanins.end(), sel.begin(), sel.end());
        next.push_back(out.add_logic("dbgmux_l" + std::to_string(l) + "_n" +
                                         std::to_string(mux_counter++),
                                     std::move(fanins), tt));
      }
      current = std::move(next);
      ++level;
    }
    const std::string trace_name = "trace" + std::to_string(l);
    out.add_output(current[0], trace_name);
    result.trace_outputs.push_back(trace_name);
  }

  out.check();
  result.index_signals();
  return result;
}

support::Result<Instrumented> try_parameterize_signals(
    const Netlist& nl, const InstrumentOptions& options) {
  try {
    return parameterize_signals(nl, options);
  } catch (...) {
    return support::status_from_current_exception();
  }
}

}  // namespace fpgadbg::debug
