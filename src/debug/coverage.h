// Signal-coverage analytics for debug sessions.
//
// The debug loop's effectiveness hinges on knowing which signals have been
// inspected (Eslami/Hung/Wilton's overlay-debug argument): a session that
// re-observes the same handful of nets is stuck, one that sweeps the design
// is converging.  CoverageTracker remembers every parameterized signal ever
// observed across the session's turns, rolls coverage up by hierarchical
// name prefix ('.', '/' and '$' separate hierarchy levels), and keeps the
// per-turn coverage curve that `fpgadbg report` plots.  The session exports
// the totals as debug.coverage.* gauges.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/bitvec.h"

namespace fpgadbg::debug {

class CoverageTracker {
 public:
  CoverageTracker() = default;
  /// `observable` is the universe: every signal the instrumentation can
  /// route to a trace lane (duplicates are deduped).  Signal ids number the
  /// distinct names in order of first appearance, so a universe listed in
  /// Instrumented signal-id order shares the instrumentation's ids.
  explicit CoverageTracker(const std::vector<std::string>& observable);

  /// Records one turn's observed signals by id (one per lane).  Returns the
  /// coverage fraction after the turn.
  double note_turn_ids(const std::vector<std::uint32_t>& observed_ids);
  /// The same by name; names not in the observable universe are counted
  /// into it on the fly.
  double note_turn(const std::vector<std::string>& observed);

  std::size_t observable() const { return names_.size(); }
  std::size_t observed() const { return observed_; }
  /// observed() / observable() in [0, 1]; 0 when nothing is observable.
  double fraction() const;
  bool has_observed(const std::string& signal) const {
    const auto it = id_of_.find(signal);
    return it != id_of_.end() && seen_.get(it->second);
  }

  /// Coverage fraction after each recorded turn, in turn order.
  const std::vector<double>& curve() const { return curve_; }

  struct PrefixCoverage {
    std::string prefix;        ///< hierarchical prefix ("" = whole design)
    std::size_t observable = 0;
    std::size_t observed = 0;
    double fraction() const {
      return observable ? static_cast<double>(observed) /
                              static_cast<double>(observable)
                        : 0.0;
    }
  };
  /// Coverage rolled up by every hierarchical name prefix, sorted by prefix
  /// ("" first).  "core.alu.add" contributes to "", "core" and "core.alu".
  std::vector<PrefixCoverage> rollup() const;

 private:
  /// Id of `name`, added to the universe if new.
  std::uint32_t intern(const std::string& name);

  std::vector<std::string> names_;  ///< signal id -> name
  std::unordered_map<std::string, std::uint32_t> id_of_;
  BitVec seen_;  ///< by signal id
  std::size_t observed_ = 0;
  std::vector<double> curve_;
};

}  // namespace fpgadbg::debug
