#include "debug/coverage.h"

#include <algorithm>
#include <map>

#include "support/error.h"

namespace fpgadbg::debug {

namespace {

bool is_separator(char c) { return c == '.' || c == '/' || c == '$'; }

/// Every proper hierarchical prefix of `name`, plus the whole-design "".
std::vector<std::string> prefixes_of(const std::string& name) {
  std::vector<std::string> prefixes{""};
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (is_separator(name[i]) && i > 0) prefixes.push_back(name.substr(0, i));
  }
  return prefixes;
}

}  // namespace

CoverageTracker::CoverageTracker(const std::vector<std::string>& observable) {
  for (const std::string& name : observable) intern(name);
}

std::uint32_t CoverageTracker::intern(const std::string& name) {
  const auto [it, inserted] =
      id_of_.try_emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) {
    names_.push_back(name);
    seen_.resize(names_.size());
  }
  return it->second;
}

double CoverageTracker::note_turn_ids(
    const std::vector<std::uint32_t>& observed_ids) {
  for (std::uint32_t id : observed_ids) {
    FPGADBG_REQUIRE(id < names_.size(), "coverage: unknown signal id");
    if (!seen_.get(id)) {
      seen_.set(id, true);
      ++observed_;
    }
  }
  curve_.push_back(fraction());
  return curve_.back();
}

double CoverageTracker::note_turn(const std::vector<std::string>& observed) {
  std::vector<std::uint32_t> ids;
  ids.reserve(observed.size());
  for (const std::string& name : observed) ids.push_back(intern(name));
  return note_turn_ids(ids);
}

double CoverageTracker::fraction() const {
  return names_.empty() ? 0.0
                        : static_cast<double>(observed_) /
                              static_cast<double>(names_.size());
}

std::vector<CoverageTracker::PrefixCoverage> CoverageTracker::rollup() const {
  // std::map: sorted output, "" (the whole design) first.
  std::map<std::string, PrefixCoverage> by_prefix;
  for (std::uint32_t id = 0; id < names_.size(); ++id) {
    const bool observed = seen_.get(id);
    for (std::string& prefix : prefixes_of(names_[id])) {
      PrefixCoverage& entry = by_prefix[prefix];
      entry.prefix = std::move(prefix);
      ++entry.observable;
      entry.observed += observed;
    }
  }
  std::vector<PrefixCoverage> out;
  out.reserve(by_prefix.size());
  for (auto& [prefix, entry] : by_prefix) out.push_back(std::move(entry));
  return out;
}

}  // namespace fpgadbg::debug
