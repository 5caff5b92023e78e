// Uncached physical compile of an already-mapped netlist through
// flow::Pipeline::compile, raising the stage Status on failure so a test
// that expects success fails with the message.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "flow/pipeline.h"

namespace fpgadbg::testutil {

inline pnr::CompiledDesign compile_mapped(
    map::MappedNetlist netlist, const std::vector<std::string>& trace_outputs,
    const pnr::CompileOptions& options = {}) {
  debug::OfflineOptions offline;
  offline.compile = options;
  return flow::Pipeline(std::move(offline))
      .compile(std::move(netlist), trace_outputs)
      .take_or_raise();
}

}  // namespace fpgadbg::testutil
