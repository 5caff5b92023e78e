// Staged compile pipeline with typed artifacts and incremental caching.
//
// The offline "generic" stage of the paper's Fig. 4(b), decomposed into six
// named stages:
//
//   instrument -> tcon-map -> pack -> place -> route -> pconf-build
//
// Each stage consumes the previous stage's typed artifact and produces its
// own (see flow/artifacts.h).  A stage's cache key is
//
//   hash_combine(fnv1a(stage-name), input-hash, options-hash)
//
// where input-hash chains the content hashes of every upstream artifact the
// stage reads, and options-hash folds in exactly the option fields that can
// change the stage's output.  With a cache directory configured, re-running
// the pipeline re-executes only the stages downstream of whatever changed:
// editing place options leaves instrument/tcon-map/pack as cache hits and
// re-runs place -> route -> pconf-build.
//
// Derived physical state (arch::Device, RRGraph, FrameGeometry, the net
// extraction) is deliberately NOT an artifact: it is a cheap deterministic
// function of the packing size and the architecture options, so the pipeline
// rebuilds it after pack instead of serializing device models.
//
// The pipeline is the only code that sequences the physical stages.  run() takes a user
// circuit through all six; compile() takes an already-mapped netlist (e.g.
// from a conventional mapper, for the §V-C1 comparison) through the same
// pack -> place -> route code, with the same cache.
//
// Error contract: run() and compile() never throw.  Stage failures —
// including legacy fpgadbg::Error exceptions from the CAD libraries and
// corrupt cache entries — come back as a support::Status tagged with the
// stage name.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "debug/flow.h"
#include "flow/cache.h"
#include "support/status.h"

namespace fpgadbg::flow {

enum class StageId {
  kInstrument,
  kTconMap,
  kPack,
  kPlace,
  kRoute,
  kPconfBuild,
};

/// Stable stage name ("instrument", "tcon-map", ...): cache subdirectory,
/// Status stage tag and report label.
const char* stage_name(StageId id);

struct StageReport {
  std::string name;
  bool from_cache = false;        ///< artifact loaded instead of computed
  std::uint64_t key = 0;          ///< cache key (stage, input, options)
  std::uint64_t content_hash = 0; ///< FNV-1a of the serialized artifact
  double seconds = 0.0;           ///< wall clock (execute or load+verify)
  std::size_t artifact_bytes = 0;
};

struct PipelineResult {
  debug::OfflineResult offline;
  std::vector<StageReport> stages;
  std::size_t stages_executed = 0;
  std::size_t stages_from_cache = 0;
};

class Pipeline {
 public:
  explicit Pipeline(debug::OfflineOptions options);

  /// Runs the offline flow on a user circuit.  Cache behavior is governed by
  /// options.cache_dir (empty = every stage executes).
  support::Result<PipelineResult> run(const netlist::Netlist& user) const;

  /// Runs pack -> place -> route and the routed STA on an already-mapped
  /// netlist, with options.compile and the cache of run().  The stage keys
  /// chain the content hashes of `netlist` and of the trace-output names
  /// where run() chains the tcon-map and instrument artifacts.
  support::Result<pnr::CompiledDesign> compile(
      map::MappedNetlist netlist,
      const std::vector<std::string>& trace_outputs) const;

 private:
  debug::OfflineOptions options_;
  ArtifactCache cache_;
};

}  // namespace fpgadbg::flow
