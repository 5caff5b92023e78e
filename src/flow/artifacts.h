// Typed, serializable pipeline artifacts.
//
// Each offline stage produces one artifact; this header defines its byte
// format, its content hash (FNV-1a over exactly the serialized bytes), and
// the hashes of the option structs that parameterize each stage.  Each
// artifact has exactly one cached encoding: instrument, pack, place and route
// are ByteWriter streams; the rr-graph, tcon-map and pconf-build artifacts
// are zero-copy blobs (flow/blob.h).  Deserializers and loaders never throw:
// malformed bytes come back as StatusCode::kCorruptArtifact.
//
// Design rule: artifacts carry only deterministic content.  Wall-clock
// fields (MapStats::runtime_seconds, RouteResult::runtime_seconds) are NOT
// serialized — timings belong to the pipeline's stage reports and the
// telemetry registry, and volatile bytes would make content hashes unstable
// across otherwise-identical runs.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "arch/rr_graph.h"
#include "bitstream/builder.h"
#include "bitstream/pconf.h"
#include "debug/signal_param.h"
#include "flow/cache.h"
#include "flow/serialize.h"
#include "map/cover.h"
#include "netlist/netlist.h"
#include "pnr/flow.h"
#include "support/status.h"

namespace fpgadbg::flow {

// --- netlist (pipeline input + instrument artifact payload) ----------------
void serialize_netlist(const netlist::Netlist& nl, ByteWriter& w);
support::Result<netlist::Netlist> deserialize_netlist(ByteReader& r);
/// Content hash of a user netlist (the pipeline's root input hash).
std::uint64_t netlist_content_hash(const netlist::Netlist& nl);

// --- instrument ------------------------------------------------------------
void serialize_instrumented(const debug::Instrumented& inst, ByteWriter& w);
support::Result<debug::Instrumented> deserialize_instrumented(ByteReader& r);

// --- tcon-map ---------------------------------------------------------------
// Stream form of the tcon-map artifact, for byte-level equality checks; the
// cache stores the blob form (encode_map_result_blob below).
void serialize_mapped_netlist(const map::MappedNetlist& mn, ByteWriter& w);
void serialize_map_result(const map::MapResult& result, ByteWriter& w);

// --- pack -------------------------------------------------------------------
void serialize_packing(const pnr::Packing& packing, ByteWriter& w);
support::Result<pnr::Packing> deserialize_packing(ByteReader& r);

// --- place ------------------------------------------------------------------
void serialize_placement(const pnr::Placement& placement, ByteWriter& w);
support::Result<pnr::Placement> deserialize_placement(ByteReader& r);

// --- route ------------------------------------------------------------------
void serialize_route_result(const pnr::RouteResult& routing, ByteWriter& w);
support::Result<pnr::RouteResult> deserialize_route_result(ByteReader& r);

// --- pconf-build ------------------------------------------------------------
/// The generalized bitstream plus its build statistics (one artifact: the
/// stats are as much a product of the stage as the PConf itself).
struct PconfArtifact {
  bitstream::PConf pconf;
  bitstream::PconfBuildStats stats;
};

// --- zero-copy blob encodings (artifacts_blob.cpp) --------------------------
// The three heavyweight artifacts — the CSR rr-graph, the mapped netlist and
// the PConf/BDD store — are encoded as pointer-free blobs (flow/blob.h) that
// load by mmap + validate + borrow instead of a field-by-field parse.  A blob
// of a DIFFERENT format version loads as nullopt (treat as a cache miss and
// rebuild — old caches are rebuilt, never misparsed); anything that is not a
// well-formed blob of the expected kind is kCorruptArtifact.
inline constexpr std::uint32_t kBlobKindRRGraph = 1;
inline constexpr std::uint32_t kBlobKindMapResult = 2;
inline constexpr std::uint32_t kBlobKindPconf = 3;

std::string encode_rr_graph_blob(const arch::RRGraph& rr);
/// Zero-copy load: the returned graph borrows its arrays from hit.backing.
/// nullopt = different blob format version (rebuild).
support::Result<std::optional<std::unique_ptr<arch::RRGraph>>>
load_rr_graph_blob(const arch::Device& device, const CacheHit& hit);

std::string encode_map_result_blob(const map::MapResult& result);
/// nullopt = different blob format version (rebuild).
support::Result<std::optional<map::MapResult>> load_map_result(
    const CacheHit& hit);

std::string encode_pconf_blob(const PconfArtifact& artifact);
/// The PConf's BDD arena and function table borrow from hit.backing
/// (zero-copy); nullopt = different blob format version (rebuild).
support::Result<std::optional<PconfArtifact>> load_pconf(const CacheHit& hit);

// --- options hashing --------------------------------------------------------
// Stage cache keys are (stage, input-hash, options-hash); these produce the
// options-hash component.  Every field that influences the stage's output
// must be folded in.
std::uint64_t hash_instrument_options(const debug::InstrumentOptions& o);
std::uint64_t hash_map_options(int lut_size, int max_param_leaves);
std::uint64_t hash_arch_params(const arch::ArchParams& a);
/// Device geometry inputs shared by place/route/pconf-build (arch + slack).
std::uint64_t hash_device_options(const pnr::CompileOptions& o);
/// Timing knobs + delay model.  Folded into the place, route AND pconf-build
/// options hashes: editing any --delay-* / --timing-driven knob invalidates
/// exactly those three stages (pconf-build chains CONTENT hashes, so it is
/// included there explicitly — a knob change whose place/route outputs happen
/// to be byte-identical must still miss deterministically, not depend on how
/// the optimizers reacted).
std::uint64_t hash_timing_options(const pnr::TimingOptions& t);
std::uint64_t hash_place_options(const pnr::CompileOptions& o);
std::uint64_t hash_route_options(const pnr::CompileOptions& o);

}  // namespace fpgadbg::flow
