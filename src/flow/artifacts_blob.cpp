// Blob (zero-copy) encodings of the hot pipeline artifacts.
//
// Encoders lay the artifact out as typed sections of one deterministic blob
// image (flow/blob.h); loaders validate the image and either BORROW the big
// arrays straight out of the mapping (rr-graph node/edge/offset arrays, the
// PConf BDD arena and function table) or bulk-reconstruct from typed spans
// (the mapped netlist, whose cells carry strings).
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "flow/artifacts.h"
#include "flow/blob.h"
#include "support/error.h"

namespace fpgadbg::flow {

namespace {

using support::Result;
using support::Status;

// Section tags, unique per blob kind.
enum : std::uint32_t {
  // rr-graph (kind 1)
  kTagRRNodes = 1,
  kTagRREdges = 2,
  kTagRROffsets = 3,
  // map-result (kind 2): structure-of-arrays mapped netlist.  Variable-size
  // per-cell data (names, fanins, truth-table words) is flattened with one
  // offsets array of num_cells + 1 entries per attribute.
  kTagMeta = 1,  ///< ByteWriter tail: model, latches, outputs, stats
  kTagKinds = 2,
  kTagNameBytes = 3,
  kTagNameOffsets = 4,
  kTagDataFanins = 5,
  kTagDataOffsets = 6,
  kTagParamFanins = 7,
  kTagParamOffsets = 8,
  kTagTtWords = 9,
  kTagTtOffsets = 10,
  kTagTtVars = 11,
  // pconf (kind 3); kTagMeta shared.
  kTagConstantWords = 2,
  kTagBddArena = 3,
  kTagFnBits = 4,
  kTagFnRefs = 5,
};

/// 64-byte-aligned view of a cache payload plus whatever keeps it alive.
/// mmap'd cache objects are page-aligned and pass through untouched;
/// anything else is copied once into an aligned buffer that the borrowing
/// artifact then owns via `backing`.
struct BlobImage {
  std::string_view bytes;
  std::shared_ptr<const void> backing;
};

BlobImage aligned_image(const CacheHit& hit) {
  const auto addr = reinterpret_cast<std::uintptr_t>(hit.payload.data());
  if (addr % kBlobAlign == 0) return BlobImage{hit.payload, hit.backing};
  auto buffer = std::make_shared<AlignedBlobBuffer>(hit.payload);
  return BlobImage{buffer->view(), buffer};
}

/// Validates a flattened-attribute offsets array: monotone, starts at 0,
/// ends exactly at `flat_size`.
Status check_offsets(const BlobSpan<std::uint64_t>& offsets,
                     std::size_t num_items, std::uint64_t flat_size,
                     const char* what) {
  if (offsets.count != num_items + 1 || offsets[0] != 0 ||
      offsets[num_items] != flat_size) {
    return Status::corrupt_artifact(std::string("map artifact: ") + what +
                                    " offsets do not cover the data");
  }
  for (std::size_t i = 0; i < num_items; ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return Status::corrupt_artifact(std::string("map artifact: ") + what +
                                      " offsets are not monotone");
    }
  }
  return Status();
}

template <typename F>
auto guarded(const char* what, F&& rebuild) -> decltype(rebuild()) {
  try {
    return rebuild();
  } catch (const std::exception& e) {
    return Status::corrupt_artifact(std::string(what) + ": " + e.what());
  }
}

}  // namespace

// --- rr-graph ----------------------------------------------------------------

std::string encode_rr_graph_blob(const arch::RRGraph& rr) {
  BlobWriter w(kBlobKindRRGraph);
  w.section(kTagRRNodes, rr.nodes_data(), rr.num_nodes());
  w.section(kTagRREdges, rr.edges_data(), rr.num_edges());
  w.section(kTagRROffsets, rr.edge_offsets_data(), rr.num_nodes() + 1);
  return w.finish();
}

Result<std::optional<std::unique_ptr<arch::RRGraph>>> load_rr_graph_blob(
    const arch::Device& device, const CacheHit& hit) {
  const BlobImage image = aligned_image(hit);
  FPGADBG_ASSIGN_OR_RETURN(std::optional<BlobReader> reader,
                           BlobReader::open(image.bytes, kBlobKindRRGraph));
  if (!reader.has_value()) return std::optional<std::unique_ptr<arch::RRGraph>>();
  FPGADBG_ASSIGN_OR_RETURN(BlobSpan<arch::RRNode> nodes,
                           reader->span<arch::RRNode>(kTagRRNodes));
  FPGADBG_ASSIGN_OR_RETURN(BlobSpan<arch::RREdge> edges,
                           reader->span<arch::RREdge>(kTagRREdges));
  FPGADBG_ASSIGN_OR_RETURN(BlobSpan<arch::RREdgeId> offsets,
                           reader->span<arch::RREdgeId>(kTagRROffsets));
  FPGADBG_ASSIGN_OR_RETURN(
      std::unique_ptr<arch::RRGraph> rr,
      arch::RRGraph::adopt(device, nodes.ptr, nodes.count, edges.ptr,
                           edges.count, offsets.ptr, offsets.count,
                           image.backing));
  return std::optional<std::unique_ptr<arch::RRGraph>>(std::move(rr));
}

// --- map result --------------------------------------------------------------

std::string encode_map_result_blob(const map::MapResult& result) {
  using map::MKind;
  const map::MappedNetlist& mn = result.netlist;
  const std::size_t n = mn.num_cells();

  std::vector<std::uint8_t> kinds(n);
  std::string names;
  std::vector<std::uint64_t> name_offsets(n + 1, 0);
  std::vector<std::uint32_t> data_flat;
  std::vector<std::uint64_t> data_offsets(n + 1, 0);
  std::vector<std::uint32_t> param_flat;
  std::vector<std::uint64_t> param_offsets(n + 1, 0);
  std::vector<std::uint64_t> tt_words;
  std::vector<std::uint64_t> tt_offsets(n + 1, 0);
  std::vector<std::uint32_t> tt_vars(n, 0);

  for (map::CellId id = 0; id < n; ++id) {
    const map::MCell& c = mn.cell(id);
    kinds[id] = static_cast<std::uint8_t>(c.kind);
    names.append(c.name);
    name_offsets[id + 1] = names.size();
    if (c.kind == MKind::kLut || c.kind == MKind::kTlut ||
        c.kind == MKind::kTcon) {
      data_flat.insert(data_flat.end(), c.data_inputs.begin(),
                       c.data_inputs.end());
      param_flat.insert(param_flat.end(), c.param_inputs.begin(),
                        c.param_inputs.end());
      tt_words.insert(tt_words.end(), c.function.words().begin(),
                      c.function.words().end());
      tt_vars[id] = static_cast<std::uint32_t>(c.function.num_vars());
    }
    data_offsets[id + 1] = data_flat.size();
    param_offsets[id + 1] = param_flat.size();
    tt_offsets[id + 1] = tt_words.size();
  }

  ByteWriter meta;
  meta.str(mn.model_name());
  meta.u64(mn.latches().size());
  for (const map::MLatch& l : mn.latches()) {
    meta.u32(l.input);
    meta.i32(l.init_value);
  }
  meta.u32_vec(mn.outputs());
  meta.str_vec(mn.output_names());
  meta.str(result.stats.mapper);
  meta.u64(result.stats.num_luts);
  meta.u64(result.stats.num_tluts);
  meta.u64(result.stats.num_tcons);
  meta.u64(result.stats.lut_area);
  meta.i32(result.stats.depth);
  // runtime_seconds intentionally not serialized (volatile).

  BlobWriter w(kBlobKindMapResult);
  w.bytes_section(kTagMeta, meta.bytes());
  w.section(kTagKinds, kinds);
  w.bytes_section(kTagNameBytes, names);
  w.section(kTagNameOffsets, name_offsets);
  w.section(kTagDataFanins, data_flat);
  w.section(kTagDataOffsets, data_offsets);
  w.section(kTagParamFanins, param_flat);
  w.section(kTagParamOffsets, param_offsets);
  w.section(kTagTtWords, tt_words);
  w.section(kTagTtOffsets, tt_offsets);
  w.section(kTagTtVars, tt_vars);
  return w.finish();
}

Result<std::optional<map::MapResult>> load_map_result(const CacheHit& hit) {
  using map::MKind;
  const BlobImage image = aligned_image(hit);
  FPGADBG_ASSIGN_OR_RETURN(std::optional<BlobReader> reader,
                           BlobReader::open(image.bytes, kBlobKindMapResult));
  if (!reader.has_value()) return std::optional<map::MapResult>();

  FPGADBG_ASSIGN_OR_RETURN(std::string_view meta_bytes, reader->bytes(kTagMeta));
  FPGADBG_ASSIGN_OR_RETURN(BlobSpan<std::uint8_t> kinds,
                           reader->span<std::uint8_t>(kTagKinds));
  FPGADBG_ASSIGN_OR_RETURN(std::string_view names,
                           reader->bytes(kTagNameBytes));
  FPGADBG_ASSIGN_OR_RETURN(BlobSpan<std::uint64_t> name_offsets,
                           reader->span<std::uint64_t>(kTagNameOffsets));
  FPGADBG_ASSIGN_OR_RETURN(BlobSpan<std::uint32_t> data_flat,
                           reader->span<std::uint32_t>(kTagDataFanins));
  FPGADBG_ASSIGN_OR_RETURN(BlobSpan<std::uint64_t> data_offsets,
                           reader->span<std::uint64_t>(kTagDataOffsets));
  FPGADBG_ASSIGN_OR_RETURN(BlobSpan<std::uint32_t> param_flat,
                           reader->span<std::uint32_t>(kTagParamFanins));
  FPGADBG_ASSIGN_OR_RETURN(BlobSpan<std::uint64_t> param_offsets,
                           reader->span<std::uint64_t>(kTagParamOffsets));
  FPGADBG_ASSIGN_OR_RETURN(BlobSpan<std::uint64_t> tt_words,
                           reader->span<std::uint64_t>(kTagTtWords));
  FPGADBG_ASSIGN_OR_RETURN(BlobSpan<std::uint64_t> tt_offsets,
                           reader->span<std::uint64_t>(kTagTtOffsets));
  FPGADBG_ASSIGN_OR_RETURN(BlobSpan<std::uint32_t> tt_vars,
                           reader->span<std::uint32_t>(kTagTtVars));

  const std::size_t n = kinds.count;
  if (tt_vars.count != n) {
    return Status::corrupt_artifact("map artifact: attribute count mismatch");
  }
  FPGADBG_RETURN_IF_ERROR(
      check_offsets(name_offsets, n, names.size(), "name"));
  FPGADBG_RETURN_IF_ERROR(
      check_offsets(data_offsets, n, data_flat.count, "data-fanin"));
  FPGADBG_RETURN_IF_ERROR(
      check_offsets(param_offsets, n, param_flat.count, "param-fanin"));
  FPGADBG_RETURN_IF_ERROR(
      check_offsets(tt_offsets, n, tt_words.count, "truth-table"));

  ByteReader meta(meta_bytes);
  return guarded("map artifact", [&]() -> Result<std::optional<map::MapResult>> {
    map::MapResult result;
    map::MappedNetlist mn(meta.str());
    // Latch records come before the cell replay: latches() is
    // creation-ordered (== kLatchOut id order), so the replay consumes init
    // values in order and the inputs are patched after every cell exists.
    const std::uint64_t num_latches = meta.u64();
    std::vector<map::CellId> latch_inputs;
    std::vector<int> latch_inits;
    if (num_latches > meta.remaining() / 8 + 1) {
      return Status::corrupt_artifact("map artifact: bad latch count");
    }
    for (std::uint64_t i = 0; i < num_latches && meta.ok(); ++i) {
      latch_inputs.push_back(meta.u32());
      latch_inits.push_back(meta.i32());
    }
    FPGADBG_RETURN_IF_ERROR(meta.status("map artifact"));
    std::size_t latch_cursor = 0;
    for (map::CellId id = 0; id < n; ++id) {
      const auto kind = static_cast<MKind>(kinds[id]);
      std::string name(names.substr(name_offsets[id],
                                    name_offsets[id + 1] - name_offsets[id]));
      switch (kind) {
        case MKind::kConst0:
        case MKind::kInput:
        case MKind::kParam:
          mn.add_source(kind, name);
          break;
        case MKind::kLatchOut:
          if (latch_cursor >= latch_inits.size()) {
            return Status::corrupt_artifact(
                "map artifact: latch count mismatch");
          }
          mn.add_latch_source(name, latch_inits[latch_cursor++]);
          break;
        case MKind::kLut:
        case MKind::kTlut:
        case MKind::kTcon: {
          std::vector<map::CellId> data(data_flat.ptr + data_offsets[id],
                                        data_flat.ptr + data_offsets[id + 1]);
          std::vector<map::CellId> params(
              param_flat.ptr + param_offsets[id],
              param_flat.ptr + param_offsets[id + 1]);
          std::vector<std::uint64_t> words(tt_words.ptr + tt_offsets[id],
                                           tt_words.ptr + tt_offsets[id + 1]);
          if (tt_vars[id] > logic::TruthTable::kMaxVars) {
            return Status::corrupt_artifact(
                "map artifact: truth table arity out of range");
          }
          mn.add_cell(kind, name, std::move(data), std::move(params),
                      logic::TruthTable::from_words(
                          static_cast<int>(tt_vars[id]), std::move(words)));
          break;
        }
        default:
          return Status::corrupt_artifact("map artifact: bad cell kind");
      }
    }

    if (latch_cursor != num_latches) {
      return Status::corrupt_artifact("map artifact: latch count mismatch");
    }
    for (std::uint64_t i = 0; i < num_latches; ++i) {
      mn.set_latch_input(i, latch_inputs[i]);
    }
    const std::vector<map::CellId> outputs = meta.u32_vec();
    const std::vector<std::string> output_names = meta.str_vec();
    if (!meta.ok() || outputs.size() != output_names.size()) {
      return meta.ok() ? Status::corrupt_artifact(
                             "map artifact: output name mismatch")
                       : meta.status("map artifact");
    }
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      mn.add_output(outputs[i], output_names[i]);
    }
    mn.check();
    result.netlist = std::move(mn);
    result.stats.mapper = meta.str();
    result.stats.num_luts = meta.u64();
    result.stats.num_tluts = meta.u64();
    result.stats.num_tcons = meta.u64();
    result.stats.lut_area = meta.u64();
    result.stats.depth = meta.i32();
    FPGADBG_RETURN_IF_ERROR(meta.status("map artifact"));
    return std::optional<map::MapResult>(std::move(result));
  });
}

// --- pconf -------------------------------------------------------------------

std::string encode_pconf_blob(const PconfArtifact& artifact) {
  const bitstream::PConf& pconf = artifact.pconf;

  ByteWriter meta;
  meta.u64(pconf.total_bits());
  meta.str_vec(pconf.param_names());
  meta.i32(pconf.bdd().num_vars());
  meta.u64(artifact.stats.lut_cells);
  meta.u64(artifact.stats.tlut_cells);
  meta.u64(artifact.stats.constant_switch_bits);
  meta.u64(artifact.stats.parameterized_switch_bits);
  meta.u64(artifact.stats.parameterized_lut_bits);

  const BitVec& constants = pconf.constants().bits();
  std::vector<std::uint64_t> words(constants.word_count());
  for (std::size_t i = 0; i < words.size(); ++i) words[i] = constants.word(i);

  const bitstream::FunctionView functions = pconf.functions();

  BlobWriter w(kBlobKindPconf);
  w.bytes_section(kTagMeta, meta.bytes());
  w.section(kTagConstantWords, words);
  w.section(kTagBddArena, pconf.bdd().arena_data(), pconf.bdd().size());
  w.section(kTagFnBits, functions.bits, functions.count);
  w.section(kTagFnRefs, functions.refs, functions.count);
  return w.finish();
}

Result<std::optional<PconfArtifact>> load_pconf(const CacheHit& hit) {
  const BlobImage image = aligned_image(hit);
  FPGADBG_ASSIGN_OR_RETURN(std::optional<BlobReader> reader,
                           BlobReader::open(image.bytes, kBlobKindPconf));
  if (!reader.has_value()) return std::optional<PconfArtifact>();

  FPGADBG_ASSIGN_OR_RETURN(std::string_view meta_bytes, reader->bytes(kTagMeta));
  FPGADBG_ASSIGN_OR_RETURN(BlobSpan<std::uint64_t> words,
                           reader->span<std::uint64_t>(kTagConstantWords));
  FPGADBG_ASSIGN_OR_RETURN(
      BlobSpan<logic::BddManager::Node> arena,
      reader->span<logic::BddManager::Node>(kTagBddArena));
  FPGADBG_ASSIGN_OR_RETURN(BlobSpan<std::uint64_t> fn_bits,
                           reader->span<std::uint64_t>(kTagFnBits));
  FPGADBG_ASSIGN_OR_RETURN(BlobSpan<std::uint32_t> fn_refs,
                           reader->span<std::uint32_t>(kTagFnRefs));
  if (fn_bits.count != fn_refs.count) {
    return Status::corrupt_artifact(
        "pconf artifact: function bit/ref count mismatch");
  }

  ByteReader meta(meta_bytes);
  const std::uint64_t total_bits = meta.u64();
  std::vector<std::string> param_names = meta.str_vec();
  const int num_vars = meta.i32();
  bitstream::PconfBuildStats stats;
  stats.lut_cells = meta.u64();
  stats.tlut_cells = meta.u64();
  stats.constant_switch_bits = meta.u64();
  stats.parameterized_switch_bits = meta.u64();
  stats.parameterized_lut_bits = meta.u64();
  FPGADBG_RETURN_IF_ERROR(meta.status("pconf artifact"));
  if (words.count != (total_bits + 63) / 64) {
    return Status::corrupt_artifact(
        "pconf artifact: constant plane size mismatch");
  }

  return guarded("pconf artifact", [&]() -> Result<std::optional<PconfArtifact>> {
    bitstream::PConf pconf(total_bits, std::move(param_names));
    BitVec& constants = pconf.constants().bits();
    for (std::size_t i = 0; i < words.count; ++i) {
      constants.set_word(i, words[i]);
    }
    FPGADBG_RETURN_IF_ERROR(pconf.bdd().adopt_arena(num_vars, arena.ptr,
                                                    arena.count,
                                                    image.backing));
    FPGADBG_RETURN_IF_ERROR(pconf.adopt_functions(fn_bits.ptr, fn_refs.ptr,
                                                  fn_bits.count,
                                                  image.backing));
    return std::optional<PconfArtifact>(
        PconfArtifact{std::move(pconf), stats});
  });
}

}  // namespace fpgadbg::flow
