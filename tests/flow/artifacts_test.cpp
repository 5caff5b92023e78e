// Artifact round-trip tests: encode -> hash -> load -> re-encode -> re-hash
// must be the identity on the content hash for every stage artifact, in the
// one encoding the cache stores it in (stream for instrument/pack/place/
// route, blob for tcon-map/pconf-build).  This is the property the cache
// depends on: a loaded artifact is indistinguishable (bytes and downstream
// hashes) from a computed one.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "bitstream/builder.h"
#include "debug/signal_param.h"
#include "flow/artifacts.h"
#include "flow/blob.h"
#include "genbench/genbench.h"
#include "map/mappers.h"
#include "pnr/flow.h"
#include "testutil/compile.h"

namespace fpgadbg::flow {
namespace {

netlist::Netlist small_user(std::uint64_t seed) {
  genbench::CircuitSpec spec{"art" + std::to_string(seed), 8, 6, 4, 36, 3, 5,
                             seed};
  return genbench::generate(spec);
}

debug::Instrumented small_instrumented(std::uint64_t seed) {
  debug::InstrumentOptions options;
  options.trace_width = 6;
  return debug::parameterize_signals(small_user(seed), options);
}

/// Serializes with `ser`, deserializes, re-serializes, and checks that the
/// two byte buffers (and therefore the two content hashes) are identical.
template <typename T, typename Ser, typename Deser>
std::pair<T, std::uint64_t> round_trip(const T& value, Ser ser, Deser deser) {
  ByteWriter w1;
  ser(value, w1);
  const std::uint64_t hash1 = w1.content_hash();

  ByteReader r(w1.bytes());
  auto restored = deser(r);
  EXPECT_TRUE(restored.ok()) << restored.status().to_string();

  ByteWriter w2;
  ser(restored.value(), w2);
  EXPECT_EQ(w1.bytes(), w2.bytes());
  EXPECT_EQ(hash1, w2.content_hash());
  return {std::move(restored).value(), hash1};
}

/// A cache hit over an in-memory copy of `bytes`, aligned and kept alive
/// like an mmap'd cache object.
CacheHit hit_over(const std::string& bytes) {
  auto buffer = std::make_shared<AlignedBlobBuffer>(bytes);
  CacheHit hit;
  hit.payload = buffer->view();
  hit.content_hash = fnv1a(hit.payload);
  hit.backing = std::move(buffer);
  return hit;
}

/// Blob-encodes with `encode`, loads the image back, re-encodes, and checks
/// that the two images (and therefore the two content hashes) are identical.
template <typename T, typename Encode, typename Load>
std::optional<T> blob_round_trip(const T& value, Encode encode, Load load) {
  const std::string image = encode(value);
  auto restored = load(hit_over(image));
  if (!restored.ok() || !restored.value().has_value()) {
    ADD_FAILURE() << (restored.ok() ? "format version mismatch"
                                    : restored.status().to_string());
    return std::nullopt;
  }
  EXPECT_EQ(encode(*restored.value()), image);
  return std::move(restored.value());
}

TEST(Artifacts, NetlistRoundTrip) {
  const auto nl = small_user(1);
  auto [restored, hash] =
      round_trip(nl, serialize_netlist, deserialize_netlist);
  EXPECT_EQ(hash, netlist_content_hash(nl));
  EXPECT_EQ(restored.model_name(), nl.model_name());
  EXPECT_EQ(restored.num_logic_nodes(), nl.num_logic_nodes());
  EXPECT_EQ(restored.inputs().size(), nl.inputs().size());
  EXPECT_EQ(restored.outputs().size(), nl.outputs().size());
  EXPECT_EQ(restored.latches().size(), nl.latches().size());
}

TEST(Artifacts, InstrumentedRoundTrip) {
  const auto inst = small_instrumented(2);
  auto [restored, hash] =
      round_trip(inst, serialize_instrumented, deserialize_instrumented);
  (void)hash;
  EXPECT_EQ(restored.lane_signals, inst.lane_signals);
  EXPECT_EQ(restored.lane_params, inst.lane_params);
  EXPECT_EQ(restored.trace_outputs, inst.trace_outputs);
  EXPECT_EQ(restored.netlist.params().size(), inst.netlist.params().size());
}

TEST(Artifacts, MappedNetlistRoundTrip) {
  const auto inst = small_instrumented(3);
  const auto mapping = map::tcon_map(inst.netlist);
  const auto restored =
      blob_round_trip(mapping, encode_map_result_blob, load_map_result);
  ASSERT_TRUE(restored);
  // The blob loader rebuilds the netlist cell by cell; the rebuilt netlist
  // serializes to exactly the original's stream bytes.
  ByteWriter want;
  serialize_mapped_netlist(mapping.netlist, want);
  ByteWriter got;
  serialize_mapped_netlist(restored->netlist, got);
  EXPECT_EQ(got.bytes(), want.bytes());
  EXPECT_EQ(restored->netlist.num_cells(), mapping.netlist.num_cells());
  EXPECT_EQ(restored->netlist.count(map::MKind::kTcon),
            mapping.netlist.count(map::MKind::kTcon));
  EXPECT_EQ(restored->netlist.lut_area(), mapping.netlist.lut_area());
}

TEST(Artifacts, MapResultRoundTripDropsWallClock) {
  const auto inst = small_instrumented(4);
  auto mapping = map::tcon_map(inst.netlist);
  const std::string blob = encode_map_result_blob(mapping);
  ByteWriter w1;
  serialize_map_result(mapping, w1);
  // Volatile timing must not leak into artifact bytes: two runs differing
  // only in runtime_seconds encode identically in both forms.
  mapping.stats.runtime_seconds += 123.0;
  EXPECT_EQ(encode_map_result_blob(mapping), blob);
  ByteWriter w2;
  serialize_map_result(mapping, w2);
  EXPECT_EQ(w1.content_hash(), w2.content_hash());

  const auto restored =
      blob_round_trip(mapping, encode_map_result_blob, load_map_result);
  ASSERT_TRUE(restored);
  EXPECT_EQ(restored->stats.num_tcons, mapping.stats.num_tcons);
  EXPECT_EQ(restored->stats.mapper, mapping.stats.mapper);
}

/// Runs the physical flow once; placement/routing/pconf tests share it.
struct Physical {
  pnr::CompiledDesign design;
  bitstream::PconfBuildStats stats;
  bitstream::PConf pconf;
};

Physical compile_small(std::uint64_t seed) {
  const auto inst = small_instrumented(seed);
  auto mapping = map::tcon_map(inst.netlist);
  pnr::CompiledDesign design =
      testutil::compile_mapped(std::move(mapping.netlist), inst.trace_outputs);
  bitstream::PconfBuildStats stats;
  bitstream::PConf pconf = bitstream::build_pconf(design, &stats);
  return Physical{std::move(design), stats, std::move(pconf)};
}

TEST(Artifacts, PackingPlacementRoutingRoundTrip) {
  const Physical phys = compile_small(5);

  auto [packing, ph] =
      round_trip(phys.design.packing, serialize_packing, deserialize_packing);
  (void)ph;
  EXPECT_EQ(packing.num_clusters(), phys.design.packing.num_clusters());

  auto [placement, plh] = round_trip(phys.design.placement,
                                     serialize_placement,
                                     deserialize_placement);
  (void)plh;
  EXPECT_EQ(placement.cluster_pos, phys.design.placement.cluster_pos);
  EXPECT_EQ(placement.total_hpwl, phys.design.placement.total_hpwl);

  auto routing = phys.design.routing;
  ByteWriter w1;
  serialize_route_result(routing, w1);
  routing.runtime_seconds += 42.0;  // volatile field must not affect bytes
  ByteWriter w2;
  serialize_route_result(routing, w2);
  EXPECT_EQ(w1.content_hash(), w2.content_hash());

  auto [restored, rh] = round_trip(routing, serialize_route_result,
                                   deserialize_route_result);
  (void)rh;
  EXPECT_EQ(restored.success, phys.design.routing.success);
  EXPECT_EQ(restored.routes.size(), phys.design.routing.routes.size());
  EXPECT_EQ(restored.total_wirelength, phys.design.routing.total_wirelength);
}

TEST(Artifacts, PconfRoundTrip) {
  const Physical phys = compile_small(6);
  const PconfArtifact artifact{phys.pconf, phys.stats};
  const auto restored =
      blob_round_trip(artifact, encode_pconf_blob, load_pconf);
  ASSERT_TRUE(restored);
  EXPECT_TRUE(restored->pconf.functions_borrowed());
  EXPECT_EQ(restored->pconf.total_bits(), phys.pconf.total_bits());
  EXPECT_EQ(restored->pconf.num_parameterized_bits(),
            phys.pconf.num_parameterized_bits());
  EXPECT_EQ(restored->pconf.param_names(), phys.pconf.param_names());
  EXPECT_EQ(restored->stats.tlut_cells, phys.stats.tlut_cells);
  EXPECT_EQ(restored->stats.parameterized_switch_bits,
            phys.stats.parameterized_switch_bits);
}

TEST(Artifacts, StreamPayloadInBlobStageIsCorrupt) {
  // The hot artifacts have one encoding: a payload that is not a blob image
  // (for example stream bytes) is reported, not parsed another way.
  const auto inst = small_instrumented(8);
  ByteWriter w;
  serialize_map_result(map::tcon_map(inst.netlist), w);
  const auto map_load = load_map_result(hit_over(w.bytes()));
  ASSERT_FALSE(map_load.ok());
  EXPECT_EQ(map_load.status().code(), support::StatusCode::kCorruptArtifact);
  const auto pconf_load = load_pconf(hit_over(w.bytes()));
  ASSERT_FALSE(pconf_load.ok());
  EXPECT_EQ(pconf_load.status().code(), support::StatusCode::kCorruptArtifact);
}

TEST(Artifacts, TruncatedBytesAreCorruptNotFatal) {
  const auto nl = small_user(7);
  ByteWriter w;
  serialize_netlist(nl, w);
  for (const std::size_t keep : {std::size_t{0}, std::size_t{4},
                                 w.bytes().size() / 2,
                                 w.bytes().size() - 1}) {
    ByteReader r(std::string_view(w.bytes()).substr(0, keep));
    const auto restored = deserialize_netlist(r);
    ASSERT_FALSE(restored.ok()) << "keep=" << keep;
    EXPECT_EQ(restored.status().code(), support::StatusCode::kCorruptArtifact);
  }
}

TEST(Artifacts, OptionHashesSeparateConcerns) {
  pnr::CompileOptions base;
  pnr::CompileOptions seeded = base;
  seeded.place.seed += 1;
  // A place-option change must alter the place hash but not route/device.
  EXPECT_NE(hash_place_options(base), hash_place_options(seeded));
  EXPECT_EQ(hash_route_options(base), hash_route_options(seeded));
  EXPECT_EQ(hash_device_options(base), hash_device_options(seeded));

  pnr::CompileOptions rerouted = base;
  rerouted.route.max_iterations += 5;
  EXPECT_EQ(hash_place_options(base), hash_place_options(rerouted));
  EXPECT_NE(hash_route_options(base), hash_route_options(rerouted));

  debug::InstrumentOptions inst;
  debug::InstrumentOptions wider = inst;
  wider.trace_width += 1;
  EXPECT_NE(hash_instrument_options(inst), hash_instrument_options(wider));
}

}  // namespace
}  // namespace fpgadbg::flow
