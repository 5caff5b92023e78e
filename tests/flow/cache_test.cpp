// Artifact cache tests: content-addressed round trips and dedup, the
// fail-fast integrity contract (truncated or mislabeled indexes and objects,
// bit flips caught by the digest), dangling indexes and old-layout files as
// misses, and the LRU-by-atime GC sweep.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "flow/cache.h"
#include "flow/serialize.h"
#include "support/mmap.h"
#include "support/status.h"

namespace fpgadbg::flow {
namespace {

namespace fs = std::filesystem;

struct TempRoot {
  explicit TempRoot(const std::string& stem)
      : path("/tmp/fpgadbg_cache_" + std::to_string(::getpid()) + "_" + stem) {
    fs::remove_all(path);
  }
  ~TempRoot() { fs::remove_all(path); }
  std::string path;
};

/// Pins a file's atime (nanosecond precision) so LRU order is exact.
void set_atime(const std::string& path, std::int64_t seconds) {
  struct timespec times[2];
  times[0].tv_sec = seconds;
  times[0].tv_nsec = 0;
  times[1].tv_sec = 0;
  times[1].tv_nsec = UTIME_OMIT;
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
}

std::size_t count_files(const std::string& dir) {
  std::size_t n = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); ++it) {
    if (it->is_regular_file()) ++n;
  }
  return n;
}

/// Every object file under <root>/cas.
std::vector<std::string> objects(const std::string& root) {
  std::vector<std::string> out;
  for (const auto& e : fs::directory_iterator(root + "/cas")) {
    out.push_back(e.path().string());
  }
  return out;
}

/// Overwrites one byte of `path` at `offset`.
void poke(const std::string& path, std::size_t offset, char value) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(value);
}

void expect_corrupt(const support::Result<std::optional<CacheHit>>& load,
                    const std::string& why) {
  ASSERT_FALSE(load.ok());
  EXPECT_EQ(load.status().code(), support::StatusCode::kCorruptArtifact);
  EXPECT_NE(load.status().message().find(why), std::string::npos)
      << load.status().message();
}

// --- round trips ------------------------------------------------------------

TEST(CasCacheStore, StoreThenLoadRoundTripsViaMmap) {
  TempRoot root("cas_rt");
  const ArtifactCache cache(root.path);
  const std::string bytes = "content addressed payload";
  ASSERT_TRUE(cache.store("place", 7, fnv1a(bytes), bytes).ok());
  auto load = cache.load("place", 7);
  ASSERT_TRUE(load.ok()) << load.status().to_string();
  ASSERT_TRUE(load.value().has_value());
  EXPECT_EQ(load.value()->payload, bytes);
  EXPECT_EQ(load.value()->content_hash, fnv1a(bytes));
  EXPECT_NE(load.value()->backing, nullptr);  // the mapping itself
  EXPECT_FALSE(cache.load("place", 8).value().has_value());
}

TEST(CasCacheStore, IdenticalPayloadsDeduplicate) {
  TempRoot root("cas_dedup");
  const ArtifactCache cache(root.path);
  const std::string bytes(1000, 'd');
  // Four (stage, key) pairs, one payload: one object, four index files.
  ASSERT_TRUE(cache.store("place", 1, fnv1a(bytes), bytes).ok());
  ASSERT_TRUE(cache.store("place", 2, fnv1a(bytes), bytes).ok());
  ASSERT_TRUE(cache.store("route", 1, fnv1a(bytes), bytes).ok());
  ASSERT_TRUE(cache.store("route", 2, fnv1a(bytes), bytes).ok());
  EXPECT_EQ(count_files(root.path + "/cas"), 1u);
  EXPECT_EQ(count_files(root.path + "/index"), 4u);
  // The GC sees one entry of the payload's size, and sweeping it drops all
  // four index files with it.
  auto stats = cache.gc(0);
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(stats.value().scanned_entries, 1u);
  EXPECT_EQ(stats.value().scanned_bytes, bytes.size());
  EXPECT_EQ(count_files(root.path + "/cas"), 0u);
  EXPECT_EQ(count_files(root.path + "/index"), 0u);
}

TEST(ArtifactCache, TwoHandlesShareOneCasRoot) {
  TempRoot root("shared");
  // Two independent caches over one root: what one stores the other loads
  // (the in-process analogue of the two-process CLI smoke test).
  const ArtifactCache a(root.path);
  const ArtifactCache b(root.path);
  const std::string bytes = "published by a";
  ASSERT_TRUE(a.store("place", 11, fnv1a(bytes), bytes).ok());
  auto load = b.load("place", 11);
  ASSERT_TRUE(load.ok()) << load.status().to_string();
  ASSERT_TRUE(load.value().has_value());
  EXPECT_EQ(load.value()->payload, bytes);
}

// --- misses -------------------------------------------------------------------

TEST(CasCacheStore, DanglingIndexIsAMiss) {
  TempRoot root("cas_dangle");
  const ArtifactCache cache(root.path);
  const std::string bytes = "swept payload";
  ASSERT_TRUE(cache.store("route", 9, fnv1a(bytes), bytes).ok());
  // Simulate a GC that removed the object but (crash) not the index: the
  // loader's one open of the object finds nothing.
  ASSERT_EQ(count_files(root.path + "/cas"), 1u);
  for (const std::string& object : objects(root.path)) fs::remove(object);
  auto load = cache.load("route", 9);
  ASSERT_TRUE(load.ok()) << load.status().to_string();
  EXPECT_FALSE(load.value().has_value());
  // A follow-up store + load works again (rebuild-and-republish path).
  ASSERT_TRUE(cache.store("route", 9, fnv1a(bytes), bytes).ok());
  EXPECT_TRUE(cache.load("route", 9).value().has_value());
}

TEST(MmapRegion, MissingFileIsNotFound) {
  TempRoot root("mmap_missing");
  auto region = support::MmapRegion::map_file(root.path + "/absent");
  ASSERT_FALSE(region.ok());
  EXPECT_EQ(region.status().code(), support::StatusCode::kNotFound);
}

TEST(ArtifactCache, DirLayoutEntryIsIgnored) {
  TempRoot root("dir_layout");
  const ArtifactCache cache(root.path);
  // Plant an entry in the older one-file-per-entry layout,
  // <root>/<stage>/<key-hex> with a 64-byte header and the payload inline.
  // The cache never reads that layout: the key misses instead of parsing.
  const std::string key_hex =
      fs::path(cache.entry_path("instrument", 4)).filename().string();
  const std::string old_entry = root.path + "/instrument/" + key_hex;
  fs::create_directories(fs::path(old_entry).parent_path());
  std::ofstream(old_entry, std::ios::binary)
      << std::string(64, '\x01') << "old payload";
  auto load = cache.load("instrument", 4);
  ASSERT_TRUE(load.ok()) << load.status().to_string();
  EXPECT_FALSE(load.value().has_value());
  // The GC does not count or touch it either; it stays until deleted.
  auto stats = cache.gc(0);
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(stats.value().scanned_entries, 0u);
  EXPECT_TRUE(fs::exists(old_entry));
}

// --- integrity contract -------------------------------------------------------

TEST(CasCacheStore, TruncatedObjectFailsFast) {
  TempRoot root("cas_trunc");
  const ArtifactCache cache(root.path);
  const std::string bytes(2048, 'q');
  ASSERT_TRUE(cache.store("pconf-build", 5, fnv1a(bytes), bytes).ok());
  ASSERT_EQ(::truncate(objects(root.path).at(0).c_str(), 100), 0);
  expect_corrupt(cache.load("pconf-build", 5), "truncated");
}

TEST(ArtifactCache, TruncatedIndexFailsFast) {
  TempRoot root("idx_trunc");
  const ArtifactCache cache(root.path);
  const std::string bytes(1024, 'x');
  ASSERT_TRUE(cache.store("place", 1, fnv1a(bytes), bytes).ok());
  ASSERT_EQ(::truncate(cache.entry_path("place", 1).c_str(), 63), 0);
  expect_corrupt(cache.load("place", 1), "truncated");
}

TEST(ArtifactCache, IndexWithBadMagicIsCorrupt) {
  TempRoot root("idx_magic");
  const ArtifactCache cache(root.path);
  const std::string bytes(256, 'm');
  ASSERT_TRUE(cache.store("pack", 2, fnv1a(bytes), bytes).ok());
  poke(cache.entry_path("pack", 2), 0, 'X');
  expect_corrupt(cache.load("pack", 2), "bad magic");
}

TEST(ArtifactCache, MislabeledIndexIsCorrupt) {
  TempRoot root("idx_label");
  const ArtifactCache cache(root.path);
  const std::string bytes(256, 'l');
  ASSERT_TRUE(cache.store("place", 3, fnv1a(bytes), bytes).ok());
  // A valid index copied under another stage, and under another key.
  const std::string index = cache.entry_path("place", 3);
  const std::string other_stage = cache.entry_path("route", 3);
  const std::string other_key = cache.entry_path("place", 4);
  fs::create_directories(fs::path(other_stage).parent_path());
  fs::copy_file(index, other_stage);
  fs::copy_file(index, other_key);
  expect_corrupt(cache.load("route", 3), "mislabeled");
  expect_corrupt(cache.load("place", 4), "mislabeled");
  EXPECT_TRUE(cache.load("place", 3).value().has_value());
}

TEST(ArtifactCache, ObjectBitFlipFailsTheDigest) {
  TempRoot root("flip");
  const ArtifactCache cache(root.path);
  const std::string bytes(512, 'z');
  ASSERT_TRUE(cache.store("pack", 3, fnv1a(bytes), bytes).ok());
  poke(objects(root.path).at(0), 100, 'Z');
  expect_corrupt(cache.load("pack", 3), "hash mismatch");
}

// --- GC -----------------------------------------------------------------------

TEST(GcSweep, EvictsLeastRecentlyUsedFirst) {
  TempRoot root("sweep");
  fs::create_directories(root.path);
  // Four 100-byte files with strictly increasing atimes.
  std::vector<CacheEntryInfo> all;
  for (int i = 0; i < 4; ++i) {
    CacheEntryInfo e;
    e.path = root.path + "/entry" + std::to_string(i);
    std::ofstream(e.path) << std::string(100, 'a');
    set_atime(e.path, 1000 + i);
    e.bytes = 100;
    e.atime_ns = (1000 + i) * 1'000'000'000LL;
    all.push_back(e);
  }
  // Budget for two entries: the two OLDEST must go, newest two stay.
  const GcStats stats = gc_sweep(all, 200);
  EXPECT_EQ(stats.scanned_entries, 4u);
  EXPECT_EQ(stats.scanned_bytes, 400u);
  EXPECT_EQ(stats.removed_entries, 2u);
  EXPECT_EQ(stats.removed_bytes, 200u);
  EXPECT_FALSE(fs::exists(all[0].path));
  EXPECT_FALSE(fs::exists(all[1].path));
  EXPECT_TRUE(fs::exists(all[2].path));
  EXPECT_TRUE(fs::exists(all[3].path));
}

TEST(ArtifactCache, GcEvictsInAtimeOrder) {
  TempRoot root("gc_order");
  const ArtifactCache cache(root.path);
  // Four distinct 100-byte objects; payload byte i names key i.
  for (std::uint64_t key = 0; key < 4; ++key) {
    const std::string bytes(100, static_cast<char>('0' + key));
    ASSERT_TRUE(cache.store("place", key, fnv1a(bytes), bytes).ok());
  }
  // Pin atimes so key 2 is the coldest and key 1 the hottest.
  const std::int64_t age_rank[] = {1, 3, 0, 2};  // key -> oldest-first rank
  for (const std::string& object : objects(root.path)) {
    std::ifstream in(object, std::ios::binary);
    const int key = in.get() - '0';
    set_atime(object, 1000 + age_rank[key]);
  }
  auto stats = cache.gc(200);  // keep two objects
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(stats.value().removed_entries, 2u);
  EXPECT_FALSE(cache.load("place", 2).value().has_value());  // evicted
  EXPECT_FALSE(cache.load("place", 0).value().has_value());  // evicted
  EXPECT_TRUE(cache.load("place", 3).value().has_value());   // kept
  EXPECT_TRUE(cache.load("place", 1).value().has_value());   // kept
}

TEST(CasCacheStore, GcRemovesObjectsAndTheirIndexes) {
  TempRoot root("cas_gc");
  const ArtifactCache cache(root.path);
  const std::string cold(300, 'c');
  const std::string hot(300, 'h');
  ASSERT_TRUE(cache.store("place", 1, fnv1a(cold), cold).ok());
  ASSERT_TRUE(cache.store("route", 1, fnv1a(cold), cold).ok());  // same object
  ASSERT_TRUE(cache.store("place", 2, fnv1a(hot), hot).ok());
  // Pin the cold object older than the hot one (the first payload byte
  // identifies which object a content-named file holds).
  for (const std::string& object : objects(root.path)) {
    std::ifstream in(object, std::ios::binary);
    set_atime(object, in.get() == 'c' ? 1000 : 2000);
  }
  auto stats = cache.gc(300);  // room for exactly one object
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(stats.value().removed_entries, 1u);
  // The cold object and BOTH index files naming it are gone; the hot entry
  // still loads.
  EXPECT_FALSE(cache.load("place", 1).value().has_value());
  EXPECT_FALSE(cache.load("route", 1).value().has_value());
  EXPECT_FALSE(fs::exists(cache.entry_path("place", 1)));
  EXPECT_FALSE(fs::exists(cache.entry_path("route", 1)));
  EXPECT_TRUE(cache.load("place", 2).value().has_value());
}

}  // namespace
}  // namespace fpgadbg::flow
