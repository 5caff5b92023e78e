// Content-addressed on-disk artifact cache for the staged compile pipeline.
//
// Layout under the cache root (--cache-dir / OfflineOptions::cache_dir):
//
//  - <root>/cas/<fnv-hex>: payloads named by their own FNV-1a hash
//    (deduplicated, immutable once published).  A payload starts at file
//    offset 0, so its mmap is page-aligned, which satisfies the blob
//    format's 64-byte base alignment.
//  - <root>/index/<stage>/<key-hex>: fixed 64-byte index files (magic
//    FDBGIDX1, stage hash, key, payload hash, payload size) mapping a stage
//    key to the content hash of its payload.
//  - <root>/.lock: flock fencing writers (shared) against a GC sweep
//    (exclusive).
//
// Objects and indexes are published via temp file + atomic rename, so any
// number of processes, including over NFS, can share one root: readers never
// lock and map each object once.  Files of any other layout under the root
// (such as the per-stage entry files of older builds) are never read; they
// are misses, not parse errors, and can be deleted.
//
// Integrity contract: the index header is validated first (magic, stage and
// key), then the object's mapped size against the size the index records, so
// a truncated entry fails fast as StatusCode::kCorruptArtifact before any
// payload byte is hashed; then one FNV-1a pass over the mapped payload
// catches bit flips.  A corrupt entry is a reportable error, never silently
// wrong pipeline output.  A missing object (an index whose payload a GC
// sweep removed) is a miss, so the stage rebuilds and re-publishes.
//
// A default-constructed (or empty-root) cache is disabled: every load
// misses, every store is a no-op, so pipeline code needs no branches.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/status.h"

namespace fpgadbg::flow {

/// A successful cache load.  `payload` points into `backing` (the object's
/// mmap region, page-aligned) and stays valid for as long as a copy of
/// `backing` is held; zero-copy consumers (blob artifacts) keep the backing
/// alive inside the deserialized object itself.
struct CacheHit {
  std::string_view payload;
  std::uint64_t content_hash = 0;
  std::shared_ptr<const void> backing;
};

/// One stored object, as seen by the GC sweep.
struct CacheEntryInfo {
  std::string path;                     ///< object file to delete
  std::vector<std::string> index_paths; ///< index files naming it
  std::uint64_t bytes = 0;              ///< on-disk size of `path`
  std::int64_t atime_ns = 0;            ///< last access (LRU order)
};

struct GcStats {
  std::size_t scanned_entries = 0;
  std::size_t removed_entries = 0;
  std::uint64_t scanned_bytes = 0;
  std::uint64_t removed_bytes = 0;
};

/// Removes the listed entries (and their index files) in LRU order until
/// the remaining total is <= max_bytes.
GcStats gc_sweep(std::vector<CacheEntryInfo> all, std::uint64_t max_bytes);

/// The cache the pipeline holds.  Copyable and stateless beyond its root.
class ArtifactCache {
 public:
  /// Disabled cache (all loads miss, stores do nothing).
  ArtifactCache() = default;
  /// Cache rooted at `root`; empty = disabled.
  explicit ArtifactCache(std::string root) : root_(std::move(root)) {}

  bool enabled() const { return !root_.empty(); }

  /// Looks up (stage, key).  nullopt = miss (also when disabled); a Status
  /// means the entry exists but is corrupt or unreadable.  A hit bumps the
  /// object's atime (LRU bookkeeping).  Counts
  /// flow.cache.{hits,misses,bytes_read,mmap_hits,bytes_mapped}.
  support::Result<std::optional<CacheHit>> load(const std::string& stage,
                                                std::uint64_t key) const;

  /// Publishes serialized artifact bytes whose FNV-1a hash is
  /// `content_hash`: the object first (skipped when it already exists), then
  /// the index naming it.  Idempotent and safe against concurrent stores of
  /// the same entry.  Counts flow.cache.stores and flow.cache.bytes_written.
  support::Status store(const std::string& stage, std::uint64_t key,
                        std::uint64_t content_hash,
                        std::string_view bytes) const;

  /// Path of the index file for (stage, key), for tests and error messages.
  std::string entry_path(const std::string& stage, std::uint64_t key) const;

  /// LRU-by-atime sweep under the exclusive root lock: removes the
  /// oldest-accessed objects and their indexes until the total payload size
  /// is <= max_bytes, then drops indexes whose object is gone.
  support::Result<GcStats> gc(std::uint64_t max_bytes) const;

 private:
  std::string object_path(std::uint64_t content_hash) const;
  std::vector<CacheEntryInfo> entries() const;

  std::string root_;
};

}  // namespace fpgadbg::flow
