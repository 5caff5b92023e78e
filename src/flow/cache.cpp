#include "flow/cache.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "flow/serialize.h"
#include "support/mmap.h"
#include "support/telemetry.h"

namespace fpgadbg::flow {

namespace {

namespace fs = std::filesystem;

using support::MmapRegion;
using support::Result;
using support::Status;

// Index file: magic[0,8) stage_hash[8,16) key[16,24) payload_hash[24,32)
// payload_size[32,40) reserved-zero[40,64).  payload_hash doubles as the
// object's address under <root>/cas/.
constexpr std::size_t kIndexSize = 64;
constexpr char kIndexMagic[8] = {'F', 'D', 'B', 'G', 'I', 'D', 'X', '1'};

struct IndexHeader {
  std::uint64_t stage_hash = 0;
  std::uint64_t key = 0;
  std::uint64_t payload_hash = 0;
  std::uint64_t payload_size = 0;
};

void encode_index(char out[kIndexSize], const IndexHeader& h) {
  std::memset(out, 0, kIndexSize);
  std::memcpy(out, kIndexMagic, 8);
  std::memcpy(out + 8, &h.stage_hash, 8);
  std::memcpy(out + 16, &h.key, 8);
  std::memcpy(out + 24, &h.payload_hash, 8);
  std::memcpy(out + 32, &h.payload_size, 8);
}

IndexHeader decode_index(const char in[kIndexSize]) {
  IndexHeader h;
  std::memcpy(&h.stage_hash, in + 8, 8);
  std::memcpy(&h.key, in + 16, 8);
  std::memcpy(&h.payload_hash, in + 24, 8);
  std::memcpy(&h.payload_size, in + 32, 8);
  return h;
}

/// Reads up to kIndexSize bytes of `path` into `raw`.  Returns the number
/// of bytes read, or -1 with errno set when the file cannot be read.
ssize_t read_index(const std::string& path, char raw[kIndexSize]) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return -1;
  const ssize_t n = ::read(fd, raw, kIndexSize);
  const int err = errno;
  ::close(fd);
  errno = err;
  return n;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf, 16);
}

/// Marks `path` as just-used: sets atime to now, leaves mtime alone.  Best
/// effort (noatime mounts would otherwise starve the LRU sweep of signal).
void touch_atime(const std::string& path) {
  struct timespec times[2];
  times[0].tv_sec = 0;
  times[0].tv_nsec = UTIME_NOW;   // atime := now
  times[1].tv_sec = 0;
  times[1].tv_nsec = UTIME_OMIT;  // mtime unchanged
  ::utimensat(AT_FDCWD, path.c_str(), times, 0);
}

/// st_atime of `path` in nanoseconds, or -1 when unreadable.
std::int64_t read_atime_ns(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return -1;
  return static_cast<std::int64_t>(st.st_atim.tv_sec) * 1'000'000'000 +
         st.st_atim.tv_nsec;
}

/// Writes `bytes` to `path` via a process-unique temp file + atomic rename.
/// Returns false on I/O error.
bool publish_file(const std::string& path, std::string_view bytes) {
  // Process-unique temp name: concurrent writers of the same entry never
  // stomp each other's partial file, and rename() makes the publish atomic.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  bool ok = true;
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  while (ok && n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w <= 0) {
      ok = false;
    } else {
      p += w;
      n -= static_cast<std::size_t>(w);
    }
  }
  if (::close(fd) != 0) ok = false;
  if (ok && ::rename(tmp.c_str(), path.c_str()) != 0) ok = false;
  if (!ok) ::unlink(tmp.c_str());
  return ok;
}

/// RAII flock over <root>/.lock.  Writers take it shared (any number of
/// processes may publish concurrently; publication is rename-atomic); the
/// GC sweep takes it exclusively so it never unlinks an object another
/// process is between publishing and indexing.  Readers take no lock at
/// all: an mmap taken before an unlink stays valid, and index and object
/// files are immutable once published.
class RootLock {
 public:
  RootLock(const std::string& root, bool exclusive) {
    fd_ = ::open((root + "/.lock").c_str(), O_RDWR | O_CREAT | O_CLOEXEC,
                 0644);
    if (fd_ >= 0) ::flock(fd_, exclusive ? LOCK_EX : LOCK_SH);
  }
  ~RootLock() {
    if (fd_ >= 0) {
      ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
  }
  RootLock(const RootLock&) = delete;
  RootLock& operator=(const RootLock&) = delete;

 private:
  int fd_ = -1;
};

/// Calls fn(path, header) for every well-formed index file under <root>.
template <typename Fn>
void for_each_index(const std::string& root, Fn&& fn) {
  std::error_code ec;
  for (fs::directory_iterator stage_it(root + "/index", ec);
       !ec && stage_it != fs::directory_iterator(); ++stage_it) {
    if (!stage_it->is_directory(ec)) continue;
    std::error_code ec2;
    for (fs::directory_iterator it(stage_it->path(), ec2);
         !ec2 && it != fs::directory_iterator(); ++it) {
      if (!it->is_regular_file(ec2)) continue;
      char raw[kIndexSize];
      const std::string path = it->path().string();
      if (read_index(path, raw) != static_cast<ssize_t>(kIndexSize) ||
          std::memcmp(raw, kIndexMagic, 8) != 0) {
        continue;
      }
      fn(path, decode_index(raw));
    }
  }
}

}  // namespace

GcStats gc_sweep(std::vector<CacheEntryInfo> all, std::uint64_t max_bytes) {
  GcStats stats;
  stats.scanned_entries = all.size();
  std::uint64_t total = 0;
  for (const CacheEntryInfo& e : all) total += e.bytes;
  stats.scanned_bytes = total;

  // Least-recently-used first; path tie-break keeps the order deterministic
  // when atimes collide (coarse filesystem timestamps).
  std::sort(all.begin(), all.end(),
            [](const CacheEntryInfo& a, const CacheEntryInfo& b) {
              if (a.atime_ns != b.atime_ns) return a.atime_ns < b.atime_ns;
              return a.path < b.path;
            });
  for (const CacheEntryInfo& e : all) {
    if (total <= max_bytes) break;
    if (::unlink(e.path.c_str()) != 0 && errno != ENOENT) continue;
    for (const std::string& idx : e.index_paths) ::unlink(idx.c_str());
    total -= e.bytes;
    stats.removed_bytes += e.bytes;
    ++stats.removed_entries;
  }
  return stats;
}

std::string ArtifactCache::entry_path(const std::string& stage,
                                      std::uint64_t key) const {
  if (!enabled()) return {};
  return root_ + "/index/" + stage + "/" + hex64(key);
}

std::string ArtifactCache::object_path(std::uint64_t content_hash) const {
  return root_ + "/cas/" + hex64(content_hash);
}

Result<std::optional<CacheHit>> ArtifactCache::load(const std::string& stage,
                                                    std::uint64_t key) const {
  if (!enabled()) return std::optional<CacheHit>();
  auto& m = telemetry::metrics();
  auto miss = [&m] {
    m.counter("flow.cache.misses").add();
    return std::optional<CacheHit>();
  };
  const std::string index = entry_path(stage, key);

  char raw[kIndexSize];
  const ssize_t n = read_index(index, raw);
  if (n < 0) {
    if (errno == ENOENT) return miss();
    return Status::io_error("cannot read cache index " + index + ": " +
                            std::strerror(errno));
  }
  if (n != static_cast<ssize_t>(kIndexSize)) {
    return Status::corrupt_artifact(
        "cache index " + index + ": shorter than the fixed header (truncated)");
  }
  if (std::memcmp(raw, kIndexMagic, 8) != 0) {
    return Status::corrupt_artifact("cache index " + index +
                                    ": bad magic (not an index file)");
  }
  const IndexHeader h = decode_index(raw);
  if (h.stage_hash != fnv1a(stage) || h.key != key) {
    return Status::corrupt_artifact("cache index " + index +
                                    ": mislabeled header");
  }

  // One open: a GC sweep may unlink the object at any moment, and an object
  // gone at open time is a dangling index, i.e. a miss that the stage
  // rebuilds and re-publishes.  Once mapped, the object stays readable.
  const std::string object = object_path(h.payload_hash);
  Result<std::shared_ptr<MmapRegion>> region = MmapRegion::map_file(object);
  if (!region.ok()) {
    if (region.status().code() == support::StatusCode::kNotFound) {
      return miss();
    }
    return region.status();
  }
  const std::string_view payload = region.value()->view();
  // Size check before the digest pass: truncation fails fast.
  if (payload.size() != h.payload_size) {
    return Status::corrupt_artifact(
        "cache object " + object +
        ": size does not match its index (truncated)");
  }
  if (fnv1a(payload) != h.payload_hash) {
    return Status::corrupt_artifact(
        "cache object " + object +
        ": content hash mismatch (object is damaged); delete it to "
        "recompute");
  }

  touch_atime(object);
  m.counter("flow.cache.hits").add();
  m.counter("flow.cache.bytes_read").add(payload.size());
  m.counter("flow.cache.mmap_hits").add();
  m.counter("flow.cache.bytes_mapped").add(payload.size());
  CacheHit hit;
  hit.payload = payload;
  hit.content_hash = h.payload_hash;
  hit.backing = std::move(region).value();
  return std::optional<CacheHit>(std::move(hit));
}

Status ArtifactCache::store(const std::string& stage, std::uint64_t key,
                            std::uint64_t content_hash,
                            std::string_view bytes) const {
  if (!enabled()) return Status();
  const std::string index = entry_path(stage, key);
  const std::string object = object_path(content_hash);
  std::error_code ec;
  fs::create_directories(root_ + "/cas", ec);
  if (!ec) fs::create_directories(fs::path(index).parent_path(), ec);
  if (ec) {
    return Status::io_error("cannot create cache directories under " + root_ +
                            ": " + ec.message());
  }

  RootLock lock(root_, /*exclusive=*/false);

  // Object first, then the index naming it: a reader can race the pair and
  // see index-without-object only for entries GC removed, never for entries
  // mid-publish.  Content-named files are immutable, so when the object
  // already exists (same bytes by construction) the write is skipped
  // entirely; that is the dedup.
  struct stat st;
  const bool have_object =
      ::stat(object.c_str(), &st) == 0 &&
      static_cast<std::uint64_t>(st.st_size) == bytes.size();
  if (!have_object && !publish_file(object, bytes)) {
    return Status::io_error("cannot publish cache object " + object + ": " +
                            std::strerror(errno));
  }
  char header[kIndexSize];
  encode_index(header, IndexHeader{fnv1a(stage), key, content_hash,
                                   bytes.size()});
  if (!publish_file(index, std::string_view(header, sizeof header))) {
    return Status::io_error("cannot publish cache index " + index + ": " +
                            std::strerror(errno));
  }
  auto& m = telemetry::metrics();
  m.counter("flow.cache.stores").add();
  m.counter("flow.cache.bytes_written").add(have_object ? 0 : bytes.size());
  return Status();
}

std::vector<CacheEntryInfo> ArtifactCache::entries() const {
  std::vector<CacheEntryInfo> all;
  std::error_code ec;
  for (fs::directory_iterator it(root_ + "/cas", ec);
       !ec && it != fs::directory_iterator(); ++it) {
    if (!it->is_regular_file(ec)) continue;
    CacheEntryInfo e;
    e.path = it->path().string();
    e.bytes = it->file_size(ec);
    e.atime_ns = read_atime_ns(e.path);
    all.push_back(std::move(e));
  }
  // Attach each index file to the object it names, so sweeping an object
  // also drops the keys that point at it.
  std::vector<std::pair<std::string, std::size_t>> by_name;
  by_name.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    by_name.emplace_back(fs::path(all[i].path).filename().string(), i);
  }
  std::sort(by_name.begin(), by_name.end());
  for_each_index(root_, [&](const std::string& path, const IndexHeader& h) {
    const std::string name = hex64(h.payload_hash);
    const auto it = std::lower_bound(
        by_name.begin(), by_name.end(), name,
        [](const auto& a, const std::string& b) { return a.first < b; });
    if (it != by_name.end() && it->first == name) {
      all[it->second].index_paths.push_back(path);
    }
  });
  return all;
}

Result<GcStats> ArtifactCache::gc(std::uint64_t max_bytes) const {
  if (!enabled()) return GcStats{};
  RootLock lock(root_, /*exclusive=*/true);
  GcStats stats = gc_sweep(entries(), max_bytes);
  // Dangling indexes (object already swept, or a crashed writer) are noise
  // for future loads: drop them while we hold the exclusive lock.
  for_each_index(root_, [&](const std::string& path, const IndexHeader& h) {
    struct stat st;
    if (::stat(object_path(h.payload_hash).c_str(), &st) != 0) {
      ::unlink(path.c_str());
    }
  });
  return stats;
}

}  // namespace fpgadbg::flow
