// Read-only memory-mapped file regions for zero-copy artifact loading.
//
// MmapRegion wraps a PROT_READ/MAP_PRIVATE POSIX mapping with RAII
// ownership.  Loaders hand out string_views and typed spans into the
// mapping and keep it alive through a shared_ptr<MmapRegion>; the kernel
// pages data in lazily, so "loading" a multi-megabyte artifact touches only
// the bytes actually validated and read.  mmap(2) returns page-aligned
// addresses, which satisfies the blob format's 64-byte base-alignment
// requirement by construction.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "support/status.h"

namespace fpgadbg::support {

class MmapRegion {
 public:
  /// Maps `path` read-only.  Fails with kNotFound when the file does not
  /// exist and kIoError when it cannot be opened or mapped otherwise.  Empty
  /// files yield a valid region with size() == 0.
  static Result<std::shared_ptr<MmapRegion>> map_file(const std::string& path);

  ~MmapRegion();
  MmapRegion(const MmapRegion&) = delete;
  MmapRegion& operator=(const MmapRegion&) = delete;

  const char* data() const { return static_cast<const char*>(base_); }
  std::size_t size() const { return size_; }
  std::string_view view() const { return {data(), size_}; }

 private:
  MmapRegion(void* base, std::size_t size) : base_(base), size_(size) {}

  void* base_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace fpgadbg::support
