#include "support/mmap.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace fpgadbg::support {

Result<std::shared_ptr<MmapRegion>> MmapRegion::map_file(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    const int err = errno;
    const std::string why =
        "cannot open " + path + " for mapping: " + std::strerror(err);
    return err == ENOENT ? Status::not_found(why) : Status::io_error(why);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::io_error("cannot stat " + path + ": " +
                            std::strerror(err));
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return std::shared_ptr<MmapRegion>(new MmapRegion(nullptr, 0));
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  const int map_err = errno;
  ::close(fd);  // The mapping holds its own reference to the file.
  if (base == MAP_FAILED) {
    return Status::io_error("cannot mmap " + path + ": " +
                            std::strerror(map_err));
  }
  return std::shared_ptr<MmapRegion>(new MmapRegion(base, size));
}

MmapRegion::~MmapRegion() {
  if (base_ != nullptr && size_ != 0) ::munmap(base_, size_);
}

}  // namespace fpgadbg::support
