// Helpers shared by the storage layer's file code (WAL, snapshot files,
// the manager): the little-endian appends every on-disk format is
// written with, and the errno-carrying Status its syscalls fail with.
// Readers decode with LoadU32/LoadU64 (src/storage/checksum.h) or
// bounds-checked cursors.

#ifndef WDPT_SRC_STORAGE_INTERNAL_H_
#define WDPT_SRC_STORAGE_INTERNAL_H_

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>

#include "src/common/status.h"

namespace wdpt::storage {

/// Appends `v` in host byte order (little-endian on every supported
/// target), 4 bytes.
inline void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

/// Appends `v` in host byte order, 8 bytes.
inline void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

/// kInternal "<what> <path>: <strerror(errno)>"; call right after the
/// failing syscall, before anything can clobber errno.
inline Status Errno(const std::string& what, const std::string& path) {
  return Status::Internal(what + " " + path + ": " +
                          std::string(std::strerror(errno)));
}

}  // namespace wdpt::storage

#endif  // WDPT_SRC_STORAGE_INTERNAL_H_
