#include "util/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <system_error>

namespace schemex::util {

namespace {

Status Failed(const std::string& what, const std::string& path, int err) {
  return Status::Internal(what + " " + path + ": " +
                          std::generic_category().message(err));
}

/// Writes every byte of `bytes` to `fd`, resuming after short writes
/// and EINTR. Returns 0 or the errno of the failed write.
int WriteAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return 0;
}

}  // namespace

Status WriteFileAtomic(const std::string& path,
                       const std::vector<std::string_view>& pieces) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0666);
  if (fd < 0) return Failed("cannot open", tmp, errno);
  int err = 0;
  for (std::string_view piece : pieces) {
    err = WriteAll(fd, piece);
    if (err != 0) break;
  }
  if (::close(fd) != 0 && err == 0) err = errno;
  if (err != 0) {
    ::unlink(tmp.c_str());
    return Failed("write failed:", tmp, err);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    err = errno;
    ::unlink(tmp.c_str());
    return Failed("cannot rename " + tmp + " to", path, err);
  }
  return Status::OK();
}

}  // namespace schemex::util
