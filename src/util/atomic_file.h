#ifndef SCHEMEX_UTIL_ATOMIC_FILE_H_
#define SCHEMEX_UTIL_ATOMIC_FILE_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace schemex::util {

/// Writes the concatenation of `pieces` to "<path>.tmp" and renames it
/// over `path`, so a concurrent reader opens either the complete old
/// file or the complete new one, never a partial write. The pieces are
/// written as they are, without being joined first.
///
/// Internal on any failure (open, short write, close, rename); the tmp
/// file is then removed and `path` is left as it was. Nothing is
/// fsynced: a crash can still lose the new file or the rename.
Status WriteFileAtomic(const std::string& path,
                       const std::vector<std::string_view>& pieces);

}  // namespace schemex::util

#endif  // SCHEMEX_UTIL_ATOMIC_FILE_H_
