#ifndef SCHEMEX_SNAPSHOT_SNAPSHOT_H_
#define SCHEMEX_SNAPSHOT_SNAPSHOT_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/frozen_graph.h"
#include "snapshot/format.h"
#include "util/status.h"
#include "util/statusor.h"

namespace schemex::snapshot {

/// Serializes `g` to `path` in the binary snapshot format
/// (docs/snapshot.md). The file goes through util::WriteFileAtomic
/// straight from the graph's own arrays, so a concurrent Map() sees
/// either the complete old file or the complete new one. O(graph) once;
/// every later Map() is O(validation).
util::Status Write(const graph::FrozenGraph& g, const std::string& path);

/// Maps the snapshot at `path` and assembles a FrozenGraph whose CSR
/// arrays point directly into the mapping. The returned graph keeps the
/// mapping alive through its control block: the file is unmapped when
/// the last shared_ptr copy drops, even if the file was replaced or
/// unlinked meanwhile.
///
/// Checks the header, the section table, every section's CRC-32, the
/// offset arrays (via FrozenGraph::FromExternal), the label table and
/// every edge's endpoint and label against the header counts. It does
/// not run FrozenGraph::Validate()'s sortedness and mirror checks.
/// Structured InvalidArgument on any malformed input — bad magic,
/// version or endianness, truncation, CRC mismatch, out-of-bounds
/// section table, offsets or edges, a section in an encoding other than
/// raw — never a crash.
util::StatusOr<std::shared_ptr<const graph::FrozenGraph>> Map(
    const std::string& path);

/// One section table row, plus whether its payload CRC verifies.
struct SectionInfo {
  uint32_t id = 0;
  std::string name;      ///< "out_offsets", ... or "unknown"
  std::string encoding;  ///< "raw", or "unknown" for any other id
  uint64_t offset = 0;
  uint64_t stored_bytes = 0;
  uint64_t raw_bytes = 0;
  uint32_t crc32 = 0;
  bool crc_ok = false;
};

/// Header fields and section table of a snapshot, for `snapshot
/// inspect` and tests. Requires a well-formed header (magic, version,
/// endianness, header CRC, section table in bounds); individual payload
/// CRC failures are reported per-section rather than as an error.
struct SnapshotInfo {
  uint32_t version = 0;
  uint64_t file_bytes = 0;
  uint64_t num_objects = 0;
  uint64_t num_complex = 0;
  uint64_t num_edges = 0;
  uint64_t num_labels = 0;
  std::vector<SectionInfo> sections;
};

util::StatusOr<SnapshotInfo> Inspect(const std::string& path);

}  // namespace schemex::snapshot

#endif  // SCHEMEX_SNAPSHOT_SNAPSHOT_H_
