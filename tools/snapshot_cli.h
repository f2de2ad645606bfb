#ifndef SCHEMEX_TOOLS_SNAPSHOT_CLI_H_
#define SCHEMEX_TOOLS_SNAPSHOT_CLI_H_

namespace schemex::tools {

/// The `snapshot` subcommand shared by schemexd and schemexctl:
///
///   <binary> snapshot save <workspace-dir> [--out PATH]
///   <binary> snapshot load <snapshot.bin> [--deep]
///   <binary> snapshot inspect <snapshot.bin> [--json]
///
/// save     loads the workspace (text or snapshot) and (re)writes its
///          binary snapshot — the offline migration path.
/// load     maps a snapshot, reporting load latency, heap vs mapped
///          bytes, and graph stats; --deep runs the full O(edges)
///          representation check.
/// inspect  prints the header and section table with per-section CRC
///          verification, for debugging corrupt files offline.
///
/// `argv[0]` must be the literal "snapshot". Returns a process exit
/// code: 0 success, 1 operation failed, 2 usage error.
int SnapshotCliMain(int argc, char** argv);

}  // namespace schemex::tools

#endif  // SCHEMEX_TOOLS_SNAPSHOT_CLI_H_
