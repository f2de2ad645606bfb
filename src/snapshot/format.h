#ifndef SCHEMEX_SNAPSHOT_FORMAT_H_
#define SCHEMEX_SNAPSHOT_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>

#include "graph/data_graph.h"

namespace schemex::snapshot {

/// On-disk layout of a FrozenGraph snapshot (see docs/snapshot.md):
///
///   [Header 64 B][SectionEntry x N][8-aligned section payloads ...]
///
/// Every multi-byte field is little-endian host order; the header's
/// endian tag rejects a file written on the other kind of machine
/// instead of silently mis-reading it. Raw section payloads are aligned
/// to 8 bytes so a mapped file can back the CSR arrays directly — the
/// payload bytes ARE the in-memory arrays, no decode step.

inline constexpr char kMagic[8] = {'S', 'X', 'S', 'N', 'A', 'P', '0', '1'};
inline constexpr uint32_t kFormatVersion = 1;
/// Written as a u32; reads back as 0x04030201 on a big-endian machine.
inline constexpr uint32_t kEndianTag = 0x01020304;
/// Backstop against absurd section tables in corrupt headers.
inline constexpr uint32_t kMaxSections = 64;

/// Section identifiers. Unknown ids are skipped at load time (forward
/// compatibility); missing required ids are an error.
enum class SectionId : uint32_t {
  kOutOffsets = 1,    ///< (num_objects+1) x u64, CSR row starts (out)
  kInOffsets = 2,     ///< (num_objects+1) x u64, CSR row starts (in)
  kOutEdges = 3,      ///< num_edges x HalfEdge{u32 label, u32 other}
  kInEdges = 4,       ///< num_edges x HalfEdge
  kAtomicBits = 5,    ///< ceil(num_objects/64) x u64, atomic-object bitset
  kTextOffsets = 6,   ///< (2*num_objects+1) x u64, value/name arena slots
  kTextArena = 7,     ///< concatenated value/name bytes
  kLabelOffsets = 8,  ///< (num_labels+1) x u64, label arena slots
  kLabelArena = 9,    ///< concatenated label names
};

/// Payload encodings. Raw is the only one: the payload bytes are the
/// in-memory array. Ids 1 and 2 were the delta/edge varint sections of
/// earlier builds; Map() rejects them as unsupported.
enum class SectionEncoding : uint32_t {
  kRaw = 0,
};

struct Header {
  char magic[8];
  uint32_t version;
  uint32_t endian;
  uint64_t file_bytes;   ///< total file size, for truncation detection
  uint64_t num_objects;
  uint64_t num_complex;
  uint64_t num_edges;
  uint64_t num_labels;
  uint32_t num_sections;
  uint32_t header_crc;   ///< CRC-32 of the 60 bytes preceding this field
};
static_assert(sizeof(Header) == 64, "header must stay 64 bytes");
static_assert(std::is_trivially_copyable_v<Header>);

struct SectionEntry {
  uint32_t id;            ///< SectionId
  uint32_t encoding;      ///< SectionEncoding
  uint64_t offset;        ///< payload start from file begin; 8-aligned
  uint64_t stored_bytes;  ///< payload length on disk
  uint64_t raw_bytes;     ///< payload length in memory; == stored_bytes
  uint32_t crc32;         ///< CRC-32 of the stored payload bytes
  uint32_t reserved;      ///< zero
};
static_assert(sizeof(SectionEntry) == 40, "section entry must stay 40 bytes");
static_assert(std::is_trivially_copyable_v<SectionEntry>);

// The edge sections are the HalfEdge array written verbatim, so the
// struct's layout is part of the file format.
static_assert(sizeof(graph::HalfEdge) == 8);
static_assert(std::is_trivially_copyable_v<graph::HalfEdge>);

inline constexpr uint64_t AlignUp8(uint64_t n) { return (n + 7) & ~uint64_t{7}; }

/// Stable display name for a section id ("out_offsets", ...); "unknown"
/// for ids this build does not know.
std::string_view SectionName(SectionId id);

/// "raw", or "unknown" for any other encoding id.
std::string_view EncodingName(SectionEncoding e);

}  // namespace schemex::snapshot

#endif  // SCHEMEX_SNAPSHOT_FORMAT_H_
