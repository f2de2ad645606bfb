#include "snapshot/snapshot.h"

#include <array>
#include <cstring>
#include <limits>
#include <map>
#include <utility>

#include "snapshot/mapped_file.h"
#include "util/atomic_file.h"
#include "util/crc32.h"
#include "util/string_util.h"

namespace schemex::snapshot {

namespace {

using graph::FrozenGraph;
using graph::HalfEdge;

/// The bytes of an array, as the writer emits them.
template <typename T>
std::string_view Bytes(std::span<const T> a) {
  return {reinterpret_cast<const char*>(a.data()), a.size_bytes()};
}

template <typename T>
std::string_view Bytes(const T& v) {
  return {reinterpret_cast<const char*>(&v), sizeof(T)};
}

}  // namespace

util::Status Write(const FrozenGraph& g, const std::string& path) {
  FrozenGraph::Parts parts = g.parts();

  // The interned label table flattens into an arena + offsets pair, the
  // same shape as the text arena.
  std::string label_arena;
  std::vector<uint64_t> label_off(g.labels().size() + 1, 0);
  for (size_t l = 0; l < g.labels().size(); ++l) {
    label_off[l] = label_arena.size();
    label_arena += g.labels().Name(static_cast<graph::LabelId>(l));
  }
  label_off[g.labels().size()] = label_arena.size();

  // Every section is the graph's own array written verbatim; payload i
  // is SectionId i + 1.
  const std::array<std::string_view, 9> payloads = {
      Bytes(parts.out_off),      Bytes(parts.in_off),
      Bytes(parts.out_edges),    Bytes(parts.in_edges),
      Bytes(parts.atomic_words), Bytes(parts.text_off),
      parts.arena,               Bytes(std::span<const uint64_t>(label_off)),
      label_arena,
  };

  // Layout: header, section table, then 8-aligned payloads in table
  // order (sizeof(SectionEntry) is a multiple of 8, so the first payload
  // lands aligned without padding).
  std::array<SectionEntry, payloads.size()> entries{};
  uint64_t off = sizeof(Header) + sizeof(entries);
  for (size_t i = 0; i < payloads.size(); ++i) {
    off = AlignUp8(off);
    SectionEntry& e = entries[i];
    e.id = static_cast<uint32_t>(i + 1);
    e.encoding = static_cast<uint32_t>(SectionEncoding::kRaw);
    e.offset = off;
    e.stored_bytes = payloads[i].size();
    e.raw_bytes = payloads[i].size();
    e.crc32 = util::Crc32(payloads[i]);
    e.reserved = 0;
    off += payloads[i].size();
  }

  Header h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kFormatVersion;
  h.endian = kEndianTag;
  h.file_bytes = off;
  h.num_objects = g.NumObjects();
  h.num_complex = g.NumComplexObjects();
  h.num_edges = g.NumEdges();
  h.num_labels = g.labels().size();
  h.num_sections = static_cast<uint32_t>(entries.size());
  h.header_crc = util::Crc32(&h, offsetof(Header, header_crc));

  static constexpr char kPad[8] = {};
  std::vector<std::string_view> pieces = {Bytes(h), Bytes(entries)};
  uint64_t written = sizeof(Header) + sizeof(entries);
  for (size_t i = 0; i < payloads.size(); ++i) {
    if (written < entries[i].offset) {
      pieces.emplace_back(kPad, entries[i].offset - written);
    }
    pieces.push_back(payloads[i]);
    written = entries[i].offset + payloads[i].size();
  }
  return util::WriteFileAtomic(path, pieces);
}

// ---------------------------------------------------------------------------
// Loader

namespace {

util::Status SnapErr(const std::string& path, std::string why) {
  return util::Status::InvalidArgument("snapshot " + path + ": " +
                                       std::move(why));
}

/// Parses and sanity-checks the header and section table; on success
/// fills `header` and the by-id entry map (unknown ids are skipped,
/// duplicates rejected, every entry bounds-checked against the file).
util::Status ReadLayout(const MappedFile& file, Header* header,
                        std::map<uint32_t, SectionEntry>* by_id) {
  const std::string& path = file.path();
  if (file.size() < sizeof(Header)) {
    return SnapErr(path, util::StringPrintf(
                             "file is %zu bytes, smaller than the %zu-byte "
                             "header",
                             file.size(), sizeof(Header)));
  }
  Header h;
  std::memcpy(&h, file.data(), sizeof(h));
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) {
    return SnapErr(path, "bad magic (not a schemex snapshot)");
  }
  if (h.endian != kEndianTag) {
    return SnapErr(path, util::StringPrintf(
                             "endianness tag 0x%08x does not match this "
                             "machine (file written on a different "
                             "architecture)",
                             h.endian));
  }
  if (h.version != kFormatVersion) {
    return SnapErr(path,
                   util::StringPrintf("format version %u, this build reads %u",
                                      h.version, kFormatVersion));
  }
  if (util::Crc32(&h, offsetof(Header, header_crc)) != h.header_crc) {
    return SnapErr(path, "header CRC mismatch");
  }
  if (h.file_bytes != file.size()) {
    return SnapErr(path, util::StringPrintf(
                             "header says %llu bytes but the file is %zu "
                             "(truncated or grown)",
                             static_cast<unsigned long long>(h.file_bytes),
                             file.size()));
  }
  if (h.num_sections > kMaxSections) {
    return SnapErr(path, util::StringPrintf("implausible section count %u",
                                            h.num_sections));
  }
  if (h.num_objects > std::numeric_limits<graph::ObjectId>::max() ||
      h.num_labels > std::numeric_limits<graph::LabelId>::max()) {
    return SnapErr(path, "object or label count exceeds the 32-bit id space");
  }
  const uint64_t table_end =
      sizeof(Header) + uint64_t{h.num_sections} * sizeof(SectionEntry);
  if (table_end > file.size()) {
    return SnapErr(path, "section table extends past end of file");
  }
  for (uint32_t i = 0; i < h.num_sections; ++i) {
    SectionEntry e;
    std::memcpy(&e, file.data() + sizeof(Header) + i * sizeof(SectionEntry),
                sizeof(e));
    auto name = SectionName(static_cast<SectionId>(e.id));
    if (e.offset % 8 != 0 || e.offset < table_end ||
        e.offset > file.size() || e.stored_bytes > file.size() - e.offset) {
      return SnapErr(path, util::StringPrintf(
                               "section %u (%.*s) payload [%llu, +%llu) is "
                               "misaligned or out of bounds",
                               e.id, static_cast<int>(name.size()),
                               name.data(),
                               static_cast<unsigned long long>(e.offset),
                               static_cast<unsigned long long>(
                                   e.stored_bytes)));
    }
    if (e.reserved != 0) {
      return SnapErr(path, util::StringPrintf(
                               "section %u reserved field is %u, want 0",
                               e.id, e.reserved));
    }
    if (!by_id->emplace(e.id, e).second) {
      return SnapErr(path,
                     util::StringPrintf("duplicate section id %u", e.id));
    }
  }
  *header = h;
  return util::Status::OK();
}

constexpr uint64_t kAnyBytes = std::numeric_limits<uint64_t>::max();

/// Looks up a required section, checks that it is raw and, when
/// `want_bytes` != kAnyBytes, its size. Encodings 1 and 2 were the
/// retired delta/edge varint sections; this build rejects them.
util::StatusOr<SectionEntry> RequireSection(
    const std::string& path, const std::map<uint32_t, SectionEntry>& by_id,
    SectionId id, uint64_t want_bytes) {
  auto name = SectionName(id);
  auto it = by_id.find(static_cast<uint32_t>(id));
  if (it == by_id.end()) {
    return SnapErr(path, util::StringPrintf("missing required section %.*s",
                                            static_cast<int>(name.size()),
                                            name.data()));
  }
  const SectionEntry& e = it->second;
  if (e.encoding != static_cast<uint32_t>(SectionEncoding::kRaw)) {
    return SnapErr(path, util::StringPrintf(
                             "section %.*s has unsupported encoding %u",
                             static_cast<int>(name.size()), name.data(),
                             e.encoding));
  }
  if (e.raw_bytes != e.stored_bytes) {
    return SnapErr(path, util::StringPrintf(
                             "raw section %.*s declares raw_bytes != "
                             "stored_bytes",
                             static_cast<int>(name.size()), name.data()));
  }
  if (want_bytes != kAnyBytes && e.raw_bytes != want_bytes) {
    return SnapErr(path, util::StringPrintf(
                             "section %.*s holds %llu bytes, header "
                             "counts require %llu",
                             static_cast<int>(name.size()), name.data(),
                             static_cast<unsigned long long>(e.raw_bytes),
                             static_cast<unsigned long long>(want_bytes)));
  }
  return e;
}

util::Status VerifySectionCrc(const MappedFile& file, const SectionEntry& e) {
  if (util::Crc32(file.data() + e.offset, e.stored_bytes) != e.crc32) {
    auto name = SectionName(static_cast<SectionId>(e.id));
    return SnapErr(file.path(),
                   util::StringPrintf("section %.*s payload CRC mismatch",
                                      static_cast<int>(name.size()),
                                      name.data()));
  }
  return util::Status::OK();
}

/// A raw section's payload as an array of T, pointing into the mapping.
template <typename T>
std::span<const T> View(const MappedFile& file, const SectionEntry& e) {
  return {reinterpret_cast<const T*>(file.data() + e.offset),
          e.raw_bytes / sizeof(T)};
}

}  // namespace

util::StatusOr<std::shared_ptr<const FrozenGraph>> Map(
    const std::string& path) {
  SCHEMEX_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  Header h;
  std::map<uint32_t, SectionEntry> by_id;
  SCHEMEX_RETURN_IF_ERROR(ReadLayout(file, &h, &by_id));

  const uint64_t n = h.num_objects;
  auto require = [&](SectionId id, uint64_t want_bytes) {
    return RequireSection(path, by_id, id, want_bytes);
  };
  SCHEMEX_ASSIGN_OR_RETURN(SectionEntry out_off_e,
                           require(SectionId::kOutOffsets, (n + 1) * 8));
  SCHEMEX_ASSIGN_OR_RETURN(SectionEntry in_off_e,
                           require(SectionId::kInOffsets, (n + 1) * 8));
  SCHEMEX_ASSIGN_OR_RETURN(SectionEntry out_edges_e,
                           require(SectionId::kOutEdges, h.num_edges * 8));
  SCHEMEX_ASSIGN_OR_RETURN(SectionEntry in_edges_e,
                           require(SectionId::kInEdges, h.num_edges * 8));
  SCHEMEX_ASSIGN_OR_RETURN(SectionEntry atomic_e,
                           require(SectionId::kAtomicBits, (n + 63) / 64 * 8));
  SCHEMEX_ASSIGN_OR_RETURN(SectionEntry text_off_e,
                           require(SectionId::kTextOffsets, (2 * n + 1) * 8));
  SCHEMEX_ASSIGN_OR_RETURN(SectionEntry text_arena_e,
                           require(SectionId::kTextArena, kAnyBytes));
  SCHEMEX_ASSIGN_OR_RETURN(
      SectionEntry label_off_e,
      require(SectionId::kLabelOffsets, (h.num_labels + 1) * 8));
  SCHEMEX_ASSIGN_OR_RETURN(SectionEntry label_arena_e,
                           require(SectionId::kLabelArena, kAnyBytes));

  for (const auto& [id, e] : by_id) {
    SCHEMEX_RETURN_IF_ERROR(VerifySectionCrc(file, e));
  }

  FrozenGraph::External ext;
  ext.num_objects = n;
  ext.num_complex = h.num_complex;
  ext.num_edges = h.num_edges;
  ext.views.out_off = View<uint64_t>(file, out_off_e);
  ext.views.in_off = View<uint64_t>(file, in_off_e);
  ext.views.out_edges = View<HalfEdge>(file, out_edges_e);
  ext.views.in_edges = View<HalfEdge>(file, in_edges_e);
  ext.views.text_off = View<uint64_t>(file, text_off_e);
  ext.views.atomic_words = View<uint64_t>(file, atomic_e);
  std::span<const char> arena = View<char>(file, text_arena_e);
  ext.views.arena = std::string_view(arena.data(), arena.size());

  // Rebuild the interner from the label arena — O(label bytes), the one
  // part of the load that is not a view, because algorithms look labels
  // up by name through the hash index.
  std::span<const uint64_t> label_off = View<uint64_t>(file, label_off_e);
  std::span<const char> label_bytes = View<char>(file, label_arena_e);
  std::string_view label_arena(label_bytes.data(), label_bytes.size());
  for (size_t l = 0; l + 1 < label_off.size(); ++l) {
    if (label_off[l] > label_off[l + 1] ||
        label_off[l + 1] > label_arena.size()) {
      return SnapErr(path, "label offsets not monotone or out of bounds");
    }
    ext.labels.Intern(label_arena.substr(label_off[l],
                                         label_off[l + 1] - label_off[l]));
  }
  if (ext.labels.size() != h.num_labels) {
    return SnapErr(path, "duplicate label names in the label arena");
  }

  for (std::span<const HalfEdge> edges :
       {ext.views.out_edges, ext.views.in_edges}) {
    for (const HalfEdge& e : edges) {
      if (e.other >= n || e.label >= h.num_labels) {
        return SnapErr(path, util::StringPrintf(
                                 "edge (label %u, other %u) out of bounds",
                                 e.label, e.other));
      }
    }
  }

  ext.mapped_bytes = file.size();
  ext.backing = std::make_shared<MappedFile>(std::move(file));

  SCHEMEX_ASSIGN_OR_RETURN(FrozenGraph g,
                           FrozenGraph::FromExternal(std::move(ext)));
  return std::make_shared<const FrozenGraph>(std::move(g));
}

util::StatusOr<SnapshotInfo> Inspect(const std::string& path) {
  SCHEMEX_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  Header h;
  std::map<uint32_t, SectionEntry> by_id;
  SCHEMEX_RETURN_IF_ERROR(ReadLayout(file, &h, &by_id));

  SnapshotInfo info;
  info.version = h.version;
  info.file_bytes = h.file_bytes;
  info.num_objects = h.num_objects;
  info.num_complex = h.num_complex;
  info.num_edges = h.num_edges;
  info.num_labels = h.num_labels;
  for (const auto& [id, e] : by_id) {
    SectionInfo s;
    s.id = e.id;
    s.name = std::string(SectionName(static_cast<SectionId>(e.id)));
    s.encoding =
        std::string(EncodingName(static_cast<SectionEncoding>(e.encoding)));
    s.offset = e.offset;
    s.stored_bytes = e.stored_bytes;
    s.raw_bytes = e.raw_bytes;
    s.crc32 = e.crc32;
    s.crc_ok = util::Crc32(file.data() + e.offset, e.stored_bytes) == e.crc32;
    info.sections.push_back(std::move(s));
  }
  return info;
}

}  // namespace schemex::snapshot
