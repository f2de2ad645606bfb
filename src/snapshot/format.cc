#include "snapshot/format.h"

namespace schemex::snapshot {

std::string_view SectionName(SectionId id) {
  switch (id) {
    case SectionId::kOutOffsets:
      return "out_offsets";
    case SectionId::kInOffsets:
      return "in_offsets";
    case SectionId::kOutEdges:
      return "out_edges";
    case SectionId::kInEdges:
      return "in_edges";
    case SectionId::kAtomicBits:
      return "atomic_bits";
    case SectionId::kTextOffsets:
      return "text_offsets";
    case SectionId::kTextArena:
      return "text_arena";
    case SectionId::kLabelOffsets:
      return "label_offsets";
    case SectionId::kLabelArena:
      return "label_arena";
  }
  return "unknown";
}

std::string_view EncodingName(SectionEncoding e) {
  switch (e) {
    case SectionEncoding::kRaw:
      return "raw";
  }
  return "unknown";
}

}  // namespace schemex::snapshot
