#include "typing/perfect_typing.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "typing/refine_internal.h"
#include "util/string_util.h"

namespace schemex::typing {

namespace {

/// Builds the local picture of complex object `o` where complex neighbors
/// are mapped through `class_of` (class ids of a finished partition) and
/// atomic neighbors become kAtomicType targets.
TypeSignature LocalPicture(graph::GraphView g, graph::ObjectId o,
                           const std::vector<TypeId>& class_of) {
  std::vector<TypedLink> links;
  for (const graph::HalfEdge& e : g.OutEdges(o)) {
    if (g.IsAtomic(e.other)) {
      links.push_back(TypedLink::OutAtomic(e.label));
    } else {
      links.push_back(TypedLink::Out(e.label, class_of[e.other]));
    }
  }
  for (const graph::HalfEdge& e : g.InEdges(o)) {
    links.push_back(TypedLink::In(e.label, class_of[e.other]));
  }
  return TypeSignature::FromLinks(std::move(links));
}

// --- Hash refinement internals. -------------------------------------------

/// Shared with the incremental re-refiner — see refine_internal.h.
using internal::EncodeRefineLink;
using internal::Mix64;

}  // namespace

namespace internal {

PerfectTypingResult AssembleRefinementResult(graph::GraphView g,
                                             const std::vector<TypeId>& class_of,
                                             size_t num_classes,
                                             const char* name_prefix) {
  PerfectTypingResult result;
  result.home.assign(g.NumObjects(), kInvalidType);
  result.weight.assign(num_classes, 0);

  // One representative object per class defines the class's rule; its
  // local picture is expressed directly over class ids.
  std::vector<graph::ObjectId> representative(num_classes,
                                              graph::kInvalidObject);
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (!g.IsComplex(o)) continue;
    TypeId c = class_of[o];
    result.home[o] = c;
    ++result.weight[static_cast<size_t>(c)];
    if (representative[static_cast<size_t>(c)] == graph::kInvalidObject) {
      representative[static_cast<size_t>(c)] = o;
    }
  }
  for (size_t c = 0; c < num_classes; ++c) {
    TypeSignature sig = LocalPicture(g, representative[c], class_of);
    result.program.AddType(util::StringPrintf("%s%zu", name_prefix, c + 1),
                           std::move(sig));
  }
  return result;
}

}  // namespace internal

size_t PerfectTypingResult::NumComplexObjects() const {
  size_t n = 0;
  for (TypeId t : home) {
    if (t != kInvalidType) ++n;
  }
  return n;
}

util::StatusOr<PerfectTypingResult> PerfectTypingViaGfp(
    graph::GraphView g, const ExecOptions& options) {
  // The refinement's program is Q_D quotiented by bisimulation: bisimilar
  // objects simulate each other in both directions, so their candidate
  // types have equal GFP extents, and one candidate per class suffices.
  SCHEMEX_ASSIGN_OR_RETURN(PerfectTypingResult bisim,
                           PerfectTypingViaHashRefinement(g, options));
  SCHEMEX_ASSIGN_OR_RETURN(Extents m,
                           ComputeGfp(bisim.program, g, nullptr, options));

  // Merge classes with equal extents (Remark 4.1), numbered by first
  // occurrence in class order. Classes are numbered by first occurrence
  // in object order, so the merged classes get the numbers the
  // per-object candidates would. The hash only routes to a bucket.
  std::unordered_map<uint64_t, std::vector<size_t>> buckets;
  std::vector<TypeId> merged(m.NumTypes(), kInvalidType);
  size_t num_classes = 0;
  for (size_t t = 0; t < m.NumTypes(); ++t) {
    std::vector<size_t>& bucket = buckets[m.per_type[t].Hash()];
    for (size_t other : bucket) {
      if (m.per_type[other] == m.per_type[t]) {
        merged[t] = merged[other];
        break;
      }
    }
    if (merged[t] == kInvalidType) {
      merged[t] = static_cast<TypeId>(num_classes++);
      bucket.push_back(t);
    }
  }
  for (TypeId& home : bisim.home) {
    if (home != kInvalidType) home = merged[static_cast<size_t>(home)];
  }
  return internal::AssembleRefinementResult(g, bisim.home, num_classes,
                                            "type");
}

util::StatusOr<PerfectTypingResult> PerfectTypingViaHashRefinement(
    graph::GraphView g, const ExecOptions& options) {
  if (g.labels().size() >= (1ULL << 31)) {
    // The 64-bit link encoding reserves 31 bits for the label; beyond that
    // the packing is no longer injective and the partition could be wrong.
    return util::Status::InvalidArgument(util::StringPrintf(
        "%zu labels exceed the 2^31 label ids Stage-1 refinement can encode",
        g.labels().size()));
  }

  const size_t n = g.NumObjects();
  std::vector<TypeId> block(n, kInvalidType);
  std::vector<graph::ObjectId> complex_objects;
  for (graph::ObjectId o = 0; o < n; ++o) {
    if (g.IsComplex(o)) {
      block[o] = 0;
      complex_objects.push_back(o);
    }
  }
  const size_t num_complex = complex_objects.size();
  size_t num_blocks = num_complex == 0 ? 0 : 1;

  // Per complex-object index: this round's signature hash and the span of
  // its canonical encoding inside `arena`.
  std::vector<uint64_t> hash(num_complex);
  std::vector<size_t> span_off(num_complex);
  std::vector<uint32_t> span_len(num_complex);
  std::vector<uint64_t> arena;    // canonical encodings, back to back
  std::vector<uint64_t> scratch;  // one object's links, sorted + deduped

  std::vector<TypeId> next_block(n, kInvalidType);
  /// Blocks discovered this round, bucketed by hash. Each entry remembers
  /// one representative object index whose (previous block, canonical
  /// encoding) defines the block, for exact comparison on bucket hits.
  struct BlockEntry {
    uint32_t rep;  ///< complex-object index
    TypeId id;
  };
  std::unordered_map<uint64_t, std::vector<BlockEntry>> table;

  // Iterate: split blocks by (previous block, local picture over previous
  // blocks). Partitions only get finer, so the block count is a monotone
  // progress measure; stop when a round does not increase it. Each
  // round: a hashing pass (read-only over the graph and `block`), then a
  // reduce assigning block ids by first occurrence in object order.
  for (;;) {
    SCHEMEX_RETURN_IF_ERROR(options.Poll());
    if (num_complex == 0) break;

    arena.clear();
    for (size_t i = 0; i < num_complex; ++i) {
      graph::ObjectId o = complex_objects[i];
      scratch.clear();
      for (const graph::HalfEdge& e : g.OutEdges(o)) {
        scratch.push_back(EncodeRefineLink(
            Direction::kOutgoing, e.label,
            g.IsAtomic(e.other) ? kAtomicType : block[e.other]));
      }
      for (const graph::HalfEdge& e : g.InEdges(o)) {
        scratch.push_back(
            EncodeRefineLink(Direction::kIncoming, e.label, block[e.other]));
      }
      // Canonical form: the local picture is a *set* of typed links, so
      // sort and dedupe — the moral equivalent of TypeSignature's
      // normalization, on a reused flat buffer.
      std::sort(scratch.begin(), scratch.end());
      scratch.erase(std::unique(scratch.begin(), scratch.end()),
                    scratch.end());

      uint64_t h = Mix64(static_cast<uint64_t>(
          static_cast<uint32_t>(block[o])));
      for (uint64_t v : scratch) h = Mix64(h ^ v);
      hash[i] = options.debug_force_hash_collisions ? 0 : h;
      span_off[i] = arena.size();
      span_len[i] = static_cast<uint32_t>(scratch.size());
      arena.insert(arena.end(), scratch.begin(), scratch.end());
    }

    // Reduce: deterministic block numbering + exact collision
    // verification. Two objects share a block iff their previous blocks
    // match AND their canonical encodings are identical — the hash only
    // routes to a bucket, it is never trusted for equality.
    table.clear();
    size_t next_count = 0;
    auto same_key = [&](uint32_t a, uint32_t b) {
      if (block[complex_objects[a]] != block[complex_objects[b]]) return false;
      if (span_len[a] != span_len[b]) return false;
      const uint64_t* pa = arena.data() + span_off[a];
      const uint64_t* pb = arena.data() + span_off[b];
      return std::equal(pa, pa + span_len[a], pb);
    };
    for (size_t i = 0; i < num_complex; ++i) {
      std::vector<BlockEntry>& bucket = table[hash[i]];
      TypeId found = kInvalidType;
      for (const BlockEntry& entry : bucket) {
        if (same_key(entry.rep, static_cast<uint32_t>(i))) {
          found = entry.id;
          break;
        }
      }
      if (found == kInvalidType) {
        found = static_cast<TypeId>(next_count++);
        bucket.push_back(BlockEntry{static_cast<uint32_t>(i), found});
      }
      next_block[complex_objects[i]] = found;
    }

    std::swap(block, next_block);
    if (next_count == num_blocks) break;
    num_blocks = next_count;
  }
  return internal::AssembleRefinementResult(g, block, num_blocks, "type");
}

util::StatusOr<Extents> PerfectTypingExtents(const PerfectTypingResult& r,
                                             graph::GraphView g) {
  return ComputeGfp(r.program, g);
}

}  // namespace schemex::typing
