#include "typing/perfect_typing.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "typing/refine_internal.h"
#include "util/parallel_for.h"
#include "util/string_util.h"

namespace schemex::typing {

namespace {

/// Builds the local picture of complex object `o` where complex neighbors
/// are mapped through `class_of` (candidate ids in the GFP method, block
/// ids in refinement) and atomic neighbors become kAtomicType targets.
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

/// Per-worker state for one shard of complex objects, reused across
/// rounds so steady-state rounds allocate nothing.
struct RefinementShard {
  size_t begin = 0;  ///< range [begin, end) of complex-object indices
  size_t end = 0;
  std::vector<uint64_t> arena;   ///< canonical encodings, back to back
  std::vector<uint64_t> scratch; ///< one object's links, sorted + deduped
};

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
  const size_t n = g.NumObjects();

  // Candidate ids: dense over complex objects; candidates double as type
  // targets in Q_D's rules, so map every object to its candidate id.
  std::vector<TypeId> candidate(n, kInvalidType);
  std::vector<graph::ObjectId> complex_objects;
  for (graph::ObjectId o = 0; o < n; ++o) {
    if (g.IsComplex(o)) {
      candidate[o] = static_cast<TypeId>(complex_objects.size());
      complex_objects.push_back(o);
    }
  }

  // Step 1: Q_D — one rule per complex object: its local picture.
  TypingProgram qd;
  for (graph::ObjectId o : complex_objects) {
    qd.AddType(util::StringPrintf("cand%u", o), LocalPicture(g, o, candidate));
  }
  SCHEMEX_RETURN_IF_ERROR(options.Poll());

  // Step 2: greatest fixpoint of Q_D.
  SCHEMEX_ASSIGN_OR_RETURN(Extents m, ComputeGfp(qd, g, nullptr, options));

  // Step 3: group candidate types by extent equality. Hash and popcount
  // every extent once up front; within a hash bucket, candidates compare
  // popcounts before falling back to full word-level equality (which
  // itself stops at the first differing word).
  const size_t num_cand = complex_objects.size();
  std::vector<uint64_t> extent_hash(num_cand);
  std::vector<size_t> extent_count(num_cand);
  for (size_t t = 0; t < num_cand; ++t) {
    extent_hash[t] = m.per_type[t].Hash();
    extent_count[t] = m.per_type[t].Count();
  }
  std::unordered_map<uint64_t, std::vector<TypeId>> buckets;
  buckets.reserve(num_cand);
  std::vector<TypeId> class_of_candidate(num_cand, kInvalidType);
  size_t num_classes = 0;
  for (size_t t = 0; t < num_cand; ++t) {
    TypeId tid = static_cast<TypeId>(t);
    TypeId found = kInvalidType;
    std::vector<TypeId>& bucket = buckets[extent_hash[t]];
    for (TypeId other : bucket) {
      if (extent_count[static_cast<size_t>(other)] != extent_count[t]) {
        continue;
      }
      if (m.per_type[static_cast<size_t>(other)] ==
          m.per_type[static_cast<size_t>(tid)]) {
        found = class_of_candidate[static_cast<size_t>(other)];
        break;
      }
    }
    if (found == kInvalidType) {
      found = static_cast<TypeId>(num_classes++);
      bucket.push_back(tid);
    }
    class_of_candidate[t] = found;
  }

  // Rewrite: class of each object = class of its candidate.
  std::vector<TypeId> class_of(n, kInvalidType);
  for (graph::ObjectId o = 0; o < n; ++o) {
    if (g.IsComplex(o)) {
      class_of[o] = class_of_candidate[static_cast<size_t>(candidate[o])];
    }
  }
  return internal::AssembleRefinementResult(g, class_of, num_classes, "type");
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

  util::PoolRef pool(options.pool, options.num_threads);
  auto ranges = util::ShardRanges(num_complex, pool.num_threads());
  std::vector<RefinementShard> shards(ranges.size());
  for (size_t s = 0; s < ranges.size(); ++s) {
    shards[s].begin = ranges[s].first;
    shards[s].end = ranges[s].second;
  }

  // Per complex-object index: this round's signature hash and the span of
  // its canonical encoding inside its shard's arena. `shard_of` maps an
  // index back to its shard so the reduce can locate any object's span.
  std::vector<uint64_t> hash(num_complex);
  std::vector<size_t> span_off(num_complex);
  std::vector<uint32_t> span_len(num_complex);
  std::vector<uint32_t> shard_of(num_complex);
  for (size_t s = 0; s < shards.size(); ++s) {
    for (size_t i = shards[s].begin; i < shards[s].end; ++i) {
      shard_of[i] = static_cast<uint32_t>(s);
    }
  }

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
  // round: a sharded hashing phase (read-only over the graph and `block`,
  // writing disjoint slices of the per-index arrays), then a sequential
  // reduce assigning block ids by first occurrence in object order, so
  // the numbering is independent of the thread count.
  for (;;) {
    SCHEMEX_RETURN_IF_ERROR(options.Poll());
    if (num_complex == 0) break;

    util::RunShards(pool.get(), shards.size(), [&](size_t s) {
      RefinementShard& shard = shards[s];
      shard.arena.clear();
      for (size_t i = shard.begin; i < shard.end; ++i) {
        graph::ObjectId o = complex_objects[i];
        std::vector<uint64_t>& scratch = shard.scratch;
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
        span_off[i] = shard.arena.size();
        span_len[i] = static_cast<uint32_t>(scratch.size());
        shard.arena.insert(shard.arena.end(), scratch.begin(), scratch.end());
      }
    });

    // Sequential reduce: deterministic block numbering + exact collision
    // verification. Two objects share a block iff their previous blocks
    // match AND their canonical encodings are identical — the hash only
    // routes to a bucket, it is never trusted for equality.
    table.clear();
    size_t next_count = 0;
    auto same_key = [&](uint32_t a, uint32_t b) {
      if (block[complex_objects[a]] != block[complex_objects[b]]) return false;
      if (span_len[a] != span_len[b]) return false;
      const uint64_t* pa = shards[shard_of[a]].arena.data() + span_off[a];
      const uint64_t* pb = shards[shard_of[b]].arena.data() + span_off[b];
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
