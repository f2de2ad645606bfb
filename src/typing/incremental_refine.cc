#include "typing/incremental_refine.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "typing/refine_internal.h"
#include "typing/type_signature.h"
#include "util/string_util.h"

namespace schemex::typing {

namespace {

using internal::EncodeRefineLink;
using internal::Mix64;

/// Content hash of a canonical (sorted, deduped) encoding. Unlike the
/// cold path's per-round hash this does NOT fold in the previous block:
/// the incremental table is keyed by signature alone, since joining an
/// existing block is exactly a signature match.
uint64_t HashEnc(const uint64_t* data, size_t len) {
  uint64_t h = Mix64(static_cast<uint64_t>(len));
  for (size_t i = 0; i < len; ++i) h = Mix64(h ^ data[i]);
  return h;
}

}  // namespace

util::StatusOr<PerfectTypingResult> IncrementalRefine(
    graph::GraphView g, const PerfectTypingResult& previous,
    std::span<const graph::ObjectId> touched,
    const IncrementalRefineOptions& options, IncrementalRefineStats* stats) {
  IncrementalRefineStats local_stats;
  IncrementalRefineStats& st = stats ? *stats : local_stats;
  st = IncrementalRefineStats{};
  auto fallback =
      [&](std::string reason) -> util::StatusOr<PerfectTypingResult> {
    st.fell_back = true;
    st.fallback_reason = std::move(reason);
    return PerfectTypingViaHashRefinement(g, options.exec);
  };

  const size_t n = g.NumObjects();
  const size_t prev_n = previous.home.size();
  if (prev_n > n) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "previous partition covers %zu objects but the graph has %zu — "
        "objects may be added, never removed",
        prev_n, n));
  }
  for (graph::ObjectId o : touched) {
    if (o >= n) {
      return util::Status::InvalidArgument(
          util::StringPrintf("touched object %u out of range (n=%zu)", o, n));
    }
  }
  if (g.labels().size() >= (1ULL << 31)) {
    return fallback("label space too wide for the 64-bit link encoding");
  }
  const size_t num_types = previous.program.NumTypes();
  if (num_types == 0) {
    return fallback("previous partition is empty");
  }

  const size_t num_complex = g.NumComplexObjects();

  // Adopt the previous partition. Old objects keep their block; objects
  // appended after prev_n start in an unregistered nursery block that no
  // signature lookup can resolve to, so round 1 is guaranteed to move
  // them into a real block (joined or fresh).
  std::vector<TypeId> block(n, kInvalidType);
  const TypeId nursery = static_cast<TypeId>(num_types);
  for (graph::ObjectId o = 0; o < n; ++o) {
    if (o < prev_n) {
      TypeId home = previous.home[o];
      bool complex = g.IsComplex(o);
      if (complex != (home != kInvalidType) ||
          (complex && static_cast<size_t>(home) >= num_types)) {
        // The overlay never changes an existing object's kind; a drifted
        // or out-of-range home means `previous` does not describe this
        // graph's history. The cold path needs no history.
        return fallback(util::StringPrintf(
            "previous home of object %u inconsistent with the graph", o));
      }
      block[o] = home;
    } else if (g.IsComplex(o)) {
      block[o] = nursery;
    }
  }

  // Block signature store: the previous program's rules, re-encoded with
  // the cold path's link packing. EncodeRefineLink orders by (label,
  // dir, target) while TypedLink sorts by (dir, label, target), so the
  // encoded form must be re-sorted to match what dirty objects compute.
  // Index num_types is the nursery: no signature, never joinable.
  std::vector<std::vector<uint64_t>> block_enc(num_types + 1);
  std::vector<uint8_t> block_has_enc(num_types + 1, 0);
  for (size_t t = 0; t < num_types; ++t) {
    const TypeSignature& sig =
        previous.program.type(static_cast<TypeId>(t)).signature;
    std::vector<uint64_t>& enc = block_enc[t];
    enc.reserve(sig.links().size());
    for (const TypedLink& l : sig.links()) {
      bool valid_target =
          (l.target == kAtomicType && l.dir == Direction::kOutgoing) ||
          (l.target >= 0 && static_cast<size_t>(l.target) < num_types);
      if (!valid_target) {
        return util::Status::InvalidArgument(util::StringPrintf(
            "previous program rule %zu has an out-of-range target", t));
      }
      enc.push_back(EncodeRefineLink(l.dir, l.label, l.target));
    }
    std::sort(enc.begin(), enc.end());
    enc.erase(std::unique(enc.begin(), enc.end()), enc.end());
    block_has_enc[t] = 1;
  }

  // Signature -> block id table. The hash only routes to a bucket;
  // equality is always verified against the stored encoding. Should two
  // previous types carry the same signature (impossible for a coarsest
  // partition, but tolerated), lookups resolve to the first — the
  // quotient pass repairs any resulting over-fine partition.
  std::unordered_map<uint64_t, std::vector<TypeId>> enc_index;
  enc_index.reserve(num_types);
  for (size_t t = 0; t < num_types; ++t) {
    uint64_t h = options.exec.debug_force_hash_collisions
                     ? 0
                     : HashEnc(block_enc[t].data(), block_enc[t].size());
    enc_index[h].push_back(static_cast<TypeId>(t));
  }

  // Dirty seed: the caller's touched set plus every appended complex
  // object, sorted and deduped so the reduce visits objects in id order.
  std::vector<graph::ObjectId> dirty;
  for (graph::ObjectId o : touched) {
    if (g.IsComplex(o)) dirty.push_back(o);
  }
  for (graph::ObjectId o = static_cast<graph::ObjectId>(prev_n); o < n; ++o) {
    if (g.IsComplex(o)) dirty.push_back(o);
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  st.seed_dirty = dirty.size();

  const double dirty_limit =
      options.max_dirty_fraction * static_cast<double>(num_complex);

  // This round's encodings, back to back: dirty[i]'s occupies
  // arena[enc_off[i], enc_off[i + 1]).
  std::vector<uint64_t> arena;
  std::vector<size_t> enc_off;
  std::vector<uint64_t> scratch;  // one object's links, sorted + deduped
  std::vector<graph::ObjectId> moved;
  std::vector<graph::ObjectId> next_dirty;

  // Propagation: each round first re-keys every dirty object's canonical
  // picture encoding against the round-start blocks, then joins or
  // founds blocks in ascending id order. An object whose picture still
  // matches its block's signature stays put and wakes nobody.
  while (!dirty.empty()) {
    SCHEMEX_RETURN_IF_ERROR(options.exec.Poll());
    if (static_cast<double>(dirty.size()) > dirty_limit) {
      return fallback(util::StringPrintf(
          "dirty set (%zu of %zu complex objects) exceeded "
          "max_dirty_fraction=%.3f",
          dirty.size(), num_complex, options.max_dirty_fraction));
    }
    if (st.rounds >= options.max_rounds) {
      return fallback(util::StringPrintf(
          "no fixpoint after max_rounds=%zu", options.max_rounds));
    }
    ++st.rounds;
    st.peak_dirty = std::max(st.peak_dirty, dirty.size());

    const size_t d = dirty.size();
    arena.clear();
    enc_off.assign(1, 0);
    for (graph::ObjectId o : dirty) {
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
      std::sort(scratch.begin(), scratch.end());
      scratch.erase(std::unique(scratch.begin(), scratch.end()),
                    scratch.end());
      arena.insert(arena.end(), scratch.begin(), scratch.end());
      enc_off.push_back(arena.size());
    }

    moved.clear();
    for (size_t i = 0; i < d; ++i) {
      graph::ObjectId o = dirty[i];
      TypeId cur = block[o];
      const uint64_t* enc = arena.data() + enc_off[i];
      const size_t len = enc_off[i + 1] - enc_off[i];
      if (block_has_enc[static_cast<size_t>(cur)] &&
          block_enc[static_cast<size_t>(cur)].size() == len &&
          std::equal(enc, enc + len,
                     block_enc[static_cast<size_t>(cur)].begin())) {
        continue;
      }
      uint64_t h = options.exec.debug_force_hash_collisions
                       ? 0
                       : HashEnc(enc, len);
      std::vector<TypeId>& bucket = enc_index[h];
      TypeId found = kInvalidType;
      for (TypeId cand : bucket) {
        const std::vector<uint64_t>& cand_enc =
            block_enc[static_cast<size_t>(cand)];
        if (cand_enc.size() == len &&
            std::equal(enc, enc + len, cand_enc.begin())) {
          found = cand;
          break;
        }
      }
      if (found == kInvalidType) {
        if (block_enc.size() >= (1ULL << 31)) {
          return fallback("block id space exhausted");
        }
        found = static_cast<TypeId>(block_enc.size());
        block_enc.emplace_back(enc, enc + len);
        block_has_enc.push_back(1);
        bucket.push_back(found);
      }
      if (found != cur) {
        block[o] = found;
        moved.push_back(o);
        ++st.moved_objects;
      }
    }
    if (moved.empty()) break;

    // A move changes the pictures of the mover's complex neighbours (in
    // both directions — and of itself on a self-loop, where it appears
    // among its own neighbours), so they are next round's dirty set.
    next_dirty.clear();
    for (graph::ObjectId o : moved) {
      for (const graph::HalfEdge& e : g.OutEdges(o)) {
        if (g.IsComplex(e.other)) next_dirty.push_back(e.other);
      }
      for (const graph::HalfEdge& e : g.InEdges(o)) {
        next_dirty.push_back(e.other);  // in-edge sources are complex
      }
    }
    std::sort(next_dirty.begin(), next_dirty.end());
    next_dirty.erase(std::unique(next_dirty.begin(), next_dirty.end()),
                     next_dirty.end());
    std::swap(dirty, next_dirty);
  }

  // The propagation fixpoint is *a* stable partition (every object's
  // picture equals its block's stored signature) but deletions can leave
  // it finer than the coarsest one. Exact partition refinement over the
  // surviving blocks — each live block is one node whose signature is
  // its stored encoding with targets read through the evolving block
  // classes — recovers the coarsest stable partition: the refinement
  // fixpoint lifted through block membership is stable (hence finer than
  // the coarsest), and no round ever separates blocks that the coarsest
  // partition keeps together.
  const size_t num_ids = block_enc.size();
  std::vector<uint32_t> members(num_ids, 0);
  for (graph::ObjectId o = 0; o < n; ++o) {
    if (block[o] != kInvalidType) ++members[static_cast<size_t>(block[o])];
  }
  std::vector<TypeId> live;
  std::vector<TypeId> live_index(num_ids, kInvalidType);
  for (size_t id = 0; id < num_ids; ++id) {
    if (members[id] > 0) {
      live_index[id] = static_cast<TypeId>(live.size());
      live.push_back(static_cast<TypeId>(id));
    }
  }
  st.live_blocks = live.size();

  // Decode each live block's signature once: (direction+label bits,
  // live-index target or -1 for atomic). At a propagation fixpoint every
  // referenced block has members — a signature link naming block B means
  // some member's neighbour sits in B — so a dead target can only mean
  // the inputs violated the contract; bail to the cold path.
  struct DecodedLink {
    uint64_t dir_label_bits;  // the encoding's high 32 bits
    TypeId target_live;       // live index, or kAtomicType
  };
  std::vector<std::vector<DecodedLink>> decoded(live.size());
  for (size_t li = 0; li < live.size(); ++li) {
    const std::vector<uint64_t>& enc =
        block_enc[static_cast<size_t>(live[li])];
    decoded[li].reserve(enc.size());
    for (uint64_t v : enc) {
      TypeId target =
          static_cast<TypeId>(static_cast<uint32_t>(v & 0xffffffffULL)) - 1;
      TypeId target_live = kAtomicType;
      if (target != kAtomicType) {
        if (static_cast<size_t>(target) >= num_ids ||
            live_index[static_cast<size_t>(target)] == kInvalidType) {
          return fallback("stable partition references an empty block");
        }
        target_live = live_index[static_cast<size_t>(target)];
      }
      decoded[li].push_back(DecodedLink{v & ~0xffffffffULL, target_live});
    }
  }

  std::vector<TypeId> qclass(live.size(), 0);
  size_t qcount = live.empty() ? 0 : 1;
  if (!live.empty()) {
    for (;;) {
      SCHEMEX_RETURN_IF_ERROR(options.exec.Poll());
      using Key = std::pair<TypeId, std::vector<uint64_t>>;
      std::map<Key, TypeId> next_id;
      std::vector<TypeId> next_q(live.size());
      std::vector<uint64_t> key_enc;
      for (size_t li = 0; li < live.size(); ++li) {
        key_enc.clear();
        for (const DecodedLink& l : decoded[li]) {
          TypeId t = l.target_live == kAtomicType
                         ? kAtomicType
                         : qclass[static_cast<size_t>(l.target_live)];
          key_enc.push_back(l.dir_label_bits |
                            static_cast<uint64_t>(static_cast<uint32_t>(t + 1)));
        }
        std::sort(key_enc.begin(), key_enc.end());
        key_enc.erase(std::unique(key_enc.begin(), key_enc.end()),
                      key_enc.end());
        Key key{qclass[li], key_enc};
        auto it = next_id.try_emplace(std::move(key),
                                      static_cast<TypeId>(next_id.size()))
                      .first;
        next_q[li] = it->second;
      }
      size_t next_count = next_id.size();
      qclass = std::move(next_q);
      if (next_count == qcount) break;
      qcount = next_count;
    }
  }

  // Lift through membership and renumber by first occurrence in object
  // order — the cold reduce's numbering rule — then assemble through the
  // cold path's own helper. Equal partitions in, bit-identical programs
  // out.
  std::vector<TypeId> renumber(qcount, kInvalidType);
  std::vector<TypeId> class_of(n, kInvalidType);
  TypeId next_class = 0;
  for (graph::ObjectId o = 0; o < n; ++o) {
    if (block[o] == kInvalidType) continue;
    TypeId c = qclass[static_cast<size_t>(
        live_index[static_cast<size_t>(block[o])])];
    if (renumber[static_cast<size_t>(c)] == kInvalidType) {
      renumber[static_cast<size_t>(c)] = next_class++;
    }
    class_of[o] = renumber[static_cast<size_t>(c)];
  }
  return internal::AssembleRefinementResult(
      g, class_of, static_cast<size_t>(next_class), "type");
}

}  // namespace schemex::typing
