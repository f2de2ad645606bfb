#include "typing/gfp.h"

#include <algorithm>
#include <deque>
#include <span>
#include <utility>
#include <vector>

namespace schemex::typing {

namespace {

/// Encodes what a typed link consumes — (direction, label, target type) —
/// into one comparable word. When an object leaves `target`'s extent,
/// every neighbor across a matching edge may lose its justification for
/// any type whose signature contains this key. Layout (injective for
/// label < 2^31, target >= 0):
///   [63:33] label   [32] direction   [31:0] target
inline uint64_t EncodeDependencyKey(Direction dir, graph::LabelId label,
                                    TypeId target) {
  return (static_cast<uint64_t>(label) << 33) |
         (static_cast<uint64_t>(dir == Direction::kOutgoing ? 1 : 0) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(target));
}

/// Flat sorted dependency index: dependents of key k are the TypeIds in
/// types[offsets[i]..offsets[i+1]) where keys[i] == k. Replaces the
/// std::map<DependencyKey, vector<TypeId>> of the original implementation
/// — one binary search over a contiguous array per lookup, no node
/// allocations.
struct DependencyIndex {
  std::vector<uint64_t> keys;      // sorted, unique
  std::vector<uint32_t> offsets;   // size keys.size() + 1
  std::vector<TypeId> types;       // grouped by key, TypeId ascending

  static DependencyIndex Build(const TypingProgram& program) {
    std::vector<std::pair<uint64_t, TypeId>> pairs;
    for (size_t t = 0; t < program.NumTypes(); ++t) {
      for (const TypedLink& l :
           program.type(static_cast<TypeId>(t)).signature.links()) {
        if (l.target == kAtomicType) continue;  // atomic extents never shrink
        pairs.emplace_back(EncodeDependencyKey(l.dir, l.label, l.target),
                           static_cast<TypeId>(t));
      }
    }
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

    DependencyIndex index;
    index.keys.reserve(pairs.size());
    index.types.reserve(pairs.size());
    for (const auto& [key, type] : pairs) {
      if (index.keys.empty() || index.keys.back() != key) {
        index.keys.push_back(key);
        index.offsets.push_back(static_cast<uint32_t>(index.types.size()));
      }
      index.types.push_back(type);
    }
    index.offsets.push_back(static_cast<uint32_t>(index.types.size()));
    return index;
  }

  std::span<const TypeId> Lookup(Direction dir, graph::LabelId label,
                                 TypeId target) const {
    uint64_t key = EncodeDependencyKey(dir, label, target);
    auto it = std::lower_bound(keys.begin(), keys.end(), key);
    if (it == keys.end() || *it != key) return {};
    size_t i = static_cast<size_t>(it - keys.begin());
    return {types.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
};

}  // namespace

bool SatisfiesSignature(const TypeSignature& sig, graph::GraphView g,
                        const Extents& m, graph::ObjectId o) {
  for (const TypedLink& l : sig.links()) {
    bool ok = false;
    if (l.dir == Direction::kOutgoing) {
      for (const graph::HalfEdge& e : g.OutEdges(o)) {
        if (e.label != l.label) continue;
        if (l.target == kAtomicType ? g.IsAtomic(e.other)
                                    : m.Contains(l.target, e.other)) {
          ok = true;
          break;
        }
      }
    } else {
      for (const graph::HalfEdge& e : g.InEdges(o)) {
        if (e.label != l.label) continue;
        if (m.Contains(l.target, e.other)) {
          ok = true;
          break;
        }
      }
    }
    if (!ok) return false;
  }
  return true;
}

util::StatusOr<Extents> ComputeGfp(const TypingProgram& program,
                                   graph::GraphView g,
                                   GfpStats* stats,
                                   const ExecOptions& options) {
  SCHEMEX_RETURN_IF_ERROR(program.Validate());
  const size_t n = g.NumObjects();
  const size_t num_types = program.NumTypes();

  Extents m;
  m.per_type.assign(num_types, util::DenseBitset(n));

  // --- Step 1: label/direction prefilter. -------------------------------
  // For each complex object, collect its out- and in-label sets once, then
  // test every type's label requirements against them.
  GfpStats local_stats;
  {
    size_t candidates = 0;
    std::vector<graph::LabelId> out_labels, in_labels, out_atomic_labels;
    auto uniq = [](std::vector<graph::LabelId>& v) {
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
    };
    auto has = [](const std::vector<graph::LabelId>& v, graph::LabelId l) {
      return std::binary_search(v.begin(), v.end(), l);
    };
    for (graph::ObjectId o = 0; o < n; ++o) {
      if (o % kGfpCancelPollInterval == 0) {
        SCHEMEX_RETURN_IF_ERROR(options.Poll());
      }
      if (!g.IsComplex(o)) continue;
      out_labels.clear();
      in_labels.clear();
      // Track which labels also reach an atomic object (for ->l^0).
      out_atomic_labels.clear();
      for (const graph::HalfEdge& e : g.OutEdges(o)) {
        out_labels.push_back(e.label);
        if (g.IsAtomic(e.other)) out_atomic_labels.push_back(e.label);
      }
      for (const graph::HalfEdge& e : g.InEdges(o)) {
        in_labels.push_back(e.label);
      }
      uniq(out_labels);
      uniq(in_labels);
      uniq(out_atomic_labels);
      for (size_t t = 0; t < num_types; ++t) {
        bool candidate = true;
        for (const TypedLink& l :
             program.type(static_cast<TypeId>(t)).signature.links()) {
          bool present =
              l.dir == Direction::kOutgoing
                  ? (l.target == kAtomicType ? has(out_atomic_labels, l.label)
                                             : has(out_labels, l.label))
                  : has(in_labels, l.label);
          if (!present) {
            candidate = false;
            break;
          }
        }
        if (candidate) {
          m.per_type[t].Set(o);
          ++candidates;
        }
      }
    }
    local_stats.initial_candidates = candidates;
  }
  SCHEMEX_RETURN_IF_ERROR(options.Poll());

  // --- Step 2: worklist refinement. --------------------------------------
  DependencyIndex dependents = DependencyIndex::Build(program);

  // Initial full check of every candidate pair against the prefiltered
  // extents, in (type, object) order; the failures are removed (and the
  // worklist seeded) only after every pair has been checked. A pair that
  // passes here but loses its justification once the removals land is
  // caught by worklist propagation, so the fixpoint — which is unique —
  // does not depend on this order, but the stats counters do.
  std::deque<std::pair<graph::ObjectId, TypeId>> work;
  {
    std::vector<std::pair<graph::ObjectId, TypeId>> failed;
    size_t rechecks = 0;
    util::Status cancelled;
    for (size_t t = 0; t < num_types && cancelled.ok(); ++t) {
      const TypeSignature& sig = program.type(static_cast<TypeId>(t)).signature;
      m.per_type[t].ForEach([&](size_t o) {
        if (!cancelled.ok()) return;
        if (rechecks % kGfpCancelPollInterval == 0) {
          cancelled = options.Poll();
          if (!cancelled.ok()) return;
        }
        ++rechecks;
        if (!SatisfiesSignature(sig, g, m, static_cast<graph::ObjectId>(o))) {
          failed.emplace_back(static_cast<graph::ObjectId>(o),
                              static_cast<TypeId>(t));
        }
      });
    }
    SCHEMEX_RETURN_IF_ERROR(cancelled);
    local_stats.rechecks = rechecks;
    // Removing members only makes signatures harder to satisfy, so every
    // recorded failure still fails after earlier removals: clear directly.
    for (auto [o, t] : failed) {
      m.per_type[static_cast<size_t>(t)].Clear(o);
      ++local_stats.removed;
      work.emplace_back(o, t);
    }
  }
  SCHEMEX_RETURN_IF_ERROR(options.Poll());

  auto recheck = [&](graph::ObjectId o, TypeId t) {
    if (!m.per_type[static_cast<size_t>(t)].Test(o)) return;
    ++local_stats.rechecks;
    if (!SatisfiesSignature(program.type(t).signature, g, m, o)) {
      m.per_type[static_cast<size_t>(t)].Clear(o);
      ++local_stats.removed;
      work.emplace_back(o, t);
    }
  };

  size_t pops = 0;
  while (!work.empty()) {
    if (options.check_cancel && pops % kGfpCancelPollInterval == 0) {
      SCHEMEX_RETURN_IF_ERROR(options.check_cancel());
    }
    ++pops;
    auto [x, t_lost] = work.front();
    work.pop_front();
    // x left t_lost. A neighbor o with an OUTGOING l-edge to x depended on
    // key (kOutgoing, l, t_lost); a neighbor with an INCOMING l-edge from x
    // depended on key (kIncoming, l, t_lost).
    for (const graph::HalfEdge& e : g.InEdges(x)) {
      for (TypeId t :
           dependents.Lookup(Direction::kOutgoing, e.label, t_lost)) {
        recheck(e.other, t);
      }
    }
    for (const graph::HalfEdge& e : g.OutEdges(x)) {
      for (TypeId t :
           dependents.Lookup(Direction::kIncoming, e.label, t_lost)) {
        recheck(e.other, t);
      }
    }
  }

  if (stats != nullptr) *stats = local_stats;
  return m;
}

}  // namespace schemex::typing
