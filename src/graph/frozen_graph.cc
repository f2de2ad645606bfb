#include "graph/frozen_graph.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "graph/data_graph.h"
#include "graph/graph_view.h"
#include "util/string_util.h"

namespace schemex::graph {

namespace {

uint64_t NextGraphId() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

struct FrozenGraph::OwnedArrays {
  std::vector<uint64_t> out_off;
  std::vector<uint64_t> in_off;
  std::vector<uint64_t> text_off;
  std::vector<uint64_t> atomic_words;
  std::vector<HalfEdge> out_edges;
  std::vector<HalfEdge> in_edges;
  std::string arena;

  size_t HeapBytes() const {
    return (out_off.capacity() + in_off.capacity() + text_off.capacity() +
            atomic_words.capacity()) *
               sizeof(uint64_t) +
           (out_edges.capacity() + in_edges.capacity()) * sizeof(HalfEdge) +
           arena.capacity();
  }
};

FrozenGraph::FrozenGraph(const DataGraph& g) : id_(NextGraphId()) {
  const size_t n = g.NumObjects();
  num_objects_ = n;
  num_complex_ = g.NumComplexObjects();
  num_edges_ = g.NumEdges();

  // Interner copy: ids stay aligned with the source graph's edges, so a
  // typing program parsed against the DataGraph applies to the snapshot
  // unchanged.
  for (size_t l = 0; l < g.labels().size(); ++l) {
    labels_.Intern(g.labels().Name(static_cast<LabelId>(l)));
  }

  auto owned = std::make_shared<OwnedArrays>();
  owned->out_off.resize(n + 1);
  owned->in_off.resize(n + 1);
  owned->out_edges.reserve(num_edges_);
  owned->in_edges.reserve(num_edges_);
  owned->text_off.resize(2 * n + 1);
  owned->atomic_words.assign((n + 63) / 64, 0);

  size_t arena_bytes = 0;
  for (ObjectId o = 0; o < n; ++o) {
    arena_bytes += g.Value(o).size() + g.Name(o).size();
  }
  owned->arena.reserve(arena_bytes);

  for (ObjectId o = 0; o < n; ++o) {
    if (g.IsAtomic(o)) owned->atomic_words[o >> 6] |= 1ULL << (o & 63);
    owned->out_off[o] = owned->out_edges.size();
    owned->in_off[o] = owned->in_edges.size();
    auto out = g.OutEdges(o);
    auto in = g.InEdges(o);
    owned->out_edges.insert(owned->out_edges.end(), out.begin(), out.end());
    owned->in_edges.insert(owned->in_edges.end(), in.begin(), in.end());
    owned->text_off[2 * static_cast<size_t>(o)] = owned->arena.size();
    owned->arena += g.Value(o);
    owned->text_off[2 * static_cast<size_t>(o) + 1] = owned->arena.size();
    owned->arena += g.Name(o);
  }
  owned->out_off[n] = owned->out_edges.size();
  owned->in_off[n] = owned->in_edges.size();
  owned->text_off[2 * n] = owned->arena.size();

  out_off_ = owned->out_off;
  in_off_ = owned->in_off;
  text_off_ = owned->text_off;
  atomic_words_ = owned->atomic_words;
  out_edges_ = owned->out_edges;
  in_edges_ = owned->in_edges;
  arena_ = owned->arena;
  owned_bytes_ = owned->HeapBytes();
  backing_ = std::move(owned);
}

FrozenGraph::Parts FrozenGraph::parts() const {
  Parts p;
  p.out_off = out_off_;
  p.in_off = in_off_;
  p.text_off = text_off_;
  p.atomic_words = atomic_words_;
  p.out_edges = out_edges_;
  p.in_edges = in_edges_;
  p.arena = arena_;
  return p;
}

util::StatusOr<FrozenGraph> FrozenGraph::FromExternal(External parts) {
  const size_t n = parts.num_objects;
  const Parts& v = parts.views;
  auto invalid = [](std::string why) {
    return util::Status::InvalidArgument("frozen graph parts: " +
                                         std::move(why));
  };
  if (parts.num_complex > n) {
    return invalid("complex-object count exceeds object count");
  }
  if (v.out_off.size() != n + 1 || v.in_off.size() != n + 1) {
    return invalid(util::StringPrintf(
        "CSR offset arrays sized %zu/%zu, want %zu", v.out_off.size(),
        v.in_off.size(), n + 1));
  }
  if (v.text_off.size() != 2 * n + 1) {
    return invalid(util::StringPrintf("text offset array sized %zu, want %zu",
                                      v.text_off.size(), 2 * n + 1));
  }
  if (v.atomic_words.size() != (n + 63) / 64) {
    return invalid(util::StringPrintf("atomic bitset sized %zu words, want %zu",
                                      v.atomic_words.size(), (n + 63) / 64));
  }
  if (v.out_edges.size() != parts.num_edges ||
      v.in_edges.size() != parts.num_edges) {
    return invalid(util::StringPrintf(
        "edge arrays sized %zu/%zu, want %zu edges", v.out_edges.size(),
        v.in_edges.size(), parts.num_edges));
  }
  if (v.out_off[n] != parts.num_edges || v.in_off[n] != parts.num_edges) {
    return invalid("CSR offset terminator does not equal the edge count");
  }
  if (v.text_off[2 * n] != v.arena.size()) {
    return invalid("text offset terminator does not equal the arena size");
  }
  for (size_t i = 0; i < n; ++i) {
    if (v.out_off[i] > v.out_off[i + 1] || v.in_off[i] > v.in_off[i + 1]) {
      return invalid(util::StringPrintf("CSR offsets not monotone at %zu", i));
    }
  }
  for (size_t i = 0; i < 2 * n; ++i) {
    if (v.text_off[i] > v.text_off[i + 1]) {
      return invalid(util::StringPrintf("arena offsets not monotone at %zu", i));
    }
  }
  if (n % 64 != 0 && !v.atomic_words.empty() &&
      (v.atomic_words.back() & ~((1ULL << (n % 64)) - 1)) != 0) {
    return invalid("atomic bitset has set bits past the object count");
  }
  size_t atomic_count = 0;
  for (uint64_t w : v.atomic_words) {
    atomic_count += static_cast<size_t>(__builtin_popcountll(w));
  }
  if (atomic_count != n - parts.num_complex) {
    return invalid(util::StringPrintf(
        "atomic bitset population %zu disagrees with header counts %zu",
        atomic_count, n - parts.num_complex));
  }

  FrozenGraph g;
  g.id_ = NextGraphId();
  g.labels_ = std::move(parts.labels);
  g.num_objects_ = n;
  g.num_complex_ = parts.num_complex;
  g.num_edges_ = parts.num_edges;
  g.out_off_ = v.out_off;
  g.in_off_ = v.in_off;
  g.text_off_ = v.text_off;
  g.atomic_words_ = v.atomic_words;
  g.out_edges_ = v.out_edges;
  g.in_edges_ = v.in_edges;
  g.arena_ = v.arena;
  g.backing_ = std::move(parts.backing);
  g.owned_bytes_ = parts.owned_bytes;
  g.mapped_bytes_ = parts.mapped_bytes;
  return g;
}

bool FrozenGraph::HasEdge(ObjectId from, ObjectId to, LabelId label) const {
  if (from >= num_objects_ || to >= num_objects_) return false;
  auto row = OutEdges(from);
  return std::binary_search(row.begin(), row.end(), HalfEdge{label, to});
}

util::Status FrozenGraph::Validate() const {
  const size_t n = num_objects_;
  if (out_off_.size() != n + 1 || in_off_.size() != n + 1 ||
      text_off_.size() != 2 * n + 1) {
    return util::Status::Internal("offset array size mismatch");
  }
  if (atomic_words_.size() != (n + 63) / 64) {
    return util::Status::Internal("atomic bitset size mismatch");
  }
  if (out_off_[n] != out_edges_.size() || in_off_[n] != in_edges_.size() ||
      text_off_[2 * n] != arena_.size()) {
    return util::Status::Internal("offset terminator out of sync");
  }
  for (size_t i = 0; i < out_off_.size() - 1; ++i) {
    if (out_off_[i] > out_off_[i + 1] || in_off_[i] > in_off_[i + 1]) {
      return util::Status::Internal("CSR offsets not monotone");
    }
  }
  for (size_t i = 0; i < text_off_.size() - 1; ++i) {
    if (text_off_[i] > text_off_[i + 1]) {
      return util::Status::Internal("arena offsets not monotone");
    }
  }
  return ValidateAdjacency(*this);
}

size_t FrozenGraph::MemoryUsage() const {
  size_t labels_bytes = 0;
  for (size_t l = 0; l < labels_.size(); ++l) {
    labels_bytes += labels_.Name(static_cast<LabelId>(l)).capacity() +
                    sizeof(std::string);
  }
  return owned_bytes_ + labels_bytes;
}

std::shared_ptr<const FrozenGraph> Freeze(const DataGraph& g) {
  return std::make_shared<const FrozenGraph>(g);
}

}  // namespace schemex::graph
