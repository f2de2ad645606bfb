#include "graph/data_graph.h"

#include <algorithm>
#include <cassert>

#include "graph/graph_view.h"
#include "util/string_util.h"

namespace schemex::graph {

namespace {

bool InsertSorted(std::vector<HalfEdge>& v, HalfEdge e) {
  auto it = std::lower_bound(v.begin(), v.end(), e);
  if (it != v.end() && *it == e) return false;
  v.insert(it, e);
  return true;
}

bool EraseSorted(std::vector<HalfEdge>& v, HalfEdge e) {
  auto it = std::lower_bound(v.begin(), v.end(), e);
  if (it == v.end() || *it != e) return false;
  v.erase(it);
  return true;
}

/// The touched copy of base row `o`, seeded from `base_row` on first use.
std::vector<HalfEdge>& TouchedRow(
    std::unordered_map<ObjectId, std::vector<HalfEdge>>& rows, ObjectId o,
    std::span<const HalfEdge> base_row) {
  auto [it, inserted] = rows.try_emplace(o);
  if (inserted) it->second.assign(base_row.begin(), base_row.end());
  return it->second;
}

}  // namespace

DataGraph::DataGraph(std::shared_ptr<const FrozenGraph> base)
    : base_(std::move(base)) {
  assert(base_ != nullptr);
  base_objects_ = base_->NumObjects();
  labels_ = base_->labels();
  num_complex_ = base_->NumComplexObjects();
  num_edges_ = base_->NumEdges();
}

std::vector<HalfEdge>& DataGraph::MutableOutRow(ObjectId o) {
  if (o >= base_objects_) return out_[o - base_objects_];
  return TouchedRow(touched_out_, o, base_->OutEdges(o));
}

std::vector<HalfEdge>& DataGraph::MutableInRow(ObjectId o) {
  if (o >= base_objects_) return in_[o - base_objects_];
  return TouchedRow(touched_in_, o, base_->InEdges(o));
}

void DataGraph::Touch(ObjectId o) {
  if (o < base_objects_ && IsComplex(o)) touched_log_.push_back(o);
}

ObjectId DataGraph::AddComplex(std::string_view name) {
  ObjectId id = static_cast<ObjectId>(NumObjects());
  kind_.push_back(Kind::kComplex);
  value_.emplace_back();
  name_.emplace_back(name);
  out_.emplace_back();
  in_.emplace_back();
  ++num_complex_;
  return id;
}

ObjectId DataGraph::AddAtomic(std::string_view value, std::string_view name) {
  ObjectId id = static_cast<ObjectId>(NumObjects());
  kind_.push_back(Kind::kAtomic);
  value_.emplace_back(value);
  name_.emplace_back(name);
  out_.emplace_back();
  in_.emplace_back();
  return id;
}

util::Status DataGraph::CheckIds(ObjectId from, ObjectId to) const {
  if (from >= NumObjects() || to >= NumObjects()) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "object id out of range (from=%u, to=%u, n=%zu)", from, to,
        NumObjects()));
  }
  return util::Status::OK();
}

util::Status DataGraph::AddEdge(ObjectId from, ObjectId to, LabelId label) {
  SCHEMEX_RETURN_IF_ERROR(CheckIds(from, to));
  if (label >= labels_.size()) {
    return util::Status::InvalidArgument("unknown label id");
  }
  if (IsAtomic(from)) {
    return util::Status::FailedPrecondition(
        "atomic objects cannot have outgoing edges");
  }
  if (!InsertSorted(MutableOutRow(from), HalfEdge{label, to})) {
    return util::Status::AlreadyExists(util::StringPrintf(
        "edge (%u -%s-> %u) already present", from,
        labels_.Name(label).c_str(), to));
  }
  InsertSorted(MutableInRow(to), HalfEdge{label, from});
  ++num_edges_;
  ++links_added_;
  Touch(from);
  Touch(to);
  return util::Status::OK();
}

util::Status DataGraph::AddEdge(ObjectId from, ObjectId to,
                                std::string_view label) {
  return AddEdge(from, to, labels_.Intern(label));
}

void DataGraph::MergeEdge(ObjectId from, ObjectId to, LabelId label) {
  util::Status st = AddEdge(from, to, label);
  assert(st.ok() || st.code() == util::StatusCode::kAlreadyExists);
  static_cast<void>(st);  // consumed by the assert; duplicates are benign
}

void DataGraph::MergeEdge(ObjectId from, ObjectId to, std::string_view label) {
  MergeEdge(from, to, labels_.Intern(label));
}

util::Status DataGraph::RemoveEdge(ObjectId from, ObjectId to, LabelId label) {
  SCHEMEX_RETURN_IF_ERROR(CheckIds(from, to));
  // Materializing a base row before knowing the edge exists is benign: a
  // touched copy of the base slice reads identically.
  if (!EraseSorted(MutableOutRow(from), HalfEdge{label, to})) {
    return util::Status::NotFound("edge not present");
  }
  EraseSorted(MutableInRow(to), HalfEdge{label, from});
  --num_edges_;
  ++links_deleted_;
  Touch(from);
  Touch(to);
  return util::Status::OK();
}

bool DataGraph::HasEdge(ObjectId from, ObjectId to, LabelId label) const {
  if (from >= NumObjects() || to >= NumObjects()) return false;
  std::span<const HalfEdge> row = OutEdges(from);
  return std::binary_search(row.begin(), row.end(), HalfEdge{label, to});
}

std::vector<ObjectId> DataGraph::TouchedComplexObjects() const {
  std::vector<ObjectId> out = touched_log_;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  // Added ids follow every base id, so appending keeps the order.
  for (ObjectId o = static_cast<ObjectId>(base_objects_); o < NumObjects();
       ++o) {
    if (IsComplex(o)) out.push_back(o);
  }
  return out;
}

util::Status DataGraph::Validate() const {
  if (base_ != nullptr && labels_.size() < base_->labels().size()) {
    return util::Status::Internal("label table shrank below the base");
  }
  return ValidateAdjacency(*this);
}

size_t DataGraph::MemoryUsage() const {
  auto string_bytes = [](const std::string& s) {
    // Small strings live inline in the object; only spilled buffers count
    // extra heap.
    return sizeof(std::string) +
           (s.capacity() > sizeof(std::string) ? s.capacity() : 0);
  };
  size_t bytes = kind_.capacity() * sizeof(Kind) +
                 (out_.capacity() + in_.capacity()) *
                     sizeof(std::vector<HalfEdge>) +
                 touched_log_.capacity() * sizeof(ObjectId);
  for (const std::string& v : value_) bytes += string_bytes(v);
  for (const std::string& n : name_) bytes += string_bytes(n);
  for (const auto& row : out_) bytes += row.capacity() * sizeof(HalfEdge);
  for (const auto& row : in_) bytes += row.capacity() * sizeof(HalfEdge);
  for (const auto* touched : {&touched_out_, &touched_in_}) {
    for (const auto& [o, row] : *touched) {
      bytes += sizeof(o) + sizeof(row) + 2 * sizeof(void*) +
               row.capacity() * sizeof(HalfEdge);
    }
  }
  for (size_t l = 0; l < labels_.size(); ++l) {
    bytes += string_bytes(labels_.Name(static_cast<LabelId>(l)));
  }
  return bytes;
}

}  // namespace schemex::graph
