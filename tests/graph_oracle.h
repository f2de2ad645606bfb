#ifndef SCHEMEX_TESTS_GRAPH_ORACLE_H_
#define SCHEMEX_TESTS_GRAPH_ORACLE_H_

#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "graph/graph_view.h"
#include "util/status.h"

namespace schemex::test {

// The paper's §2 data model written as plainly as possible: object kinds,
// atomic values, display names, a label table, and link(From, To, Label)
// as a set of (from, label, to) triples. Mutations return the Status
// codes graph::DataGraph documents. Both DataGraph paths, built from
// nothing and layered over a FrozenGraph, must answer every read and
// every status exactly as this model does (tests/delta_overlay_test.cc).
class GraphOracle {
 public:
  using Link = std::tuple<graph::ObjectId, graph::LabelId, graph::ObjectId>;

  GraphOracle() = default;

  /// Seeds the model with everything `g` holds.
  explicit GraphOracle(graph::GraphView g) {
    for (size_t l = 0; l < g.labels().size(); ++l) {
      labels_.push_back(g.labels().Name(static_cast<graph::LabelId>(l)));
    }
    for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
      atomic_.push_back(g.IsAtomic(o));
      values_.emplace_back(g.Value(o));
      names_.emplace_back(g.Name(o));
      for (const graph::HalfEdge& e : g.OutEdges(o)) {
        links_.insert({o, e.label, e.other});
      }
    }
  }

  graph::ObjectId AddComplex(std::string_view name = "") {
    return Add(false, "", name);
  }
  graph::ObjectId AddAtomic(std::string_view value,
                            std::string_view name = "") {
    return Add(true, value, name);
  }

  util::Status AddEdge(graph::ObjectId from, graph::ObjectId to,
                       graph::LabelId label) {
    if (from >= NumObjects() || to >= NumObjects() ||
        label >= labels_.size()) {
      return util::Status::InvalidArgument("out of range");
    }
    if (atomic_[from]) return util::Status::FailedPrecondition("atomic");
    if (!links_.insert({from, label, to}).second) {
      return util::Status::AlreadyExists("duplicate");
    }
    return util::Status::OK();
  }

  util::Status AddEdge(graph::ObjectId from, graph::ObjectId to,
                       std::string_view label) {
    return AddEdge(from, to, Intern(label));
  }

  util::Status RemoveEdge(graph::ObjectId from, graph::ObjectId to,
                          graph::LabelId label) {
    if (from >= NumObjects() || to >= NumObjects()) {
      return util::Status::InvalidArgument("out of range");
    }
    if (links_.erase({from, label, to}) == 0) {
      return util::Status::NotFound("absent");
    }
    return util::Status::OK();
  }

  size_t NumObjects() const { return atomic_.size(); }
  size_t NumAtomicObjects() const {
    size_t n = 0;
    for (bool a : atomic_) n += a ? 1 : 0;
    return n;
  }
  size_t NumEdges() const { return links_.size(); }
  bool IsAtomic(graph::ObjectId o) const { return atomic_[o]; }
  const std::string& Value(graph::ObjectId o) const { return values_[o]; }
  const std::string& Name(graph::ObjectId o) const { return names_[o]; }
  const std::vector<std::string>& labels() const { return labels_; }
  const std::set<Link>& links() const { return links_; }

  /// `o`'s outgoing (label, to) pairs, sorted.
  std::vector<graph::HalfEdge> OutRow(graph::ObjectId o) const {
    std::vector<graph::HalfEdge> row;
    for (auto it = links_.lower_bound({o, 0, 0});
         it != links_.end() && std::get<0>(*it) == o; ++it) {
      row.push_back({std::get<1>(*it), std::get<2>(*it)});
    }
    return row;
  }

  /// `o`'s incoming (label, from) pairs, sorted.
  std::vector<graph::HalfEdge> InRow(graph::ObjectId o) const {
    std::set<graph::HalfEdge> row;
    for (const auto& [from, label, to] : links_) {
      if (to == o) row.insert({label, from});
    }
    return {row.begin(), row.end()};
  }

 private:
  graph::ObjectId Add(bool atomic, std::string_view value,
                      std::string_view name) {
    atomic_.push_back(atomic);
    values_.emplace_back(value);
    names_.emplace_back(name);
    return static_cast<graph::ObjectId>(atomic_.size() - 1);
  }

  graph::LabelId Intern(std::string_view name) {
    for (size_t l = 0; l < labels_.size(); ++l) {
      if (labels_[l] == name) return static_cast<graph::LabelId>(l);
    }
    labels_.emplace_back(name);
    return static_cast<graph::LabelId>(labels_.size() - 1);
  }

  std::vector<bool> atomic_;
  std::vector<std::string> values_;
  std::vector<std::string> names_;
  std::vector<std::string> labels_;
  std::set<Link> links_;
};

}  // namespace schemex::test

#endif  // SCHEMEX_TESTS_GRAPH_ORACLE_H_
