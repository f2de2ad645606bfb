#ifndef SCHEMEX_GRAPH_LABEL_H_
#define SCHEMEX_GRAPH_LABEL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace schemex::graph {

/// Dense integer id of an edge label. Labels are interned per graph so
/// that all algorithms compare labels as integers. Freeze() copies a
/// DataGraph's table into its FrozenGraph, and a DataGraph layered over
/// that snapshot starts from a copy of it, so ids carry over unchanged
/// and fresh labels extend the table.
using LabelId = uint32_t;

/// Sentinel for "no such label".
inline constexpr LabelId kInvalidLabel = static_cast<LabelId>(-1);

/// Bidirectional string <-> dense-id map for edge labels.
///
/// Ids are assigned contiguously from 0 in first-intern order, so a
/// LabelInterner with n labels has exactly the ids [0, n).
class LabelInterner {
 public:
  /// Returns the id of `name`, interning it if new.
  LabelId Intern(std::string_view name);

  /// Returns the id of `name` or kInvalidLabel if it was never interned.
  LabelId Find(std::string_view name) const;

  /// Returns the string for `id`. Requires id < size().
  const std::string& Name(LabelId id) const { return names_[id]; }

  size_t size() const { return names_.size(); }

 private:
  std::unordered_map<std::string, LabelId> index_;
  std::vector<std::string> names_;
};

}  // namespace schemex::graph

#endif  // SCHEMEX_GRAPH_LABEL_H_
