#ifndef SCHEMEX_TYPING_TYPING_PROGRAM_H_
#define SCHEMEX_TYPING_TYPING_PROGRAM_H_

#include <string>
#include <vector>

#include "datalog/ast.h"
#include "graph/label.h"
#include "typing/type_signature.h"
#include "util/statusor.h"

namespace schemex::typing {

/// One type of a typing program: a name plus its rule body (signature).
struct TypeDef {
  std::string name;
  TypeSignature signature;

  friend bool operator==(const TypeDef&, const TypeDef&) = default;
};

/// The paper's restricted typing language: a monadic datalog program with
/// exactly one rule per IDB whose body is a set of typed links (§2
/// "Syntax"). TypeIds are dense indices into `types()`.
class TypingProgram {
 public:
  TypingProgram() = default;

  /// Adds a type and returns its id. Names are display-only; duplicates
  /// are allowed but confusing.
  TypeId AddType(std::string name, TypeSignature signature);

  size_t NumTypes() const { return types_.size(); }
  const TypeDef& type(TypeId t) const { return types_[static_cast<size_t>(t)]; }
  TypeDef& type(TypeId t) { return types_[static_cast<size_t>(t)]; }
  const std::vector<TypeDef>& types() const { return types_; }

  /// First type with this name, or kInvalidType.
  TypeId FindType(const std::string& name) const;

  /// Total number of typed links over all rule bodies — the paper's "size
  /// of the typing" measure.
  size_t TotalTypedLinks() const;

  /// Number of *distinct* typed links across the program: the paper's L,
  /// the dimensionality of the clustering hypercube (§5.2).
  size_t NumDistinctTypedLinks() const;

  /// Structural checks: targets in range or kAtomicType; incoming links
  /// never target kAtomicType.
  util::Status Validate() const;

  /// Lowers to an equivalent generic datalog program (one rule per type;
  /// typed links become link/atomic/IDB conjuncts). Labels stay shared
  /// with the DataGraph's interner.
  datalog::Program ToDatalog() const;

  /// Lifts a datalog program in the restricted form back into a
  /// TypingProgram; fails with InvalidArgument if any rule is outside the
  /// paper's typed-link fragment (multiple rules per head, shared body
  /// variables, non-head-anchored atoms...). Type ids follow rule order,
  /// so FromDatalog(p.ToDatalog()) == p; predicates with no rule come
  /// after, with empty signatures.
  static util::StatusOr<TypingProgram> FromDatalog(
      const datalog::Program& program);

  /// Paper-style listing:
  ///   person : 1 = <-member^2, ->name^0
  /// with 1-based ids, matching Figure 1's presentation.
  std::string ToString(const graph::LabelInterner& labels) const;

  friend bool operator==(const TypingProgram&, const TypingProgram&) = default;

 private:
  std::vector<TypeDef> types_;
};

}  // namespace schemex::typing

#endif  // SCHEMEX_TYPING_TYPING_PROGRAM_H_
