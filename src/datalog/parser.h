#ifndef SCHEMEX_DATALOG_PARSER_H_
#define SCHEMEX_DATALOG_PARSER_H_

#include <string>
#include <string_view>

#include "datalog/ast.h"
#include "graph/label.h"
#include "util/statusor.h"

namespace schemex::datalog {

/// Parses a textual monadic datalog program. Grammar (one rule per line,
/// '%' or '#' start comments):
///
///   person(X) :- link(X, Y, "is-manager-of"), firm(Y),
///                link(X, Z, name), atomic(Z).
///
/// * Variables are identifiers starting with an uppercase letter or '_'
///   ('_' alone is the anonymous variable, allowed only as the value
///   argument of atomic/2).
/// * Labels are quoted strings or bare lowercase identifiers; they are
///   interned into `labels` (shared with the DataGraph the program will
///   run on).
/// * Predicates are bare lowercase identifiers; `link` and `atomic` are
///   reserved for the EDBs.
/// * A rule may span lines; the terminating '.' ends it.
/// * `t(X) :- true.` is a rule with an empty body (a type with no links,
///   as datalog::PrintRule writes it).
///
/// Every IDB mentioned anywhere becomes a predicate of the program;
/// predicates without rules have empty GFP/LFP extents.
util::StatusOr<Program> ParseProgram(std::string_view text,
                                     graph::LabelInterner* labels);

}  // namespace schemex::datalog

#endif  // SCHEMEX_DATALOG_PARSER_H_
