#include "datalog/printer.h"

#include "util/string_util.h"

namespace schemex::datalog {

namespace {

std::string VarName(Var v) {
  if (v == kAnonVar) return "_";
  if (v == kHeadVar) return "X";
  return util::StringPrintf("V%d", v);
}

}  // namespace

std::string PrintRule(const Rule& rule, const Program& program,
                      const graph::LabelInterner& labels) {
  std::string out = program.pred_names[rule.head_pred] + "(X) :- ";
  if (rule.body.empty()) out += "true";  // ParseProgram reads it back
  for (size_t i = 0; i < rule.body.size(); ++i) {
    const Atom& a = rule.body[i];
    if (i > 0) out += ", ";
    switch (a.kind) {
      case Atom::Kind::kLink:
        out += util::StringPrintf("link(%s, %s, \"%s\")",
                                  VarName(a.arg0).c_str(),
                                  VarName(a.arg1).c_str(),
                                  labels.Name(a.label).c_str());
        break;
      case Atom::Kind::kAtomic:
        if (a.arg1 == kAnonVar) {
          out += util::StringPrintf("atomic(%s)", VarName(a.arg0).c_str());
        } else {
          out += util::StringPrintf("atomic(%s, %s)", VarName(a.arg0).c_str(),
                                    VarName(a.arg1).c_str());
        }
        break;
      case Atom::Kind::kIdb:
        out += util::StringPrintf("%s(%s)",
                                  program.pred_names[a.pred].c_str(),
                                  VarName(a.arg0).c_str());
        break;
    }
  }
  out += ".";
  return out;
}

std::string PrintProgram(const Program& program,
                         const graph::LabelInterner& labels) {
  std::string out;
  for (const Rule& r : program.rules) {
    out += PrintRule(r, program, labels);
    out += '\n';
  }
  return out;
}

}  // namespace schemex::datalog
