#include "typing/typing_program.h"

#include <set>

#include "util/string_util.h"

namespace schemex::typing {

TypeId TypingProgram::AddType(std::string name, TypeSignature signature) {
  types_.push_back(TypeDef{std::move(name), std::move(signature)});
  return static_cast<TypeId>(types_.size()) - 1;
}

TypeId TypingProgram::FindType(const std::string& name) const {
  for (size_t i = 0; i < types_.size(); ++i) {
    if (types_[i].name == name) return static_cast<TypeId>(i);
  }
  return kInvalidType;
}

size_t TypingProgram::TotalTypedLinks() const {
  size_t n = 0;
  for (const TypeDef& t : types_) n += t.signature.size();
  return n;
}

size_t TypingProgram::NumDistinctTypedLinks() const {
  std::set<TypedLink> distinct;
  for (const TypeDef& t : types_) {
    for (const TypedLink& l : t.signature.links()) distinct.insert(l);
  }
  return distinct.size();
}

util::Status TypingProgram::Validate() const {
  for (size_t i = 0; i < types_.size(); ++i) {
    for (const TypedLink& l : types_[i].signature.links()) {
      if (l.target != kAtomicType &&
          (l.target < 0 || l.target >= static_cast<TypeId>(types_.size()))) {
        return util::Status::InvalidArgument(util::StringPrintf(
            "type %zu: typed-link target %d out of range", i, l.target));
      }
      if (l.dir == Direction::kIncoming && l.target == kAtomicType) {
        return util::Status::InvalidArgument(util::StringPrintf(
            "type %zu: incoming link from atomic objects is impossible", i));
      }
    }
  }
  return util::Status::OK();
}

datalog::Program TypingProgram::ToDatalog() const {
  datalog::Program p;
  for (const TypeDef& t : types_) p.AddPred(t.name);
  for (size_t i = 0; i < types_.size(); ++i) {
    datalog::Rule rule;
    rule.head_pred = static_cast<datalog::PredId>(i);
    rule.num_vars = 1;
    for (const TypedLink& l : types_[i].signature.links()) {
      datalog::Var y = rule.num_vars++;
      if (l.dir == Direction::kIncoming) {
        rule.body.push_back(datalog::Atom::Link(y, datalog::kHeadVar, l.label));
        rule.body.push_back(
            datalog::Atom::Idb(static_cast<datalog::PredId>(l.target), y));
      } else if (l.target == kAtomicType) {
        rule.body.push_back(datalog::Atom::Link(datalog::kHeadVar, y, l.label));
        rule.body.push_back(datalog::Atom::Atomic(y));
      } else {
        rule.body.push_back(datalog::Atom::Link(datalog::kHeadVar, y, l.label));
        rule.body.push_back(
            datalog::Atom::Idb(static_cast<datalog::PredId>(l.target), y));
      }
    }
    p.rules.push_back(std::move(rule));
  }
  return p;
}

util::StatusOr<TypingProgram> TypingProgram::FromDatalog(
    const datalog::Program& program) {
  SCHEMEX_RETURN_IF_ERROR(program.Validate());
  // Types are numbered in rule order, the order ToDatalog emits them,
  // then body-only predicates. Predicate ids follow first mention, which
  // differs as soon as a rule names a type whose rule comes later.
  TypingProgram out;
  std::vector<TypeId> type_of(program.num_preds(), kInvalidType);
  for (const datalog::Rule& rule : program.rules) {
    TypeId& t = type_of[static_cast<size_t>(rule.head_pred)];
    if (t != kInvalidType) {
      return util::Status::InvalidArgument(
          "typing programs allow one rule per type");
    }
    t = out.AddType(program.pred_names[rule.head_pred], TypeSignature());
  }
  for (size_t p = 0; p < program.num_preds(); ++p) {
    if (type_of[p] == kInvalidType) {
      type_of[p] = out.AddType(program.pred_names[p], TypeSignature());
    }
  }
  for (const datalog::Rule& rule : program.rules) {
    // Each non-head variable must be "used" by exactly one link atom
    // anchored at the head var plus at most one classifying atom
    // (idb or atomic). Reconstruct typed links variable by variable.
    struct VarInfo {
      const datalog::Atom* link = nullptr;
      const datalog::Atom* classify = nullptr;  // idb or atomic
    };
    std::vector<VarInfo> info(static_cast<size_t>(rule.num_vars));
    for (const datalog::Atom& a : rule.body) {
      switch (a.kind) {
        case datalog::Atom::Kind::kLink: {
          bool head_from = a.arg0 == datalog::kHeadVar;
          bool head_to = a.arg1 == datalog::kHeadVar;
          if (head_from == head_to) {
            return util::Status::InvalidArgument(
                "typed links connect the head variable to one other "
                "variable");
          }
          datalog::Var other = head_from ? a.arg1 : a.arg0;
          VarInfo& vi = info[static_cast<size_t>(other)];
          if (vi.link != nullptr) {
            return util::Status::InvalidArgument(
                "variable used by more than one link atom");
          }
          vi.link = &a;
          break;
        }
        case datalog::Atom::Kind::kAtomic:
        case datalog::Atom::Kind::kIdb: {
          if (a.arg0 == datalog::kHeadVar) {
            return util::Status::InvalidArgument(
                "head variable cannot be classified inside the body");
          }
          VarInfo& vi = info[static_cast<size_t>(a.arg0)];
          if (vi.classify != nullptr) {
            return util::Status::InvalidArgument(
                "variable classified more than once");
          }
          vi.classify = &a;
          break;
        }
      }
    }
    std::vector<TypedLink> links;
    for (datalog::Var v = 1; v < rule.num_vars; ++v) {
      const VarInfo& vi = info[static_cast<size_t>(v)];
      if (vi.link == nullptr || vi.classify == nullptr) {
        return util::Status::InvalidArgument(
            "every body variable needs one link and one classifying atom");
      }
      const datalog::Atom& link = *vi.link;
      const datalog::Atom& cls = *vi.classify;
      bool outgoing = link.arg0 == datalog::kHeadVar;
      if (cls.kind == datalog::Atom::Kind::kAtomic) {
        if (!outgoing) {
          return util::Status::InvalidArgument(
              "incoming links from atomic objects are impossible");
        }
        links.push_back(TypedLink::OutAtomic(link.label));
      } else {
        TypeId target = type_of[static_cast<size_t>(cls.pred)];
        links.push_back(outgoing ? TypedLink::Out(link.label, target)
                                 : TypedLink::In(link.label, target));
      }
    }
    out.type(type_of[static_cast<size_t>(rule.head_pred)]).signature =
        TypeSignature::FromLinks(std::move(links));
  }
  return out;
}

std::string TypingProgram::ToString(const graph::LabelInterner& labels) const {
  std::string out;
  for (size_t i = 0; i < types_.size(); ++i) {
    out += util::StringPrintf("%s : %zu = %s\n", types_[i].name.c_str(), i + 1,
                              types_[i].signature.ToString(labels).c_str());
  }
  return out;
}

}  // namespace schemex::typing
