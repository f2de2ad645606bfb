#include "datalog/parser.h"

#include <cctype>
#include <map>
#include <vector>

#include "util/string_util.h"

namespace schemex::datalog {

namespace {

/// Token kinds of the rule language.
enum class Tok {
  kIdent,   // person, link, x_y
  kVar,     // X, Y1, _Foo, _
  kString,  // "is-manager-of"
  kLParen,
  kRParen,
  kComma,
  kTurnstile,  // :-
  kDot,
  kEnd,
};

struct Token {
  Tok kind;
  std::string text;
  size_t line;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  util::StatusOr<std::vector<Token>> Run() {
    std::vector<Token> out;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      if (c == '%' || c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      if (c == '(') {
        out.push_back({Tok::kLParen, "(", line_});
        ++pos_;
        continue;
      }
      if (c == ')') {
        out.push_back({Tok::kRParen, ")", line_});
        ++pos_;
        continue;
      }
      if (c == ',') {
        out.push_back({Tok::kComma, ",", line_});
        ++pos_;
        continue;
      }
      if (c == '.') {
        out.push_back({Tok::kDot, ".", line_});
        ++pos_;
        continue;
      }
      if (c == ':') {
        if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '-') {
          out.push_back({Tok::kTurnstile, ":-", line_});
          pos_ += 2;
          continue;
        }
        return Error("stray ':'");
      }
      if (c == '"') {
        size_t start = ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
          if (text_[pos_] == '\n') return Error("newline in string");
          ++pos_;
        }
        if (pos_ >= text_.size()) return Error("unterminated string");
        out.push_back(
            {Tok::kString, std::string(text_.substr(start, pos_ - start)),
             line_});
        ++pos_;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_' || text_[pos_] == '-')) {
          ++pos_;
        }
        std::string word(text_.substr(start, pos_ - start));
        bool is_var = std::isupper(static_cast<unsigned char>(word[0])) ||
                      word[0] == '_';
        out.push_back({is_var ? Tok::kVar : Tok::kIdent, std::move(word),
                       line_});
        continue;
      }
      return Error("unexpected character");
    }
    out.push_back({Tok::kEnd, "", line_});
    return out;
  }

 private:
  util::Status Error(const char* why) const {
    return util::Status::ParseError(
        util::StringPrintf("line %zu: %s", line_, why));
  }

  // OWNER: the ParseProgram() argument; the lexer is stack-local to one
  // parse and tokens borrow from the same buffer.
  std::string_view text_;
  size_t pos_ = 0;
  size_t line_ = 1;
};

class RuleParser {
 public:
  RuleParser(std::vector<Token> toks, graph::LabelInterner* labels)
      : toks_(std::move(toks)), labels_(labels) {}

  util::StatusOr<Program> Run() {
    while (Peek().kind != Tok::kEnd) {
      SCHEMEX_RETURN_IF_ERROR(ParseRule());
    }
    SCHEMEX_RETURN_IF_ERROR(program_.Validate());
    return std::move(program_);
  }

 private:
  const Token& Peek() const { return toks_[i_]; }
  Token Next() { return toks_[i_++]; }

  util::Status Error(const char* why) {
    return util::Status::ParseError(
        util::StringPrintf("line %zu: %s (near '%s')", Peek().line, why,
                           Peek().text.c_str()));
  }

  util::Status Expect(Tok kind, const char* what) {
    if (Peek().kind != kind) return Error(what);
    Next();
    return util::Status::OK();
  }

  PredId GetPred(const std::string& name) {
    PredId p = program_.FindPred(name);
    if (p >= 0) return p;
    return program_.AddPred(name);
  }

  Var GetVar(Rule* rule, std::map<std::string, Var>* vars,
             const std::string& name) {
    if (name == "_") return kAnonVar;
    auto it = vars->find(name);
    if (it != vars->end()) return it->second;
    Var v = rule->num_vars++;
    vars->emplace(name, v);
    return v;
  }

  util::Status ParseRule() {
    if (Peek().kind != Tok::kIdent) return Error("expected head predicate");
    std::string head = Next().text;
    if (head == "link" || head == "atomic") {
      return Error("'link'/'atomic' are reserved EDB names");
    }
    Rule rule;
    rule.head_pred = GetPred(head);
    rule.num_vars = 0;
    std::map<std::string, Var> vars;

    SCHEMEX_RETURN_IF_ERROR(Expect(Tok::kLParen, "expected '(' after head"));
    if (Peek().kind != Tok::kVar || Peek().text == "_") {
      return Error("head argument must be a named variable");
    }
    Var head_var = GetVar(&rule, &vars, Next().text);
    (void)head_var;  // always 0 by construction
    SCHEMEX_RETURN_IF_ERROR(Expect(Tok::kRParen, "expected ')'"));
    SCHEMEX_RETURN_IF_ERROR(Expect(Tok::kTurnstile, "expected ':-'"));

    // `true` alone is the empty body: PrintRule writes it for a type with
    // no links. The token after a non-end token always exists.
    if (Peek().kind == Tok::kIdent && Peek().text == "true" &&
        toks_[i_ + 1].kind == Tok::kDot) {
      Next();
    } else {
      for (;;) {
        SCHEMEX_RETURN_IF_ERROR(ParseAtom(&rule, &vars));
        if (Peek().kind != Tok::kComma) break;
        Next();
      }
    }
    SCHEMEX_RETURN_IF_ERROR(Expect(Tok::kDot, "expected '.' ending rule"));
    program_.rules.push_back(std::move(rule));
    return util::Status::OK();
  }

  util::Status ParseAtom(Rule* rule, std::map<std::string, Var>* vars) {
    if (Peek().kind != Tok::kIdent) return Error("expected atom");
    std::string name = Next().text;
    SCHEMEX_RETURN_IF_ERROR(Expect(Tok::kLParen, "expected '('"));
    if (name == "link") {
      if (Peek().kind != Tok::kVar) return Error("link arg 1 must be a var");
      Var from = GetVar(rule, vars, Next().text);
      SCHEMEX_RETURN_IF_ERROR(Expect(Tok::kComma, "expected ','"));
      if (Peek().kind != Tok::kVar) return Error("link arg 2 must be a var");
      Var to = GetVar(rule, vars, Next().text);
      SCHEMEX_RETURN_IF_ERROR(Expect(Tok::kComma, "expected ','"));
      if (Peek().kind != Tok::kString && Peek().kind != Tok::kIdent) {
        return Error("link label must be a string or identifier");
      }
      graph::LabelId label = labels_->Intern(Next().text);
      SCHEMEX_RETURN_IF_ERROR(Expect(Tok::kRParen, "expected ')'"));
      if (from == kAnonVar || to == kAnonVar) {
        return Error("link endpoints cannot be anonymous");
      }
      rule->body.push_back(Atom::Link(from, to, label));
      return util::Status::OK();
    }
    if (name == "atomic") {
      if (Peek().kind != Tok::kVar) return Error("atomic arg must be a var");
      Var obj = GetVar(rule, vars, Next().text);
      if (obj == kAnonVar) return Error("atomic object cannot be anonymous");
      Var value = kAnonVar;
      if (Peek().kind == Tok::kComma) {
        Next();
        if (Peek().kind != Tok::kVar) {
          return Error("atomic value must be a var");
        }
        value = GetVar(rule, vars, Next().text);
      }
      SCHEMEX_RETURN_IF_ERROR(Expect(Tok::kRParen, "expected ')'"));
      rule->body.push_back(Atom::Atomic(obj, value));
      return util::Status::OK();
    }
    // IDB atom.
    if (Peek().kind != Tok::kVar) return Error("idb arg must be a var");
    Var v = GetVar(rule, vars, Next().text);
    if (v == kAnonVar) return Error("idb argument cannot be anonymous");
    SCHEMEX_RETURN_IF_ERROR(Expect(Tok::kRParen, "expected ')'"));
    rule->body.push_back(Atom::Idb(GetPred(name), v));
    return util::Status::OK();
  }

  std::vector<Token> toks_;
  size_t i_ = 0;
  graph::LabelInterner* labels_;
  Program program_;
};

}  // namespace

util::StatusOr<Program> ParseProgram(std::string_view text,
                                     graph::LabelInterner* labels) {
  Lexer lexer(text);
  SCHEMEX_ASSIGN_OR_RETURN(std::vector<Token> toks, lexer.Run());
  RuleParser parser(std::move(toks), labels);
  return parser.Run();
}

}  // namespace schemex::datalog
