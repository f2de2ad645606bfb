#include "graph/graph_io.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "graph/graph_builder.h"
#include "util/string_util.h"

namespace schemex::graph {

namespace {

// Appends `v` in double quotes with C-style \" \\ \n escapes; each run
// of plain characters is copied with one append.
void AppendQuoted(std::string_view v, std::string* out) {
  out->push_back('"');
  size_t run = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    char esc = 0;
    switch (v[i]) {
      case '"':
        esc = '"';
        break;
      case '\\':
        esc = '\\';
        break;
      case '\n':
        esc = 'n';
        break;
      default:
        continue;
    }
    out->append(v.substr(run, i - run));
    out->push_back('\\');
    out->push_back(esc);
    run = i + 1;
  }
  out->append(v.substr(run));
  out->push_back('"');
}

// Parses a quoted value starting at s[pos] == '"'. On success sets *out and
// returns the index one past the closing quote; returns npos on error.
size_t ParseQuoted(std::string_view s, size_t pos, std::string* out) {
  if (pos >= s.size() || s[pos] != '"') return std::string_view::npos;
  out->clear();
  for (size_t i = pos + 1; i < s.size(); ++i) {
    char c = s[i];
    if (c == '\\') {
      if (i + 1 >= s.size()) return std::string_view::npos;
      char n = s[++i];
      if (n == 'n') {
        out->push_back('\n');
      } else if (n == '"' || n == '\\') {
        out->push_back(n);
      } else {
        return std::string_view::npos;
      }
    } else if (c == '"') {
      return i + 1;
    } else {
      out->push_back(c);
    }
  }
  return std::string_view::npos;
}

/// Room for "_o" plus the decimal digits of any ObjectId.
using NameBuf = std::array<char, 16>;

// The object's name, or the synthesized "_o<id>" of an unnamed object
// (formatted into `buf`, which must outlive the returned view).
std::string_view DisplayName(GraphView g, ObjectId o, NameBuf& buf) {
  std::string_view n = g.Name(o);
  if (!n.empty()) return n;
  buf[0] = '_';
  buf[1] = 'o';
  char* end = std::to_chars(buf.data() + 2, buf.data() + buf.size(), o).ptr;
  return std::string_view(buf.data(), static_cast<size_t>(end - buf.data()));
}

}  // namespace

std::string WriteGraph(GraphView g) {
  const LabelInterner& labels = g.labels();
  // Canonical edge order: by label *name* (label ids depend on interning
  // order, which a round-trip does not preserve), then by target id, so
  // the text is identical regardless of builder insertion order. The
  // table is ranked by name once; each row then sorts on integer
  // (rank, target) keys, which order exactly as (name, target).
  std::vector<LabelId> by_rank(labels.size());
  std::iota(by_rank.begin(), by_rank.end(), LabelId{0});
  // DETERMINISM: interned names are unique, so comparing them is a total
  // order over label ids.
  std::sort(by_rank.begin(), by_rank.end(), [&](LabelId a, LabelId b) {
    return labels.Name(a) < labels.Name(b);
  });
  std::vector<uint64_t> rank(labels.size());
  for (size_t r = 0; r < by_rank.size(); ++r) rank[by_rank[r]] = r;

  std::string out = util::StringPrintf(
      "# schemex graph: %zu objects, %zu edges\n", g.NumObjects(),
      g.NumEdges());
  NameBuf from_buf{}, to_buf{};
  for (ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (g.IsAtomic(o)) {
      out += "atomic ";
      out += DisplayName(g, o, from_buf);
      out += ' ';
      AppendQuoted(g.Value(o), &out);
      out += '\n';
    } else {
      out += "complex ";
      out += DisplayName(g, o, from_buf);
      out += '\n';
    }
  }
  std::vector<uint64_t> keys;  // rank << 32 | target, one per out-edge
  for (ObjectId o = 0; o < g.NumObjects(); ++o) {
    std::span<const HalfEdge> edges = g.OutEdges(o);
    if (edges.empty()) continue;
    keys.clear();
    for (const HalfEdge& e : edges) {
      keys.push_back(rank[e.label] << 32 | e.other);
    }
    std::sort(keys.begin(), keys.end());
    const std::string_view from = DisplayName(g, o, from_buf);
    for (uint64_t key : keys) {
      out += "edge ";
      out += from;
      out += ' ';
      out += labels.Name(by_rank[key >> 32]);
      out += ' ';
      out += DisplayName(g, static_cast<ObjectId>(key), to_buf);
      out += '\n';
    }
  }
  return out;
}

util::StatusOr<DataGraph> ReadGraph(std::string_view text) {
  GraphBuilder builder;
  auto lines = util::Split(text, '\n');
  for (size_t ln = 0; ln < lines.size(); ++ln) {
    std::string_view line = util::Trim(lines[ln]);
    if (line.empty() || line[0] == '#') continue;
    auto fail = [&](const char* why) {
      return util::Status::ParseError(
          util::StringPrintf("line %zu: %s", ln + 1, why));
    };
    if (util::StartsWith(line, "atomic ")) {
      std::string_view rest = util::Trim(line.substr(7));
      size_t sp = rest.find_first_of(" \t");
      if (sp == std::string_view::npos) return fail("atomic needs a value");
      std::string name(util::Trim(rest.substr(0, sp)));
      std::string_view vpart = util::Trim(rest.substr(sp));
      std::string value;
      size_t end = ParseQuoted(vpart, 0, &value);
      if (end == std::string_view::npos ||
          !util::Trim(vpart.substr(end)).empty()) {
        return fail("malformed quoted value");
      }
      util::Status st = builder.Atomic(name, value);
      if (!st.ok()) return fail(st.message().c_str());
    } else if (util::StartsWith(line, "complex ")) {
      auto toks = util::SplitWhitespace(line);
      if (toks.size() != 2) return fail("complex takes exactly one name");
      util::Status st = builder.Complex(toks[1]);
      if (!st.ok()) return fail(st.message().c_str());
    } else if (util::StartsWith(line, "edge ")) {
      auto toks = util::SplitWhitespace(line);
      if (toks.size() != 4) return fail("edge takes <from> <label> <to>");
      util::Status st = builder.Edge(toks[1], toks[2], toks[3]);
      if (!st.ok()) return fail(st.message().c_str());
    } else {
      return fail("unknown directive");
    }
  }
  util::Status st;
  DataGraph g = std::move(builder).Build(&st);
  if (!st.ok()) return st;
  return g;
}

}  // namespace schemex::graph
